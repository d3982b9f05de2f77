"""Starts the benchmark's child processes from a small interpreter.

    python3 bench/spawner.py      (driven over stdin/stdout by run.Runner)

Linux carries the peak RSS of the address space a process had before
``exec`` into the ``ru_maxrss`` it reports, and a child started with
``vfork``/``fork`` begins in its parent's address space. Started from the
benchmark's main process (``run.py``), which holds numpy, scipy and checked
outputs in memory, every child's peak RSS would read at least that
process's. This one imports only the standard library, so the peak RSS of
the children it starts is their own.

Protocol: one JSON request per line on stdin,
``{"argv", "cwd", "env", "stdout", "stderr", "timeout_s"}``, answered by one
JSON line ``{"wall_s", "cpu_s", "returncode", "maxrss_kb"}``, where
``cpu_s`` is the child's user plus system CPU time. A child still running
after ``timeout_s`` is killed. The spawner exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(req["timeout_s"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    # reaped by wait4 above; tell Popen so it never waits on the pid again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "returncode": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
