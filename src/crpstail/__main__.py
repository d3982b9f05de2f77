"""The command line's one entry point: ``python -m crpstail`` and the
``crpstail`` console script.

numpy's and scipy's OpenBLAS each start a worker thread per extra CPU when
they load, and the workers spin before they sleep. The command line makes no
BLAS call, so those threads only burn CPU; it runs OpenBLAS on one thread
unless ``OPENBLAS_NUM_THREADS`` is already set. The variable is read when
numpy loads, so it is set before :mod:`crpstail.cli` is imported.
"""

import os
import sys


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
