import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crpstail
from crpstail import FORECASTERS, simulate_forecasters


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def ge_small():
    """GE batches for all four forecasters, shared observation stream."""
    return simulate_forecasters("ge", FORECASTERS, 20_000, seed=3)


@pytest.fixture(scope="session")
def nn_small():
    return simulate_forecasters("nn", FORECASTERS, 20_000, seed=3)


@pytest.fixture(scope="session")
def python_stdout():
    """Run code in a fresh interpreter against this package; return its stdout."""
    src = str(Path(crpstail.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(code: str) -> str:
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, check=True)
        return r.stdout.strip()

    return run
