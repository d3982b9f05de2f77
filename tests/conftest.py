import numpy as np
import pytest

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
