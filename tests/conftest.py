import numpy as np
import pytest

from coinwalk import WaveFunction, _csvtext, hadamard_switched, random_coin
from coinwalk.verify import run_verification


@pytest.fixture
def hadamard():
    return hadamard_switched()


@pytest.fixture(scope="session")
def full_verify():
    """Every registry check in full mode at seed 0, run once per session."""
    return run_verification(0, False)


@pytest.fixture
def origin_right():
    """The walker at the origin with right chirality."""
    return WaveFunction.qubit(0.0, 1.0)


def seeded_coins(count, seed=0):
    rng = np.random.default_rng(seed)
    return [random_coin(rng) for _ in range(count)]


def written_json(value):
    """The whole text ``_csvtext.write_json`` writes for ``value``, less its final newline."""
    return "".join(_csvtext._json_chunks(value))
