"""weylcheck._rng against numpy.random, bit for bit.

numpy.random is imported here only: the program draws from the port, and
these tests pin the port to numpy's stream on whatever numpy is installed
(CI runs them on the latest numpy and on the 1.24 floor).
"""

import numpy as np
import pytest

from weylcheck import _rng

# the seeds radial_graph_random draws with in tests, benchmark and calibration
IN_USE = {str(seed): seed for seed in (11, 23, 37, 42, 53, 77, 123)}
# 2, 3, 7 and 42 32-bit words: seeds of more than 4 words run the pool's
# second mixing loop
MULTI_WORD = {"2**32": 2**32, "2**64+5": 2**64 + 5, "2**200+12345": 2**200 + 12345,
              "10**400": 10**400}


def bits(values):
    return np.asarray(values, dtype=float).reshape(4, 4).view(np.uint64)


def numpy_bits(seed):
    from numpy.random import default_rng
    return default_rng(seed).uniform(-1.0, 1.0, size=(4, 4)).view(np.uint64)


def test_small_seeds_match_numpy():
    for seed in range(500):
        assert np.array_equal(bits(_rng.uniform(seed, 16)), numpy_bits(seed)), seed


@pytest.mark.parametrize("seed", [*IN_USE.values(), *MULTI_WORD.values()],
                         ids=[*IN_USE, *MULTI_WORD])
def test_seed_matches_numpy(seed):
    assert np.array_equal(bits(_rng.uniform(seed, 16)), numpy_bits(seed))


def test_negative_seed_raises():
    with pytest.raises(ValueError):
        _rng.uniform(-1, 16)
