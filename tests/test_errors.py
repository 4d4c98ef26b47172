import math

import numpy as np
import pytest

from weylcheck.errors import location, worst


class TestWorst:
    def test_sup_index_and_pass(self):
        assert worst(np.array([0.1, 0.3, 0.2]), 0.3) == (1, 0.3, True)
        assert worst(np.array([0.1, 0.3, 0.2]), 0.25) == (1, 0.3, False)

    def test_ties_pick_the_first_index(self):
        assert worst(np.array([0.0, 2.0, 1.0, 2.0]), 5.0)[0] == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_fails_whatever_the_tolerance(self, bad):
        idx, sup, passed = worst(np.array([1.0, bad, 2.0, bad]), math.inf)
        assert idx == 1 and not passed
        assert math.isnan(sup) if np.isnan(bad) else sup == math.inf

    def test_sup_is_the_value_at_the_index(self):
        values = np.array([[3.0, -1.0], [7.5, 2.0]])
        idx, sup, _ = worst(values, 1.0)
        assert sup == values.ravel()[idx] == 7.5
        assert isinstance(sup, float)


def test_location_is_plain():
    where = location(np.int64(1), np.array([0.5, -0.25, 0.0]))
    assert where == {"chart": 1, "coords": [0.5, -0.25, 0.0]}
    assert type(where["chart"]) is int
    assert all(type(c) is float for c in where["coords"])
