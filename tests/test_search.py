"""Tests of the shared 1-d minimizers in cvoodg._search."""

import math

import pytest

from cvoodg._search import first_min, golden_section_min, grid_seeded_log_min


def reevaluating_grid_seeded_log_min(f, lo, hi, grid_points=20, tol=1e-4):
    """The grid-seeded search as it was before the bracket ends were served
    from the grid: golden_section_min evaluates f at both ends once more."""
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    log_lo, log_hi = math.log(lo), math.log(hi)
    step = (log_hi - log_lo) / (grid_points - 1)
    grid = [log_lo + i * step for i in range(grid_points)]
    values = [f(math.exp(g)) for g in grid]
    i_best = min(range(grid_points), key=lambda i: (values[i], i))
    a = grid[max(i_best - 1, 0)]
    b = grid[min(i_best + 1, grid_points - 1)]
    x_log, val = golden_section_min(lambda g: f(math.exp(g)), a, b, tol=tol)
    if values[i_best] < val:
        return math.exp(grid[i_best]), values[i_best]
    return math.exp(x_log), val


def recording(f):
    """f, and the list of arguments it is called with."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


TEST_FUNCTIONS = {
    "interior": lambda s: (math.log(s) - math.log(1e-3)) ** 2,
    "left_edge": lambda s: s,
    "right_edge": lambda s: -s,
    "universal_like": lambda s: 1e-3 / s ** 0.5 + 4.0 * math.sqrt(3.0 * s),
    "flat": lambda s: 1.0,
    "kinked": lambda s: abs(math.log(s) + 5.0) + 0.1 * s,
}
RANGES = ((1e-8, 0.499), (1e-3, 10.0), (0.5, 0.6))


class TestGridSeededLogMin:
    def test_interior_argmin(self):
        s, val = grid_seeded_log_min(TEST_FUNCTIONS["interior"], 1e-8, 0.499)
        assert s == pytest.approx(1e-3, rel=1e-3)
        assert val <= 1e-6

    def test_argmin_at_left_edge(self):
        s, val = grid_seeded_log_min(lambda s: s, 1e-8, 0.499)
        assert s == pytest.approx(1e-8)
        assert val == s

    def test_argmin_at_right_edge(self):
        s, val = grid_seeded_log_min(lambda s: -s, 1e-8, 0.499)
        assert s == pytest.approx(0.499)
        assert val == -s

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 1.0), (0.5, 0.5), (0.6, 0.5)])
    def test_rejects_bad_window(self, lo, hi):
        with pytest.raises(ValueError):
            grid_seeded_log_min(lambda s: s, lo, hi)

    @pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
    @pytest.mark.parametrize("lo,hi", RANGES)
    def test_no_point_evaluated_twice(self, name, lo, hi):
        f, calls = recording(TEST_FUNCTIONS[name])
        grid_seeded_log_min(f, lo, hi)
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
    @pytest.mark.parametrize("lo,hi", RANGES)
    def test_equals_reevaluating_search(self, name, lo, hi):
        f, calls = recording(TEST_FUNCTIONS[name])
        ref, ref_calls = recording(TEST_FUNCTIONS[name])
        assert grid_seeded_log_min(f, lo, hi) == reevaluating_grid_seeded_log_min(ref, lo, hi)
        # The two bracket ends are the only evaluations saved.
        assert len(calls) == len(ref_calls) - 2


class TestFirstMin:
    """The one tie rule: a later candidate wins only when its value, the
    first item, is lower by more than 1e-15."""

    def test_exact_tie_keeps_the_earlier(self):
        assert first_min([(0.5, "earlier"), (0.5, "later")]) == (0.5, "earlier")

    def test_gap_of_1e_16_keeps_the_earlier(self):
        assert first_min([(0.5, "earlier"), (0.5 - 1e-16, "later")]) == (0.5, "earlier")

    def test_gap_of_1e_14_takes_the_later(self):
        assert first_min([(0.5, "earlier"), (0.5 - 1e-14, "later")]) == (0.5 - 1e-14, "later")

    def test_a_higher_later_candidate_loses(self):
        assert first_min([(0.5, "earlier"), (0.6, "later")]) == (0.5, "earlier")

    def test_least_of_many(self):
        assert first_min(iter([(3.0, 0), (1.0, 1), (2.0, 2), (1.0, 3)])) == (1.0, 1)

    def test_empty_input_gives_none(self):
        assert first_min([]) is None
        assert first_min(iter(())) is None
