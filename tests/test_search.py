"""Tests of the shared s-search and tie rule in cvoodg._search."""

import math

import pytest

from cvoodg._search import first_min, grid_seeded_log_min

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, lo, hi, tol):
    """The golden-section minimizer the search once called, frozen as a
    reference: at most 200 iterations on [lo, hi], then the least of the
    ends and the last two interior points by (value, x); returns
    (argmin, min). It evaluates both ends once more."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if abs(b - a) <= tol * (abs(a) + abs(b) + 1e-30):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    candidates = [(f(lo), lo), (f(hi), hi), (fc, c), (fd, d)]
    best_val, best_x = min(candidates, key=lambda t: (t[0], t[1]))
    return best_x, best_val


def reevaluating_grid_seeded_log_min(f, lo, hi, grid_points=20, tol=1e-4):
    """The grid-seeded search as it was before it returned the point it
    found: a value function f, (s, value) returned, and golden_section_min
    evaluating f at both bracket ends once more."""
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


def recording_point(f):
    """The point function s -> (f(s), s), and a dict of the tuple it
    returned at each s, in call order."""
    returned = {}

    def point(s):
        returned.setdefault(s, []).append((f(s), s))
        return returned[s][-1]

    return point, returned


TEST_FUNCTIONS = {
    "interior": lambda s: (math.log(s) - math.log(1e-3)) ** 2,
    "left_edge": lambda s: s,
    "right_edge": lambda s: -s,
    "universal_like": lambda s: 1e-3 / s ** 0.5 + 4.0 * math.sqrt(3.0 * s),
    "flat": lambda s: 1.0,
    "kinked": lambda s: abs(math.log(s) + 5.0) + 0.1 * s,
}
RANGES = ((1e-8, 0.499), (1e-3, 10.0), (0.5, 0.6))


def value_search(f, lo, hi):
    """(s, value) of the search over the point s -> (f(s), s)."""
    value, s = grid_seeded_log_min(lambda s: (f(s), s), lo, hi)
    return s, value


class TestGridSeededLogMin:
    def test_interior_argmin(self):
        s, val = value_search(TEST_FUNCTIONS["interior"], 1e-8, 0.499)
        assert s == pytest.approx(1e-3, rel=1e-3)
        assert val <= 1e-6

    def test_argmin_at_left_edge(self):
        s, val = value_search(lambda s: s, 1e-8, 0.499)
        assert s == pytest.approx(1e-8)
        assert val == s

    def test_argmin_at_right_edge(self):
        s, val = value_search(lambda s: -s, 1e-8, 0.499)
        assert s == pytest.approx(0.499)
        assert val == -s

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 1.0), (0.5, 0.5), (0.6, 0.5)])
    def test_rejects_bad_window(self, lo, hi):
        with pytest.raises(ValueError):
            grid_seeded_log_min(lambda s: (s,), lo, hi)

    @pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
    @pytest.mark.parametrize("lo,hi", RANGES)
    def test_no_point_evaluated_twice(self, name, lo, hi):
        point, returned = recording_point(TEST_FUNCTIONS[name])
        grid_seeded_log_min(point, lo, hi)
        assert all(len(tuples) == 1 for tuples in returned.values())

    @pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
    @pytest.mark.parametrize("lo,hi", RANGES)
    def test_equals_reevaluating_search(self, name, lo, hi):
        point, returned = recording_point(TEST_FUNCTIONS[name])
        ref, ref_calls = recording(TEST_FUNCTIONS[name])
        value, s = grid_seeded_log_min(point, lo, hi)
        s_ref, value_ref = reevaluating_grid_seeded_log_min(ref, lo, hi)
        assert (s.hex(), value.hex()) == (s_ref.hex(), value_ref.hex())
        # The two bracket ends are the only evaluations saved.
        assert sum(map(len, returned.values())) == len(ref_calls) - 2

    @pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
    @pytest.mark.parametrize("lo,hi", RANGES)
    def test_returns_the_tuple_the_point_returned(self, name, lo, hi):
        point, returned = recording_point(TEST_FUNCTIONS[name])
        found = grid_seeded_log_min(point, lo, hi)
        assert found is returned[found[1]][0]


def scripted_point(values):
    """The point function that returns (values[k], s) at its k-th call, and
    the list of the tuples it returned."""
    returned = []

    def point(s):
        returned.append((values[len(returned)], s))
        return returned[-1]

    return point, returned


#: A window of log width 1e-6 about log 1e4: the golden section stops
#: before its first step, so the search evaluates the 20 grid points and the
#: two interior points c < d, and its last choices are made among those.
NARROW = (1e4, 1e4 * (1.0 + 1e-6))


class TestOneTieRule:
    """Every choice inside the search is made by first_min's rule."""

    def test_grid_near_tie_goes_to_the_lower_index(self):
        # The values fall with s but by under 1e-15 over the whole window.
        point, returned = recording_point(lambda s: 1.0 - 5e-16 * s)
        grid_seeded_log_min(point, 1e-8, 0.499)
        grid_s = list(returned)[:20]
        assert all(s < grid_s[1] for s in list(returned)[20:])

    @pytest.mark.parametrize("f", [lambda s: 1.0, lambda s: -1e-16 * s],
                             ids=["exact", "near"])
    def test_golden_section_tie_keeps_the_left_side(self, f):
        point, returned = recording_point(f)
        grid_seeded_log_min(point, 1e-8, 0.499)
        c, d, third = list(returned)[20:23]
        assert c < d and third < c

    def test_finished_search_keeps_the_smaller_s(self):
        # The grid's best point (index 10) loses by under 1e-15 to both
        # interior points, and d beats c by under 1e-15: c is kept.
        grid = [1.0] * 20
        grid[10] = 3e-16
        point, returned = scripted_point(grid + [2e-16, 1e-16])
        found = grid_seeded_log_min(point, *NARROW)
        assert len(returned) == 22
        c, d = returned[20:]
        assert c[1] < d[1] and found is c

    def test_refined_point_wins_a_near_tie_with_the_grid(self):
        grid = [1.0] * 20
        grid[10] = 1e-16
        point, returned = scripted_point(grid + [2e-16, 3e-16])
        found = grid_seeded_log_min(point, *NARROW)
        assert len(returned) == 22 and found is returned[20]

    def test_grid_point_lower_by_more_than_1e_15_wins(self):
        grid = [1.0] * 20
        grid[10] = 0.0
        point, returned = scripted_point(grid + [2e-15, 3e-15])
        found = grid_seeded_log_min(point, *NARROW)
        assert found is returned[10]


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
