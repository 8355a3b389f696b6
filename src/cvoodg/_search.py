"""Deterministic searches shared by the bound constructors: the one s-search
primitive, and the one tie rule by which every choice among values is made.

s-search (``grid_seeded_log_min(point, lo, hi)``): point(s) returns a tuple
whose first item is its value, and the search returns the tuple of the s it
picks, so a caller never evaluates the chosen point again. No log s is
evaluated twice.

Tie rule (``first_min``): candidates are compared by value in the order
given, and a later one replaces the kept one only when it is lower by more
than 1e-15. A near-tie therefore goes to the earlier candidate, so a caller
lists its candidates in the order it prefers them: smaller M, then smaller
kappa, and an unsmoothed or classical branch before a searched one. Inside
the s-search the same rule picks the best grid point (the lower index), the
golden-section side (the left one unless d beats c), the refined point (the
bracket ends and the two interior points in order of s), and the result
(the refined point unless the best grid point beats it).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def first_min(candidates: Iterable[tuple]):
    """The candidate kept by the tie rule: the earlier one unless a later
    one's value, its first item, is lower by more than 1e-15; None when
    there are no candidates."""
    best = None
    for candidate in candidates:
        if best is None or candidate[0] < best[0] - 1e-15:
            best = candidate
    return best


def grid_seeded_log_min(point: Callable[[float], tuple], lo: float, hi: float) -> tuple:
    """The point(s) of least value over s in [lo, hi] (lo > 0), as the
    tuple point returned: a 20-point log-spaced grid, then a golden-section
    refinement in log space (tol 1e-4, at most 200 iterations) on the
    bracket of grid points around the best one.

    The bracket ends are grid points, so their points are served from the
    grid instead of being evaluated again.
    """
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    grid_points = 20
    log_lo, log_hi = math.log(lo), math.log(hi)
    step = (log_hi - log_lo) / (grid_points - 1)
    grid = [log_lo + i * step for i in range(grid_points)]
    points = [point(math.exp(g)) for g in grid]
    i_best = first_min((p[0], i) for i, p in enumerate(points))[1]
    i_a, i_b = max(i_best - 1, 0), min(i_best + 1, grid_points - 1)
    a, b = grid[i_a], grid[i_b]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    pc, pd = point(math.exp(c)), point(math.exp(d))
    for _ in range(200):
        if abs(b - a) <= 1e-4 * (abs(a) + abs(b) + 1e-30):
            break
        # The left side [a, d] is kept unless d beats c.
        if first_min([pc, pd]) is pc:
            b, d, pd = d, c, pc
            c = b - _INV_PHI * (b - a)
            pc = point(math.exp(c))
        else:
            a, c, pc = c, d, pd
            d = a + _INV_PHI * (b - a)
            pd = point(math.exp(d))
    refined = first_min([points[i_a], pc, pd, points[i_b]])
    return first_min([refined, points[i_best]])
