"""Small deterministic 1-d minimizers shared by the bound constructors, and
the one tie rule by which the bounds choose among searched candidates.

Tie rule (``first_min``): candidates are compared by value in the order
given, and a later one replaces the kept one only when it is lower by more
than 1e-15. A near-tie therefore goes to the earlier candidate, so a caller
lists its candidates in the order it prefers them: smaller M, then smaller
kappa, and an unsmoothed or classical branch before a searched one.
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


def golden_section_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
) -> tuple[float, float]:
    """Golden-section minimum of f on [lo, hi] in at most 200 iterations;
    returns (argmin, min).

    Assumes unimodality on the bracket; the endpoints are also evaluated so a
    boundary minimum is never missed.
    """
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


def grid_seeded_log_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Minimize f over [lo, hi] (lo > 0): a 20-point log-spaced grid, then a
    golden-section refinement in log space (tol 1e-4) around the best grid
    cell.

    The refinement's bracket ends are grid points, so their values are served
    from the grid instead of being evaluated again.
    """
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    grid_points = 20
    log_lo, log_hi = math.log(lo), math.log(hi)
    step = (log_hi - log_lo) / (grid_points - 1)
    grid = [log_lo + i * step for i in range(grid_points)]
    values = [f(math.exp(g)) for g in grid]
    known = dict(zip(grid, values))
    i_best = min(range(grid_points), key=lambda i: (values[i], i))
    a = grid[max(i_best - 1, 0)]
    b = grid[min(i_best + 1, grid_points - 1)]

    def f_log(g: float) -> float:
        return known[g] if g in known else f(math.exp(g))

    x_log, val = golden_section_min(f_log, a, b, tol=1e-4)
    if values[i_best] < val:
        return math.exp(grid[i_best]), values[i_best]
    return math.exp(x_log), val
