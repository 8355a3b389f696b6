"""Special-function kernel.

What the bound formulas and oracles call: the log of the Lambert ratio
W0(a e^a y)/a that the squeezing curve and its worst-case pair share, with
the square root of 1 - e^z that reads it, generalised Laguerre
polynomials and their roots, and log-space factorials, all on plain floats.
Factorials stay in log space because the matrix-element formulas multiply
terms that individually overflow a double well before the product does.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math

__all__ = [
    "DomainError",
    "laguerre",
    "laguerre_roots",
    "log_factorial",
    "log_lambert_ratio",
    "sqrt_one_minus_exp",
]

_EPS = 2.220446049250313e-16
#: Smallest normal double.
_TINY = 2.2250738585072014e-308
_MAX_NEWTON_ITERS = 64
#: Iterations of a bracketed root: bisection alone narrows any bracket of the
#: roots of a degree below 1000 to the double spacing within 128 halvings.
_MAX_ROOT_ITERS = 128


class DomainError(ValueError):
    """Argument outside the mathematical domain of a kernel function."""


def _require_finite(name: str, x: float) -> None:
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")


# ---------------------------------------------------------------------------
# Log of the Lambert ratio W0(a e^a y) / a
# ---------------------------------------------------------------------------

def log_lambert_ratio(tau_sq: float, log_y: float) -> float:
    """(1 + tau^2) x, where x = log(w / (2 tau^2)) and w = W0(2 tau^2 e^{2 tau^2} y),
    for tau^2 > 0 and 0 < y <= 1, given log y.

    Taking logs of w e^w = 2 tau^2 e^{2 tau^2} y shows that x is the root of
    g(x) = 2 tau^2 expm1(x) + x - log y, with x = 0 at y = 1. g is convex and
    increasing, so Newton from x = 0 descends monotonically onto the root,
    and no W0 argument near e^{2 tau^2} is formed, nor w/(2 tau^2), which
    cancels against 1.

    The root is returned scaled by 1 + tau^2: x is about log(y)/(2 tau^2) at
    large tau and falls below the normal floats from tau^2 ~ 1e290 on (at
    every y from tau^2 = 9e307), while (1 + tau^2) x stays near log(y)/2.
    The iteration runs on v = (1 + tau^2) x, with its Newton step
    g(x) / ((1 + tau^2)^{-1} g'(x)) written through p = tau^2/(1 + tau^2),
    q = 1/(1 + tau^2) and 2 tau^2 expm1(x) = 2 p v expm1(x)/x, so that no
    term grows with tau^2: 2 tau^2 itself overflows from tau = 9.5e153.
    """
    if not (0.0 < tau_sq < math.inf and math.isfinite(log_y) and log_y <= 0.0):
        raise DomainError(
            f"log_lambert_ratio needs 0 < tau^2 < inf and finite log y <= 0, "
            f"got {tau_sq!r}, {log_y!r}"
        )
    p = tau_sq / (1.0 + tau_sq)
    q = 1.0 / (1.0 + tau_sq)
    v = 0.0
    for _ in range(_MAX_NEWTON_ITERS):
        x = v * q
        slope = math.expm1(x) / x if x else 1.0
        step = (2.0 * p * v * slope + x - log_y) / (2.0 * p * math.exp(x) + q)
        if not step > 0.0:
            break
        v -= step
        if step <= 4.0 * _EPS * -v:
            break
    return v


def sqrt_one_minus_exp(w: float, scale: float) -> float:
    """sqrt(1 - exp(w / scale)) for w <= 0 and scale >= 1, also where w / scale
    falls below the normal floats: there 1 - exp(w/scale) = -w/scale to the
    last bit, and the root is taken as sqrt(|w|) / sqrt(scale)."""
    z = w / scale
    if z <= -_TINY:
        return math.sqrt(-math.expm1(z))
    return math.sqrt(abs(w)) / math.sqrt(scale)


# ---------------------------------------------------------------------------
# Generalised Laguerre polynomials
# ---------------------------------------------------------------------------

def laguerre(n: int, a: float, x: float) -> float:
    """Generalised Laguerre polynomial L_n^a(x) by the three-term recurrence."""
    if n < 0 or n != int(n):
        raise DomainError(f"laguerre degree must be a non-negative integer, got {n}")
    _require_finite("laguerre argument", x)
    _require_finite("laguerre order", a)
    return _laguerre_last_two(int(n), a, x)[1]


def _laguerre_last_two(n: int, a: float, x: float) -> tuple[float, float]:
    """L_{n-1}^a(x) and L_n^a(x) by the three-term recurrence, with
    L_{-1} = 0."""
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, ((2.0 * k + 1.0 + a - x) * cur - (k + a) * prev) / (k + 1.0)
    return prev, cur


def laguerre_roots(n: int, a: float) -> list[float]:
    """The n roots of L_n^a, increasing, for a > -1.

    The roots of L_k^a interlace those of L_{k-1}^a, and all lie in
    (0, 4k + 2a): the Jacobi matrix of the recurrence has diagonal 2j + 1 + a
    and off-diagonal sqrt(j (j + a)) <= j + a/2, so every Gershgorin disc ends
    below 4k - 2 + 2a. So each root of L_k^a is the one sign change of L_k^a
    between consecutive points of 0, the roots of L_{k-1}^a and 4k + 2a, and
    L_k^a is positive at 0. Each is found by Newton's method kept inside its
    bracket, which a step that would leave it bisects instead, with the
    derivative x L_k' = k L_k - (k + a) L_{k-1}.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"laguerre_roots degree must be a non-negative integer, got {n}")
    if not (a > -1.0 and math.isfinite(a)):
        raise DomainError(f"laguerre_roots order must be finite and above -1, got {a!r}")
    roots: list[float] = []
    for k in range(1, int(n) + 1):
        ends = [0.0, *roots, 4.0 * k + 2.0 * a]
        roots = [_bracketed_root(k, a, lo, hi, j % 2 == 0)
                 for j, (lo, hi) in enumerate(zip(ends, ends[1:]))]
    return roots


def _bracketed_root(k: int, a: float, lo: float, hi: float, positive_at_lo: bool) -> float:
    """The one root of L_k^a in (lo, hi), where its sign at lo is given."""
    x = 0.5 * (lo + hi)
    for _ in range(_MAX_ROOT_ITERS):
        prev, cur = _laguerre_last_two(k, a, x)
        if cur == 0.0:
            return x
        if (cur > 0.0) == positive_at_lo:
            lo = x
        else:
            hi = x
        step = x * cur / (k * cur - (k + a) * prev)
        new = x - step
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - x) <= 2.0 * _EPS * new:
            return new
        x = new
    return x


# ---------------------------------------------------------------------------
# Log-space factorials
# ---------------------------------------------------------------------------

def log_factorial(n: int) -> float:
    """log(n!) for non-negative integer n."""
    if n < 0 or n != int(n):
        raise DomainError(f"log_factorial requires a non-negative integer, got {n}")
    return math.lgamma(int(n) + 1.0)

