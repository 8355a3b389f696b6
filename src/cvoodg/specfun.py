"""Special-function kernel.

What the bound formulas and oracles call: the principal Lambert W branch
(also past exp(700) through its logarithm), generalised Laguerre
polynomials (on a float or elementwise on an array) and log-space
factorials. Factorials stay in log space because the matrix-element
formulas multiply terms that individually overflow a double well before
the product does.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DomainError",
    "lambert_w0",
    "lambert_w0_from_log",
    "laguerre",
    "log_factorial",
]

_EPS = 2.220446049250313e-16
_MAX_HALLEY_ITERS = 64


class DomainError(ValueError):
    """Argument outside the mathematical domain of a kernel function."""


def _require_finite(name: str, x: float) -> None:
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")


# ---------------------------------------------------------------------------
# Lambert W, principal branch
# ---------------------------------------------------------------------------

def lambert_w0(x: float) -> float:
    """Principal branch W0 of w * exp(w) = x, for x >= -1/e.

    Asymptotic initial guess refined by Halley iterations (capped at 64);
    converges to relative round-trip error below 1e-12 on the full domain.
    """
    _require_finite("lambert_w0 argument", x)
    min_x = -math.exp(-1.0)
    if x < min_x:
        raise DomainError(f"lambert_w0 requires x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    if abs(x - min_x) < 1e-300:
        return -1.0

    # Initial guess by region.
    if x < -0.25:
        # Near the branch point: series in sqrt(2(e*x + 1)).
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    elif x < 1.0:
        w = x * (1.0 - x + 1.5 * x * x) if abs(x) < 0.5 else 0.5
    else:
        lx = math.log(x)
        llx = math.log(lx) if lx > 1.0 else 0.0
        w = lx - llx + (llx / lx if lx > 1.0 else 0.0)

    return _halley_w(w, x)


def lambert_w0_from_log(ln_x: float) -> float:
    """W0 evaluated at exp(ln_x) for any finite ln_x; safe when exp(ln_x)
    would overflow, where it solves w + log(w) = ln_x.
    """
    _require_finite("lambert_w0_from_log argument", ln_x)
    if ln_x <= 700.0:
        return lambert_w0(math.exp(ln_x))
    # Newton on g(w) = w + log(w) - ln_x, monotone for w > 0.
    w = ln_x - math.log(ln_x)
    for _ in range(_MAX_HALLEY_ITERS):
        g = w + math.log(w) - ln_x
        step = g / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= 4.0 * _EPS * abs(w):
            break
    return w


def _halley_w(w: float, x: float) -> float:
    for _ in range(_MAX_HALLEY_ITERS):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            break
        # Halley step for f(w) = w e^w - x.
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        step = f / denom
        w -= step
        if abs(step) <= 4.0 * _EPS * (abs(w) + _EPS):
            break
    return w


# ---------------------------------------------------------------------------
# Generalised Laguerre polynomials
# ---------------------------------------------------------------------------

def laguerre(n: int, a: float, x):
    """Generalised Laguerre polynomial L_n^a(x) by the three-term recurrence.

    x is a float (the result is a float) or an ndarray (the recurrence runs
    elementwise, with the same float operations, so each element equals the
    float call). The degree and order are checked once and x once per call.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"laguerre degree must be a non-negative integer, got {n}")
    if not np.all(np.isfinite(x)):
        raise DomainError(f"laguerre argument must be finite, got {x!r}")
    _require_finite("laguerre order", a)
    n = int(n)
    if n == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    prev = 1.0
    cur = 1.0 + a - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + a - x) * cur - (k + a) * prev) / (k + 1.0)
    return cur


# ---------------------------------------------------------------------------
# Log-space factorials
# ---------------------------------------------------------------------------

def log_factorial(n: int) -> float:
    """log(n!) for non-negative integer n."""
    if n < 0 or n != int(n):
        raise DomainError(f"log_factorial requires a non-negative integer, got {n}")
    return math.lgamma(int(n) + 1.0)

