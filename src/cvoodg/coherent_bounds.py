"""Bound curves eps(eps0, nbar) on the output trace distance for coherent
state inputs of any energy, given an in-distribution guarantee (eps0, tau).

Each constructor returns a BoundCurve evaluable at nbar = r^2 (the mean
photon number of the input). Curves clamp to the trace-norm ceiling 2, are
non-decreasing in eps0 pointwise, and the channel-class curves are concave
in nbar. The class-agnostic universal bound is built from the smoothed
P-representations of Fock elements and is evaluated pointwise.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import Callable

from ._np import np
from . import specfun
from ._search import grid_seeded_log_min
from .cvcore import _Record, delta_s_bound

__all__ = [
    "InDistributionGuarantee",
    "BoundCurve",
    "step_bound",
    "lipschitz_bound",
    "gaussian_bound",
    "phase_rotation_bound",
    "squeezing_bound",
    "displacement_bound",
    "symmetric_gaussian_bound",
    "cubic_phase_bound",
    "FockMassTable",
    "fock_log_mu",
    "log_factorial_array",
    "UniversalSeries",
    "universal_point",
    "universal_coherent_bound_detail",
    "universal_at_ceiling",
    "universal_curve",
    "concave_hull",
    "combined_with_step",
    "linspace",
    "CURVE_CONSTRUCTORS",
]

TRACE_NORM_CEILING = 2.0

#: s-search window for the universal bound (design choice: log-space golden
#: section seeded by a 20-point grid).
_UNIVERSAL_S_RANGE = (1e-8, 0.499)

#: Cubic-phase curve: the x grid of the in-distribution worst case, the
#: relative bisection tolerance on the strength gap, and the nbar grid of
#: the hull.
_CUBIC_X_POINTS = 9
_CUBIC_BISECT_REL_TOL = 1e-3
_CUBIC_GRID_POINTS = 41

#: The most points a grid of linspace may hold: a million floats take about
#: 32 MB as a list, and a larger grid is refused before anything is built.
_MAX_GRID_POINTS = 1_000_000


class InDistributionGuarantee(_Record):
    """Stage-1 promise: output distance <= eps0 for coherent inputs with
    amplitude r <= tau (tau^2 is the maximum mean photon number).

    eps0 = 0 is admitted so exactness limits can be evaluated directly.
    """

    __slots__ = ("eps0", "tau")

    def __init__(self, eps0: float, tau: float):
        if not 0.0 <= eps0 <= 2.0:
            raise ValueError(f"eps0 must lie in [0, 2], got {eps0}")
        # Every curve reads tau^2 (the photon-number reach), so tau^2 itself
        # must neither underflow to 0 nor overflow to inf.
        if not (tau > 0.0 and 0.0 < tau * tau < math.inf):
            raise ValueError(
                f"tau must be positive with tau^2 positive and finite, got {tau}"
            )
        self.eps0 = eps0
        self.tau = tau


class BoundCurve(_Record):
    """An evaluable bound nbar -> eps(eps0, nbar), values in [0, 2]."""

    __slots__ = ("class_tag", "guarantee", "eval_fn", "concavified")

    def __init__(self, class_tag: str, guarantee: InDistributionGuarantee,
                 eval_fn: Callable[[float], float], concavified: bool):
        self.class_tag = class_tag
        self.guarantee = guarantee
        self.eval_fn = eval_fn
        self.concavified = concavified

    def __call__(self, nbar: float) -> float:
        if not nbar >= 0.0:
            raise ValueError(
                f"{self.class_tag} curve: mean photon number must be non-negative, got {nbar}"
            )
        value = self.eval_fn(nbar)
        if math.isnan(value):
            raise ValueError(f"{self.class_tag} curve is NaN at nbar {nbar}")
        return min(max(value, 0.0), TRACE_NORM_CEILING)


def _class_curve(tag: str, g: InDistributionGuarantee,
                 build: Callable[[], BoundCurve]) -> BoundCurve:
    """The curve of a channel class: ValueError for eps0 >= 2, where the
    guarantee pins no fidelity; the zero curve at eps0 = 0, where the two
    channels agree on every coherent state, without calling build; else
    build()."""
    if g.eps0 >= 2.0:
        raise ValueError(f"{tag} bound requires eps0 < 2")
    if g.eps0 == 0.0:
        return BoundCurve(tag, g, lambda nbar: 0.0, True)
    return build()


def _exp_curve(g: InDistributionGuarantee, tag: str, exponent: Callable[[float], float]) -> BoundCurve:
    """Curve 2 sqrt(1 - (1 - eps0/2)^exponent(nbar)), read as
    2 sqrt(1 - e^z) with z = exponent(nbar) log(1 - eps0/2) <= 0."""
    def build() -> BoundCurve:
        log_base = math.log1p(-g.eps0 / 2.0)
        return BoundCurve(tag, g, lambda nbar: 2.0 * specfun.sqrt_one_minus_exp(
            exponent(nbar) * log_base, 1.0), True)

    return _class_curve(tag, g, build)


# ---------------------------------------------------------------------------
# Channel-class curves
# ---------------------------------------------------------------------------

def step_bound(g: InDistributionGuarantee) -> BoundCurve:
    """Trivial step: eps0 inside the guaranteed disc, 2 outside."""
    tau_sq = g.tau * g.tau

    def evaluate(nbar: float) -> float:
        return g.eps0 if nbar <= tau_sq else TRACE_NORM_CEILING

    return BoundCurve(class_tag="step", guarantee=g, eval_fn=evaluate, concavified=False)


def lipschitz_bound(g: InDistributionGuarantee) -> BoundCurve:
    """Step function interpolated by the information processing inequality:
    moving the input by trace distance delta moves the output by at most
    2 delta, with delta the coherent-state distance 2 sqrt(1 - e^{-(r-tau)^2}).
    """
    def evaluate(nbar: float) -> float:
        r = math.sqrt(nbar)
        if r <= g.tau:
            return g.eps0
        gap = r - g.tau
        delta = 2.0 * specfun.sqrt_one_minus_exp(-gap * gap, 1.0)
        return g.eps0 + 2.0 * delta

    return BoundCurve(class_tag="lipschitz", guarantee=g, eval_fn=evaluate, concavified=False)


def gaussian_bound(g: InDistributionGuarantee) -> BoundCurve:
    """Any pair of Gaussian channels:
    eps = 2 sqrt(1 - ((2 - eps0)/2)^(2 nbar/tau^2 + r/tau + 2)).
    """
    tau = g.tau
    return _exp_curve(g, "gaussian", lambda nbar: 2.0 * nbar / (tau * tau) + math.sqrt(nbar) / tau + 2.0)


def phase_rotation_bound(g: InDistributionGuarantee) -> BoundCurve:
    """Unknown phase rotation: eps = 2 sqrt(1 - ((2 - eps0)/2)^(nbar/tau^2))."""
    tau_sq = g.tau * g.tau
    return _exp_curve(g, "phase_rotation", lambda nbar: nbar / tau_sq)


def symmetric_gaussian_bound(g: InDistributionGuarantee) -> BoundCurve:
    """Rotationally symmetric Gaussian channels (loss, quantum-limited
    amplifiers): eps = 2 sqrt(1 - ((2 - eps0)/2)^(2(nbar/tau^2 + 1))).
    """
    tau_sq = g.tau * g.tau
    return _exp_curve(g, "symmetric", lambda nbar: 2.0 * (nbar / tau_sq + 1.0))


def displacement_bound(g: InDistributionGuarantee) -> BoundCurve:
    """Unknown displacement: the output fidelity is independent of the input
    coherent state, so the bound is the constant eps0."""
    return _class_curve("displacement", g,
                        lambda: BoundCurve("displacement", g, lambda nbar: g.eps0, True))


def squeezing_bound(g: InDistributionGuarantee) -> BoundCurve:
    """Unknown single-mode squeezing:

    eps = 2 sqrt(1 - c exp(2 nbar (c - 1))),
    c = W0(2 tau^2 e^{2 tau^2} (1 - eps0/2)) / (2 tau^2),

    evaluated as 2 sqrt(-expm1(x + 2 nbar expm1(x))) with x = log c from
    specfun.log_lambert_ratio, which returns (1 + tau^2) x; the exponent is
    formed at that scale too, so it keeps its digits where x is subnormal.
    """
    def build() -> BoundCurve:
        tau_sq = g.tau * g.tau
        scale = 1.0 + tau_sq
        v = specfun.log_lambert_ratio(tau_sq, math.log1p(-g.eps0 / 2.0))
        x = v / scale
        # expm1(x) / x, so that 2 nbar expm1(x) times 1 + tau^2 is 2 nbar v slope.
        slope = math.expm1(x) / x if x else 1.0
        return BoundCurve("squeezing", g, lambda nbar: 2.0 * specfun.sqrt_one_minus_exp(
            v * (1.0 + 2.0 * nbar * slope), scale), True)

    return _class_curve("squeezing", g, build)


# ---------------------------------------------------------------------------
# Cubic phase gate
# ---------------------------------------------------------------------------

def _cubic_phase_fidelity_distance(delta_gamma: float, x: float) -> tuple[float, float]:
    """Output fidelity F = |<alpha| V_beta^dag V_gamma |alpha>| of two cubic
    phase gates, and the output distance 2 sqrt(1 - F^2), with
    Delta = |gamma - beta| and x = Re[alpha] (Im[alpha] drops out).

    F = |I| / sqrt(2 pi), where, with c = 2x, k = (3 Delta)^(1/3) and
    z = -i (c + i/(12 Delta)) / k,

        I = integral exp(i Delta q^3 - (q - c)^2 / 2) dq
          = (2 pi / k) Ai(z) exp(1/(108 Delta^2) - i c/(6 Delta) - c^2/2).

    Proof. Shift q = u - i/(6 Delta). The u^2 terms cancel, because
    3 i Delta (-i/(6 Delta)) = 1/2, and the exponent becomes
    i Delta u^3 + (c + i/(12 Delta)) u + 1/(108 Delta^2) - i c/(6 Delta) - c^2/2.
    With t = k u, i Delta u^3 + (c + i/(12 Delta)) u = i (t^3/3 + z t), and
    t runs over the line Im t = eta = k/(6 Delta) > 0 as q runs over the
    real line. Move the contour: with t = i w the line is Re w = eta, run
    downwards, and i (t^3/3 + z t) = w^3/3 - z w. There
    Re(w^3) = eta^3 - 3 eta (Im w)^2, so the integrand decays like a
    Gaussian, as it does at infinity in both end sectors of the contour of
    DLMF 9.5.4 (from infinity e^{-i pi/3} to infinity e^{i pi/3}); by
    Cauchy's theorem the line bends onto that contour, and
    integral exp(i (t^3/3 + z t)) dt = -i (2 pi i Ai(z)) = 2 pi Ai(z).

    For small Delta, log Ai(z) nearly cancels 1/(108 Delta^2), and c^2/2
    cancels with it too, while |log F| is about Delta^2 Var[(q + c)^3] / 2,
    at least 7.5 Delta^2. So log F is summed in logs at a working precision
    of 20 guard digits plus the digits those cancellations lose plus the
    digits below 1 that |log F| needs, and the distance is taken as
    2 sqrt(-expm1(2 log F)) at that precision, never from a rounded F.
    A result that is not finite or has log F > 0 raises ValueError.
    """
    if delta_gamma < 0.0:
        raise ValueError("delta_gamma must be non-negative")
    if delta_gamma == 0.0:
        return 1.0, 0.0
    import mpmath

    log10_delta = math.log10(delta_gamma)
    cancelled = max(0.0, -2.0 * log10_delta - math.log10(108.0),
                    2.0 * (math.log10(2.0) + math.log10(abs(x))) if x else 0.0)
    digits = 20 + math.ceil(cancelled + max(0.0, -2.0 * log10_delta))
    with mpmath.workdps(digits):
        delta = mpmath.mpf(delta_gamma)
        c = 2 * mpmath.mpf(x)
        k = mpmath.cbrt(3 * delta)
        z = mpmath.mpc(1 / (12 * delta), -c) / k
        # log F = Re log I - log sqrt(2 pi); the phase -i c/(6 Delta) drops out.
        log_f = (mpmath.re(mpmath.log(mpmath.airyai(z))) + 1 / (108 * delta * delta)
                 - c * c / 2 + mpmath.log(mpmath.sqrt(2 * mpmath.pi) / k))
        if not mpmath.isfinite(log_f) or log_f > 0:
            raise ValueError(
                f"cubic phase fidelity out of range at delta {delta_gamma!r}, x {x!r}: "
                f"log F = {mpmath.nstr(log_f, 5)}"
            )
        return float(mpmath.exp(log_f)), float(2 * mpmath.sqrt(-mpmath.expm1(2 * log_f)))


def cubic_phase_bound(g: InDistributionGuarantee, nbar_max: float = 20.0) -> BoundCurve:
    """Bound for an unknown cubic phase unitary.

    1. The guarantee pins the in-distribution fidelity, which is decreasing
       in the strength gap Delta; ``_cubic_phase_gap`` finds the largest
       Delta that it admits.
    2. The pointwise curve 2 sqrt(1 - F(Delta, r)^2) at that Delta is
       replaced by its upper concave hull on ``_CUBIC_GRID_POINTS`` points
       of [0, nbar_max].
    """
    def build() -> BoundCurve:
        delta = _cubic_phase_gap(g)
        distances = BoundCurve("cubic_phase", g, lambda nbar: _cubic_phase_fidelity_distance(
            delta, math.sqrt(nbar))[1], False)
        return concave_hull(distances, nbar_max, _CUBIC_GRID_POINTS)

    return _class_curve("cubic_phase", g, build)


def _cubic_phase_gap(g: InDistributionGuarantee) -> float:
    """The strength gap at which the cubic-phase curve is built, for
    0 < eps0 < 2. The worst case over x in [0, tau] is found on a grid (the
    monotone-in-x behaviour is re-verified, not assumed). Bisection brackets
    the largest admissible Delta* in [delta_lo, delta_hi): delta_lo is
    admissible and delta_hi is not. delta_hi is returned, the safe end: the
    output distance grows with Delta, so its value at delta_hi is at least
    its value at Delta*, while delta_lo would undershoot by up to the
    bisection tolerance."""
    xs = linspace(g.tau, _CUBIC_X_POINTS)

    def exceeds(delta: float) -> bool:
        # The worst case over the whole x grid: a monotone decrease of F in x
        # is not assumed. Trying x = tau first only ends the scan sooner.
        return any(
            _cubic_phase_fidelity_distance(delta, x)[1] > g.eps0 for x in reversed(xs)
        )

    delta_lo, delta_hi = 0.0, 1e-3
    for _ in range(80):
        if exceeds(delta_hi):
            break
        delta_lo = delta_hi
        delta_hi *= 2.0
    else:
        raise ValueError("bisection bracket for the cubic phase strength gap did not close")
    for _ in range(200):
        if delta_hi - delta_lo <= _CUBIC_BISECT_REL_TOL * delta_hi:
            break
        mid = 0.5 * (delta_lo + delta_hi)
        if exceeds(mid):
            delta_hi = mid
        else:
            delta_lo = mid
    return delta_hi


# ---------------------------------------------------------------------------
# Universal (class-agnostic) coherent-state bound
# ---------------------------------------------------------------------------

class UniversalBoundResult(_Record):
    __slots__ = ("value", "s_opt", "truncation_order", "tail_bound")

    def __init__(self, value: float, s_opt: float, truncation_order: int, tail_bound: float):
        self.value = value
        self.s_opt = s_opt
        self.truncation_order = truncation_order
        self.tail_bound = tail_bound


class FockMassTable:
    """s-independent parts of the mass bound mu_{s,m,n} of the s-smoothed
    P-representation of the Fock element |m><n|, at the pairs (m[k], n[k])
    of positive weight[k], with their weights: a weighted pair list. Every
    Fock-series sum reads one, as sum_k weight[k] exp(log mu_k) or over
    the coefficient xi; a pair of weight 0 adds nothing to such a sum, so it
    is dropped, and the pairs kept stay in the order given.

    With Delta = |m - n|,

        log mu_{s,m,n} = G + log Gamma(1 + Delta/2)
                         + B log(1-s) - C log(s) - D log(1-2s),

    G = (2 + Delta/2) log 2 - log pi + log((Delta + min(m,n))!/Delta!)
        - log(m! n!)/2 off the diagonal and the pi-free log 2 on it,
    B = 1 + (m+n)/2, C = (m+n)/2, D = 1 + Delta/2. The universal coefficient
    xi^{(m,n)} replaces Gamma(1 + Delta/2) by the Delta-bracket
    eps0 Gamma(1 + Delta/2) + (2 - eps0) Gamma(1 + Delta/2, T).

    G, C, delta and weight are 1-d, one entry per kept pair; B = 1 + C and D
    are formed from them where they are used. Each element is computed by
    the same expression whatever the other pairs are, so two tables agree
    bit for bit at the pairs they share. log_factorials, if given, holds
    log k! for k up to the largest index (or more).
    """

    def __init__(self, m: np.ndarray, n: np.ndarray, weight: np.ndarray,
                 log_factorials: np.ndarray | None = None):
        kept = weight > 0.0
        m, n = m[kept], n[kept]
        self.weight = weight[kept]
        self.delta = np.abs(m - n)
        lo = np.minimum(m, n)
        hi = self.delta + lo
        lf = (log_factorial_array(int(hi.max(initial=0)) + 1) if log_factorials is None
              else log_factorials)
        self.G = np.where(
            m == n,
            math.log(2.0),
            (2.0 + 0.5 * self.delta) * math.log(2.0)
            - math.log(math.pi)
            + (lf[hi] - lf[self.delta])
            - 0.5 * (lf[m] + lf[n]),
        )
        self.C = 0.5 * (m + n)
        #: Gamma orders 1 + Delta/2 up to the largest Delta, and their log Gamma.
        self.gamma_order = 1.0 + 0.5 * np.arange(int(self.delta.max(initial=0)) + 1)
        self.log_gamma = np.array([math.lgamma(a) for a in self.gamma_order])
        #: x-free parts of the log-terms of Q(a, x) at these orders.
        self.log_q_base = _log_q_base(self.log_gamma)

    def log_mass_floor(self, s1: float, s2: float, log_factor: np.ndarray) -> np.ndarray:
        """G + log_factor[Delta] + B log(1-s) - C log(s) - D log(1-2s), in the
        shape of the table's pairs, with each s-term at the end of [s1, s2]
        where it is least: B log(1-s) and -C log(s) fall in s, -D log(1-2s)
        rises. For a log_factor that does not depend on s, a lower bound over
        the cell; at s1 = s2, the value at s itself."""
        # D = gamma_order[Delta], so the D-term is read off dim products.
        return (
            self.G
            + log_factor[self.delta]
            + (1.0 + self.C) * math.log1p(-s2)
            - self.C * math.log(s2)
            - (self.gamma_order * math.log1p(-2.0 * s1))[self.delta]
        )

    def log_mu(self, s: float) -> np.ndarray:
        """log mu_{s,m,n} at the table's pairs."""
        return self.log_mass_floor(s, s, self.log_gamma)


def fock_log_mu(s: float, m: int, n: int) -> float:
    """log mu_{s,m,n} of one pair, by the formula and order of operations of
    FockMassTable.log_mu, so it equals the table's value bit for bit."""
    delta = abs(m - n)
    lf = specfun.log_factorial
    G = (math.log(2.0) if m == n else
         (2.0 + 0.5 * delta) * math.log(2.0) - math.log(math.pi)
         + (lf(delta + min(m, n)) - lf(delta)) - 0.5 * (lf(m) + lf(n)))
    C = 0.5 * (m + n)
    D = 1.0 + 0.5 * delta
    return (G + math.lgamma(D) + (1.0 + C) * math.log1p(-s) - C * math.log(s)
            - D * math.log1p(-2.0 * s))


def _log_erfc_sqrt(x: float) -> float:
    """log erfc(sqrt x) for x >= 0. Below sqrt x = 26, math.erfc is a normal
    double; from there on, before it underflows, the asymptotic series
    erfc(z) = e^{-z^2} / (z sqrt pi) sum_m (-1)^m (2m-1)!! / (2z^2)^m is used up
    to m = 7, whose first omitted term is below 2e-19 relative."""
    z = math.sqrt(x)
    if z < 26.0:
        return math.log(math.erfc(z))
    series, term = 1.0, 1.0
    for m in range(1, 8):
        term *= -(2 * m - 1) / (2.0 * x)
        series += term
    return -x - math.log(z * math.sqrt(math.pi)) + math.log(series)


#: Stirling-series coefficients of log Gamma(nu + 1) - (nu + 1/2) log nu + nu
#: - log(2 pi)/2 in powers of 1/nu^2; from nu = 15 on, the first omitted term
#: is below 4e-18.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0)
#: Index of nu = 15 on the half-integer ladder nu = j/2.
_SADDLE_FROM = 30


def _log_q_base(log_gamma: np.ndarray) -> np.ndarray:
    """The x-free parts of the log-terms log(e^{-x} x^nu / Gamma(nu + 1)),
    nu = j/2, given log_gamma[j] = log Gamma(nu + 1).

    Below nu = 15 a term is -x + nu log x - log Gamma(nu + 1), and its x-free
    part is -log Gamma(nu + 1). From there on that sum would cancel numbers
    near nu log nu, and the rounding of log x alone, times nu, would cost up
    to nu ulp(log x) / 2 (1e-13 at nu = 200). So the term is taken in its
    saddle-point form -x phi(nu/x) - log(2 pi nu)/2 - stirlerr(nu), with
    phi(u) = u log u + 1 - u and stirlerr from its Stirling series, and its
    x-free part is -log(2 pi nu)/2 - stirlerr(nu).
    """
    base = -np.array(log_gamma, dtype=float)
    big = 0.5 * np.arange(_SADDLE_FROM, len(base))
    inv_sq = 1.0 / (big * big)
    stirlerr = np.zeros_like(big)
    for c in reversed(_STIRLING):
        stirlerr = c + inv_sq * stirlerr
    base[_SADDLE_FROM:] = -0.5 * np.log(2.0 * math.pi * big) - stirlerr / big
    return base


def _log_q_ladder(x: float, base: np.ndarray) -> np.ndarray:
    """log Q((i + 1)/2, x) for i <= len(base), at x > 0, from the x-free
    parts ``_log_q_base`` of the log-terms; Q = Gamma(a, x) / Gamma(a) is
    the regularized upper incomplete gamma.

    At half-integer orders Q has closed forms, for integer n:

        Q(n, x)       = e^{-x} sum_{k<n} x^k / k!,
        Q(n + 1/2, x) = erfc(sqrt x) + e^{-x} sum_{k<n} x^{k+1/2} / Gamma(k + 3/2).

    Each is a running log-sum (np.logaddexp.accumulate) of the log-terms
    log(e^{-x} x^nu / Gamma(nu + 1)), so one pass gives every order, and
    log Q never underflows. log Q(a, inf) = -inf, the limit, for every
    order."""
    n = len(base)
    if x == math.inf:
        return np.full(n + 1, -math.inf)
    nu = 0.5 * np.arange(n)
    small, big = nu[:_SADDLE_FROM], nu[_SADDLE_FROM:]
    # Row k holds the log-terms that take Q(k - 1) to Q(k) and Q(k - 1/2) to
    # Q(k + 1/2); row 0 holds Q(0) = 0 and Q(1/2) = erfc(sqrt x), and an odd
    # n is padded with a zero term. Summing down the columns gives
    # Q(0), Q(1/2), Q(1), Q(3/2), ... in order.
    rows = np.full(n + 2 + n % 2, -math.inf)
    rows[1] = _log_erfc_sqrt(x)
    rows[2:2 + len(small)] = base[:_SADDLE_FROM] + (small * math.log(x) - x)
    # x phi(nu/x) from log1p, accurate near nu = x where it vanishes.
    gap = big - x
    ratio = gap / x
    if ratio.size and ratio[0] == -1.0:
        # x is so large that gap / x rounds to -1 (first at the smallest nu),
        # where log1p would give -inf; there log(1 + gap / x) = log nu - log x.
        log_ratio = np.log(big) - math.log(x)
        kept = ratio > -1.0
        log_ratio[kept] = np.log1p(ratio[kept])
    else:
        log_ratio = np.log1p(ratio)
    rows[2 + _SADDLE_FROM:n + 2] = base[_SADDLE_FROM:] - (big * log_ratio - gap)
    return np.logaddexp.accumulate(rows.reshape(-1, 2), axis=0).ravel()[1:n + 2]


def _log_delta_bracket(table: FockMassTable, eps0: float, T: float) -> np.ndarray:
    """log(eps0 Gamma(a) + (2 - eps0) Gamma(a, T)) for the orders a = 1 + Delta/2,
    as log Gamma(a) + log(eps0 + (2 - eps0) Q(a, T)). Every order is a
    half-integer, so log Q comes from the closed forms of ``_log_q_ladder``,
    built on the table's own log Gamma(a); it stays finite, and where Q is
    far below eps0 the sum is log eps0 exactly. T > 0 since s < 1/2, and T
    may overflow to inf at a tau near its upper limit, where log Q = -inf."""
    log_q = _log_q_ladder(T, table.log_q_base)[1:]
    return table.log_gamma + np.logaddexp(math.log(eps0), math.log(2.0 - eps0) + log_q)


def _xi_floor(table: FockMassTable, eps0: float, tau: float, s1: float, s2: float) -> np.ndarray:
    """A lower bound over s in [s1, s2] of every coefficient xi^{(m,n)}(s),
    the mass bound with Gamma(1 + Delta/2) replaced by the Delta-bracket at
    T = tau^2 (1-2s) / (2 s (1-s)), clamped to 2; xi itself at s1 = s2. T
    falls in s and Q(a, T) falls in T, so the Delta-bracket is least at s1;
    the other s-terms are placed by FockMassTable.log_mass_floor."""
    T = tau * tau * (1.0 - 2.0 * s1) / (2.0 * s1 * (1.0 - s1))
    log_xi = table.log_mass_floor(s1, s2, _log_delta_bracket(table, eps0, T))
    return np.exp(np.minimum(log_xi, math.log(TRACE_NORM_CEILING)))


def log_factorial_array(size: int, head: np.ndarray | None = None) -> np.ndarray:
    """log k! for k < size, reusing the values already in head."""
    done = 0 if head is None else len(head)
    tail = [specfun.log_factorial(k) for k in range(done, size)]
    return np.array(tail) if head is None else np.concatenate([head, tail])


def _series_pairs(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (m, n) of the pairs with m <= n and m + n <= order, in
    row-major order."""
    rows = np.arange(order // 2 + 1)
    counts = order + 1 - 2 * rows
    m = np.repeat(rows, counts)
    n = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - rows, counts)
    return m, n


def _coherent_weights(r: float, log_factorials: np.ndarray) -> np.ndarray:
    """b_m = e^{-r^2/2} r^m / sqrt(m!) for m < len(log_factorials) (each
    b_m <= 1)."""
    size = len(log_factorials)
    if r == 0.0:
        out = np.zeros(size)
        out[0] = 1.0
        return out
    m = np.arange(size)
    return np.exp(m * math.log(r) - 0.5 * log_factorials - 0.5 * r * r)


def _poisson_tail_bound(r: float, order: int, log_factorials: np.ndarray | None = None) -> float:
    """Certified bound on 2 sum_{m+n > order} b_m b_n, with the coherent
    weights b_m = e^{-r^2/2} r^m / sqrt(m!).

    With S = sum_{m<=order} b_m and T >= sum_{m>order} b_m, the pairs with
    both indices at most order give sum_{m>=1} b_m sum_{n=order-m+1}^{order}
    b_n, and those with an index past order at most 2 S T + T^2. T is the
    Cauchy-Schwarz bound sqrt(sum_{m>order} theta^m) sqrt(sum_m b_m^2
    theta^{-m}) at the best of four geometric weights theta. Every term is
    positive, so nothing cancels, and time and memory are O(order). At
    r = 0 every b_m with m > 0 vanishes, so the tail is exactly 0.
    log_factorials, if given, holds log k! for k <= order.
    """
    if r == 0.0:
        return 0.0
    if log_factorials is None:
        log_factorials = log_factorial_array(order + 1)
    b = _coherent_weights(r, log_factorials[:order + 1])
    tail_1d = math.inf
    for theta in (0.5, 0.7, 0.85, 0.95):
        log_t = 0.5 * ((order + 1) * math.log(theta) - math.log1p(-theta)) + (
            r * r / (2.0 * theta) - r * r / 2.0
        )
        tail_1d = min(tail_1d, math.exp(min(log_t, 700.0)))
    # suffix[k] = sum_{n=k}^{order} b_n, and b_m pairs with suffix[order - m + 1].
    suffix = np.cumsum(b[::-1])[::-1]
    inner = float((b[1:] * suffix[:0:-1]).sum())
    return 2.0 * (inner + (2.0 * float(b.sum()) + tail_1d) * tail_1d)


#: Largest series truncation order of the universal bound. The memory of a
#: point that builds its pair list (the s-search, or the ceiling
#: certificate's second stage) grows as order^2: one s-search at order 4981
#: peaks at 468 MB RSS (numpy 2.4, Python 3.11), so a point under the cap
#: stays below 1 GB. The tail and the diagonal stage are O(order). The cap is
#: reached from nbar of about 1165 on.
_UNIVERSAL_MAX_ORDER = 5000


def _universal_order(r: float) -> int:
    """The first truncation order at amplitude r, checked against the cap."""
    nbar = r * r
    return _capped_order(max(40.0, float(np.ceil(4.0 * nbar + 10.0 * math.sqrt(nbar)))), r)


def _capped_order(order: float, r: float) -> int:
    """order as an int, or ValueError naming nbar and order past
    _UNIVERSAL_MAX_ORDER; checked before any table of that order is
    allocated, and while order is a float, which is inf from nbar of about
    4.5e307 on."""
    if order > _UNIVERSAL_MAX_ORDER:
        raise ValueError(
            f"universal bound at nbar {r * r!r} needs truncation order {order:.15g}, "
            f"above the cap {_UNIVERSAL_MAX_ORDER}"
        )
    return int(order)


class UniversalSeries:
    """The truncated Fock series of the universal bound at amplitude r >= 0,
    built once per point and read by both the ceiling certificate and the
    s-search: the truncation order, log k! for k <= order, the certified
    tail and the smoothing scale 1 + 2 r^2. The order grows until the tail is
    at most 1e-12, in at most four steps, each checked against the cap before
    its tables exist; the log-factorials are computed once, up to the final
    order, and shared by the tail, the coherent weights and the mass table.
    ``pairs``, the series' O(order^2) weighted pair table (``_series_table``),
    is built on first use."""

    def __init__(self, r: float):
        order = _universal_order(r)
        lf = log_factorial_array(order + 1)
        tail = _poisson_tail_bound(r, order, lf)
        for _ in range(4):
            if tail <= 1e-12:
                break
            order = _capped_order(int(order * 1.5) + 10, r)
            lf = log_factorial_array(order + 1, lf)
            tail = _poisson_tail_bound(r, order, lf)
        self.r, self.order, self.log_factorials, self.tail = r, order, lf, tail
        self.penalty = 1.0 + 2.0 * r * r

    @functools.cached_property
    def pairs(self) -> FockMassTable:
        """The series' weighted pair table, from ``_series_table``."""
        return _series_table(self.r, self.order, self.log_factorials)


def universal_coherent_bound_detail(g: InDistributionGuarantee,
                                    series: UniversalSeries) -> UniversalBoundResult:
    """Class-agnostic bound of the series, for 0 < eps0 < 2, with the
    optimizing noise parameter s and the certified series-truncation tail.
    The objective sum_{m,n} b_m b_n xi_mn(s) + 2 delta_s_bound(s, 1 + 2 r^2)
    is the ceiling certificate's bound on the zero-width cell [s, s], over
    the same pair list.
    """
    table = series.pairs
    best, s_opt = grid_seeded_log_min(
        lambda s: (_objective_floor(table, g, series.penalty, s, s), s),
        *_UNIVERSAL_S_RANGE)
    value = min(best + series.tail, TRACE_NORM_CEILING)
    return UniversalBoundResult(value, s_opt, series.order, series.tail)


#: The ceiling certificate (universal_at_ceiling): its relative margin delta
#: over 2, the relative widening of the s window it covers, and the number of
#: cells of its second stage.
_CEILING_MARGIN = 1e-9
_CEILING_WINDOW_SLACK = 1e-12
_CEILING_CELLS = 8


def _series_table(r: float, order: int, log_factorials: np.ndarray) -> FockMassTable:
    """The weighted pair table of the universal series at amplitude r: the
    pairs m <= n, m + n <= order in row-major order, each with weight
    (2 if m < n else 1) b_m b_n, since xi is symmetric in (m, n); the table
    keeps those of positive weight (at r = 0 only the vacuum).
    log_factorials holds log k! for k <= order."""
    b = _coherent_weights(r, log_factorials)
    m, n = _series_pairs(order)
    return FockMassTable(m, n, np.where(m == n, 1.0, 2.0) * b[m] * b[n], log_factorials)


def _objective_floor(table: FockMassTable, g: InDistributionGuarantee, penalty: float,
                     s1: float, s2: float) -> float:
    """A lower bound over s in [s1, s2] of sum_k weight[k] xi_k(s)
    + 2 delta_s_bound(s, penalty), with the table's pairs and weights. The
    sum is numpy's pairwise one, so its rounding stays near
    log2(len(weight)) ulps."""
    xi = _xi_floor(table, g.eps0, g.tau, s1, s2)
    return float((table.weight * xi).sum()) + 2.0 * delta_s_bound(s1, penalty)


def universal_at_ceiling(g: InDistributionGuarantee, series: UniversalSeries) -> bool:
    """True only when it is proved that every s the s-search of
    ``universal_coherent_bound_detail(g, series)`` can visit gives an
    objective of at least 2, so that its value is exactly 2.0 and the search
    can be skipped; False proves nothing. For 0 < eps0 < 2.

    Proof. The search minimizes f(s) = sum_{m,n} b_m b_n xi_mn(s) plus the
    penalty 2 delta_s_bound(s, 1 + 2 r^2) = 4 sqrt(s (1 + 2 r^2)), and the
    bound is min(min f + tail, 2) with tail >= 0. Every b_m >= 0 and every
    xi = min(2, exp(log xi)) >= 0, so any subset of the pairs bounds the
    series from below. On a cell [s1, s2], each piece of log xi is bounded
    below at one end of the cell:

    - T(s) = tau^2 (1 - 2s) / (2 s (1 - s)) decreases in s, and Q(a, T)
      decreases in T, so the Delta-bracket is least at s1;
    - B log(1 - s) and -C log s are least at s2;
    - -D log(1 - 2s) is least at s1;
    - the penalty is least at s1.

    From s = 1/(4 (1 + 2 r^2)) on, the penalty alone is at least 2; the
    cells end at top = (1 + delta)^2 times that, where it is 2 (1 + delta).
    top is the inverse of the penalty, so a new form of
    ``cvcore.delta_s_bound`` must move top with it. The cells start at
    lo (1 - 1e-12) for lo, hi = _UNIVERSAL_S_RANGE, and the penalty covers
    up to hi (1 + 1e-12), because the search visits exp(log s), and
    exp(log(1e-8)) = 9.999999999999982e-09 < lo.

    Rounding. A cell closes when its bound is at least 2 (1 + delta), with
    delta = 1e-9. Each log xi sums terms below 1e5 in magnitude (C |log s|,
    log m! and log Gamma(1 + Delta/2) at order 5000), so it is off by less
    than 8 ulps of their summed magnitude, below 2e-10 (the tolerance the
    mass-table tests allow); that is a relative error below 2e-10 in xi, in
    the objective and in this bound alike. The objective is this bound on
    the cell [s, s], over the same pairs, so its sum is the same pairwise
    one, off by about 1e-14. So the rounded objective stays at least
    2 (1 + delta) (1 - 5e-10) > 2 wherever the rounded bound reaches
    2 (1 + delta).

    Two stages, each with a fixed budget. First the diagonal pairs
    m = n <= order/2 on one cell, at O(order) cost. Then every pair on
    _CEILING_CELLS cells of equal steps in sqrt(s), in which the penalty is
    linear, at O(order^2) cost each, stopping at the first cell that does
    not close. Every bound is taken over the pairs of non-zero weight.
    """
    r, order, lf, penalty = series.r, series.order, series.log_factorials, series.penalty
    lo, hi = _UNIVERSAL_S_RANGE
    lo *= 1.0 - _CEILING_WINDOW_SLACK
    hi *= 1.0 + _CEILING_WINDOW_SLACK
    target = TRACE_NORM_CEILING * (1.0 + _CEILING_MARGIN)
    top = min(hi, (1.0 + _CEILING_MARGIN) ** 2 / (4.0 * penalty))
    if top <= lo:
        return True
    # At r = 0 only the vacuum pair has weight, and the cells below bound it
    # at least as tightly as one cell does.
    if r > 0.0:
        b = _coherent_weights(r, lf)
        diag = np.arange(order // 2 + 1)
        diagonal = FockMassTable(diag, diag, b[diag] ** 2, lf)
        if _objective_floor(diagonal, g, penalty, lo, top) >= target:
            return True
    table = series.pairs
    # Python floats, so that T may overflow to inf as it does in the search.
    root, step = math.sqrt(lo), (math.sqrt(top) - math.sqrt(lo)) / _CEILING_CELLS
    edges = [lo, *((root + k * step) ** 2 for k in range(1, _CEILING_CELLS)), top]
    return all(
        _objective_floor(table, g, penalty, s1, s2) >= target
        for s1, s2 in zip(edges[:-1], edges[1:])
    )


def universal_point(g: InDistributionGuarantee, r: float) -> tuple[float, float | None]:
    """The universal bound at amplitude r and its optimizing s: min over s in
    (0, 1/2) of the Fock-element series bound plus the smoothing penalty
    2 delta_s_bound(s, 1 + 2 r^2), clamped to 2. At eps0 = 0 the two
    channels agree on every coherent state, and the point is (0.0, 0.0)
    before any table is built. Otherwise the point's series is built once,
    order cap first, and a point that ``universal_at_ceiling`` certifies
    skips the search and gives (2.0, None)."""
    if g.eps0 >= 2.0:
        raise ValueError("universal bound requires eps0 < 2")
    if r < 0.0:
        raise ValueError("amplitude must be non-negative")
    if g.eps0 == 0.0:
        return 0.0, 0.0
    series = UniversalSeries(r)
    if universal_at_ceiling(g, series):
        return TRACE_NORM_CEILING, None
    detail = universal_coherent_bound_detail(g, series)
    return detail.value, detail.s_opt


def universal_curve(g: InDistributionGuarantee) -> BoundCurve:
    """Pointwise universal bound as a curve in nbar (not concave as-is)."""
    return BoundCurve(
        class_tag="universal",
        guarantee=g,
        eval_fn=lambda nbar: universal_point(g, math.sqrt(nbar))[0],
        concavified=False,
    )


# ---------------------------------------------------------------------------
# Concave hull and curve combinators
# ---------------------------------------------------------------------------

def linspace(stop: float, num: int) -> list[float]:
    """np.linspace(0.0, stop, num) for finite stop >= 0 and num >= 2, as
    Python floats equal to numpy's bit for bit: point i is i (stop/(num - 1)),
    or (i/(num - 1)) stop where that step underflows to 0 (numpy's branch
    for subnormal steps), and the last point is stop itself. A num above
    _MAX_GRID_POINTS raises ValueError before any point is built."""
    if num > _MAX_GRID_POINTS:
        raise ValueError(f"a grid holds at most {_MAX_GRID_POINTS} points")
    stop = float(stop)
    div = num - 1
    step = stop / div
    if step == 0.0:
        grid = [i / div * stop for i in range(num)]
    else:
        grid = [i * step for i in range(num)]
    grid[-1] = stop
    return grid


def concave_hull(curve: BoundCurve, grid_max_nbar: float, grid_points: int) -> BoundCurve:
    """Smallest concave majorant of the curve in nbar on a sampling grid.

    An upper-hull sweep over the curve's values on linspace(grid_max_nbar,
    grid_points); beyond the grid the final hull segment is extended
    linearly, and the curve's call clamps it to [0, 2]. The result
    dominates the input at every grid point.

    Inside the hull it is np.interp(nbar, hull_x, hull_y) bit for bit: the
    vertex value where nbar is a vertex, else slope (nbar - x_j) + y_j on
    the segment [x_j, x_j+1] that holds nbar. The grid runs from 0 to
    grid_max_nbar > 0, and both ends are hull vertices, so the last segment
    has a slope.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    if grid_max_nbar <= 0.0:
        raise ValueError("grid_max_nbar must be positive")
    xs = linspace(grid_max_nbar, grid_points)
    hull_x, hull_y = _upper_hull(xs, [curve(x) for x in xs])

    def evaluate(nbar: float) -> float:
        if nbar <= hull_x[-1]:
            j = bisect.bisect_right(hull_x, nbar) - 1
            if j == len(hull_x) - 1 or hull_x[j] == nbar:
                return hull_y[j]
            slope = (hull_y[j + 1] - hull_y[j]) / (hull_x[j + 1] - hull_x[j])
            return slope * (nbar - hull_x[j]) + hull_y[j]
        slope = (hull_y[-1] - hull_y[-2]) / (hull_x[-1] - hull_x[-2])
        return hull_y[-1] + slope * (nbar - hull_x[-1])

    return BoundCurve(curve.class_tag, curve.guarantee, evaluate, True)


def _upper_hull(xs: list[float], ys: list[float]) -> tuple[list[float], list[float]]:
    """Monotone-chain upper convex hull of the sampled points."""
    hull: list[tuple[float, float]] = []
    for x, y in zip(xs, ys):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # Keep the chain concave: drop the middle point if it sits on or
            # below the chord of its neighbours.
            if (y2 - y1) * (x - x1) <= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((float(x), float(y)))
    return [p[0] for p in hull], [p[1] for p in hull]


def combined_with_step(curve: BoundCurve) -> BoundCurve:
    """Pointwise min of a curve with the trivial step bound (reported as a
    separate evaluation mode; the named formulas are never altered)."""
    step = step_bound(curve.guarantee)
    return BoundCurve(
        class_tag=f"{curve.class_tag}+step",
        guarantee=curve.guarantee,
        eval_fn=lambda nbar: min(curve(nbar), step(nbar)),
        concavified=False,
    )


CURVE_CONSTRUCTORS: dict[str, Callable[[InDistributionGuarantee], BoundCurve]] = {
    "step": step_bound,
    "lipschitz": lipschitz_bound,
    "gaussian": gaussian_bound,
    "phase_rotation": phase_rotation_bound,
    "squeezing": squeezing_bound,
    "displacement": displacement_bound,
    "symmetric": symmetric_gaussian_bound,
    "cubic_phase": cubic_phase_bound,
    "universal": universal_curve,
}
