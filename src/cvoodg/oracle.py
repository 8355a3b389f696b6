"""Brute-force verification layer.

Everything here recomputes quantities independently of the bound formulas:
worst-case channel pairs with closed-form parameter gaps, exact output
distances from each channel class's closed-form output fidelity, the
overlaps of the smoothed P-representations by Gauss-Laguerre quadrature,
their absolute masses and second moments as exact finite sums between the
kinks, and the exact additive-noise distance of each Fock state as a finite
sum. Suites assert dominance, closed-form agreement, and limit behaviour and
emit machine-readable reports.

Every suite computes with plain floats and loads no numpy; only the
Fock-space state builders use numpy arrays. A Fock element is its index
pair (m, n), in either order (see cvcore).

Bound formulas never call into this module; the only shared code is the
special-function kernel, the hull grid, the mass formula fock_log_mu and
the Fock/Gaussian numerics of cvcore.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

from ._np import np
from . import specfun
from .coherent_bounds import (
    CURVE_CONSTRUCTORS,
    BoundCurve,
    InDistributionGuarantee,
    fock_log_mu,
    linspace,
)
from .cvcore import (
    FockMatrix,
    GaussianChannel,
    QuadratureError,
    _Record,
    _fock_element,
    coherent_fock_vector,
    delta_s_bound,
    displacement_channel,
    loss_channel,
    p_rep_radial_fn,
    rotation_channel,
    squeezing_channel,
    trace_distance,
)
from .state_bounds import nu_mu_element_ratio

__all__ = [
    "ChannelPairSample",
    "AssertionResult",
    "SuiteReport",
    "slack_assertion",
    "worst_case_pair",
    "equality_witness_pair",
    "exact_coherent_distance",
    "dominance_suite",
    "mu_nu_numeric",
    "gamma_quadrature",
    "delta_s_exact",
    "concavity_and_limit_suite",
    "fock_state",
    "squeezed_vacuum_state",
    "spat_state",
    "coherent_projector",
    "classical_mixture",
    "phase_rotation_state_distance",
]

#: Soundness tolerance: one order above accumulated quadrature/eigensolver
#: error at desk scale.
VIOLATION_TOL = 1e-9
#: Machine epsilon of a double (np.finfo(float).eps).
_EPS = 2.220446049250313e-16


#: The nbar = r^2 and phase grids of every dominance assertion: 60 nbar from
#: 1e-3 to 100 evenly spaced in log, 10^(-3 + 5 i/59) with both ends exact as
#: np.geomspace builds them (whose power differs from libm's by one ulp at
#: two nodes), and the 8 phases i 2 pi / 8.
R2_GRID = (1e-3, *(10.0 ** (-3.0 + i * (5.0 / 59)) for i in range(1, 59)), 100.0)
PHI_GRID = tuple(i * (2.0 * math.pi / 8) for i in range(8))


# ---------------------------------------------------------------------------
# Channel classes and pairs
# ---------------------------------------------------------------------------

# Each log_f2(gap, r, phi) below is log F^2 for the outputs of channel(0.0)
# and channel(gap) on |r e^{i phi}>, from the Gaussian fidelity
#   F^2 = 2 exp(-mu^T (V1 + V2)^{-1} mu / 2) / (sqrt(Delta + delta) - sqrt(delta))
# with the input mean q = 2 r (cos phi, sin phi), the vacuum covariance I,
# mu = (M2 - M1) q + d2 - d1, V_i = M_i M_i^T + N_i, Delta = det(V1 + V2)
# and delta = (det V1 - 1)(det V2 - 1). Every output of these classes is
# pure, so delta = 0 and F^2 = 2 exp(-mu^T (V1 + V2)^{-1} mu / 2) / sqrt(Delta).

def _phase_rotation_log_f2(gap: float, r: float, phi: float) -> float:
    """Rotation by theta = gap: V1 = V2 = I, so Delta = 4, and
    |mu|^2 = |(R(theta) - I) q|^2 = 2 (1 - cos theta) |q|^2
    = 16 r^2 sin^2(theta/2); log F^2 = -|mu|^2 / 4 = -4 r^2 sin^2(theta/2).
    The half-angle sine does not cancel at a small theta, where cos theta - 1
    does."""
    half_sin = math.sin(0.5 * gap)
    return -4.0 * r * r * half_sin * half_sin


def _displacement_log_f2(gap: float, r: float, phi: float) -> float:
    """Displacement by d = gap along x: V1 = V2 = I and mu = (d, 0), so
    log F^2 = -d^2 / 4 at every input."""
    return -0.25 * gap * gap


def _squeezing_log_f2(gap: float, r: float, phi: float) -> float:
    """Squeezing zeta = gap, M2 = diag(e^zeta, e^-zeta): V2 = M2^2, so
    Delta = (1 + e^{2 zeta})(1 + e^{-2 zeta}) = 4 cosh^2 zeta and the
    prefactor is sech zeta. Each quadrature of mu^T (V1 + V2)^{-1} mu gives
    (e^{+-zeta} - 1)^2 / (1 + e^{+-2 zeta}) = 2 sinh^2(zeta/2) / cosh zeta
    times its q_i^2, so with h = 2 sinh^2(zeta/2) = cosh zeta - 1,
    log F^2 = -2 r^2 h/(1 + h) - log1p(h).

    h/(1 + h) is written as 2 t^2/(1 + t^2) with t = tanh(zeta/2), which
    stays finite however large zeta is; log1p(h) keeps log cosh zeta
    accurate where it is about zeta^2 / 2."""
    t = math.tanh(0.5 * gap)
    h = 2.0 * math.sinh(0.5 * gap) ** 2
    return -2.0 * r * r * (2.0 * t * t / (1.0 + t * t)) - math.log1p(h)


def _loss_log_f2(gap: float, r: float, phi: float) -> float:
    """Loss of transmissivity eta = (1 - g)^2 for the gap g in [0, 1]:
    M2 = (1 - g) I and N2 = (1 - eta) I, so V1 = V2 = I, Delta = 4 and
    mu = -g q; log F^2 = -|mu|^2 / 4 = -g^2 r^2."""
    return -gap * gap * r * r


def _phase_rotation_gap(tau: float, log_f2: float) -> float:
    # log F^2 = -4 tau^2 sin^2(theta/2) at r = tau.
    half_sin = math.sqrt(-log_f2) / (2.0 * tau)
    if half_sin > 1.0:
        raise ValueError("guarantee too loose: no phase rotation saturates it")
    return 2.0 * math.asin(half_sin)


def _displacement_gap(tau: float, log_f2: float) -> float:
    return 2.0 * math.sqrt(-log_f2)


def _squeezing_gap(tau: float, log_f2: float) -> float:
    # sech(zeta) = W0(2 tau^2 e^{2 tau^2} f2) / (2 tau^2) = e^x, so
    # zeta = log((1 + sqrt(1 - e^{2x})) / e^x); log_lambert_ratio gives
    # (1 + tau^2) x.
    tau_sq = tau * tau
    scale = 1.0 + tau_sq
    v = specfun.log_lambert_ratio(tau_sq, log_f2)
    return -v / scale + math.log1p(specfun.sqrt_one_minus_exp(2.0 * v, scale))


def _loss_gap(tau: float, log_f2: float) -> float:
    # The learned transmissivity is (1 - gap)^2.
    gap = math.sqrt(-log_f2) / tau
    if gap > 1.0:
        raise ValueError("guarantee too loose: no transmissivity saturates it")
    return gap


class _ChannelClass(_Record):
    """One channel class of the dominance oracle: the learned channel a
    parameter gap from the target channel(0.0); log_f2(gap, r, phi), the
    closed-form log of the squared output fidelity of that pair on
    |r e^{i phi}>; the gap whose log_f2 at r = tau is a given value; the
    CURVE_CONSTRUCTORS names the class must stay under; and whether it has
    an equality witness."""

    __slots__ = ("channel", "log_f2", "saturating_gap", "curves", "witness")

    def __init__(self, channel: Callable[[float], GaussianChannel],
                 log_f2: Callable[[float, float, float], float],
                 saturating_gap: Callable[[float, float], float],
                 curves: tuple[str, ...], witness: bool = False):
        self.channel = channel
        self.log_f2 = log_f2
        self.saturating_gap = saturating_gap
        self.curves = curves
        self.witness = witness


CHANNEL_CLASSES: dict[str, _ChannelClass] = {
    "phase_rotation": _ChannelClass(rotation_channel, _phase_rotation_log_f2,
                                    _phase_rotation_gap, ("phase_rotation",), witness=True),
    "displacement": _ChannelClass(lambda gap: displacement_channel(np.array([gap, 0.0])),
                                  _displacement_log_f2, _displacement_gap, ("displacement",)),
    "squeezing": _ChannelClass(squeezing_channel, _squeezing_log_f2, _squeezing_gap,
                               ("squeezing",), witness=True),
    "loss": _ChannelClass(lambda gap: loss_channel((1.0 - gap) ** 2), _loss_log_f2, _loss_gap,
                          ("gaussian", "symmetric")),
}
SUPPORTED_CLASSES = tuple(CHANNEL_CLASSES)

#: Relative tolerance of a pair's admission: the closed-form distance at
#: r = tau of every worst-case and witness pair lies within two ulps of its
#: guarantee (eps0 from 1e-14 to 1.9, tau from 1e-3 to 1e6).
_ADMISSION_RTOL = 4.0 * _EPS


def _channel_class(class_tag: str) -> _ChannelClass:
    try:
        return CHANNEL_CLASSES[class_tag]
    except KeyError:
        raise ValueError(f"unsupported channel class {class_tag!r}") from None


class ChannelPairSample(_Record):
    """A target and a learned channel of one class, a parameter gap apart,
    with the recomputed in-distribution error achieved_eps0, which exceeds
    the declared guarantee by no more than a few ulps."""

    __slots__ = ("class_tag", "gap", "declared_eps0", "tau", "achieved_eps0")

    def __init__(self, class_tag: str, gap: float, declared_eps0: float, tau: float):
        self.class_tag = class_tag
        self.gap = gap
        self.declared_eps0 = declared_eps0
        self.tau = tau
        # For these classes the distance is non-decreasing in r and
        # phase-independent, so its maximum over r <= tau is at r = tau.
        achieved = exact_coherent_distance(self, tau)
        if achieved > declared_eps0 * (1.0 + _ADMISSION_RTOL):
            raise ValueError(
                f"pair exceeds its declared guarantee: achieved "
                f"{achieved} > {declared_eps0}"
            )
        self.achieved_eps0 = achieved

    def channels(self) -> tuple[GaussianChannel, GaussianChannel]:
        channel = _channel_class(self.class_tag).channel
        return channel(0.0), channel(self.gap)


def worst_case_pair(class_tag: str, g: InDistributionGuarantee,
                    scale: float = 1.0) -> ChannelPairSample:
    """Closed-form worst-case pair: the largest parameter gap whose exact
    output distance at r = tau equals eps0 (pure outputs, so
    F^2 = 1 - eps0^2/4 there), shrunk by scale in (0, 1]; every such pair
    satisfies the guarantee."""
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    if not g.eps0 < 2.0:
        raise ValueError(f"the worst-case {class_tag} pair requires eps0 < 2")
    log_f2 = math.log1p(-(g.eps0 / 2.0) ** 2)
    gap = _channel_class(class_tag).saturating_gap(g.tau, log_f2)
    return ChannelPairSample(class_tag, scale * gap, g.eps0, g.tau)


def equality_witness_pair(class_tag: str, g: InDistributionGuarantee) -> ChannelPairSample:
    """Pair whose exact distance coincides with the matching bound curve at
    every amplitude (F^2 pinned to 1 - eps0/2 at r = tau, the floor the
    curve construction assumes). Its own in-distribution error sqrt(2 eps0)
    exceeds eps0; the declared guarantee records the achieved value.
    """
    entry = _channel_class(class_tag)
    if not entry.witness:
        raise ValueError(f"channel class {class_tag!r} has no equality witness")
    gap = entry.saturating_gap(g.tau, math.log1p(-g.eps0 / 2.0))
    return ChannelPairSample(class_tag, gap, 2.0 * math.sqrt(g.eps0 / 2.0), g.tau)


def exact_coherent_distance(pair: ChannelPairSample, r, phi=0.0):
    """Exact output trace distance 2 sqrt(1 - F^2) on the coherent input
    r e^{i phi} (the outputs of these classes are pure), read as
    2 sqrt(-expm1(log F^2)) from the class's closed-form log F^2, so nothing
    cancels however small the distance. A float r and phi give a float;
    sequences of radii and phases give one row per radius, one distance per
    phase."""
    log_f2 = _channel_class(pair.class_tag).log_f2

    def distance(x: float, p: float) -> float:
        return 2.0 * math.sqrt(-math.expm1(log_f2(pair.gap, x, p)))

    if isinstance(r, (int, float)):
        return distance(r, phi)
    return [[distance(x, p) for p in phi] for x in r]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class AssertionResult(_Record):
    """One assertion of a suite, as slack_assertion builds it."""

    __slots__ = ("name", "status", "max_slack", "worst_point", "detail")

    def __init__(self, name: str, status: str, max_slack: float | None,
                 worst_point: dict, detail: dict):
        self.name = name
        self.status = status  # "pass" | "fail"
        self.max_slack = max_slack
        self.worst_point = worst_point
        self.detail = detail

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "max_slack": self.max_slack,
            "worst_point": self.worst_point,
            "detail": self.detail,
        }


class SuiteReport(_Record):
    __slots__ = ("name", "assertions", "seed")

    def __init__(self, name: str, assertions: list[AssertionResult], seed: int | None = None):
        self.name = name
        self.assertions = assertions
        self.seed = seed

    @property
    def passed(self) -> bool:
        return all(a.status == "pass" for a in self.assertions)

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "status": "pass" if self.passed else "fail",
            "assertions": [a.as_json() for a in self.assertions],
        }


def _finite_or_none(x) -> float | None:
    # A non-finite value is written as null, so the report stays valid JSON.
    x = float(x)
    return x if math.isfinite(x) else None


def slack_assertion(name: str, bound, value: Sequence[float], point: Callable[[int], dict],
                    value_key: str, tol: float, **extra) -> AssertionResult:
    """The assertion value[k] <= bound[k] + tol at every index k of the flat
    sequence value, where bound is a sequence of the same length or one
    float for every point, and point(k) gives the coordinates of point k.
    Callers flatten their grids in row-major order.

    With slack = bound - value, any slack below -tol fails the assertion,
    and so does a NaN slack. max_slack is the largest slack (the loosest
    margin; null if any slack is NaN); worst_point is the first point with
    the smallest slack (the first NaN, if any): its coordinates, its value
    under value_key, its bound and its slack. detail holds the number of
    violations, the smallest slack, tol and the suite's extra fields.
    Non-finite numbers are written as null.
    """
    values = [float(v) for v in value]
    bounds = ([float(bound)] * len(values) if isinstance(bound, (int, float))
              else [float(b) for b in bound])
    slacks = [b - v for b, v in zip(bounds, values, strict=True)]
    nans = [k for k, x in enumerate(slacks) if x != x]
    k = nans[0] if nans else min(range(len(slacks)), key=slacks.__getitem__)
    min_slack = _finite_or_none(slacks[k])
    violations = sum(1 for x in slacks if not x >= -tol)
    return AssertionResult(
        name=name,
        status="pass" if violations == 0 else "fail",
        max_slack=None if nans else _finite_or_none(max(slacks)),
        worst_point={**point(k), value_key: _finite_or_none(values[k]),
                     "bound": _finite_or_none(bounds[k]), "slack": min_slack},
        detail={"violations": violations, "min_slack": min_slack, "tol": tol, **extra},
    )


def dominance_suite(bounds: Sequence[float], distances: Sequence[Sequence[float]],
                    name: str) -> AssertionResult:
    """Assert distances <= bounds + VIOLATION_TOL on the grid
    R2_GRID x PHI_GRID, where bounds holds a curve's values on R2_GRID and
    distances a pair's exact distances, one row per nbar."""
    phases = len(PHI_GRID)
    return slack_assertion(
        name, [b for b in bounds for _ in range(phases)], [d for row in distances for d in row],
        lambda k: {"nbar": R2_GRID[k // phases], "phi": PHI_GRID[k % phases]},
        "distance", VIOLATION_TOL,
    )


# ---------------------------------------------------------------------------
# Quadrature cross-checks
# ---------------------------------------------------------------------------

#: Relative rounding error allowed for each term of a cross-check's signed
#: sum, 450 ulps. A term is a product of exponentials of sums of logs, powers
#: and three-term recurrences: for indices up to 20 and s from 0.01 on, an
#: overlap's terms err by at most 255 ulps, and a tail integral of
#: mu_nu_numeric at the kink t by about 2ct + 3p + 10 ulps, under 350.
_TERM_RTOL = 1e-13
#: Largest rounding bound of a cross-check value, relative to the value: the
#: bound is _TERM_RTOL times the sum of the absolute values of its terms.
#: The suite grid's values stay 20 times below it.
ROUNDING_GATE = 1e-8


def _gated(value: float, abs_sum: float, kind: str, name: str) -> float:
    """value, a signed sum whose terms have absolute values summing to
    abs_sum, if it is finite and its rounding bound _TERM_RTOL * abs_sum is
    at most ROUNDING_GATE * |value|. Else raises QuadratureError naming the
    value, with the bound as its error estimate."""
    bound = _TERM_RTOL * abs_sum
    if not math.isfinite(value):
        problem = "is not finite"
    elif not bound <= ROUNDING_GATE * abs(value):
        problem = "cancels past its rounding gate"
    else:
        return value
    raise QuadratureError(f"{kind} quadrature {problem} for {name}: integral {value:.6e}", bound)


def _gauss_laguerre(n: int) -> tuple[list[float], list[float]]:
    """Nodes and weights of the n-point Gauss-Laguerre rule: sum_i w_i f(t_i)
    is the integral of f(t) e^-t over [0, inf) for every polynomial f of
    degree below 2n. The nodes are the roots of L_n, and since the L_k are
    orthonormal under e^-t, the weights are the Christoffel numbers
    w_i = 1 / sum_{k<n} L_k(t_i)^2. This sum of squares is equal to
    t_i / ((n + 1) L_{n+1}(t_i))^2, but it is seven times more accurate
    (5e-14 against 4e-13 relative, n <= 31), since the one value L_{n+1}(t_i)
    carries the recurrence's error alone."""
    nodes = specfun.laguerre_roots(n, 0.0)
    return nodes, [1.0 / math.fsum(specfun.laguerre(k, 0.0, t) ** 2 for k in range(n))
                   for t in nodes]


def _tail_integrals(x: float, c: float, half: bool, count: int) -> list[float]:
    """F_p(x), the integral of t^p e^{-ct} over [x, inf), for the count
    orders p = p0, p0 + 1, ..., with p0 = -1/2 if half, else 0.

    F_{-1/2}(x) = sqrt(pi/c) erfc(sqrt(cx)) and F_0(x) = e^{-cx}/c, and
    integration by parts gives F_p = x^p e^{-cx}/c + (p/c) F_{p-1}, a sum of
    positive terms, so nothing cancels."""
    scaled_exp = math.exp(-c * x) / c
    p = -0.5 if half else 0.0
    tail = math.sqrt(math.pi / c) * math.erfc(math.sqrt(c * x)) if half else scaled_exp
    power = math.sqrt(x) if half else x
    tails = [tail]
    for _ in range(count - 1):
        p += 1.0
        tail = power * scaled_exp + p / c * tail
        tails.append(tail)
        power *= x
    return tails


def mu_nu_numeric(elements, s: float) -> list[tuple[float, float]]:
    """Each element's absolute P-mass mu and second moment nu (analytic
    angular factor: 4 off-diagonal, 2 pi diagonal), from exact finite forms.

    For the element (m, n), Delta = m - n, write t = r^2 / (s(1-s)) and
    c = 1 - s. Then |P_s| r dr = K t^{Delta/2} |L_n^Delta(t)| e^{-ct} dt, with
    K the r-free factor of P_s times (s(1-s))^{Delta/2 + 1} / 2, and the
    r^3 moment has one more power of t and of s(1-s). With t_0 = 0, the
    roots t_1 < ... < t_n of L_n^Delta (the kinks of |P_s|) and
    t_{n+1} = inf, L_n^Delta keeps one sign on each segment [t_j, t_{j+1}],
    so each segment's integral is the absolute value of the signed sum
    sum_k a_k (F_{k+q}(t_j) - F_{k+q}(t_{j+1})) over the coefficients a_k
    of L_n^Delta, with q = Delta/2 for mu and Delta/2 + 1 for nu and F the
    tails of _tail_integrals. Each value is checked by _gated."""
    if not 0.0 < s < 0.5:
        raise ValueError(f"s must lie in (0, 1/2), got {s}")
    c = 1.0 - s
    log_scale = math.log(s * c)
    lf = specfun.log_factorial
    values = []
    for m, n in map(_fock_element, elements):
        delta = m - n
        coeffs = [(-1) ** k * math.comb(m, n - k) / math.factorial(k) for k in range(n + 1)]
        # tails[j][first + k] is F_{Delta/2 + k} at t_j.
        first = (delta + 1) // 2
        count = first + n + 2
        tails = [_tail_integrals(x, c, delta % 2 == 1, count)
                 for x in (0.0, *specfun.laguerre_roots(n, float(delta)))]
        tails.append([0.0] * count)
        log_k = (0.5 * (lf(n) - lf(m)) - math.log(math.pi) + n * math.log1p(-s)
                 - (m + 1) * math.log(s) + (0.5 * delta + 1.0) * log_scale - math.log(2.0))
        angular = 2.0 * math.pi if m == n else 4.0
        moments = []
        for shift, moment in enumerate(("mu", "nu")):
            total = abs_total = 0.0
            for lo, hi in zip(tails, tails[1:]):
                terms = [term for k, a in enumerate(coeffs, first + shift)
                         for term in (a * lo[k], -a * hi[k])]
                total += abs(math.fsum(terms))
                abs_total += math.fsum(map(abs, terms))
            integral = _gated(total, abs_total, "mu/nu", f"{moment} of label ({m}, {n})")
            moments.append(angular * math.exp(log_k + shift * log_scale) * integral)
        values.append((moments[0], moments[1]))
    return values


def gamma_quadrature(element_pairs, s: float) -> list[float]:
    """pi * integral of P_s[element1] * Q[element2] over phase space for each
    pair of elements, index pairs (m, n), with the angular part done
    analytically; cross-checks the closed form.

    A pair with mismatched m - n gives 0.0. For the others, with
    t = (1 + 1/s) r^2, the radial factor P_s Q e^t is a polynomial in t of
    degree m_Q + n_P (the larger index of element2 plus the smaller of
    element1), and r dr = dt / (2 (1 + 1/s)). So one Gauss-Laguerre rule of
    N = 1 + max(m_Q + n_P) // 2 nodes integrates every pair exactly, and each
    distinct P_s and Q factor is evaluated once at its nodes. Each value is
    checked by _gated."""
    if not 0.0 < s < 0.5:
        raise ValueError(f"s must lie in (0, 1/2), got {s}")
    pairs = [(_fock_element(e1), _fock_element(e2)) for e1, e2 in element_pairs]
    matched = [(i, e1, e2) for i, (e1, e2) in enumerate(pairs)
               if e1[0] - e1[1] == e2[0] - e2[1]]
    values = [0.0] * len(pairs)
    if not matched:
        return values

    scale = 1.0 + 1.0 / s
    nodes, weights = _gauss_laguerre(1 + max(e2[0] + e1[1] for _, e1, e2 in matched) // 2)
    radii = [math.sqrt(t / scale) for t in nodes]
    factors = [w * math.exp(t) / (2.0 * scale) for t, w in zip(nodes, weights)]
    lf = specfun.log_factorial
    # Each distinct P_s and Q factor at the radii, in order of first use.
    p_values: dict[tuple[int, int], list[float]] = {}
    q_values: dict[tuple[int, int], list[float]] = {}
    for i, e1, e2 in matched:
        if e1 not in p_values:
            radial = p_rep_radial_fn(e1, s)
            p_values[e1] = [radial(r) for r in radii]
        if e2 not in q_values:
            log_pref = -0.5 * (lf(e2[0]) + lf(e2[1])) - math.log(math.pi)
            q_values[e2] = [math.exp(log_pref + sum(e2) * math.log(r) - r * r) for r in radii]
        terms = [f * p * q for f, p, q in zip(factors, p_values[e1], q_values[e2])]
        integral = _gated(math.fsum(terms), math.fsum(map(abs, terms)), "gamma",
                          f"labels {e1} and {e2}")
        values[i] = math.pi * (2.0 * math.pi if e1[0] == e1[1] else math.pi) * integral
    return values


def delta_s_exact(m: int, s: float) -> float:
    """Exact || |m><m| - C_s(|m><m|) ||, with no truncation.

    C_s adds thermal noise of mean photon number s (V -> V + 2s I at hbar = 2,
    so C_s(|0><0|) is the thermal state s^k/(1+s)^(k+1)). It equals pure loss
    of transmissivity eta = 1/(1+s) followed by the quantum-limited amplifier
    of gain G = 1+s. Proof: all three are phase-covariant Gaussian channels
    (no displacement, M and N multiples of I), and such a channel is fixed by
    (M, N). Loss maps (M, N) to (sqrt(eta) I, (1-eta) I), the amplifier to
    (sqrt(G) I, (G-1) I), so the composite has M = sqrt(G eta) I = I and
    N = G(1-eta) I + (G-1) I = 2s I, which is C_s.

    The loss Kraus operators K_l|m> = sqrt(C(m,l) x^l eta^(m-l)) |m-l> and the
    amplifier Kraus operators B_t|q> = sqrt(C(q+t,t) x^t G^-(q+1)) |q+t>,
    with x = 1-eta = (G-1)/G = s/(1+s), map |m><m| to a diagonal state, which
    keeps at m the population (t = l)
        p_m = sum_l C(m,l)^2 x^(2l) eta^(m-l) G^-(m-l+1)
            = (1+s)^-(2m+1) sum_{l<=m} C(m,l)^2 s^(2l).
    C_s is trace preserving, so the other populations sum to 1 - p_m and the
    distance is |1 - p_m| + (1 - p_m) = 2 (1 - p_m). It is evaluated as
    -2 expm1(log1p(tail) - (2m+1) log1p(s)), where the tail is the sum
    without its first term 1: m positive terms, so nothing cancels.
    """
    if m < 0:
        raise ValueError(f"Fock index must be non-negative, got {m}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"noise parameter s must lie in (0, 1), got {s}")
    tail = sum((math.comb(m, l) * s**l) ** 2 for l in range(1, m + 1))
    return -2.0 * math.expm1(math.log1p(tail) - (2 * m + 1) * math.log1p(s))


# ---------------------------------------------------------------------------
# Curve-family property suite
# ---------------------------------------------------------------------------

#: Constructors whose curves stay trivial for r > tau however small eps0 is
#: (the step function and its information-processing interpolation).
NON_CONVERGING_FOR_LARGE_R = ("step", "lipschitz")


def concavity_and_limit_suite(tau: float) -> SuiteReport:
    """Midpoint concavity to 1e-10 (where concavified) on an 81-point grid of
    [0, 100], pointwise eps0-monotonicity to 1e-12, and pointwise
    convergence below 0.05 as eps0 -> 0, with the step/lipschitz large-r
    exception left unchecked and reported as documented."""
    assertions = []
    nbars = linspace(100.0, 81)
    # The probes sit at fixed multiples of tau^2, where every exponential
    # curve takes the same values at any tau: nbar enters it only as nbar/tau^2.
    # A multiple that overflows (tau near its upper limit) is no input, so it
    # is left out.
    probe_nbars = tuple(p for p in (tau * tau * n for n in (0.5, 2.0, 10.0, 50.0))
                        if p < math.inf)
    eps0_values = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    steps = len(eps0_values) - 1
    for name in ("step", "lipschitz", "gaussian", "phase_rotation",
                 "squeezing", "displacement", "symmetric"):
        constructor = CURVE_CONSTRUCTORS[name]
        curve = constructor(InDistributionGuarantee(eps0=0.3, tau=tau))

        if curve.concavified:
            # The grid step is exact, so the midpoint of nbars[i] and
            # nbars[i + 2] is nbars[i + 1].
            values = [curve(nbar) for nbar in nbars]
            gaps = [0.5 * (a + b) - mid for a, mid, b in zip(values, values[1:], values[2:])]
            assertions.append(slack_assertion(
                f"concavity:{name}", 0.0, gaps,
                lambda k: {"nbar": nbars[k + 1]}, "gap", 1e-10,
            ))

        probes = [constructor(InDistributionGuarantee(eps0, tau)) for eps0 in eps0_values]
        # One row per probe nbar, one column per eps0.
        values = [[c(nbar) for c in probes] for nbar in probe_nbars]
        assertions.append(slack_assertion(
            f"eps0-monotone:{name}", [x for row in values for x in row[:-1]],
            [x for row in values for x in row[1:]],
            lambda k: {"nbar": probe_nbars[k // steps], "eps0": eps0_values[k % steps + 1]},
            "value", 1e-12,
        ))
        exempt = name in NON_CONVERGING_FOR_LARGE_R
        checked = [i for i, nbar in enumerate(probe_nbars) if not (exempt and nbar > tau * tau)]
        assertions.append(slack_assertion(
            f"eps0-convergence:{name}", 0.05, [values[i][-1] for i in checked],
            lambda k: {"nbar": probe_nbars[checked[k]], "eps0": eps0_values[-1]},
            "final_value", 0.0, documented_exception=exempt,
        ))
    return SuiteReport(name="concavity-limits", assertions=assertions)


# ---------------------------------------------------------------------------
# Fock-space state builders (for soundness suites)
# ---------------------------------------------------------------------------

def fock_state(m: int, dim: int) -> FockMatrix:
    if m >= dim:
        raise ValueError(f"m = {m} does not fit in dimension {dim}")
    mat = np.zeros((dim, dim), dtype=complex)
    mat[m, m] = 1.0
    return FockMatrix(mat)


def coherent_projector(alpha: complex, dim: int) -> FockMatrix:
    vec = coherent_fock_vector(alpha, dim)
    return FockMatrix(np.outer(vec, vec.conj()))


def squeezed_vacuum_state(lam: float, dim: int) -> FockMatrix:
    """rho = sqrt(1-lam^2) sum_{p,q} lam^{p+q} sqrt((2p)!(2q)!)/(2^{p+q} p! q!)
    |2p><2q|, truncated to the given dimension."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    n_half = (dim + 1) // 2
    amp = np.zeros(dim)
    lf = specfun.log_factorial
    for p in range(n_half):
        if 2 * p >= dim:
            break
        log_a = p * math.log(lam) + 0.5 * lf(2 * p) - p * math.log(2.0) - lf(p)
        amp[2 * p] = math.exp(log_a)
    mat = math.sqrt(1.0 - lam * lam) * np.outer(amp, amp)
    return FockMatrix(mat.astype(complex))


def spat_state(q: float, dim: int) -> FockMatrix:
    """Photon-added thermal state: diagonal entries
    (k+1) q^k / (1+q)^{k+2} at photon number k+1."""
    if not q > 0.0:
        raise ValueError("q must be positive")
    diag = np.zeros(dim)
    for k in range(dim - 1):
        diag[k + 1] = (k + 1) * q**k / (1.0 + q) ** (k + 2)
    return FockMatrix(np.diag(diag).astype(complex))


def classical_mixture(alphas: list[complex], weights: list[float], dim: int) -> FockMatrix:
    if len(alphas) != len(weights) or not alphas:
        raise ValueError("need matching, non-empty alphas and weights")
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError("weights must be a probability vector")
    mat = np.zeros((dim, dim), dtype=complex)
    for alpha, w in zip(alphas, weights):
        mat += w * coherent_projector(alpha, dim).entries
    return FockMatrix(mat)


def phase_rotation_state_distance(delta_theta: float, rho: FockMatrix) -> float:
    """Exact || U rho U^dag - V rho V^dag || for phase rotations differing by
    delta_theta (diagonal in the Fock basis, so no truncation error)."""
    phases = np.exp(1j * delta_theta * np.arange(rho.dim))
    rotated = FockMatrix(phases[:, None] * rho.entries * phases.conj()[None, :])
    return trace_distance(rho, rotated)


# ---------------------------------------------------------------------------
# Named suites (CLI entry points)
# ---------------------------------------------------------------------------

def _scaled_curve(curve: BoundCurve, scale: float) -> BoundCurve:
    if scale == 1.0:
        return curve
    return BoundCurve(
        class_tag=f"{curve.class_tag}(x{scale:g})",
        guarantee=curve.guarantee,
        eval_fn=lambda nbar: scale * curve(nbar),
        concavified=curve.concavified,
    )


def run_dominance_suite(
    g: InDistributionGuarantee,
    classes: tuple[str, ...] = SUPPORTED_CLASSES,
    seed: int = 0,
    curve_scale: float = 1.0,
) -> SuiteReport:
    """Worst-case, witness, and two random sub-worst-case pairs against their
    matching curves plus the trivial step bound."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    radii = [math.sqrt(r2) for r2 in R2_GRID]

    def on_r2_grid(curve: BoundCurve) -> list[float]:
        return [curve(nbar) for nbar in R2_GRID]

    rng = random.Random(seed)
    assertions = []
    step = on_r2_grid(_scaled_curve(CURVE_CONSTRUCTORS["step"](g), curve_scale))
    for class_tag in classes:
        entry = _channel_class(class_tag)
        pairs = [("worst", worst_case_pair(class_tag, g))]
        if entry.witness:
            pairs.append(("witness", equality_witness_pair(class_tag, g)))
        for i in range(2):
            pairs.append((f"random{i}", worst_case_pair(class_tag, g, rng.uniform(0.05, 0.999))))
        scaled = [_scaled_curve(CURVE_CONSTRUCTORS[name](g), curve_scale) for name in entry.curves]
        curves = [(curve.class_tag, on_r2_grid(curve)) for curve in scaled]
        for kind, pair in pairs:
            distances = exact_coherent_distance(pair, radii, PHI_GRID)
            prefix = f"dominance:{class_tag}:{kind}:vs:"
            for tag, bounds in curves:
                assertions.append(dominance_suite(bounds, distances, prefix + tag))
            if kind != "witness":
                assertions.append(dominance_suite(step, distances, prefix + "step"))
    return SuiteReport(name="dominance", assertions=assertions, seed=seed)


#: Element indices m, n <= QUADRATURE_MAX_INDEX and the s values of the gamma
#: and mu-nu suites, and the relative tolerance of the gamma suite.
QUADRATURE_MAX_INDEX = 6
QUADRATURE_S_VALUES = (0.05, 0.1, 0.3)
GAMMA_REL_TOL = 1e-6
#: Fock indices m <= DELTA_S_MAX_M and the s values of the delta-s suite.
DELTA_S_MAX_M = 5
DELTA_S_S_VALUES = (0.005, 0.01, 0.02, 0.05)


def _quadrature_elements() -> list[tuple[int, int]]:
    """The elements (m, n), n <= m <= QUADRATURE_MAX_INDEX, of the gamma and
    mu-nu suites."""
    return [(m, n) for m in range(QUADRATURE_MAX_INDEX + 1) for n in range(m + 1)]


def run_gamma_suite() -> SuiteReport:
    """Closed-form overlap coefficients against 2-d quadrature for every
    matched pair of elements up to QUADRATURE_MAX_INDEX: each relative
    error at most GAMMA_REL_TOL."""
    from .cvcore import gamma_overlap

    elements = _quadrature_elements()
    pairs = [(e1, e2) for i, e1 in enumerate(elements) for e2 in elements[i:]
             if e1[0] - e1[1] == e2[0] - e2[1]]
    assertions = []
    for s in QUADRATURE_S_VALUES:
        quadrature = gamma_quadrature(pairs, s)
        closed = [gamma_overlap(e1, e2, s) for e1, e2 in pairs]
        rel_error = [abs(q - c) / max(abs(c), 1e-300) for q, c in zip(quadrature, closed)]

        def point(k: int) -> dict:
            return {"labels": [list(e) for e in pairs[k]], "s": s,
                    "closed": _finite_or_none(closed[k]),
                    "quadrature": _finite_or_none(quadrature[k])}

        assertions.append(slack_assertion(
            f"gamma-closed-form:s={s}", 0.0, rel_error, point, "rel_error", GAMMA_REL_TOL,
            pairs=len(pairs),
        ))
    return SuiteReport(name="gamma-closed-form", assertions=assertions)


def run_mu_nu_suite() -> SuiteReport:
    """Exact mass/second-moment values against the closed-form bounds: each
    ratio of a value to its bound at most 1 + 1e-9. The bounds are read off
    the scalar fock_log_mu, which equals the FockMassTable value."""
    elements = _quadrature_elements()
    assertions = []
    for s in QUADRATURE_S_VALUES:
        # Element by element: mu, then nu.
        bounds = []
        for m, n in elements:
            log_mu = fock_log_mu(s, m, n)
            bounds += [math.exp(log_mu), math.exp(log_mu + math.log(nu_mu_element_ratio(s, m, n)))]
        numeric = [x for pair in mu_nu_numeric(elements, s) for x in pair]

        def point(k: int) -> dict:
            return {"element": list(elements[k // 2]), "s": s, "kind": ("mu", "nu")[k % 2],
                    "numeric": _finite_or_none(numeric[k]),
                    "closed_form": _finite_or_none(bounds[k])}

        assertions.append(slack_assertion(
            f"mu-nu-dominance:s={s}", 1.0, [x / b for x, b in zip(numeric, bounds)], point,
            "ratio", 1e-9,
        ))
    return SuiteReport(name="mu-nu", assertions=assertions)


def run_delta_s_suite() -> SuiteReport:
    """Exact additive-noise distances against the penalty bound
    delta_s_bound(s, 1 + 2m) that the smoothed bounds pay."""
    fock_indices = range(DELTA_S_MAX_M + 1)
    assertions = []
    for s in DELTA_S_S_VALUES:
        exact = [delta_s_exact(m, s) for m in fock_indices]
        bound = [delta_s_bound(s, 1.0 + 2.0 * m) for m in fock_indices]
        assertions.append(slack_assertion(
            f"delta-s-dominance:s={s}", bound, exact, lambda k: {"m": k, "s": s}, "exact",
            VIOLATION_TOL,
        ))
    return SuiteReport(name="delta-s", assertions=assertions)


#: Each suite from (g, seed, curve_scale, classes); only the dominance suite
#: reads the last three.
SUITE_RUNNERS = {
    "dominance": lambda g, seed, curve_scale, classes: run_dominance_suite(
        g, classes, seed, curve_scale
    ),
    "gamma-closed-form": lambda g, *_: run_gamma_suite(),
    "mu-nu": lambda g, *_: run_mu_nu_suite(),
    "delta-s": lambda g, *_: run_delta_s_suite(),
    "concavity-limits": lambda g, *_: concavity_and_limit_suite(tau=g.tau),
}


def run_suites(
    suite: str,
    g: InDistributionGuarantee,
    *,
    seed: int,
    curve_scale: float,
    classes: tuple[str, ...],
) -> list[SuiteReport]:
    """The report of one suite of SUITE_RUNNERS, or of each for "all"."""
    if suite != "all" and suite not in SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITE_RUNNERS)}")
    names = list(SUITE_RUNNERS) if suite == "all" else [suite]
    return [SUITE_RUNNERS[name](g, seed, curve_scale, classes) for name in names]
