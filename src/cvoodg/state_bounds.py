"""Extension of a concave coherent-state bound curve to arbitrary inputs.

Given a concavified BoundCurve eps(eps0, nbar), this module produces output
trace-distance bounds for classical states, states of known finite
P-negativity, photon-added thermal states, Fock states, one-mode squeezed
vacuums, states with a known Fock matrix, and states known only through
their average energy. Every bound clamps to the trace-norm ceiling 2 and
reports its pre-clamp value and chosen free parameters.

The free parameters (noise s, truncation M, energy-split kappa) are tuned
by deterministic grid + golden-section searches in s. One tie rule,
``_search.first_min``, makes every choice inside a search and among the
searched candidates: a later candidate wins only when it is lower by more
than 1e-15, so near-ties go to the smaller s inside a search, the smaller
M, then the smaller kappa, and to the unsmoothed (s = 0) SPAT point and the
classical squeezed-vacuum branch over their searched rivals. The
finite-negativity bound ranks no searched candidates: it takes the exact
lesser of its two closed forms.

A Fock state's smoothed mass is the one closed form
2(1-s)^(m+1)/(s^m (1-2s)), bit for bit ``FockMassTable`` at (m, m), so the
Fock bound builds no table and loads no numpy. A known Fock matrix gives
each truncation M its own ``FockMassTable``, the M x M block of |rho| with
its zero amplitudes dropped, so one s of its search evaluates at most
sum_M M^2 elements.

Every smoothed bound pays the penalty 2 cvcore.delta_s_bound(s, scale),
with scale = 1 + 2 nbar in the form the caller holds. The classical
squeezed-vacuum branch is not searched: its objective, a concave curve
bounded below plus the penalty, is non-decreasing in s, so its least value
is at its left end (proof in ``squeezed_vacuum_bound``).

The state kinds are one table, ``STATE_KINDS``: a row per kind gives its
spec record, the syntax and parser of its arguments, and its certificates,
the bound functions themselves. Each bound takes (curve, spec) with the
record of its kind, reads the fields that the record has checked and no
other n̄ than ``spec.nbar``, and returns a ``BoundReport``, or None where it
does not apply. ``parse_state_spec`` and ``extend`` both read the table, and
``extend`` reports the least certificate that applies, by ``first_min`` in
the row's order.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

from ._np import np
from .coherent_bounds import (
    BoundCurve,
    FockMassTable,
    TRACE_NORM_CEILING,
    fock_log_mu,
    log_factorial_array,
)
from .cvcore import FockMatrix, _Record, delta_s_bound, mean_photon_number
from ._search import first_min, grid_seeded_log_min

__all__ = [
    "NegativityProfile",
    "Classical",
    "SPAT",
    "Fock",
    "SqueezedVacuum",
    "KnownFock",
    "EnergyOnly",
    "ExtensionParams",
    "BoundReport",
    "classical_bound",
    "finite_negativity_bound",
    "spat_mu_nu",
    "spat_bound",
    "fock_bound",
    "nu_mu_element_ratio",
    "known_fock_bound",
    "squeezed_vacuum_mu_ub",
    "squeezed_vacuum_eta_exact",
    "squeezed_vacuum_bound",
    "generic_energy_bound",
    "STATE_KINDS",
    "extend",
    "finite_float",
    "parse_state_spec",
]

_S_SEARCH_RANGE = (1e-8, 0.49)
#: Largest truncation M that the energy-only bound tries.
_ENERGY_M_MAX = 60


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class NegativityProfile(_Record):
    """P-representation summary: negativity N and the mean photon numbers of
    the positive/negative parts. mu_P = 1 + 2N and
    nu_P = (1+N) nbar_plus + N nbar_minus follow; the state energy
    (1+N) nbar_plus - N nbar_minus must be at least -1e-12, a rounding
    error, and nbar is that energy with such an error taken to 0.
    """

    __slots__ = ("negativity", "nbar_plus", "nbar_minus")

    def __init__(self, negativity: float, nbar_plus: float, nbar_minus: float):
        self.negativity = negativity
        self.nbar_plus = nbar_plus
        self.nbar_minus = nbar_minus
        if negativity < 0.0:
            raise ValueError("negativity must be non-negative")
        if nbar_plus < 0.0 or nbar_minus < 0.0:
            raise ValueError("partial mean photon numbers must be non-negative")
        if not (math.isfinite(self._energy) and math.isfinite(self.mu_P)):
            raise ValueError(
                f"profile overflows: state energy {self._energy} and mu_P {self.mu_P} must be finite"
            )
        if self._energy < -1e-12:
            raise ValueError(f"profile implies negative state energy {self._energy}")

    @property
    def mu_P(self) -> float:
        return 1.0 + 2.0 * self.negativity

    @property
    def nu_P(self) -> float:
        return (1.0 + self.negativity) * self.nbar_plus + self.negativity * self.nbar_minus

    @property
    def _energy(self) -> float:
        return (1.0 + self.negativity) * self.nbar_plus - self.negativity * self.nbar_minus

    @property
    def nbar(self) -> float:
        # max(0.0, -0.0) is 0.0, so no state prints n̄ as -0 either.
        return max(0.0, self._energy)


class Classical(_Record):
    __slots__ = ("nbar",)

    def __init__(self, nbar: float):
        if nbar < 0.0:
            raise ValueError("nbar must be non-negative")
        self.nbar = nbar


class SPAT(_Record):
    """Single-photon-added thermal state; q is the pre-addition thermal mean."""

    __slots__ = ("q",)

    def __init__(self, q: float):
        self.q = q
        if not q > 0.0:
            raise ValueError("SPAT requires q > 0")
        if not math.isfinite(self.nbar):
            raise ValueError(f"SPAT requires a finite mean photon number 1 + 2q, got q {q!r}")

    @property
    def nbar(self) -> float:
        return 1.0 + 2.0 * self.q


class Fock(_Record):
    __slots__ = ("m",)

    def __init__(self, m: int):
        if m < 0 or m != int(m):
            raise ValueError("Fock index must be a non-negative integer")
        float(m)  # past the float range, OverflowError here and not in a bound
        self.m = int(m)

    @property
    def nbar(self) -> float:
        return float(self.m)


class SqueezedVacuum(_Record):
    __slots__ = ("lam",)

    def __init__(self, lam: float):
        if not 0.0 < lam < 1.0:
            raise ValueError("squeezed vacuum requires lambda in (0, 1)")
        self.lam = lam

    @property
    def nbar(self) -> float:
        return self.lam * self.lam / (1.0 - self.lam * self.lam)


class KnownFock(_Record):
    __slots__ = ("rho",)

    def __init__(self, rho: FockMatrix):
        self.rho = rho

    @property
    def nbar(self) -> float:
        return mean_photon_number(self.rho)


class EnergyOnly(_Record):
    __slots__ = ("nbar",)

    def __init__(self, nbar: float):
        if nbar < 0.0:
            raise ValueError("nbar must be non-negative")
        self.nbar = nbar


class ExtensionParams(_Record):
    """Chosen free parameters; s = 0 marks the no-smoothing branch."""

    __slots__ = ("s", "M", "kappa")

    def __init__(self, s: float | None = None, M: int | None = None,
                 kappa: float | None = None):
        if s is not None and not 0.0 <= s < 0.5:
            raise ValueError(f"s must lie in [0, 1/2), got {s}")
        if M is not None and (M < 1 or M != int(M)):
            raise ValueError(f"M must be a positive integer, got {M}")
        if kappa is not None and not kappa > 1.0:
            raise ValueError(f"kappa must exceed 1, got {kappa}")
        self.s = s
        self.M = M
        self.kappa = kappa

    def as_json(self) -> dict | None:
        if self.s is None and self.M is None and self.kappa is None:
            return None
        return {"s": self.s, "M": self.M, "kappa": self.kappa}


class BoundReport(_Record):
    """A bound value with its provenance: winning branch, chosen parameters,
    and the named intermediate quantities that reproduce the value; without
    intermediate, a report holds a fresh empty dict of its own."""

    __slots__ = ("value", "branch", "chosen_params", "intermediate")

    def __init__(self, value: float, branch: str, chosen_params: ExtensionParams | None = None,
                 intermediate: dict | None = None):
        self.value = value
        self.branch = branch
        self.chosen_params = chosen_params
        self.intermediate = {} if intermediate is None else intermediate

    def recompute(self) -> float:
        """Rebuild value from the recorded intermediates (testable identity)."""
        inter = self.intermediate
        if self.branch == "trivial":
            return TRACE_NORM_CEILING
        if self.branch == "classical":
            return _clamp(inter["curve_value"])
        if self.branch in ("finite_negativity_pm", "finite_negativity_mu_nu"):
            return min(_clamp(inter["pm_form"]), _clamp(inter["mu_nu_form"]))
        if self.branch == "spat":
            return _clamp(inter["mu"] * inter["curve_value"] + inter["penalty"])
        if self.branch == "fock":
            return _clamp(inter["prefactor"] * inter["curve_value"] + inter["penalty"])
        if self.branch in ("known_fock", "squeezed_fock"):
            return _clamp(
                inter["eta_M"] * (inter["mu_ub"] * inter["curve_value"] + inter["penalty"])
                + inter["truncation_term"]
            )
        if self.branch == "squeezed_classical":
            return _clamp(inter["curve_value"] + inter["penalty"])
        if self.branch == "energy_generic":
            return _clamp(
                inter["prefactor"] * (inter["series_term"] + inter["noise_term"])
                + inter["floor"]
            )
        raise ValueError(f"unknown branch {self.branch!r}")

    def as_json(self) -> dict:
        return {
            "value": self.value,
            "branch": self.branch,
            "params": self.chosen_params.as_json() if self.chosen_params else None,
            "intermediates": {k: _json_scalar(v) for k, v in self.intermediate.items()},
        }


def _json_scalar(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _require_concave(curve: BoundCurve, op: str) -> None:
    if not curve.concavified:
        raise ValueError(
            f"{op} requires a concavified curve (the Jensen step is invalid otherwise)"
        )


def _clamp(v: float) -> float:
    """v clamped to [0, 2]; a NaN is no bound and raises."""
    if math.isnan(v):
        raise ValueError("the bound is NaN")
    return min(max(v, 0.0), TRACE_NORM_CEILING)


# ---------------------------------------------------------------------------
# Smoothed extension: one (s, M) search for SPAT, Fock, known-Fock, squeezed inputs
# ---------------------------------------------------------------------------

class _Smoothed(NamedTuple):
    """The smoothed-extension objective at one (s, M) and the terms it sums."""

    value: float
    s: float
    M: int | None
    eta: float
    mass: float
    curve_arg: float
    curve_value: float
    penalty: float
    truncation_term: float


def _smoothed_point(curve: BoundCurve, noise_scale: float, truncation, s: float) -> _Smoothed:
    """eta (mass curve(ratio) + 2 delta_s_bound(s, noise_scale)) plus the
    truncation term min(2 l + 4 sqrt(eta l), 4 sqrt(l)), l = max(1 - eta, 0),
    for the truncation (M, eta, moments) with (mass, ratio) = moments(s); a
    zero curve value cancels an infinite mass.

    The truncation term bounds what the cut to the retained weight
    eta = tr(P rho) costs. Let Q = 1 - P and D = E - F the difference of the
    two channels: D at most doubles the trace norm of a Hermitian operator,
    and ||D(sigma)||_1 <= 2 tr sigma for sigma >= 0. The first term prices
    the truncated state P rho P / eta, so
    ||D(rho)||_1 <= eta (...) + ||D(rho - P rho P)||_1, and both forms bound
    the last norm:

    - rho - P rho P = (P rho Q + Q rho P) + Q rho Q. By Hoelder,
      ||P rho Q||_1 = ||(P sqrt rho)(sqrt rho Q)||_1
      <= ||P sqrt rho||_2 ||sqrt rho Q||_2 = sqrt(eta (1 - eta)), so the
      cross blocks give at most 2 * 2 sqrt(eta l) and Q rho Q gives 2 l.
    - By the gentle-measurement bound ||rho - P rho P||_1 <= 2 sqrt(1 - eta),
      D of it is at most 4 sqrt(l).

    The term is 0 at eta = 1 (untruncated states). l is clamped at 0, so an
    eta rounded above 1 costs nothing and raises no domain error."""
    M, eta, moments = truncation
    mass, arg = moments(s)
    cv = curve(arg)
    term = 0.0 if cv == 0.0 else mass * cv
    penalty = 2.0 * delta_s_bound(s, noise_scale)
    lost = max(1.0 - eta, 0.0)
    cut = min(2.0 * lost + 4.0 * math.sqrt(eta * lost), 4.0 * math.sqrt(lost))
    return _Smoothed(eta * (term + penalty) + cut, s, M, eta, mass, arg, cv, penalty, cut)


def _truncation(M: int, eta: float, mass_of) -> tuple:
    """The truncation (M, eta, moments) of a state cut to photon numbers
    below M: moments(s) is mass_of(s) and the element ratio at (M - 1, 0)."""
    return M, eta, lambda s: (mass_of(s), nu_mu_element_ratio(s, M - 1, 0))


def _searched_point(curve: BoundCurve, noise_scale: float, truncation) -> _Smoothed:
    """The smoothed-extension point of one truncation at the s in
    _S_SEARCH_RANGE that the search picks."""
    return grid_seeded_log_min(
        lambda s: _smoothed_point(curve, noise_scale, truncation, s), *_S_SEARCH_RANGE
    )


def _smoothed_search(curve: BoundCurve, noise_scale: float, truncations) -> _Smoothed:
    """Minimum of the smoothed-extension objective over s in _S_SEARCH_RANGE
    and the truncations (M, eta, moments) (M is None for an untruncated
    state), kept by the tie rule ``first_min`` in the order given."""
    return first_min(_searched_point(curve, noise_scale, t) for t in truncations)


def _smoothed_report(branch: str, best: _Smoothed, **terms) -> BoundReport:
    """Report of a smoothed-extension optimum; terms are its named
    intermediates, followed by the pre-clamp value."""
    return BoundReport(
        value=_clamp(best.value),
        branch=branch,
        chosen_params=ExtensionParams(s=best.s, M=best.M),
        intermediate={**terms, "pre_clamp": best.value},
    )


def _truncated_report(branch: str, best: _Smoothed, nbar: float) -> BoundReport:
    """Report of a smoothed extension that swept the truncation M."""
    return _smoothed_report(
        branch, best, eta_M=best.eta, mu_ub=best.mass, curve_arg=best.curve_arg,
        curve_value=best.curve_value, penalty=best.penalty,
        truncation_term=best.truncation_term, nbar=nbar,
    )


# ---------------------------------------------------------------------------
# Classical and finite-negativity inputs
# ---------------------------------------------------------------------------

def classical_bound(curve: BoundCurve, spec: Classical) -> BoundReport:
    """Jensen step for positive P-representations: the bound is
    curve(spec.nbar). ``_vacuum`` passes the spec of another kind, whose
    state at zero energy is the vacuum."""
    _require_concave(curve, "classical_bound")
    cv = curve(spec.nbar)
    return BoundReport(
        value=_clamp(cv),
        branch="classical",
        chosen_params=None,
        intermediate={"nbar": spec.nbar, "curve_value": cv},
    )


def finite_negativity_bound(curve: BoundCurve, profile: NegativityProfile) -> BoundReport:
    """min of the (N, nbar+-) split form and the two-moment (mu, nu) form.

    The lesser form is taken exactly, not by ``first_min``: both are closed
    forms of the same state, not searched candidates, so no tie rule orders
    them, and either is a bound, so the lower one is kept even when it is
    lower by less than 1e-15 (such near-ties occur on hulled curves)."""
    _require_concave(curve, "finite_negativity_bound")
    neg = profile.negativity
    pm = (1.0 + neg) * curve(profile.nbar_plus) + neg * curve(profile.nbar_minus)
    mu, nu = profile.mu_P, profile.nu_P
    mu_nu = mu * curve(nu / mu)
    pm_c, mu_nu_c = _clamp(pm), _clamp(mu_nu)
    branch = "finite_negativity_pm" if pm_c <= mu_nu_c else "finite_negativity_mu_nu"
    return BoundReport(
        value=min(pm_c, mu_nu_c),
        branch=branch,
        chosen_params=None,
        intermediate={
            "pm_form": pm,
            "mu_nu_form": mu_nu,
            "mu": mu,
            "nu": nu,
            "negativity": neg,
            "nbar_plus": profile.nbar_plus,
            "nbar_minus": profile.nbar_minus,
        },
    )


# ---------------------------------------------------------------------------
# Photon-added thermal states
# ---------------------------------------------------------------------------

def _spat_decay(q: float, s: float) -> float:
    return math.exp(-(1.0 - s) / (1.0 + q))


def spat_mu_nu(q: float, s: float) -> tuple[float, float]:
    """(mu_s, nu_s/mu_s) for the smoothed photon-added thermal state:

    mu_s = 2 e^{-(1-s)/(1+q)} (1+q)/(q+s) - 1,
    nu/mu = 1 + 2q + s - 2(1-s)^2 / A, A = 2 + 2q - e^{+(1-s)/(1+q)} (q+s),
    always below 1 + 2q + s.

    nu/mu is formed as N / A over the common denominator,
    N = 6q + 4q^2 + 6s + 2qs - 2s^2 - (1 + 2q + s)(q+s) e^{+(1-s)/(1+q)}.
    The difference above cancels for small q and s: at q = 1e-16, s = 0 it
    gives 0.0, where nu/mu is about 1.64 q, and 0 is no bound. In N the
    subtracted term is at most about half of the rest, so nothing cancels.
    N and A are divided by 1 + q, with k = (q+s)/(1+q), so that no term
    squares q: 4q^2 would overflow from q of about 7e153 on and make N
    inf - inf = nan. Both are then halved, term by term, so that 4q does not
    overflow from q of about 4.5e307 on; halving a normal double is exact,
    so the ratio does not move.
    """
    if not q > 0.0:
        raise ValueError("q must be positive")
    if not 0.0 <= s < 0.5:
        raise ValueError(f"s must lie in [0, 1/2), got {s}")
    e = _spat_decay(q, s)
    mu = 2.0 * e * (1.0 + q) / (q + s) - 1.0
    k = (q + s) / (1.0 + q)
    denominator = 1.0 - 0.5 * k / e
    numerator = (2.0 * q + q / (1.0 + q) + s + s * (2.0 - s) / (1.0 + q)
                 - (0.5 + q + 0.5 * s) * k / e)
    return mu, numerator / denominator


def spat_bound(curve: BoundCurve, spec: SPAT) -> BoundReport:
    """min over s = 0 and s in [1e-8, 0.49] of
    mu_s curve(nu_s/mu_s) + 2 delta_s_bound(s, 3 + 4q), q = spec.q; the
    s = 0 term carries no smoothing penalty and wins a tie."""
    _require_concave(curve, "spat_bound")
    q = spec.q
    smoothed = (None, 1.0, partial(spat_mu_nu, q))
    noise_scale = 3.0 + 4.0 * q
    best = first_min([
        _smoothed_point(curve, noise_scale, smoothed, 0.0),
        _searched_point(curve, noise_scale, smoothed),
    ])
    return _smoothed_report(
        "spat", best, mu=best.mass, nu_over_mu=best.curve_arg,
        curve_value=best.curve_value, penalty=best.penalty,
    )


# ---------------------------------------------------------------------------
# Fock states
# ---------------------------------------------------------------------------

def fock_bound(curve: BoundCurve, spec: Fock) -> BoundReport:
    """min over s in (0, 1/2) of
    2 (1-s)^(m+1)/(s^m (1-2s)) curve(2 s (1-s)/(1-2s))
    + 2 delta_s_bound(s, 1 + 2m), m = spec.m.
    """
    _require_concave(curve, "fock_bound")
    m = spec.m

    def moments(s: float) -> tuple[float, float]:
        # math.exp raises past ~709.8; an infinite prefactor rejects this s.
        log_mu = fock_log_mu(s, m, m)
        prefactor = math.exp(log_mu) if log_mu < 700.0 else math.inf
        return prefactor, nu_mu_element_ratio(s, m, m)

    best = _smoothed_search(curve, 1.0 + 2.0 * m, [(None, 1.0, moments)])
    return _smoothed_report(
        "fock", best, prefactor=best.mass, curve_arg=best.curve_arg,
        curve_value=best.curve_value, penalty=best.penalty,
    )


# ---------------------------------------------------------------------------
# Known Fock decompositions
# ---------------------------------------------------------------------------

def nu_mu_element_ratio(s: float, m: int, n: int) -> float:
    """Exact elementwise ratio nu_{s,m,n} / mu_{s,m,n} = s(1-s)(2 + |m-n|)/(1-2s)."""
    return s * (1.0 - s) * (2.0 + abs(m - n)) / (1.0 - 2.0 * s)


def _mass_sum(table: FockMassTable, s: float) -> float:
    """sum |rho_mn| mu_{s,m,n} over the table's pairs, whose weights are the
    amplitudes |rho_mn|; the table holds no zero amplitude, so an element
    mass that overflows makes the sum inf and never a NaN."""
    with np.errstate(over="ignore"):
        return float((table.weight * np.exp(table.log_mu(s))).sum())


def known_fock_bound(curve: BoundCurve, spec: KnownFock) -> BoundReport:
    """min over (s, M <= dim) of
    eta_M (mu_ub_{s,M} curve(s(1-s)(M+1)/(1-2s))
    + 2 delta_s_bound(s, 1 + 2 nbar)) plus the truncation term of
    ``_smoothed_point``, with eta_M read off the diagonal of rho = spec.rho.

    Each truncation M reads its own mass table, the M x M block of |rho| in
    row-major order with its zero amplitudes dropped, built when the search
    reaches it; one s of the search over every M evaluates at most
    sum_M M^2 elements.
    """
    _require_concave(curve, "known_fock_bound")
    rho, nbar = spec.rho, spec.nbar
    diag = np.real(np.diag(rho.entries))
    amps = np.abs(rho.entries)
    lf = log_factorial_array(rho.dim)

    def truncations():
        for M in range(1, rho.dim + 1):
            m, n = np.divmod(np.arange(M * M), M)
            table = FockMassTable(m, n, amps[:M, :M].ravel(), lf)
            yield _truncation(M, float(np.sum(diag[:M])), partial(_mass_sum, table))

    best = _smoothed_search(curve, 1.0 + 2.0 * nbar, truncations())
    return _truncated_report("known_fock", best, nbar)


# ---------------------------------------------------------------------------
# One-mode squeezed vacuums
# ---------------------------------------------------------------------------

def _geometric_sum(y: float, terms: int) -> float:
    """sum_{p=0}^{terms-1} y^p, within a few ulps; returns inf on overflow.

    Near y = 1, (y^T - 1)/(y - 1) loses an ulp of y^T divided by |y - 1|
    and reads low (5e-9 relative at y = 1 + 1e-8, T = 2), and the sum feeds
    an upper bound. For 0 < |d| < 1/2, d = y - 1 is exact (Sterbenz) and
    expm1(T log1p(d)) / d cancels nothing."""
    d = y - 1.0
    if d == 0.0:
        return float(terms)
    if y > 1.0 and terms * math.log(y) > 700.0:
        return math.inf
    if abs(d) < 0.5:
        return math.expm1(terms * math.log1p(d)) / d
    return (y**terms - 1.0) / d


def squeezed_vacuum_mu_ub(lam: float, s: float, M: int) -> float:
    """Closed-form mass bound for a truncated, smoothed squeezed vacuum
    (M odd; even-photon support makes odd truncations natural):

    (2(1-s)sqrt(1-lam^2)/(1-2s)) (4 G(y1)/(pi sqrt(1+x)) + G(y2)),
    x = (1-2s)(1-s)lam/s, y1 = lam(1-s)(1+x)/(s(1-2s)), y2 = lam(1-s)x/(s(1-2s)),
    with G the (M+1)/2-term geometric sum.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if not 0.0 < s < 0.5:
        raise ValueError(f"s must lie in (0, 1/2), got {s}")
    if M < 1 or M % 2 == 0:
        raise ValueError("M must be a positive odd integer")
    x = (1.0 - 2.0 * s) * (1.0 - s) * lam / s
    y1 = lam * (1.0 - s) * (1.0 + x) / (s * (1.0 - 2.0 * s))
    y2 = lam * (1.0 - s) * x / (s * (1.0 - 2.0 * s))
    terms = (M + 1) // 2
    g1 = _geometric_sum(y1, terms)
    g2 = _geometric_sum(y2, terms)
    pref = 2.0 * (1.0 - s) * math.sqrt(1.0 - lam * lam) / (1.0 - 2.0 * s)
    return pref * (4.0 * g1 / (math.pi * math.sqrt(1.0 + x)) + g2)


def squeezed_vacuum_eta_exact(lam: float, M: int) -> float:
    """Exact retained weight sqrt(1-lam^2) sum_{p<=(M-1)/2} lam^{2p}(2p)!/(4^p p!^2)."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if M < 1 or M % 2 == 0:
        raise ValueError("M must be a positive odd integer")
    total = 0.0
    term = 1.0
    for p in range((M - 1) // 2 + 1):
        if p > 0:
            # ratio of consecutive terms: lam^2 (2p)(2p-1) / (4 p^2).
            term *= lam * lam * (2 * p) * (2 * p - 1) / (4.0 * p * p)
        total += term
    return math.sqrt(1.0 - lam * lam) * total


def squeezed_vacuum_bound(curve: BoundCurve, spec: SqueezedVacuum) -> BoundReport:
    """Piecewise bound for a one-mode squeezed vacuum, lam = spec.lam; the
    classical branch wins a tie.

    Branch (i), s above the non-classical depth lam/(1+lam): the smoothed
    state is classical (mass 1), so curve(nbar + s) plus the smoothing
    penalty 2 delta_s_bound(s, 1 + 2 nbar). Branch (ii): the known-Fock
    machinery with the closed-form mass bound and exact eta_M, over odd
    truncations M <= 41.

    Branch (i) needs no search: its least value is at the left end
    s = lam/(1+lam) + 1e-12. Every s above the depth gives a valid bound,
    so this decides only that no smaller value is missed. A concave
    function bounded below on [a, inf) is non-decreasing, since a drop
    between two points would continue at least linearly and pass below any
    bound. The concavified curve is concave and at least 0, so
    curve(nbar + s) is non-decreasing in s; the penalty is increasing, and
    so is their sum. The left end lies below 1/2, as ``ExtensionParams``
    requires, for every lam below 1 - 4e-12.
    """
    _require_concave(curve, "squeezed_vacuum_bound")
    lam, nbar = spec.lam, spec.nbar
    noise_scale = (1.0 + lam * lam) / (1.0 - lam * lam)  # 1 + 2 nbar
    classical = (None, 1.0, lambda s: (1.0, nbar + s))
    truncations = [
        _truncation(M, squeezed_vacuum_eta_exact(lam, M), partial(squeezed_vacuum_mu_ub, lam, M=M))
        for M in range(1, 42, 2)
    ]
    best = first_min([
        _smoothed_point(curve, noise_scale, classical, lam / (1.0 + lam) + 1e-12),
        _smoothed_search(curve, noise_scale, truncations),
    ])
    if best.M is None:
        return _smoothed_report(
            "squeezed_classical", best, nbar=nbar, curve_value=best.curve_value,
            penalty=best.penalty,
        )
    return _truncated_report("squeezed_fock", best, nbar)


# ---------------------------------------------------------------------------
# Energy-only inputs
# ---------------------------------------------------------------------------

#: The kappa grid of generic_energy_bound: np.geomspace(1 + 1e-4, 1e6, 40)
#: as Python floats, written out so that energy-only inputs load no numpy.
_ENERGY_KAPPAS = (
    1.0001, 1.4252415262826028, 2.0311102972106423, 2.894533286716135,
    4.124996539781125, 5.878528511416965, 8.377485199387772, 11.938745917393598,
    17.013895063699877, 24.24648512008765, 34.55364209533261, 49.24236136243838,
    70.17524074188697, 100.00666655556059, 142.51940213986836, 203.1042598047296,
    289.44368087050407, 412.4859049062413, 587.8332573528967, 837.7205968496316,
    1193.834798572485, 1701.3327971670137, 2424.567695779387, 3455.2490384042667,
    4924.072005981196, 7017.290172312846, 10000.33332222286, 14251.465180981553,
    20309.749011404383, 28943.403339096658, 41247.21562926418, 58781.36642171795,
    83769.26746911932, 119379.50067319591, 170127.60898542224, 242448.68822437062,
    345513.3871114058, 492390.78811891994, 701705.6278233209, 1000000.0,
)


def _energy_candidates(curve: BoundCurve, nbar: float):
    """(value, M, kappa, s, curve value, series, noise) of every admissible
    pair (M, kappa) of ``generic_energy_bound``, M outermost."""
    m_lo = max(1, int(math.ceil(nbar)) + 1)
    curve_values = [curve(1.0 / kappa) for kappa in _ENERGY_KAPPAS]
    for M in range(m_lo, _ENERGY_M_MAX + 1):
        for kappa, cv in zip(_ENERGY_KAPPAS, curve_values):
            s = 1.0 / (kappa * (M + 3.0))
            if M >= 2 and (1.0 - s) * (1.0 - 2.0 * s) / (s * (M - 1.0)) <= 1.0:
                continue
            if cv == 0.0:
                series = 0.0
            else:
                log_series = (
                    math.log(2.0)
                    + M * math.log(M + 3.0)
                    + (M - 1.0) * math.log(kappa)
                    + math.log(cv)
                )
                series = math.exp(log_series) if log_series < 700.0 else math.inf
            noise = 4.0 * math.sqrt(2.0 * nbar / (kappa * M))
            value = (1.0 - nbar / M) * (series + noise) + 2.0 * nbar / M
            yield value, M, kappa, s, cv, series, noise


def generic_energy_bound(curve: BoundCurve, spec: EnergyOnly) -> BoundReport:
    """Bound from the average energy nbar = spec.nbar alone: min over
    M <= _ENERGY_M_MAX and kappa > 1 of

    (1 - nbar/M)(2 (M+3)^M kappa^(M-1) curve(1/kappa) + 4 sqrt(2 nbar/(kappa M)))
    + 2 nbar / M,

    with the validity guard (1-s)(1-2s)/(s(M-1)) > 1 at s = 1/(kappa(M+3)).
    Returns the honest trivial clamp when no admissible pair beats 2. Pairs
    are kept by the tie rule ``first_min`` in the order smaller M, then
    smaller kappa.
    """
    _require_concave(curve, "generic_energy_bound")
    nbar = spec.nbar
    best = first_min(_energy_candidates(curve, nbar))
    if best is None or best[0] >= TRACE_NORM_CEILING:
        return BoundReport(
            value=TRACE_NORM_CEILING,
            branch="trivial",
            chosen_params=None,
            intermediate={"nbar": nbar, "pre_clamp": best[0] if best else math.inf},
        )
    value, M, kappa, s, cv, series, noise = best
    return BoundReport(
        value=_clamp(value),
        branch="energy_generic",
        chosen_params=ExtensionParams(s=s, M=M, kappa=kappa),
        intermediate={
            "prefactor": 1.0 - nbar / M,
            "series_term": series,
            "noise_term": noise,
            "floor": 2.0 * nbar / M,
            "curve_value": cv,
            "nbar": nbar,
            "pre_clamp": value,
        },
    )


# ---------------------------------------------------------------------------
# State kinds: one table, read by parse_state_spec and extend
# ---------------------------------------------------------------------------

def finite_float(text: str) -> float:
    """float(text) for command-line and state-spec numbers; inf and nan are
    rejected, since no bound is defined for them, and -0 reads as 0."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value + 0.0


def _load_fock_matrix(path: str) -> FockMatrix:
    """Read a Fock matrix from a JSON file: a list of n rows of n entries,
    each a real number or an [re, im] pair of them; true and false are not
    numbers."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not (isinstance(raw, list) and raw
            and all(isinstance(row, list) and len(row) == len(raw) for row in raw)):
        raise ValueError("a Fock matrix must be a JSON list of n >= 1 rows of n entries each")

    def is_number(x):
        # JSON true and false load as bool, a subclass of int.
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def to_complex(cell):
        if is_number(cell):
            return complex(cell)
        if isinstance(cell, list) and len(cell) == 2 and all(map(is_number, cell)):
            return complex(cell[0], cell[1])
        raise ValueError(f"matrix entries must be numbers or [re, im] pairs, got {cell!r}")

    entries = np.array([[to_complex(cell) for cell in row] for row in raw])
    return FockMatrix(entries)


def _vacuum(curve: BoundCurve, spec) -> BoundReport | None:
    """The classical bound of a zero-energy state, the vacuum, which is a
    coherent state; None at any other energy."""
    return classical_bound(curve, spec) if spec.nbar == 0.0 else None


class _StateKind(NamedTuple):
    """One row of STATE_KINDS: the kind's spec record, the syntax of the text
    after 'kind:', the parser of each of its ':'-separated arguments, and the
    certificates, the bound functions (curve, spec) -> BoundReport, or None
    where one does not apply. A certificate reads the fields that the record
    has checked, and its n̄ as ``spec.nbar``."""

    spec: type
    syntax: str
    parse: Callable[[str], object]
    certificates: tuple


#: The state kinds by hyphenated name; an underscore may stand for a hyphen.
STATE_KINDS = {
    "classical": _StateKind(Classical, "nbar", finite_float, (classical_bound,)),
    "fock": _StateKind(Fock, "m", int, (_vacuum, fock_bound)),
    "spat": _StateKind(SPAT, "q", finite_float, (spat_bound,)),
    "squeezed-vacuum": _StateKind(SqueezedVacuum, "lambda", finite_float,
                                  (squeezed_vacuum_bound,)),
    "energy-only": _StateKind(EnergyOnly, "nbar", finite_float, (_vacuum, generic_energy_bound)),
    "finite-negativity": _StateKind(NegativityProfile, "N:nbar+:nbar-", finite_float,
                                    (finite_negativity_bound,)),
    "known-fock": _StateKind(KnownFock, "path", _load_fock_matrix, (known_fock_bound,)),
}
_KIND_OF_SPEC = {kind.spec: kind for kind in STATE_KINDS.values()}


def extend(curve: BoundCurve, spec) -> BoundReport:
    """The least report of the certificates of the spec's kind that apply,
    kept by the tie rule ``first_min`` in the row's order."""
    kind = _KIND_OF_SPEC.get(type(spec))
    if kind is None:
        raise TypeError(f"unsupported input state spec {spec!r}")
    reports = (certificate(curve, spec) for certificate in kind.certificates)
    return first_min((report.value, report) for report in reports if report is not None)[1]


def parse_state_spec(text: str):
    """The spec of a state description 'kind:args', such as 'fock:2' or
    'finite-negativity:0.5:2:1': a name of STATE_KINDS in any case, with an
    underscore for any hyphen, and as many arguments as its syntax has; an
    argument of one part may hold ':' (a path)."""
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    kind = STATE_KINDS.get(name.replace("_", "-"))
    if kind is None:
        raise ValueError(f"unknown state kind {name!r} in {text!r}; "
                         f"choose from {sorted(STATE_KINDS)}")
    parts = rest.split(":") if ":" in kind.syntax else [rest]
    try:
        if len(parts) != kind.syntax.count(":") + 1:
            raise ValueError(f"{name} needs {kind.syntax}")
        return kind.spec(*map(kind.parse, parts))
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise ValueError(f"invalid state spec {text!r}: {exc}") from exc
