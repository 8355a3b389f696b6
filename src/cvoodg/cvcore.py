"""Fock-space and Gaussian-channel numerics for one bosonic mode.

Conventions fixed once, here:
  * hbar = 2, so a coherent state |r e^{i phi}> has first moments
    q = (2 r cos phi, 2 r sin phi) and covariance V = I.
  * Trace norm ||.|| is the sum of absolute eigenvalues; density-matrix
    differences therefore range over [0, 2].

Covers Gaussian channels and their output fidelity, coherent-state Fock
vectors, trace distance, the Fock-element P-representations of the additive
noise (Gaussian convolution) channel C_s and its overlap coefficients, and
C_s on diagonal states. A Fock element is its index pair (m, n), the diagonal
|m><m| for m = n and the symmetrized (|m><n| + |n><m|) / 2 otherwise, so
(m, n) and (n, m) name the same element. A diagonal state is its vector of
photon-number populations; C_s is phase covariant, so it maps such a state
to another one. No operation changes a value after its construction, and
all operations are pure.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable

from ._np import np
from . import specfun

__all__ = [
    "DegenerateInputError",
    "QuadratureError",
    "GaussianChannel",
    "FockMatrix",
    "gaussian_output_fidelity_sq",
    "coherent_fock_vector",
    "trace_distance",
    "p_rep_radial_fn",
    "gamma_overlap",
    "additive_noise_diagonal",
    "delta_s_bound",
    "mean_photon_number",
    "rotation_channel",
    "displacement_channel",
    "squeezing_channel",
    "loss_channel",
]


_SYM_TOL = 1e-12
_PSD_TOL = 1e-10


class _Record:
    """Base of the package's plain record classes: equality, hash and repr
    from the values of the fields that a subclass names in __slots__, in
    order, so a record compares equal only to a record of its own class."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class DegenerateInputError(ValueError):
    """A Gaussian fidelity evaluation hit a singular covariance combination."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


def _as_matrix(x, shape) -> np.ndarray:
    arr = np.array(x, dtype=float, copy=True)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    return arr


class GaussianChannel(_Record):
    """One-mode Gaussian channel (d, M, N): q -> M q + d, V -> M V M^T + N."""

    __slots__ = ("d", "M", "N")

    def __init__(self, d: np.ndarray, M: np.ndarray, N: np.ndarray):
        self.d = _as_matrix(d, (2,))
        self.M = _as_matrix(M, (2, 2))
        self.N = _as_matrix(N, (2, 2))
        if not np.allclose(self.N, self.N.T, atol=_SYM_TOL, rtol=0.0):
            raise ValueError("noise matrix N must be symmetric")
        if np.linalg.eigvalsh(self.N).min() < -_PSD_TOL:
            raise ValueError("noise matrix N must be positive semidefinite")
        det_n = float(np.linalg.det(self.N))
        det_m = float(np.linalg.det(self.M))
        if det_n < (det_m - 1.0) ** 2 - _SYM_TOL:
            raise ValueError(
                f"channel violates det N >= (det M - 1)^2: "
                f"det N = {det_n:.3e}, (det M - 1)^2 = {(det_m - 1.0) ** 2:.3e}"
            )


class FockMatrix(_Record):
    """Finite-dimensional Hermitian operator in the Fock basis.

    Finite entries, trace in [0, 1 + tol] (sub-normalized states come out of
    truncation) and eigenvalues above -1e-10.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        arr = np.array(entries, dtype=complex, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"entries must be a square matrix, got shape {arr.shape}")
        # eigvalsh gives NaN for a non-finite entry, which no tolerance rejects.
        if not np.isfinite(arr).all():
            raise ValueError("Fock matrix entries must be finite")
        if not np.allclose(arr, arr.conj().T, atol=_SYM_TOL, rtol=0.0):
            raise ValueError("Fock matrix must be Hermitian")
        tr = float(np.real(np.trace(arr)))
        if tr < -_SYM_TOL or tr > 1.0 + 1e-12:
            raise ValueError(f"trace {tr} outside [0, 1]")
        if np.linalg.eigvalsh(arr).min() < -_PSD_TOL:
            raise ValueError("Fock matrix has a significantly negative eigenvalue")
        self.entries = arr

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# Gaussian channels and their output fidelity
# ---------------------------------------------------------------------------

def gaussian_output_fidelity_sq(c1: GaussianChannel, c2: GaussianChannel, r, phi=0.0) -> float:
    """Squared fidelity of the two channel outputs on input |r e^{i phi}>.

    F^2 = 2 exp(-mu^T (V1+V2)^{-1} mu / 2) / (sqrt(Delta + delta) - sqrt(delta))
    with mu = (M2 - M1) q + (d2 - d1), q = (2 r cos phi, 2 r sin phi),
    V_i = M_i M_i^T + N_i, delta = (det V1 - 1)(det V2 - 1) and
    Delta = det(V1 + V2).
    """
    if r < 0.0:
        raise ValueError("amplitude r must be non-negative")
    v1 = c1.M @ c1.M.T + c1.N
    v2 = c2.M @ c2.M.T + c2.N
    vsum = v1 + v2
    det_sum = float(np.linalg.det(vsum))
    if det_sum <= _SYM_TOL:
        raise DegenerateInputError("V1 + V2 is singular")
    delta = max((float(np.linalg.det(v1)) - 1.0) * (float(np.linalg.det(v2)) - 1.0), 0.0)
    denom = math.sqrt(det_sum + delta) - math.sqrt(delta)
    q = np.array([2.0 * r * math.cos(phi), 2.0 * r * math.sin(phi)])
    mu = (c2.M - c1.M) @ q + (c2.d - c1.d)
    f2 = 2.0 * math.exp(-0.5 * float(mu @ np.linalg.solve(vsum, mu))) / denom
    if f2 > 1.0 + 1e-12:
        raise ValueError(f"fidelity^2 = {f2} exceeds 1 beyond tolerance")
    return min(max(f2, 0.0), 1.0)


def rotation_channel(theta: float) -> GaussianChannel:
    c, s = math.cos(theta), math.sin(theta)
    return GaussianChannel(d=np.zeros(2), M=np.array([[c, -s], [s, c]]), N=np.zeros((2, 2)))


def displacement_channel(d: np.ndarray) -> GaussianChannel:
    return GaussianChannel(d=np.asarray(d, dtype=float), M=np.eye(2), N=np.zeros((2, 2)))


def squeezing_channel(s: float) -> GaussianChannel:
    return GaussianChannel(
        d=np.zeros(2), M=np.diag([math.exp(s), math.exp(-s)]), N=np.zeros((2, 2))
    )


def loss_channel(eta: float) -> GaussianChannel:
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    return GaussianChannel(
        d=np.zeros(2), M=math.sqrt(eta) * np.eye(2), N=(1.0 - eta) * np.eye(2)
    )


# ---------------------------------------------------------------------------
# Fock-space basics
# ---------------------------------------------------------------------------

def coherent_fock_vector(alpha: complex, dim: int) -> np.ndarray:
    """Fock amplitudes e^{-|alpha|^2/2} alpha^m / sqrt(m!) for m < dim.

    The caller picks dim large enough that the dropped Poisson tail is
    negligible.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    a2 = abs(alpha) ** 2
    out = np.zeros(dim, dtype=complex)
    out[0] = 1.0
    for m in range(1, dim):
        out[m] = out[m - 1] * alpha / math.sqrt(m)
    return out * math.exp(-a2 / 2.0)


def trace_distance(rho: FockMatrix, sigma: FockMatrix) -> float:
    """Sum of absolute eigenvalues of rho - sigma (range [0, 2])."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    eigs = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return float(np.sum(np.abs(eigs)))


def mean_photon_number(rho: FockMatrix) -> float:
    """Sum_m m <m|rho|m> (not normalized by the trace)."""
    diag = np.real(np.diag(rho.entries))
    return float(np.dot(np.arange(rho.dim), diag))


# ---------------------------------------------------------------------------
# P-representations of convolved Fock elements
# ---------------------------------------------------------------------------

def _fock_element(pair) -> tuple[int, int]:
    """The index pair of a Fock element with the larger index first.

    Either order of (m, n) names the same element; each index must be a
    non-negative integer (TypeError for a non-integer, ValueError for a
    negative one)."""
    m, n = map(operator.index, pair)
    if m < 0 or n < 0:
        raise ValueError(f"Fock indices must be non-negative, got {(m, n)}")
    return (m, n) if m >= n else (n, m)


def p_rep_radial_fn(pair, s: float) -> Callable:
    """The radial factor r -> P_s(r) of the element's smoothed
    P-representation, for one index pair and one s.

    Diagonal (m, m): the full value (no angular dependence),
        (-1)^m / pi * (1-s)^m / s^(m+1) * exp(-r^2/s) * L_m[r^2 / (s(1-s))].
    Off-diagonal (m, n), m > n: the factor multiplying cos((m-n) phi),
        (-1)^n / pi * sqrt(n!/m!) * (1-s)^n / s^(m+1) * exp(-r^2/s)
        * r^(m-n) * L_n^(m-n)[r^2 / (s(1-s))].

    s and the pair are validated, and the r-free part of the log prefactor
    computed, once here; the returned function does only the r-dependent
    work, so a quadrature builds it once. It takes a float r >= 0 (and
    returns a float) or an ndarray of them (and returns one of the same
    shape, each element equal to the float call).
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"noise parameter s must lie in (0, 1), got {s}")
    m, n = _fock_element(pair)
    delta = m - n
    order = float(delta)
    lf = specfun.log_factorial
    log_const = (
        0.5 * (lf(n) - lf(m))
        - math.log(math.pi)
        + n * math.log1p(-s)
        - (m + 1) * math.log(s)
    )
    scale = s * (1.0 - s)
    sign = -1.0 if n % 2 else 1.0

    def radial(r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0):
            raise ValueError("radius must be non-negative")
        r2 = r * r
        lag = specfun.laguerre(n, order, r2 / scale)
        # log 0 = -inf where L vanishes, or at r = 0 off the diagonal, and
        # exp(-inf) = 0 there.
        with np.errstate(divide="ignore"):
            log_pref = log_const - r2 / s
            if delta:
                log_pref = log_pref + delta * np.log(r)
            value = sign * np.copysign(np.exp(log_pref + np.log(np.abs(lag))), lag)
        return float(value) if value.ndim == 0 else value

    return radial


def _log_overlap_poly(m1: int, m2: int, delta: int, s: float, lf: list[float]) -> float:
    """log of the positive polynomial
    G[m1, m2, Delta, s] = sum_k C(n1, k) n2!/(n2-k)! Delta!/(Delta+k)! s^{2(n1-k)}
    with n_i = m_i - Delta and m2 >= m1 >= Delta. All terms positive. lf
    holds log k! for k <= m2.
    """
    n1 = m1 - delta
    n2 = m2 - delta
    log_s = math.log(s) if s > 0.0 else -math.inf
    logs = []
    for k in range(n1 + 1):
        term = (
            lf[n1] - lf[k] - lf[n1 - k]
            + lf[n2] - lf[n2 - k]
            + lf[delta] - lf[delta + k]
        )
        if n1 - k > 0:
            term += 2.0 * (n1 - k) * log_s
        logs.append(term)
    peak = max(logs)
    return peak + math.log(sum(math.exp(t - peak) for t in logs))


def gamma_overlap(pair1, pair2, s: float) -> float:
    """Overlap coefficient gamma_s = pi * integral of P_s[element1] * Q[element2].

    Vanishes unless |m1 - n1| = |m2 - n2|; otherwise given in closed form by
    the positive-coefficient polynomial G (evaluated in log space).
    """
    if not 0.0 < s < 0.5:
        raise ValueError(f"gamma_overlap requires s in (0, 1/2), got {s}")
    (a1, b1), (a2, b2) = _fock_element(pair1), _fock_element(pair2)
    delta = a1 - b1
    if a2 - b2 != delta:
        return 0.0
    # Symmetric under swapping the two elements; order so m2 >= m1.
    m1, m2 = sorted((a1, a2))
    # Every factorial below has an argument of at most m2.
    lf = [specfun.log_factorial(k) for k in range(m2 + 1)]
    log_g = _log_overlap_poly(m1, m2, delta, s, lf)
    log_core = (m2 - m1) * (math.log(s) if s > 0 else -math.inf)
    if m2 == m1:
        log_core = 0.0
    log_core += log_g - (m1 + m2 + 1 - delta) * math.log1p(s)
    if delta == 0:
        return math.exp(log_core)
    log_binoms = 0.5 * (
        lf[m1] - lf[delta] - lf[m1 - delta] + lf[m2] - lf[delta] - lf[m2 - delta]
    )
    return 0.5 * math.exp(log_binoms + log_core)


# ---------------------------------------------------------------------------
# Additive noise channel C_s
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _sqrt_binomials(top: int) -> np.ndarray:
    """Read-only table of sqrt(C(a, b)) for 0 <= b <= a < top, zero above.

    Cached: at top = 64 it costs about 0.7 ms, more than the rest of an
    additive_noise_diagonal call on a Fock state.
    """
    table = np.zeros((top, top))
    for a in range(top):
        table[a, : a + 1] = [math.sqrt(math.comb(a, b)) for b in range(a + 1)]
    table.setflags(write=False)
    return table


def _cs_transfer(sqrt_binom: np.ndarray, n: np.ndarray, out_len: int, s: float) -> np.ndarray:
    """Transfer matrix T[k, i] = <k| C_s(|n_i><n_i|) |k> for k < out_len, as
    the positive loss-then-amplifier sum of additive_noise_diagonal
    (x = s/(1+s), t = k-n+l):

        T[k, i] = sum_l C(n,l) C(k,t) x^(l+t) (1+s)^(2l-2n-1)
                = sum_l C(n,l) C(k,t) s^(l+t) (1+s)^(l-t-2n-1).

    Each binomial is the product of two table roots sqrt(C), one from each
    Kraus amplitude, and the power of 1+s is exp(e log1p(s)): a power of the
    rounded 1+s would carry its rounding error e times. sqrt_binom is
    _sqrt_binomials of a size above every n and k.
    """
    nn = n[None, :, None]
    kk = np.arange(out_len)[:, None, None]
    ll = np.arange(int(n.max(initial=0)) + 1)[None, None, :]
    tt = kk - nn + ll
    keep = (ll <= nn) & (tt >= 0)
    ll = np.where(keep, ll, 0)
    tt = np.where(keep, tt, 0)
    terms = (
        sqrt_binom[nn, ll] * sqrt_binom[nn, ll] * sqrt_binom[kk, tt] * sqrt_binom[kk, tt]
        * s ** (ll + tt)
        * np.exp((ll - tt - nn - nn - 1) * math.log1p(s))
    )
    return np.where(keep, terms, 0.0).sum(axis=2)


def additive_noise_diagonal(populations, s: float, out_dim: int) -> np.ndarray:
    """The photon-number populations, k < out_dim, of C_s applied to the
    diagonal state with the given populations.

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
    with x = 1-eta = (G-1)/G = s/(1+s), have positive coefficients, so each
    output population is a finite sum of positive terms (_cs_transfer) and
    float arithmetic resolves it to a few ulp; nothing cancels. Phase
    covariance keeps a diagonal state diagonal, and the output is one
    product of a transfer matrix with the nonzero populations. A non-finite
    or negative population raises ValueError.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"noise parameter s must lie in (0, 1), got {s}")
    if out_dim < 1:
        raise ValueError("out_dim must be positive")
    populations = np.asarray(populations, dtype=float)
    if not np.isfinite(populations).all():
        raise ValueError("populations must be finite")
    if (populations < 0.0).any():
        raise ValueError("populations must be non-negative")
    (n,) = np.nonzero(populations)
    sqrt_binom = _sqrt_binomials(max(populations.size, out_dim))
    return _cs_transfer(sqrt_binom, n, out_dim, s) @ populations[n]


def delta_s_bound(s: float, scale: float) -> float:
    """Distance bound delta_s = 2 sqrt(s scale) between a state of mean
    photon number nbar and its additive-noise image C_s, with
    scale = 1 + 2 nbar. Every smoothed bound pays twice this, once for each
    of the two channels; callers pass the scale they hold, since forms such
    as 3 + 4q are not 1 + 2 nbar bit for bit. C_0 is the identity, so s = 0
    costs 0 at every scale, also where the scale has overflowed to inf."""
    if not 0.0 <= s < 1.0:
        raise ValueError(f"noise parameter s must lie in [0, 1), got {s}")
    return 2.0 * math.sqrt(s * scale) if s else 0.0
