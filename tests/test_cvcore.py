"""Fock-space and Gaussian-channel numerics tests."""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy import integrate

from cvoodg import cvcore as cv, oracle
from cvoodg.coherent_bounds import InDistributionGuarantee
from cvoodg.cvcore import FockMatrix, GaussianChannel
from cvoodg.oracle import coherent_projector, fock_state


def random_valid_channel(rng) -> GaussianChannel:
    """Random composition of rotation, squeezing, loss, and added noise."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    z = rng.uniform(-0.7, 0.7)
    eta = rng.uniform(0.2, 1.0)
    c, s = math.cos(theta), math.sin(theta)
    M = math.sqrt(eta) * np.array([[c, -s], [s, c]]) @ np.diag([math.exp(z), math.exp(-z)])
    N = (1.0 - eta) * np.eye(2) + rng.uniform(0.0, 0.5) * np.eye(2)
    return GaussianChannel(d=rng.normal(size=2), M=M, N=N)


class TestGaussianChannelValidation:
    def test_asymmetric_noise_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianChannel(d=np.zeros(2), M=np.eye(2), N=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            GaussianChannel(d=np.zeros(2), M=np.eye(2), N=-np.eye(2))

    def test_cp_condition_rejected(self):
        # Amplifier with no added noise violates det N >= (det M - 1)^2.
        with pytest.raises(ValueError, match="det N"):
            GaussianChannel(d=np.zeros(2), M=2.0 * np.eye(2), N=np.zeros((2, 2)))

    def test_loss_channel_saturates_cp_condition(self):
        cv.loss_channel(0.5)


class TestChannelBuilders:
    """Each builder's output on a coherent input, read through the fidelity."""

    def test_identity_builders_agree(self):
        identity = GaussianChannel(d=np.zeros(2), M=np.eye(2), N=np.zeros((2, 2)))
        for channel in (cv.rotation_channel(0.0), cv.displacement_channel(np.zeros(2)),
                        cv.squeezing_channel(0.0), cv.loss_channel(1.0)):
            assert cv.gaussian_output_fidelity_sq(identity, channel, 1.3, 0.4) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_pure_displacement(self):
        # The output is the input shifted by d with V = I, so the fidelity is
        # the coherent overlap e^{-|d|^2 / 4} (hbar = 2) at every amplitude.
        identity = cv.displacement_channel(np.zeros(2))
        shifted = cv.displacement_channel(np.array([0.5, -1.0]))
        for r in (0.0, 0.7, 2.5):
            assert cv.gaussian_output_fidelity_sq(identity, shifted, r, 0.0) == pytest.approx(
                math.exp(-1.25 / 4.0), rel=1e-12
            )

    def test_loss_channel_gives_the_attenuated_coherent_state(self):
        # Loss maps |alpha> to |sqrt(eta) alpha>, a pure output, so against
        # the identity F^2 = e^{-(1 - sqrt(eta))^2 r^2}.
        eta, r = 0.5, 1.1
        identity = cv.rotation_channel(0.0)
        lossy = cv.loss_channel(eta)
        for phi in (0.0, 0.3, 2.0):
            assert cv.gaussian_output_fidelity_sq(identity, lossy, r, phi) == pytest.approx(
                math.exp(-((1.0 - math.sqrt(eta)) * r) ** 2), rel=1e-12
            )

    def test_random_channels_give_physical_outputs(self):
        # A valid channel maps the vacuum covariance to V = M M^T + N with
        # V + i Omega >= 0, and an output has fidelity 1 with itself, which
        # the formula gives only when det V >= 1.
        omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rng = np.random.default_rng(11)
        for _ in range(25):
            channel = random_valid_channel(rng)
            v = channel.M @ channel.M.T + channel.N
            assert np.linalg.eigvalsh(v.astype(complex) + 1j * omega).min() >= -1e-10
            r, phi = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * math.pi)
            assert cv.gaussian_output_fidelity_sq(channel, channel, r, phi) == pytest.approx(
                1.0, abs=1e-12
            )


class TestGaussianFidelity:
    def test_equal_channels(self):
        channel = cv.loss_channel(0.7)
        assert cv.gaussian_output_fidelity_sq(channel, channel, 2.0, 0.3) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_displacement_overlap(self):
        # |<alpha|beta>|^2 = e^{-|alpha-beta|^2} with the hbar = 2 moments.
        c1 = cv.displacement_channel(np.zeros(2))
        c2 = cv.displacement_channel(np.array([2.0, 0.0]))
        for r in (0.0, 0.9, 3.0):
            assert cv.gaussian_output_fidelity_sq(c1, c2, r, 1.1) == pytest.approx(
                math.exp(-1.0), rel=1e-12
            )

    def test_phase_rotation_closed_form(self):
        theta_t, theta_l, r = 0.2, 0.55, 1.4
        c1, c2 = cv.rotation_channel(theta_t), cv.rotation_channel(theta_l)
        expected = math.exp(-2.0 * r * r * (1.0 - math.cos(theta_t - theta_l)))
        for phi in (0.0, 0.7, 2.0):
            assert cv.gaussian_output_fidelity_sq(c1, c2, r, phi) == pytest.approx(
                expected, rel=1e-12
            )

    def test_symmetry_in_channel_order(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c1, c2 = random_valid_channel(rng), random_valid_channel(rng)
            f12 = cv.gaussian_output_fidelity_sq(c1, c2, 1.2, 0.4)
            f21 = cv.gaussian_output_fidelity_sq(c2, c1, 1.2, 0.4)
            assert f12 == pytest.approx(f21, rel=1e-10)

    def test_simultaneous_pre_rotation_invariance(self):
        rng = np.random.default_rng(6)
        delta = 0.83
        rot = cv.rotation_channel(-delta).M
        for _ in range(5):
            c1, c2 = random_valid_channel(rng), random_valid_channel(rng)
            pre1 = GaussianChannel(d=c1.d, M=c1.M @ rot, N=c1.N)
            pre2 = GaussianChannel(d=c2.d, M=c2.M @ rot, N=c2.N)
            base = cv.gaussian_output_fidelity_sq(c1, c2, 0.9, 0.3)
            moved = cv.gaussian_output_fidelity_sq(pre1, pre2, 0.9, 0.3 + delta)
            assert moved == pytest.approx(base, rel=1e-10)

    def test_degenerate_covariance_reported(self):
        broken = SimpleNamespace(d=np.zeros(2), M=np.zeros((2, 2)), N=np.zeros((2, 2)))
        with pytest.raises(cv.DegenerateInputError):
            cv.gaussian_output_fidelity_sq(broken, broken, 1.0, 0.0)

    def test_float_arguments_give_a_float(self):
        c1, c2 = cv.rotation_channel(0.0), cv.rotation_channel(0.3)
        value = cv.gaussian_output_fidelity_sq(c1, c2, 1.2, 0.4)
        assert type(value) is float
        assert type(cv.gaussian_output_fidelity_sq(c1, c2, np.float64(1.2))) is float

    def test_negative_amplitude_is_rejected(self):
        c1, c2 = cv.rotation_channel(0.0), cv.rotation_channel(0.3)
        with pytest.raises(ValueError, match="non-negative"):
            cv.gaussian_output_fidelity_sq(c1, c2, -1e-300, 0.5)

    @pytest.mark.parametrize(
        "s1,s2,d2",
        [(0.15, 0.3, (0.0, 0.0)), (0.1, 0.1, (0.8, -0.4)), (0.25, 0.05, (0.5, 0.2))],
    )
    def test_mixed_outputs_match_uhlmann_fidelity(self, s1, s2, d2):
        # Additive noise plus displacement produce displaced thermal states
        # D(alpha) tau_s D(alpha)^dag; the moment formula must agree with the
        # Uhlmann fidelity computed from their Fock matrices (independent
        # route through expm and sqrtm).
        import scipy.linalg

        r, phi, dim, big = 0.6, 0.4, 28, 80
        c1 = cv.GaussianChannel(d=np.zeros(2), M=np.eye(2), N=2.0 * s1 * np.eye(2))
        c2 = cv.GaussianChannel(d=np.array(d2), M=np.eye(2), N=2.0 * s2 * np.eye(2))
        f2_formula = cv.gaussian_output_fidelity_sq(c1, c2, r, phi)

        lower = np.diag(np.sqrt(np.arange(1.0, big)), 1)

        def displaced_thermal(alpha: complex, s: float) -> np.ndarray:
            disp = scipy.linalg.expm(alpha * lower.T - np.conj(alpha) * lower)
            thermal = np.diag([s**k / (1.0 + s) ** (k + 1) for k in range(big)])
            return (disp @ thermal @ disp.conj().T)[:dim, :dim]

        alpha = r * np.exp(1j * phi)
        rho1 = displaced_thermal(alpha, s1)
        shifted = alpha + (d2[0] + 1j * d2[1]) / 2.0  # hbar = 2: q = 2 Re/Im alpha
        rho2 = displaced_thermal(shifted, s2)
        sqrt1 = scipy.linalg.sqrtm(rho1)
        inner = scipy.linalg.sqrtm(sqrt1 @ rho2 @ sqrt1)
        f2_uhlmann = float(np.real(np.trace(inner))) ** 2
        assert f2_formula == pytest.approx(f2_uhlmann, rel=1e-6)


def _dominance_pairs(eps0: float, tau: float):
    """The worst-case, witness and two random pairs of every class, as the
    dominance suite builds them."""
    g = InDistributionGuarantee(eps0=eps0, tau=tau)
    rng = np.random.default_rng(11)
    pairs = []
    for class_tag in oracle.SUPPORTED_CLASSES:
        pairs.append(oracle.worst_case_pair(class_tag, g))
        if oracle.CHANNEL_CLASSES[class_tag].witness:
            pairs.append(oracle.equality_witness_pair(class_tag, g))
        for _ in range(2):
            pairs.append(oracle.worst_case_pair(class_tag, g, float(rng.uniform(0.05, 0.999))))
    return pairs


class TestGaussianFidelityOnDominancePairs:
    @pytest.mark.parametrize("tau", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("eps0", [1e-3, 0.05, 0.3])
    def test_grid_equals_the_closed_form(self, eps0, tau):
        # On R2_GRID x PHI_GRID the general fidelity of every dominance pair
        # is a float in [0, 1] and equals exp of the class's closed-form
        # log F^2 (these outputs are pure).
        for pair in _dominance_pairs(eps0, tau):
            c1, c2 = pair.channels()
            log_f2 = oracle.CHANNEL_CLASSES[pair.class_tag].log_f2
            for n in oracle.R2_GRID:
                r = math.sqrt(n)
                for phi in oracle.PHI_GRID:
                    f2 = cv.gaussian_output_fidelity_sq(c1, c2, r, phi)
                    assert type(f2) is float and 0.0 <= f2 <= 1.0
                    assert f2 == pytest.approx(math.exp(log_f2(pair.gap, r, phi)), rel=1e-10), (
                        pair.class_tag, pair.gap, n, phi)


class TestCoherentFockVector:
    def test_vacuum(self):
        vec = cv.coherent_fock_vector(0.0, 5)
        assert np.allclose(vec, [1, 0, 0, 0, 0])

    def test_normalization_equals_poisson_head(self):
        alpha = 1.3 - 0.4j
        dim = 12
        vec = cv.coherent_fock_vector(alpha, dim)
        a2 = abs(alpha) ** 2
        head = sum(math.exp(-a2) * a2**m / math.factorial(m) for m in range(dim))
        assert np.vdot(vec, vec).real == pytest.approx(head, rel=1e-12)

    def test_single_photon_amplitude(self):
        vec = cv.coherent_fock_vector(1.0, 4)
        assert vec[1].real == pytest.approx(math.exp(-0.5), rel=1e-12)


class TestTraceDistance:
    def test_identical(self):
        rho = coherent_projector(0.3 + 0.1j, 8)
        assert cv.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert cv.trace_distance(fock_state(0, 4), fock_state(1, 4)) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_coherent_pair_identity(self):
        dim = 24
        d = cv.trace_distance(coherent_projector(0.0, dim), coherent_projector(1.0, dim))
        assert d == pytest.approx(2.0 * math.sqrt(1.0 - math.exp(-1.0)), rel=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cv.trace_distance(fock_state(0, 4), fock_state(0, 5))

    def test_triangle_and_unitary_invariance(self):
        rng = np.random.default_rng(17)
        for dim in (4, 8, 12):
            mats = []
            for _ in range(3):
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                rho = a @ a.conj().T
                mats.append(FockMatrix(rho / np.trace(rho).real))
            d01 = cv.trace_distance(mats[0], mats[1])
            d12 = cv.trace_distance(mats[1], mats[2])
            d02 = cv.trace_distance(mats[0], mats[2])
            assert d02 <= d01 + d12 + 1e-10
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            rot = [FockMatrix(q @ m.entries @ q.conj().T) for m in mats[:2]]
            assert cv.trace_distance(rot[0], rot[1]) == pytest.approx(d01, abs=1e-10)

    def test_fuchs_van_de_graaf_equality_for_pure_gaussian_outputs(self):
        # Rotated coherent states: trace distance vs 2 sqrt(1 - F^2).
        theta_t, theta_l, r = 0.1, 0.42, 1.2
        dim = 40
        alpha = r
        out_t = coherent_projector(alpha * np.exp(1j * theta_t), dim)
        out_l = coherent_projector(alpha * np.exp(1j * theta_l), dim)
        lhs = cv.trace_distance(out_t, out_l)
        f2 = cv.gaussian_output_fidelity_sq(
            cv.rotation_channel(theta_t), cv.rotation_channel(theta_l), r, 0.0
        )
        assert lhs == pytest.approx(2.0 * math.sqrt(1.0 - f2), abs=1e-8)


class TestFockMatrixValidation:
    def test_non_hermitian_rejected(self):
        mat = np.zeros((3, 3), dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            FockMatrix(mat)

    def test_super_normalized_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            FockMatrix(np.eye(3, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        mat = np.diag([0.6, -0.1, 0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            FockMatrix(mat)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_non_finite_entry_rejected(self, bad, where):
        # eigvalsh returns NaN for such a matrix, and NaN passes every
        # tolerance comparison, so finiteness is checked first.
        mat = np.diag([1.0, 0.0]).astype(complex)
        mat[where] = mat[where[::-1]] = bad
        with pytest.raises(ValueError, match="^Fock matrix entries must be finite$"):
            FockMatrix(mat)


def p_rep_fock_element(pair, s, r, phi=0.0):
    """Value of P_s at r e^{i phi} for a Fock element (m, n): the radial
    factor, times cos((m - n) phi) off the diagonal."""
    m, n = pair
    return math.cos((m - n) * phi) * cv.p_rep_radial_fn(pair, s)(r)


class TestPRepFockElement:
    def test_vacuum_gaussian(self):
        s, r = 0.37, 0.8
        expect = math.exp(-r * r / s) / (s * math.pi)
        assert p_rep_fock_element((0, 0), s, r) == pytest.approx(expect, rel=1e-12)

    def test_diagonal_sign_flip_location(self):
        # P_s for |1><1| changes sign where L_1 vanishes: r^2 = s(1-s) = 1/4.
        s = 0.5
        r_flip = 0.5
        below = p_rep_fock_element((1, 1), s, r_flip - 1e-3)
        above = p_rep_fock_element((1, 1), s, r_flip + 1e-3)
        at = p_rep_fock_element((1, 1), s, r_flip)
        assert below * above < 0.0
        assert abs(at) < 1e-10

    @pytest.mark.parametrize("delta", [1, 2, 5])
    def test_angular_absolute_integral_is_four(self, delta):
        kinks = sorted(
            phi
            for k in range(-2 * delta - 2, 2 * delta + 3)
            if 0.0 < (phi := (math.pi / 2.0 + k * math.pi) / delta) < 2.0 * math.pi
        )
        val, _ = integrate.quad(
            lambda phi: abs(math.cos(delta * phi)),
            0.0,
            2.0 * math.pi,
            points=kinks,
            limit=200,
        )
        assert val == pytest.approx(4.0, rel=1e-10)

    @pytest.mark.parametrize("pair", [(1, 3), (0, 4), (2, 5)])
    def test_either_order_is_one_element(self, pair):
        radii = [0.25 * i for i in range(7)]
        for s in (0.05, 0.2, 0.6):
            forward, backward = cv.p_rep_radial_fn(pair, s), cv.p_rep_radial_fn(pair[::-1], s)
            assert [forward(r) for r in radii] == [backward(r) for r in radii]

    @pytest.mark.parametrize("pair,error", [
        ((2, -1), ValueError), ((-1, 2), ValueError), ((2.0, 1), TypeError),
        ((2, "1"), TypeError), ((2,), ValueError),
    ])
    def test_indices_are_checked(self, pair, error):
        with pytest.raises(error):
            cv.p_rep_radial_fn(pair, 0.2)
        with pytest.raises(error):
            cv.gamma_overlap(pair, (1, 1), 0.2)


class TestGammaOverlap:
    def test_mismatched_delta_vanishes(self):
        assert cv.gamma_overlap((2, 0), (2, 1), 0.2) == 0.0

    def test_vacuum_pair(self):
        s = 0.2
        assert cv.gamma_overlap((0, 0), (0, 0), s) == pytest.approx(1.0 / (1.0 + s), rel=1e-13)

    def test_small_s_limits(self):
        # Diagonal pairs approach 1; distinct element pairs approach 1/2.
        s = 1e-9
        assert cv.gamma_overlap((3, 1), (3, 1), s) == pytest.approx(0.5, rel=1e-6)
        assert cv.gamma_overlap((2, 2), (2, 2), s) == pytest.approx(1.0, rel=1e-6)

    def test_reads_each_log_factorial_once(self, monkeypatch):
        calls = []
        log_factorial = cv.specfun.log_factorial
        monkeypatch.setattr(cv.specfun, "log_factorial",
                            lambda k: calls.append(k) or log_factorial(k))
        cv.gamma_overlap((6, 2), (5, 1), 0.1)
        assert calls == list(range(7))

    def test_symmetric_in_elements(self):
        a, b = (4, 2), (2, 0)
        assert cv.gamma_overlap(a, b, 0.15) == cv.gamma_overlap(b, a, 0.15)

    def test_either_order_of_a_pair(self):
        for first, second in [((4, 2), (2, 0)), ((6, 3), (3, 0)), ((5, 5), (2, 2))]:
            for s in (0.01, 0.15, 0.4):
                value = cv.gamma_overlap(first, second, s)
                assert cv.gamma_overlap(first[::-1], second, s) == value
                assert cv.gamma_overlap(first, second[::-1], s) == value
                assert cv.gamma_overlap(first[::-1], second[::-1], s) == value


def kept_population(m: int, s: float) -> float:
    """p_m = <m| C_s(|m><m|) |m>, read off delta_s_exact = 2 (1 - p_m)."""
    return 1.0 - oracle.delta_s_exact(m, s) / 2.0


class TestAdditiveNoise:
    """C_s on a Fock state, through the population p_m that it keeps."""

    def test_bad_index_exits_two_in_verify(self, monkeypatch, capsys):
        from cvoodg import cli

        exact = oracle.delta_s_exact
        monkeypatch.setattr(oracle, "delta_s_exact", lambda m, s: exact(-1 - m, s))
        assert cli.main(["verify", "--suite", "delta-s"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Fock index must be non-negative, got -1\n"

    @pytest.mark.parametrize("m,s,message", [
        (-1, 0.05, "Fock index must be non-negative, got -1"),
        (2, 0.0, "noise parameter s must lie in (0, 1), got 0.0"),
        (2, 1.5, "noise parameter s must lie in (0, 1), got 1.5"),
        (2, math.nan, "noise parameter s must lie in (0, 1), got nan"),
    ])
    def test_bad_argument_rejected(self, m, s, message):
        with pytest.raises(ValueError) as excinfo:
            oracle.delta_s_exact(m, s)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    def test_linear_in_small_s(self, m):
        # 1 - p_m = (2m + 1) s + O(s^2).
        s = 1e-7
        assert oracle.delta_s_exact(m, s) == pytest.approx(2.0 * (2 * m + 1) * s, rel=1e-5)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_overlap_matches_gamma(self, m):
        s = 0.2
        assert kept_population(m, s) == pytest.approx(
            cv.gamma_overlap((m, m), (m, m), s), rel=0.0, abs=1e-15)


def cs_element_hyp2f1(m: int, n: int, k: int, s: float) -> float:
    """<k+Delta| C_s(|m><n|) |k> from the 2F1 form of the radial integral,
    U = C(n+Delta, n) p! / a^(p+1) 2F1(-n, p+1; Delta+1; 1/(1-s^2)), at 40 digits."""
    delta = m - n
    p = j = k + delta
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        a = 1 + s
        u = (
            mpmath.binomial(n + delta, n) * mpmath.factorial(p) / a ** (p + 1)
            * mpmath.hyp2f1(-n, p + 1, delta + 1, 1 / (1 - s * s))
        )
        coeff = (
            (-1) ** n
            * mpmath.sqrt(mpmath.factorial(n) / (
                mpmath.factorial(m) * mpmath.factorial(j) * mpmath.factorial(k)))
            * (1 - s) ** n * s ** (k - n)
        )
        return float(coeff * u)


class TestCsPopulations:
    @pytest.mark.parametrize("m", range(8))
    @pytest.mark.parametrize("s", [0.01, 0.05, 0.2, 0.4])
    def test_matches_hyp2f1_reference(self, m, s):
        # delta_s_exact sums m positive float terms, so 1e-15 is the budget.
        assert abs(kept_population(m, s) - cs_element_hyp2f1(m, m, m, s)) <= 1e-15

    @pytest.mark.parametrize("m", [0, 2, 5])
    def test_distance_sums_every_population(self, m):
        # delta_s_exact takes the other populations' sum from trace
        # preservation; summed from the reference, whose tail past k = 60 is
        # below 1e-40, they give the same distance.
        s = 0.2
        populations = [cs_element_hyp2f1(m, m, k, s) for k in range(60)]
        direct = sum(abs((k == m) - p) for k, p in enumerate(populations))
        assert direct == pytest.approx(oracle.delta_s_exact(m, s), rel=0.0, abs=1e-15)


class TestDeltaSBound:
    def test_trivial_zero(self):
        assert cv.delta_s_bound(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("scale", [1.0, 3.0, 1e308, math.inf])
    def test_no_noise_costs_nothing_at_any_scale(self, scale):
        # C_0 is the identity; 2 sqrt(0 inf) would be nan.
        assert cv.delta_s_bound(0.0, scale).hex() == "0x0.0p+0"

    def test_direct_evaluation(self):
        assert cv.delta_s_bound(0.01, 5.0) == pytest.approx(2.0 * math.sqrt(0.05), rel=1e-14)

    @pytest.mark.parametrize("s", [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.49])
    def test_dominates_exact_distance(self, s):
        for m in range(51):
            assert oracle.delta_s_exact(m, s) <= cv.delta_s_bound(s, 1.0 + 2.0 * m), m

    @pytest.mark.parametrize("s", [*oracle.DELTA_S_S_VALUES, 0.3, 0.9])
    def test_vacuum_distance_closed_form(self, s):
        # C_s(|0><0|) is thermal with mean s, so the distance is
        # 2 (1 - 1/(1+s)) = 2s/(1+s).
        assert abs(oracle.delta_s_exact(0, s) - 2.0 * s / (1.0 + s)) <= 4e-15
