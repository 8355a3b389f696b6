"""State-extension tests: closed forms vs quadrature, parameter optimizers,
report integrity, and end-to-end soundness against exact Fock-basis
distances for worst-case phase-rotation pairs."""

import csv
import io
import json
import math
import re
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy import integrate

from cvoodg import cli, oracle, state_bounds as sb
from cvoodg.coherent_bounds import (
    CURVE_CONSTRUCTORS,
    BoundCurve,
    FockMassTable,
    InDistributionGuarantee,
    concave_hull,
    gaussian_bound,
    lipschitz_bound,
    phase_rotation_bound,
    step_bound,
)
from cvoodg.cvcore import FockMatrix, delta_s_bound, mean_photon_number
from test_coherent_bounds import full_grid_table
from test_search import golden_section_min


def pr_curve(eps0: float, tau: float = 1.0) -> BoundCurve:
    return phase_rotation_bound(InDistributionGuarantee(eps0=eps0, tau=tau))


def smoothed_spat_p(q: float, s: float, r: float) -> float:
    big_q = q + s
    zero = big_q * (1.0 - s) / (1.0 + q)
    return (1.0 + q) / (math.pi * big_q**3) * (r * r - zero) * math.exp(-r * r / big_q)


def spat_profile(q: float, s: float) -> sb.NegativityProfile:
    """Negativity profile (N, nbar+, nbar-) of a photon-added thermal state
    smoothed with parameter s, from the closed forms of its P-representation,
    whose one sign change sits at r^2 = (q+s)(1-s)/(1+q)."""
    e = math.exp(-(1.0 - s) / (1.0 + q))
    neg = e * (1.0 + q) / (q + s) - 1.0
    nbar_plus = (q + s) * (3.0 + 2.0 * q - s) / (1.0 + q)
    nbar_minus = (
        (q + s)
        * ((3.0 + 2.0 * q - s) * e - (1.0 + 2.0 * q + s))
        / ((1.0 + q) * e - (q + s))
    )
    return sb.NegativityProfile(negativity=neg, nbar_plus=nbar_plus, nbar_minus=nbar_minus)


def looseness_factor(profile: sb.NegativityProfile) -> float:
    """Ceiling on (mu,nu)-form / (N,nbar+-)-form for concave non-decreasing
    curves with curve(0) >= 0: 2 mu/(mu+1) when nbar- <= nbar+, else
    mu/(mu-1)."""
    mu = profile.mu_P
    if profile.nbar_minus <= profile.nbar_plus:
        return 2.0 * mu / (mu + 1.0)
    return mu / (mu - 1.0) if mu > 1.0 else math.inf


def mu_envelope(mu: float, nu: float, curve: BoundCurve) -> float:
    """mu curve(nu/mu), non-decreasing in mu for a concave curve."""
    return mu * curve(nu / mu)


def block_table(rho, M: int) -> FockMassTable:
    """The mass table of the M x M block of |rho|, in row-major order."""
    m, n = np.divmod(np.arange(M * M), M)
    return FockMassTable(m, n, np.abs(rho.entries[:M, :M]).ravel())


def fock_mass(rho, s: float, M: int) -> float:
    """sum_{m,n < M} |rho_mn| mu_{s,m,n}, by the package's own mass sum."""
    return sb._mass_sum(block_table(rho, M), s)


class TestNegativityProfile:
    def test_identities(self):
        p = sb.NegativityProfile(negativity=0.5, nbar_plus=2.0, nbar_minus=1.0)
        assert p.mu_P == pytest.approx(1.0 + 2.0 * 0.5, abs=1e-15)
        assert p.nu_P == pytest.approx(1.5 * 2.0 + 0.5 * 1.0, abs=1e-15)
        assert p.nbar == pytest.approx(1.5 * 2.0 - 0.5 * 1.0, abs=1e-15)

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError, match="energy"):
            sb.NegativityProfile(negativity=2.0, nbar_plus=0.1, nbar_minus=5.0)

    @pytest.mark.parametrize("parts", [(3.0, 0.75, 1.0000000000001), (0.0, -0.0, 0.0),
                                       (1.0, -0.0, 0.0)])
    def test_rounding_energy_reads_as_a_non_negative_zero(self, parts):
        # The energy (1+N) nbar+ - N nbar- is -3e-13 for the first profile
        # and -0.0 for the other two; both are admitted as rounding.
        assert sb.NegativityProfile(*parts).nbar.hex() == "0x0.0p+0"

    @pytest.mark.parametrize("parts,energy,mu", [
        ((1e200, 1e200, 1e200), "nan", "2e\\+200"),  # inf - inf
        ((1e308, 0.0, 0.0), "0.0", "inf"),  # 1 + 2N overflows
        ((1.0, 1e308, 0.0), "inf", "3.0"),
    ])
    def test_rejects_an_overflowing_profile(self, parts, energy, mu):
        with pytest.raises(ValueError, match=f"state energy {energy} and mu_P {mu} must be finite"):
            sb.NegativityProfile(*parts)


class TestClassicalBound:
    def test_vacuum(self):
        curve = pr_curve(0.2)
        assert sb.classical_bound(curve, sb.Classical(0.0)).value == curve(0.0)

    def test_constant_curve(self):
        from cvoodg.coherent_bounds import displacement_bound

        curve = displacement_bound(InDistributionGuarantee(eps0=0.25, tau=1.0))
        for nbar in (0.0, 3.0, 11.0):
            report = sb.classical_bound(curve, sb.Classical(nbar))
            assert report.value == pytest.approx(0.25, abs=1e-15)

    def test_refuses_non_concavified(self):
        with pytest.raises(ValueError, match="concavified"):
            sb.classical_bound(step_bound(InDistributionGuarantee(0.1, 1.0)), sb.Classical(1.0))

    def test_dominates_two_point_mixture(self):
        # Random classical mixtures of two coherent states against the
        # exact phase-rotation output distance at matched mean energy.
        rng = np.random.default_rng(3)
        g = InDistributionGuarantee(eps0=0.1, tau=1.0)
        curve = pr_curve(g.eps0)
        pair = oracle.worst_case_pair("phase_rotation", g)
        d_theta = pair.gap
        for _ in range(8):
            a1, a2 = rng.uniform(0.1, 1.8, size=2)
            w = float(rng.uniform(0.1, 0.9))
            nbar = w * a1**2 + (1.0 - w) * a2**2
            rho = oracle.classical_mixture([a1, a2], [w, 1.0 - w], 32)
            dist = oracle.phase_rotation_state_distance(d_theta, rho)
            assert dist <= sb.classical_bound(curve, sb.Classical(nbar)).value + 1e-9


class TestFiniteNegativity:
    def test_zero_negativity_reduces_to_classical(self):
        curve = pr_curve(0.05)
        profile = sb.NegativityProfile(0.0, 1.3, 0.0)
        report = sb.finite_negativity_bound(curve, profile)
        classical = sb.classical_bound(curve, sb.Classical(1.3))
        assert report.value == pytest.approx(classical.value, abs=1e-14)

    def test_branches_and_looseness_factor(self):
        rng = np.random.default_rng(9)
        curve = pr_curve(0.08)
        for _ in range(40):
            neg = float(rng.uniform(0.0, 3.0))
            nplus = float(rng.uniform(0.01, 5.0))
            cap = (1.0 + neg) * nplus / neg if neg > 0 else 10.0
            nminus = float(rng.uniform(0.0, min(cap, 10.0)))
            profile = sb.NegativityProfile(neg, nplus, nminus)
            report = sb.finite_negativity_bound(curve, profile)
            pm = report.intermediate["pm_form"]
            mu_nu = report.intermediate["mu_nu_form"]
            assert mu_nu >= pm - 1e-12  # the two-moment form is the looser one
            if pm > 1e-12:
                assert mu_nu / pm <= looseness_factor(profile) * (1.0 + 1e-9)

    def test_spat_factor_closed_form(self):
        # For photon-added thermal profiles the provable ceiling equals the
        # closed form 2 - e^{1/(1+q)} q/(1+q).
        for q in (0.2, 1.0, 3.0):
            profile = spat_profile(q, 0.0)
            closed = 2.0 - math.exp(1.0 / (1.0 + q)) * q / (1.0 + q)
            assert looseness_factor(profile) == pytest.approx(closed, rel=1e-12)

    def test_near_tie_takes_the_exact_lesser_form(self):
        # The two-moment form is one ulp below the split form: first_min
        # would keep the split form, the exact minimum takes the lower one.
        g = InDistributionGuarantee(eps0=0.019227478317616554, tau=1.2873780452964376)
        curve = concave_hull(lipschitz_bound(g), 40.0, 241)
        profile = sb.NegativityProfile(0.5535031204907622, 1.8817218267937132,
                                       0.28463157131495287)
        report = sb.finite_negativity_bound(curve, profile)
        pm, mu_nu = report.intermediate["pm_form"], report.intermediate["mu_nu_form"]
        assert 0.0 < pm - mu_nu <= 1e-15
        assert report.branch == "finite_negativity_mu_nu"
        assert report.value == mu_nu == 1.8712246979399108

    def test_spat_profile_plugs_into_mu_nu_branch(self):
        curve = pr_curve(0.05)
        q = 1.0
        profile = spat_profile(q, 0.0)
        report = sb.finite_negativity_bound(curve, profile)
        mu, ratio = sb.spat_mu_nu(q, 0.0)
        assert report.intermediate["mu_nu_form"] == pytest.approx(mu * curve(ratio), rel=1e-12)


class TestSpatProfile:
    def test_mu_at_q_one(self):
        mu, _ = sb.spat_mu_nu(1.0, 0.0)
        assert mu == pytest.approx(4.0 * math.exp(-0.5) - 1.0, rel=1e-13)

    @pytest.mark.parametrize("q,s", [(0.5, 0.0), (1.0, 0.2), (2.0, 0.45), (0.2, 0.1)])
    def test_against_quadrature(self, q, s):
        mu_num = 2 * math.pi * integrate.quad(
            lambda r: abs(smoothed_spat_p(q, s, r)) * r, 0, 40, limit=300
        )[0]
        nu_num = 2 * math.pi * integrate.quad(
            lambda r: abs(smoothed_spat_p(q, s, r)) * r**3, 0, 40, limit=300
        )[0]
        mu, ratio = sb.spat_mu_nu(q, s)
        profile = spat_profile(q, s)
        assert mu == pytest.approx(mu_num, rel=1e-8)
        assert ratio == pytest.approx(nu_num / mu_num, rel=1e-8)
        assert profile.mu_P == pytest.approx(mu, rel=1e-12)
        assert profile.nu_P / profile.mu_P == pytest.approx(ratio, rel=1e-10)

    def test_ratio_strictly_below_linear_cap(self):
        for q in (0.1, 0.7, 4.0):
            for s in (0.0, 0.2, 0.45):
                _, ratio = sb.spat_mu_nu(q, s)
                assert ratio < 1.0 + 2.0 * q + s

    @pytest.mark.parametrize("q", [1e-300, 1e-16, 1e-15, 0.1, 7.3, 1e6, 1e154, 1e200, 1e300,
                                   5e307, 8.9e307])
    @pytest.mark.parametrize("s", [0.0, 1e-16, 1e-3, 0.2, 0.49])
    def test_ratio_against_mpmath(self, q, s):
        # The form 1 + 2q + s - 2(1-s)^2/A cancels to nothing for small q
        # and s (it read 0.0 at q = 1e-16, s = 0); the ratio N/A must keep
        # its relative accuracy down to q = 1e-300, and up to q = 8.9e307,
        # past the q of about 7e153 where 4q^2 overflows and the q of about
        # 4.5e307 where 4q does.
        with mpmath.workdps(800):
            qm, sm = mpmath.mpf(q), mpmath.mpf(s)
            inv_e = mpmath.exp((1 - sm) / (1 + qm))
            exact = 1 + 2 * qm + sm - 2 * (1 - sm) ** 2 / (2 + 2 * qm - (qm + sm) * inv_e)
            _, ratio = sb.spat_mu_nu(q, s)
            assert abs(ratio - exact) <= 1e-15 * exact

    def test_halved_ratio_is_the_unhalved_one_bit_for_bit(self):
        # N and A are halved term by term, which scales each term exactly
        # while it is a normal double; the unhalved form is kept here as it
        # was before 4q overflowed.
        def unhalved(q, s):
            e = math.exp(-(1.0 - s) / (1.0 + q))
            k = (q + s) / (1.0 + q)
            return ((4.0 * q + 2.0 * q / (1.0 + q) + 2.0 * s + s * (4.0 - 2.0 * s) / (1.0 + q)
                     - (1.0 + 2.0 * q + s) * k / e) / (2.0 - k / e))

        for q in np.geomspace(1e-300, 4e307, 241).tolist():
            for s in (0.0, 1e-8, 3.7e-5, 1e-3, 0.2, 0.31, 0.49):
                assert sb.spat_mu_nu(q, s)[1] == unhalved(q, s), (q, s)

    def test_sign_change_radius(self):
        # P vanishes at r^2 = q/(1+q) for the raw state.
        q = 0.8
        r = math.sqrt(q / (1.0 + q))
        assert smoothed_spat_p(q, 0.0, r) == pytest.approx(0.0, abs=1e-15)

    def test_energy_identity(self):
        for q, s in ((0.5, 0.0), (1.5, 0.3)):
            assert spat_profile(q, s).nbar == pytest.approx(1.0 + 2.0 * q + s, rel=1e-12)


class TestSpatBound:
    def test_never_worse_than_s_zero(self):
        curve = pr_curve(0.05)
        report = sb.spat_bound(curve, sb.SPAT(1.0))
        mu, ratio = sb.spat_mu_nu(1.0, 0.0)
        assert report.value <= mu * curve(ratio) + 1e-12

    def test_small_s_continuity(self):
        curve = pr_curve(0.05)
        q = 1.0
        mu0, ratio0 = sb.spat_mu_nu(q, 0.0)
        mu_s, ratio_s = sb.spat_mu_nu(q, 1e-8)
        assert mu_s * curve(ratio_s) == pytest.approx(mu0 * curve(ratio0), rel=1e-6)

    def test_end_to_end_finite(self):
        report = sb.spat_bound(pr_curve(0.05), sb.SPAT(1.0))
        assert 0.0 < report.value < 2.0
        assert report.branch == "spat"
        assert report.recompute() == report.value

    def test_overflowing_noise_scale_keeps_the_unsmoothed_point(self):
        # 3 + 4q is inf here; the s = 0 point pays no penalty, and every
        # searched s pays an infinite one.
        report = sb.spat_bound(pr_curve(1e-3), sb.SPAT(5e307))
        assert report.chosen_params.s == 0.0
        assert report.intermediate["penalty"] == 0.0
        assert report.value == 2.0

    @pytest.mark.parametrize("q", [8.99e307, 1e308])
    def test_rejects_a_state_whose_energy_overflows(self, q):
        with pytest.raises(ValueError, match=re.escape(f"got q {q!r}")):
            sb.SPAT(q)


class TestFockBound:
    def test_prefactor_value(self):
        log_mu = full_grid_table(2).log_mu(0.1).reshape(2, 2)
        assert math.exp(log_mu[1, 1]) == pytest.approx(20.25, rel=1e-12)

    def test_vacuum_limit(self):
        vals = [sb.fock_bound(pr_curve(10.0**-k), sb.Fock(0)).value for k in (2, 4, 6)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.02

    @pytest.mark.parametrize("s", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("m", range(7))
    def test_mu_ub_dominates_numeric(self, m, s):
        [(mu_num, _)] = oracle.mu_nu_numeric([(m, m)], s)
        log_mu = full_grid_table(m + 1).log_mu(s).reshape(m + 1, m + 1)
        assert mu_num <= math.exp(log_mu[m, m]) * (1.0 + 1e-9)

    def test_report_recompute(self):
        report = sb.fock_bound(pr_curve(1e-6), sb.Fock(2))
        assert report.recompute() == report.value

    def test_prefactor_is_the_table_element_bit_for_bit(self, monkeypatch):
        # fock_bound's closed-form prefactor against the mass table's (m, m).
        searched = []

        class Captured(Exception):
            pass

        def capture(curve, noise_scale, truncations):
            searched.extend(truncations)
            raise Captured

        monkeypatch.setattr(sb, "_smoothed_search", capture)
        grid = np.geomspace(1e-8, 0.49, 101)
        for m in range(61):
            with pytest.raises(Captured):
                sb.fock_bound(pr_curve(1e-3), sb.Fock(m))
            [(_, _, moments)] = searched
            searched.clear()
            table = full_grid_table(m + 1)
            for s in map(float, grid):
                log_mu = float(table.log_mu(s).reshape(m + 1, m + 1)[m, m])
                expected = math.exp(log_mu) if log_mu < 700.0 else math.inf
                assert moments(s)[0] == expected, (m, s)

    def test_large_index_does_not_overflow(self):
        # The prefactor overflows a double near the small-s search edge.
        report = sb.fock_bound(pr_curve(1e-3), sb.Fock(60))
        assert report.value == 2.0


def full_table_fock_bound(curve: BoundCurve, m: int) -> sb.BoundReport:
    """fock_bound reading mu_{s,m,m} off the full (m+1)^2 mass table."""
    table = full_grid_table(m + 1)

    def moments(s: float) -> tuple[float, float]:
        log_mu = float(table.log_mu(s).reshape(m + 1, m + 1)[m, m])
        prefactor = math.exp(log_mu) if log_mu < 700.0 else math.inf
        return prefactor, sb.nu_mu_element_ratio(s, m, m)

    best = sb._smoothed_search(curve, 1.0 + 2.0 * m, [(None, 1.0, moments)])
    return sb._smoothed_report(
        "fock", best, prefactor=best.mass, curve_arg=best.curve_arg,
        curve_value=best.curve_value, penalty=best.penalty,
    )


class TestFockBoundPairTable:
    @pytest.mark.parametrize("m", [0, 1, 6, 200])
    @pytest.mark.parametrize("curve", [pr_curve(1e-6), pr_curve(1e-3),
                                       gaussian_bound(InDistributionGuarantee(eps0=0.05, tau=1.0))],
                             ids=["pr-1e-6", "pr-1e-3", "gaussian-0.05"])
    def test_equals_the_full_table(self, curve, m):
        assert sb.fock_bound(curve, sb.Fock(m)) == full_table_fock_bound(curve, m)


class TestMuElements:
    def test_vacuum_element(self):
        s = 0.2
        assert math.exp(full_grid_table(1).log_mu(s)[0]) == pytest.approx(
            2.0 * (1.0 - s) / (1.0 - 2.0 * s), rel=1e-13
        )

    def test_ratio_formula(self):
        # mu_{s,m,n} times the ratio bounds the quadrature second moment nu.
        for s in (0.05, 0.2):
            log_mu = full_grid_table(7).log_mu(s).reshape(7, 7)
            for m, n in ((0, 0), (3, 3), (4, 1), (6, 2)):
                [(_, nu_num)] = oracle.mu_nu_numeric([(m, n)], s)
                nu_bound = math.exp(log_mu[m, n]) * sb.nu_mu_element_ratio(s, m, n)
                assert nu_num <= nu_bound * (1.0 + 1e-9)

    def test_mu_ub_diagonal_state(self):
        rho = oracle.fock_state(0, 4)
        s = 0.15
        assert fock_mass(rho, s, 1) == pytest.approx(
            2.0 * (1.0 - s) / (1.0 - 2.0 * s), rel=1e-13
        )

    def test_mu_ub_ignores_out_of_range(self):
        rho = oracle.squeezed_vacuum_state(0.5, 12)
        small = fock_mass(rho, 0.2, 3)
        diag = np.real(np.diag(rho.entries))
        log_mu = full_grid_table(3).log_mu(0.2).reshape(3, 3)
        by_hand = sum(
            abs(rho.entries[m, n]) * math.exp(log_mu[m, n])
            for m in range(3)
            for n in range(3)
        )
        assert small == pytest.approx(by_hand, rel=1e-12)
        assert diag[1] == 0.0  # odd support absent


class TestKnownFock:
    def test_matches_fock_bound_for_vacuum(self):
        curve = pr_curve(1e-3)
        direct = sb.fock_bound(curve, sb.Fock(0))
        via_matrix = sb.known_fock_bound(curve, sb.KnownFock(oracle.fock_state(0, 4)))
        assert via_matrix.chosen_params.M == 1
        assert via_matrix.value == pytest.approx(direct.value, rel=1e-9)

    @pytest.mark.parametrize("m", [1, 2])
    def test_generic_machinery_is_looser_for_excited_fock(self, m):
        # The (M+1)-capped curve argument makes the generic route an upper
        # envelope of the per-element special case.
        curve = pr_curve(1e-5)
        rho = oracle.fock_state(m, m + 2)
        generic = sb.known_fock_bound(curve, sb.KnownFock(rho))
        # Below the trivial 2 the optimum keeps the occupied levels, M = m + 1;
        # at the clamp 2 (m = 2 here) the tie-break reports the smallest M.
        assert generic.chosen_params.M == (m + 1 if generic.value < 2.0 else 1)
        special = sb.fock_bound(curve, sb.Fock(m))
        assert generic.value >= special.value - 1e-12

    def test_eta_matches_diagonal_sum(self):
        rho = oracle.squeezed_vacuum_state(0.5, 16)
        report = sb.known_fock_bound(pr_curve(1e-4), sb.KnownFock(rho))
        M = report.chosen_params.M
        eta = float(np.sum(np.real(np.diag(rho.entries))[:M]))
        assert report.intermediate["eta_M"] == pytest.approx(eta, abs=1e-14)

    def test_curve_argument_stabilizes_at_s_c_over_m(self):
        # With s = c/M the argument s(1-s)(M+1)/(1-2s) approaches c.
        c = 0.2
        for M in (10, 100, 1000, 10000):
            s = c / M
            arg = s * (1.0 - s) * (M + 1) / (1.0 - 2.0 * s)
            assert arg == pytest.approx(c, rel=20.0 / M + 1e-12)

    def test_coherent_state_convergence(self):
        rho = oracle.coherent_projector(math.sqrt(0.5), 24)
        vals = [sb.known_fock_bound(pr_curve(10.0**-k), sb.KnownFock(rho)).value for k in (2, 4, 6)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        # The truncation pays for the cross blocks P rho Q + Q rho P, so the
        # bound stays loose at small eps0, but it still dominates the exact
        # distance of the worst-case pair.
        assert vals[-1] == 1.3712774895464377
        gap = oracle.worst_case_pair("phase_rotation", InDistributionGuarantee(1e-6, 1.0)).gap
        assert oracle.phase_rotation_state_distance(gap, rho) <= vals[-1]

    def test_report_recompute(self):
        rho = oracle.coherent_projector(0.4, 12)
        report = sb.known_fock_bound(pr_curve(1e-4), sb.KnownFock(rho))
        assert report.recompute() == report.value


def dense_low_energy_rho(dim: int, seed: int) -> FockMatrix:
    """A full-rank dim x dim density matrix G G^dagger / tr whose row m of G
    is scaled by 0.3^m, so that every entry is non-zero and the energy is
    low enough for bounds below 2."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g *= (0.3 ** np.arange(dim))[:, None]
    rho = g @ g.conj().T
    return FockMatrix(rho / np.trace(rho).real)


def full_grid_known_fock_bound(curve: BoundCurve, rho: FockMatrix) -> sb.BoundReport:
    """known_fock_bound as it was with one full dim x dim mass table: every
    truncation M exponentiated the whole table, sliced its M x M block off
    it and masked the zero amplitudes to 0."""
    dim, nbar = rho.dim, sb.KnownFock(rho).nbar
    diag = np.real(np.diag(rho.entries))
    amps = np.abs(rho.entries)
    table = full_grid_table(dim)

    def mass(M: int, s: float) -> float:
        with np.errstate(over="ignore"):
            weights = np.exp(table.log_mu(s)).reshape(dim, dim)[:M, :M]
        with np.errstate(invalid="ignore"):
            products = amps[:M, :M] * weights
        return float(np.sum(np.where(amps[:M, :M] == 0.0, 0.0, products)))

    truncations = [sb._truncation(M, float(np.sum(diag[:M])), partial(mass, M))
                   for M in range(1, dim + 1)]
    best = sb._smoothed_search(curve, 1.0 + 2.0 * nbar, truncations)
    return sb._truncated_report("known_fock", best, nbar)


KNOWN_FOCK_CURVES = ("gaussian", "phase_rotation", "displacement", "lipschitz")
KNOWN_FOCK_EPS0 = (1e-8, 1e-4, 0.05)


def known_fock_curves():
    return [closed_form_curve(name, eps0, 1.0)
            for name in KNOWN_FOCK_CURVES for eps0 in KNOWN_FOCK_EPS0]


def assert_reports_close(got: sb.BoundReport, want: sb.BoundReport, rel: float) -> None:
    """The same branch and M, and every float of the report within rel."""
    assert (got.branch, got.chosen_params.M) == (want.branch, want.chosen_params.M)
    assert got.intermediate.keys() == want.intermediate.keys()
    pairs = [(got.value, want.value), (got.chosen_params.s, want.chosen_params.s),
             *((got.intermediate[k], want.intermediate[k]) for k in want.intermediate)]
    for a, b in pairs:
        assert a == b or abs(a - b) <= rel * abs(b), (a, b)


class TestKnownFockBlocks:
    """known_fock_bound gives each truncation M a table of its own M x M
    block of |rho|; it reports what the one full table reported."""

    @staticmethod
    def pair_counts(monkeypatch, rho) -> list[int]:
        counts = []

        def recorded(*args):
            table = FockMassTable(*args)
            counts.append(len(table.weight))
            return table

        monkeypatch.setattr(sb, "FockMassTable", recorded)
        sb.known_fock_bound(pr_curve(1e-4), sb.KnownFock(rho))
        return counts

    @pytest.mark.parametrize("dim", [1, 2, 5, 8, 13])
    def test_each_truncation_builds_its_block(self, monkeypatch, dim):
        counts = self.pair_counts(monkeypatch, dense_low_energy_rho(dim, dim))
        assert counts == [M * M for M in range(1, dim + 1)]

    def test_a_block_holds_no_zero_amplitude(self, monkeypatch):
        # |2><2| in four levels: the blocks M = 1, 2 hold only zeros.
        assert self.pair_counts(monkeypatch, oracle.fock_state(2, 4)) == [0, 0, 1, 1]
        # A squeezed vacuum has even photon numbers only.
        rho = oracle.squeezed_vacuum_state(0.5, 5)
        assert self.pair_counts(monkeypatch, rho) == [1, 1, 4, 4, 9]

    @pytest.mark.parametrize("dim", [1, 2, 5, 8, 13])
    def test_dense_matrices_report_the_full_table_bit_for_bit(self, dim):
        rho = dense_low_energy_rho(dim, dim)
        for curve in known_fock_curves():
            got = sb.known_fock_bound(curve, sb.KnownFock(rho))
            assert repr(got) == repr(full_grid_known_fock_bound(curve, rho))

    @pytest.mark.parametrize("rho", [
        oracle.fock_state(0, 4), oracle.fock_state(2, 5), oracle.spat_state(0.4, 4),
        oracle.spat_state(1.5, 9), oracle.squeezed_vacuum_state(0.3, 9),
        oracle.squeezed_vacuum_state(0.6, 16),
    ], ids=["fock-0", "fock-2", "spat-0.4", "spat-1.5", "squeezed-0.3", "squeezed-0.6"])
    def test_zero_amplitudes_move_nothing_past_an_ulp(self, rho):
        # A table holds no zero amplitude, so its sum adds fewer terms than
        # the masked block did; the reports agree to 1e-15.
        for curve in known_fock_curves():
            got = sb.known_fock_bound(curve, sb.KnownFock(rho))
            assert_reports_close(got, full_grid_known_fock_bound(curve, rho), 1e-15)

    def test_corpus_matrix(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text("[[0.75, 0], [0, [0.25, 0.0]]]\n", encoding="utf-8")
        spec = sb.parse_state_spec(f"known-fock:{path}")
        for curve in known_fock_curves():
            got = sb.known_fock_bound(curve, spec)
            assert_reports_close(got, full_grid_known_fock_bound(curve, spec.rho), 1e-15)


class TestSqueezedVacuum:
    def test_eta_exact_vs_beta_identity(self):
        # sqrt(1-l^2) sum = 1 - beta[l^2; (M+1)/2, 1/2] Gamma(M/2+1) /
        # (sqrt(pi) ((M-1)/2)!), beta the non-regularized incomplete beta.
        from scipy import special

        for lam in (0.3, 0.6):
            for M in (3, 5, 9):
                direct = sb.squeezed_vacuum_eta_exact(lam, M)
                a, b = (M + 1) / 2.0, 0.5
                beta = special.betainc(a, b, lam * lam) * math.exp(special.betaln(a, b))
                ident = 1.0 - beta * math.exp(
                    math.lgamma(M / 2.0 + 1.0)
                ) / (math.sqrt(math.pi) * math.factorial((M - 1) // 2))
                assert direct == pytest.approx(ident, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.3, 0.6])
    @pytest.mark.parametrize("M", [3, 5, 7, 9])
    def test_eta_exact_dominates_floor(self, lam, M):
        floor = 1.0 - lam * lam / (M * (1.0 - lam * lam))
        assert sb.squeezed_vacuum_eta_exact(lam, M) >= floor

    def test_mu_ub_dominates_elementwise(self):
        rho = oracle.squeezed_vacuum_state(0.5, 40)
        for M in (1, 3, 5, 9):
            for s in (0.05, 0.2, 0.4):
                closed = sb.squeezed_vacuum_mu_ub(0.5, s, M)
                elementwise = fock_mass(rho, s, M)
                assert closed >= elementwise * (1.0 - 1e-12)

    def test_geometric_singularity_resolved(self):
        # y = 1 is handled by continuity with the (M+1)/2-term count.
        assert sb._geometric_sum(1.0 + 1e-14, 5) == pytest.approx(5.0, rel=1e-9)
        assert sb._geometric_sum(1.0, 5) == 5.0

    @pytest.mark.parametrize("terms", [1, 2, 3, 11, 21])
    def test_geometric_sum_against_mpmath(self, terms):
        # (y^T - 1)/(y - 1) read 5e-9 relative low at y = 1 + 1e-8, T = 2,
        # and the sum feeds the mass upper bound.
        near_one = [1.0 + sign * m * 10.0**-k for k in range(1, 16)
                    for m in (1.0, 3.7) for sign in (1, -1)]
        for y in [10.0 ** (k / 4) for k in range(-20, 25)] + near_one:
            with mpmath.workdps(60):
                exact = mpmath.fsum(mpmath.mpf(y) ** p for p in range(terms))
                assert abs(sb._geometric_sum(y, terms) - exact) <= 1e-15 * exact, y

    def test_small_lambda_approaches_vacuum_curve(self):
        curve = pr_curve(1e-3)
        report = sb.squeezed_vacuum_bound(curve, sb.SqueezedVacuum(1e-3))
        assert report.value <= curve(0.1) + 0.2

    def test_result_dominated_by_classical_branch_values(self):
        # Above the non-classical depth lam/(1+lam) the smoothed state is
        # classical; the reported minimum can never exceed that branch.
        lam = 0.05
        curve = pr_curve(0.3)
        nbar = lam * lam / (1.0 - lam * lam)
        report = sb.squeezed_vacuum_bound(curve, sb.SqueezedVacuum(lam))
        threshold = lam / (1.0 + lam)
        for s in (threshold * 1.001, threshold + 0.05, threshold + 0.3):
            classical_value = curve(nbar + s) + 4.0 * math.sqrt(
                s * (1.0 + lam * lam) / (1.0 - lam * lam)
            )
            assert report.value <= classical_value + 1e-12

    def test_odd_M_enforced(self):
        with pytest.raises(ValueError, match="odd"):
            sb.squeezed_vacuum_mu_ub(0.5, 0.1, 4)

    def test_report_recompute(self):
        report = sb.squeezed_vacuum_bound(pr_curve(1e-4), sb.SqueezedVacuum(0.5))
        assert report.recompute() == report.value


CLOSED_FORM_CURVES = ("step", "lipschitz", "gaussian", "phase_rotation", "squeezing",
                      "displacement", "symmetric")


def closed_form_curve(name: str, eps0: float, tau: float) -> BoundCurve:
    """The closed-form curve, hulled as the CLI hulls it where not concave."""
    curve = CURVE_CONSTRUCTORS[name](InDistributionGuarantee(eps0=eps0, tau=tau))
    return curve if curve.concavified else concave_hull(curve, 40.0, 241)


def golden_section_squeezed_bound(curve: BoundCurve, lam: float) -> tuple[float, sb.BoundReport]:
    """squeezed_vacuum_bound as it was before its classical branch was
    settled by proof: a golden-section search (tol 1e-10) of
    curve(nbar + s) + 4 sqrt(s (1 + 2 nbar)) over s from lam/(1+lam) + 1e-12
    to lam/(1+lam) + 1, the classical branch winning on <=. Returns the
    searched s and the report."""
    nbar = lam * lam / (1.0 - lam * lam)
    noise_scale = (1.0 + lam * lam) / (1.0 - lam * lam)
    threshold = lam / (1.0 + lam)
    s_cls, _ = golden_section_min(
        lambda s: curve(nbar + s) + 4.0 * math.sqrt(s * noise_scale),
        threshold + 1e-12, threshold + 1.0, tol=1e-10,
    )
    cls = sb._smoothed_point(curve, noise_scale, (None, 1.0, lambda s: (1.0, nbar + s)), s_cls)
    truncations = [
        sb._truncation(M, sb.squeezed_vacuum_eta_exact(lam, M),
                       partial(sb.squeezed_vacuum_mu_ub, lam, M=M))
        for M in range(1, 42, 2)
    ]
    best = sb._smoothed_search(curve, noise_scale, truncations)
    if cls.value <= best.value:
        return s_cls, sb._smoothed_report(
            "squeezed_classical", cls, nbar=nbar, curve_value=cls.curve_value, penalty=cls.penalty
        )
    return s_cls, sb._truncated_report("squeezed_fock", best, nbar)


@pytest.mark.parametrize("name", CLOSED_FORM_CURVES)
def test_squeezed_classical_branch_is_the_golden_section_minimum(name):
    """The classical squeezed-vacuum branch takes the left end of its s
    window by proof; the golden section it replaced finds that end too, and
    the two bounds report the same."""
    for eps0 in (1e-8, 1e-4, 0.05, 0.5, 1.5):
        for tau in (0.3, 1.0, 3.0):
            curve = closed_form_curve(name, eps0, tau)
            for lam in (0.05, 0.2, 0.5, 0.8, 0.95):
                s_cls, reference = golden_section_squeezed_bound(curve, lam)
                assert s_cls == lam / (1.0 + lam) + 1e-12, (eps0, tau, lam)
                report = sb.squeezed_vacuum_bound(curve, sb.SqueezedVacuum(lam))
                assert report == reference, (eps0, tau, lam)


def gaussian_curve(eps0: float) -> BoundCurve:
    return gaussian_bound(InDistributionGuarantee(eps0=eps0, tau=0.5))


KNOWN_FOCK_RHO = oracle.coherent_projector(0.7, 16)


SMOOTHED_OUTCOMES = pytest.mark.parametrize(
    "build, branch, s_is_zero, scale",
    [
        (lambda: sb.spat_bound(gaussian_curve(1e-6), sb.SPAT(0.01)), "spat", True,
         3.0 + 4.0 * 0.01),
        (lambda: sb.spat_bound(gaussian_curve(1e-4), sb.SPAT(0.01)), "spat", False,
         3.0 + 4.0 * 0.01),
        (lambda: sb.fock_bound(pr_curve(1e-10), sb.Fock(2)), "fock", False, 5.0),
        # The two truncated cases settle at M = 2 and M = 3, inside the s window.
        (
            lambda: sb.known_fock_bound(gaussian_curve(1e-8), sb.KnownFock(KNOWN_FOCK_RHO)),
            "known_fock",
            False,
            1.0 + 2.0 * mean_photon_number(KNOWN_FOCK_RHO),
        ),
        (lambda: sb.squeezed_vacuum_bound(pr_curve(1e-12), sb.SqueezedVacuum(0.5)),
         "squeezed_fock", False, (1.0 + 0.5 * 0.5) / (1.0 - 0.5 * 0.5)),
        (lambda: sb.squeezed_vacuum_bound(gaussian_curve(0.05), sb.SqueezedVacuum(0.01)),
         "squeezed_classical", False, (1.0 + 0.01 * 0.01) / (1.0 - 0.01 * 0.01)),
    ],
    ids=["spat_s_zero", "spat_smoothed", "fock", "known_fock", "squeezed_fock", "squeezed_classical"],
)


@SMOOTHED_OUTCOMES
def test_smoothed_branch_outcome_recomputes_exactly(build, branch, s_is_zero, scale):
    """Every outcome of the shared smoothed-extension search reports the
    terms its objective summed, so the value is rebuilt bit for bit, and
    its penalty is the one the delta-s oracle checks, paid twice."""
    report = build()
    assert report.branch == branch
    assert (report.chosen_params.s == 0.0) == s_is_zero
    # Unclamped, so the recomputation exercises every recorded term.
    assert report.intermediate["pre_clamp"] < 2.0
    assert report.recompute() == report.value
    assert report.intermediate["penalty"] == 2.0 * delta_s_bound(report.chosen_params.s, scale)


def float_bits(point: tuple) -> list:
    return [x.hex() if isinstance(x, float) else x for x in point]


@SMOOTHED_OUTCOMES
def test_searched_point_is_the_point_at_its_s(monkeypatch, build, branch, s_is_zero, scale):
    """Every point the s-search returns is, bit for bit, the smoothed
    point at its own s, so no caller needs to evaluate it again."""
    searched = []
    search = sb._searched_point

    def recorded(curve, noise_scale, truncation):
        searched.append((curve, noise_scale, truncation, search(curve, noise_scale, truncation)))
        return searched[-1][-1]

    monkeypatch.setattr(sb, "_searched_point", recorded)
    assert build().branch == branch
    assert searched
    for curve, noise_scale, truncation, point in searched:
        at_s = sb._smoothed_point(curve, noise_scale, truncation, point.s)
        assert float_bits(point) == float_bits(at_s)


class TestGenericEnergyBound:
    def test_kappa_grid_is_numpys_geomspace(self):
        kappas = np.geomspace(1.0 + 1e-4, 1e6, 40).tolist()
        assert [k.hex() for k in sb._ENERGY_KAPPAS] == [k.hex() for k in kappas]
        assert all(type(k) is float for k in sb._ENERGY_KAPPAS)

    def test_zero_energy_zero_curve(self):
        zero_curve = phase_rotation_bound(InDistributionGuarantee(eps0=0.0, tau=1.0))
        assert sb.generic_energy_bound(zero_curve, sb.EnergyOnly(0.0)).value == 0.0

    def test_zero_curve_improves_with_m_budget(self):
        zero_curve = phase_rotation_bound(InDistributionGuarantee(eps0=0.0, tau=1.0))
        # The best value over M <= 10, by hand: with a zero curve the series
        # term vanishes and only the noise term and the floor 2 nbar/M remain.
        nbar = 1.0
        small = min(
            (1.0 - nbar / M) * 4.0 * math.sqrt(2.0 * nbar / (kappa * M)) + 2.0 * nbar / M
            for M in range(2, 11)
            for kappa in np.geomspace(1.0 + 1e-4, 1e6, 40)
            if (1.0 - (s := 1.0 / (kappa * (M + 3.0)))) * (1.0 - 2.0 * s) / (s * (M - 1.0)) > 1.0
        )
        large = sb.generic_energy_bound(zero_curve, sb.EnergyOnly(nbar)).value
        assert large <= small
        assert large <= 0.1

    def test_monotone_trend_in_eps0(self):
        vals = [
            sb.generic_energy_bound(pr_curve(10.0**-k), sb.EnergyOnly(1.0)).value
            for k in range(2, 9)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 2.0

    def test_trivial_reported_honestly(self):
        report = sb.generic_energy_bound(pr_curve(0.3), sb.EnergyOnly(5.0))
        assert report.value == 2.0
        assert report.branch == "trivial"

    def test_optimum_not_above_grid(self):
        curve = pr_curve(1e-7)
        report = sb.generic_energy_bound(curve, sb.EnergyOnly(1.0))
        nbar = 1.0
        kappas = np.geomspace(1.0 + 1e-4, 1e6, 40)
        for M in (2, 3, 5, 10):
            for kappa in kappas:
                s = 1.0 / (kappa * (M + 3.0))
                if M >= 2 and (1.0 - s) * (1.0 - 2.0 * s) / (s * (M - 1.0)) <= 1.0:
                    continue
                cv = curve(1.0 / kappa)
                val = (1.0 - nbar / M) * (
                    2.0 * (M + 3.0) ** M * kappa ** (M - 1) * cv
                    + 4.0 * math.sqrt(2.0 * nbar / (kappa * M))
                ) + 2.0 * nbar / M
                assert report.value <= val + 1e-9

    def test_curve_evaluated_once_per_kappa(self):
        inner = CURVE_CONSTRUCTORS["symmetric"](InDistributionGuarantee(eps0=1e-3, tau=1.0))
        calls = []
        counted = BoundCurve("symmetric", inner.guarantee,
                             lambda nbar: calls.append(nbar) or inner(nbar), True)
        nbar = 3.42724101553667
        report = sb.generic_energy_bound(counted, sb.EnergyOnly(nbar))
        assert len(calls) == len(set(calls)) == 40
        assert report == sb.generic_energy_bound(inner, sb.EnergyOnly(nbar))

    def test_report_recompute(self):
        report = sb.generic_energy_bound(pr_curve(1e-7), sb.EnergyOnly(1.0))
        assert report.recompute() == pytest.approx(report.value, abs=1e-12)


class TestMuMonotoneEnvelope:
    def test_linear_curve_independence(self):
        g = InDistributionGuarantee(eps0=0.1, tau=1.0)
        linear = BoundCurve("custom", g, lambda nbar: min(0.01 * nbar, 2.0), True)
        nu = 3.0
        values = [mu_envelope(mu, nu, linear) for mu in (1.0, 5.0, 50.0)]
        # mu * (0.01 * nu / mu) = 0.01 * nu independent of mu.
        assert max(values) - min(values) <= 1e-12

    def test_constant_curve_scales_linearly(self):
        from cvoodg.coherent_bounds import displacement_bound

        curve = displacement_bound(InDistributionGuarantee(eps0=0.5, tau=1.0))
        assert mu_envelope(4.0, 1.0, curve) == pytest.approx(2.0, abs=1e-12)

    def test_monotone_on_random_concave_piecewise_curve(self):
        rng = np.random.default_rng(21)
        xs = np.linspace(0.0, 50.0, 12)
        slopes = np.sort(rng.uniform(0.001, 0.1, size=11))[::-1]
        ys = np.concatenate([[0.05], 0.05 + np.cumsum(slopes * np.diff(xs))])
        ys = np.minimum(ys, 2.0)
        g = InDistributionGuarantee(eps0=0.1, tau=1.0)
        curve = BoundCurve(
            "custom", g, lambda nbar: float(np.interp(nbar, xs, ys)), True
        )
        nu = 7.0
        mus = np.linspace(1.0, 100.0, 150)
        vals = [mu_envelope(float(m), nu, curve) for m in mus]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


class TestDispatchAndParsing:
    def test_parse_round_trip(self):
        assert sb.parse_state_spec("fock:2") == sb.Fock(2)
        assert sb.parse_state_spec("classical:0.5") == sb.Classical(0.5)
        assert sb.parse_state_spec("spat:1.0") == sb.SPAT(1.0)
        assert sb.parse_state_spec("squeezed-vacuum:0.5") == sb.SqueezedVacuum(0.5)
        assert sb.parse_state_spec("energy-only:1.0") == sb.EnergyOnly(1.0)
        spec = sb.parse_state_spec("finite-negativity:0.5:2.0:1.0")
        assert spec == sb.NegativityProfile(0.5, 2.0, 1.0)
        assert spec.negativity == 0.5

    def test_every_spec_reports_its_mean_photon_number(self):
        assert sb.Classical(0.5).nbar == 0.5
        assert sb.Fock(3).nbar == 3.0
        assert sb.SPAT(0.25).nbar == 1.5
        assert sb.SqueezedVacuum(0.5).nbar == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert sb.EnergyOnly(2.0).nbar == 2.0
        assert sb.NegativityProfile(0.5, 2.0, 1.0).nbar == 2.5
        assert sb.KnownFock(oracle.fock_state(2, 5)).nbar == pytest.approx(2.0, abs=1e-14)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            sb.parse_state_spec("fock:-1")
        with pytest.raises(ValueError):
            sb.parse_state_spec("mystery:1")
        with pytest.raises(OverflowError):
            sb.Fock(10**400)

    @pytest.mark.parametrize("text", ["-0", "-0.0", "0", "+0", "-0e5"])
    def test_zero_reads_as_a_non_negative_zero(self, text):
        assert sb.finite_float(text).hex() == "0x0.0p+0"
        assert sb.parse_state_spec(f"classical:{text}").nbar.hex() == "0x0.0p+0"
        assert sb.parse_state_spec(f"finite-negativity:{text}:1:{text}").nbar == 1.0

    def test_a_nan_bound_raises(self):
        with pytest.raises(ValueError, match="the bound is NaN"):
            sb._clamp(math.nan)
        assert [sb._clamp(v) for v in (-1.0, 0.5, math.inf)] == [0.0, 0.5, 2.0]

    def test_zero_energy_routes_to_classical(self):
        curve = pr_curve(0.1)
        assert sb.extend(curve, sb.EnergyOnly(0.0)).branch == "classical"
        assert sb.extend(curve, sb.Fock(0)).branch == "classical"

    @pytest.mark.parametrize("name", list(sb.STATE_KINDS))
    def test_every_spelling_of_a_kind_parses_to_one_spec(self, name, tmp_path, monkeypatch):
        (tmp_path / "rho.json").write_text("[[0.75, 0], [0, [0.25, 0]]]", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        underscored = name.replace("-", "_")
        spellings = [name, underscored, name.upper(), underscored.upper()]
        specs = [sb.parse_state_spec(f"{spelling}:{KIND_ARGS[name]}") for spelling in spellings]
        kind = sb.STATE_KINDS[name]
        assert {type(spec) for spec in specs} == {kind.spec}
        assert all(spec_fields(spec) == spec_fields(specs[0]) for spec in specs)
        assert kind.certificates
        assert isinstance(sb.extend(pr_curve(1e-3), specs[0]), sb.BoundReport)

    @pytest.mark.parametrize("spec", [object(), "fock:2", 2, sb.ExtensionParams(s=0.1)],
                             ids=["object", "text", "int", "record"])
    def test_extend_rejects_what_is_not_a_spec(self, spec):
        with pytest.raises(TypeError, match="unsupported input state spec"):
            sb.extend(pr_curve(1e-3), spec)

    def test_unknown_kind_lists_the_kinds(self):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown state kind 'vacuum' in 'vacuum:1'; choose from {sorted(sb.STATE_KINDS)}")):
            sb.parse_state_spec("vacuum:1")

    @pytest.mark.parametrize("rest", ["", "0.5:2", "0.5:2:1:1"])
    def test_negativity_with_the_wrong_number_of_parts(self, rest):
        with pytest.raises(ValueError, match="finite-negativity needs N:nbar[+]:nbar-$"):
            sb.parse_state_spec(f"finite-negativity:{rest}")

    def test_extension_params_validation(self):
        with pytest.raises(ValueError):
            sb.ExtensionParams(s=0.5)
        with pytest.raises(ValueError):
            sb.ExtensionParams(M=0)
        with pytest.raises(ValueError):
            sb.ExtensionParams(kappa=1.0)
        assert sb.ExtensionParams(s=0.0).s == 0.0  # no-smoothing branch marker


#: The arguments of one spec of each state kind; rho.json is a file that the
#: test writes.
KIND_ARGS = {
    "classical": "0.5", "fock": "2", "spat": "1.0", "squeezed-vacuum": "0.3",
    "energy-only": "1.0", "finite-negativity": "0.3:1.5:0.5", "known-fock": "rho.json",
}


def spec_fields(spec) -> list:
    """The field values of a spec record, a Fock matrix as nested lists."""
    return [v.entries.tolist() if isinstance(v, FockMatrix) else v for v in spec._values()]


#: One spec of every state kind; the energy-only specs reach both the
#: energy_generic and the trivial branch.
EVERY_STATE_KIND = [
    sb.Classical(2.5),
    sb.NegativityProfile(0.3, 1.5, 0.5),
    sb.SPAT(0.7),
    sb.Fock(2),
    sb.SqueezedVacuum(0.4),
    sb.KnownFock(oracle.coherent_projector(0.7, 8)),
    sb.EnergyOnly(1.0),
    sb.EnergyOnly(30.0),
]


@pytest.mark.parametrize("curve", [
    pr_curve(1e-6),
    concave_hull(step_bound(InDistributionGuarantee(eps0=1e-3, tau=1.0)), 40.0, 81),
], ids=["phase_rotation", "step_hull"])
@pytest.mark.parametrize("spec", EVERY_STATE_KIND, ids=lambda spec: type(spec).__name__)
def test_reports_hold_python_scalars(curve, spec):
    # JSON output writes these as they are, so none may be a numpy scalar.
    report = sb.extend(curve, spec)
    params = report.chosen_params.as_json() if report.chosen_params else None
    values = {"value": report.value, **report.intermediate, **(params or {})}
    others = {k: type(v) for k, v in values.items() if type(v) not in (int, float, type(None))}
    assert others == {}


#: Squeezing parameters whose lam**2 and lam * lam differ in the last bit
#: with glibc's pow, and so once gave two n̄ for one squeezed vacuum.
POW_SENSITIVE_LAMS = (0.0397, 0.2551, 0.6352, 0.9477)

#: Sample specs of every state kind: zero-energy states, where the vacuum
#: certificate applies, and squeezing parameters on both sides of the
#: classical depth.
CERTIFICATE_SAMPLES = {
    "classical": [sb.Classical(0.0), sb.Classical(2.5)],
    "fock": [sb.Fock(0), sb.Fock(2)],
    "spat": [sb.SPAT(0.7)],
    "squeezed-vacuum": [sb.SqueezedVacuum(lam) for lam in (0.01, 0.3, *POW_SENSITIVE_LAMS)],
    "energy-only": [sb.EnergyOnly(0.0), sb.EnergyOnly(1.0), sb.EnergyOnly(30.0)],
    "finite-negativity": [sb.NegativityProfile(0.3, 1.5, 0.5)],
    "known-fock": [sb.KnownFock(FockMatrix(np.diag([0.75, 0.25])))],
}


class TestCertificates:
    """Each certificate of a STATE_KINDS row is a bound of the kind's record,
    and extend keeps the least of those that apply."""

    def test_every_row_lists_module_functions(self):
        # No adapter: each certificate is a function of the module itself.
        for kind in sb.STATE_KINDS.values():
            assert all(getattr(sb, c.__name__) is c for c in kind.certificates), kind
        assert set(CERTIFICATE_SAMPLES) == set(sb.STATE_KINDS)

    # At phase_rotation eps0 1e-8 energy-only:1.0 reports energy_generic; at
    # gaussian eps0 0.05 squeezed-vacuum:0.01 reports squeezed_classical.
    @pytest.mark.parametrize("curve", [pr_curve(1e-8), gaussian_bound(
        InDistributionGuarantee(eps0=0.05, tau=1.0))], ids=["phase_rotation", "gaussian"])
    @pytest.mark.parametrize("kind", list(CERTIFICATE_SAMPLES))
    def test_extend_is_the_least_certificate(self, curve, kind):
        for spec in CERTIFICATE_SAMPLES[kind]:
            reports = [certificate(curve, spec)
                       for certificate in sb.STATE_KINDS[kind].certificates]
            assert all(r is None or isinstance(r, sb.BoundReport) for r in reports), spec
            applied = [r for r in reports if r is not None]
            best = sb.extend(curve, spec)
            assert best in applied, spec
            assert best.value - min(r.value for r in applied) <= 1e-15, spec
            for report in applied:
                if "nbar" in report.intermediate:
                    assert report.intermediate["nbar"].hex() == spec.nbar.hex(), spec

    def test_sweep_formats_print_one_nbar(self, capsys):
        states = ",".join(f"squeezed-vacuum:{lam}" for lam in (0.3, *POW_SENSITIVE_LAMS))
        argv = ["sweep", "--eps0-grid", "1e-3", "--states", states, "--curve", "gaussian"]
        printed = {}
        for fmt in ("csv", "json"):
            assert cli.main([*argv, "--format", fmt]) == 0
            printed[fmt] = capsys.readouterr().out
        rows = csv.DictReader(io.StringIO(printed["csv"].split("\n", 1)[1]))
        csv_nbar = [float(row["nbar"]) for row in rows]
        json_nbar = [row["intermediates"]["nbar"] for row in json.loads(printed["json"])["rows"]]
        spec_nbar = [sb.parse_state_spec(text).nbar for text in states.split(",")]
        assert [x.hex() for x in csv_nbar] == [x.hex() for x in json_nbar]
        assert [x.hex() for x in json_nbar] == [x.hex() for x in spec_nbar]


class TestSoundnessAgainstExactDistances:
    """Worst-case phase-rotation pairs vs every realizable variant."""

    @pytest.mark.parametrize("eps0,spec,rho,exact", [
        # A truncation at M = 1 that once priced the cut at 2 (1 - eta) alone,
        # dropping the cross blocks, and fell below the exact distance:
        # 0.0927 and 0.1729.
        (0.3, sb.SqueezedVacuum(0.3), oracle.squeezed_vacuum_state(0.3, 40), 0.13974891609700957),
        (1.0, sb.KnownFock(oracle.coherent_projector(0.3, 40)),
         oracle.coherent_projector(0.3, 40), 0.31974413971084137),
    ], ids=["squeezed_fock", "known_fock"])
    def test_truncated_branches_bound_the_exact_distance(self, eps0, spec, rho, exact):
        g = InDistributionGuarantee(eps0=eps0, tau=1.0)
        report = sb.extend(phase_rotation_bound(g), spec)
        assert report.chosen_params.M == 1
        distance = oracle.phase_rotation_state_distance(
            oracle.worst_case_pair("phase_rotation", g).gap, rho)
        assert distance == pytest.approx(exact, rel=1e-12)
        assert distance <= report.value

    @pytest.mark.parametrize("eps0", [0.1, 0.01])
    def test_zero_violations(self, eps0):
        g = InDistributionGuarantee(eps0=eps0, tau=1.0)
        curve = phase_rotation_bound(g)
        pair = oracle.worst_case_pair("phase_rotation", g)
        d_theta = pair.gap
        dim = 40

        cases = [
            (sb.Fock(m), oracle.fock_state(m, dim)) for m in range(5)
        ]
        cases.append((sb.SqueezedVacuum(0.5), oracle.squeezed_vacuum_state(0.5, dim)))
        for q in (0.5, 1.0, 2.0):
            cases.append((sb.SPAT(q), oracle.spat_state(q, dim)))
        mix = oracle.classical_mixture([0.3, 1.1], [0.4, 0.6], dim)
        cases.append((sb.Classical(0.4 * 0.3**2 + 0.6 * 1.1**2), mix))
        coh = oracle.coherent_projector(math.sqrt(0.5), dim)
        cases.append((sb.KnownFock(coh), coh))
        cases.append((sb.EnergyOnly(1.0), oracle.coherent_projector(1.0, dim)))

        for spec, rho in cases:
            bound = sb.extend(curve, spec).value
            exact = oracle.phase_rotation_state_distance(d_theta, rho)
            assert exact <= bound + 1e-9, (spec, exact, bound)

    def test_convergence_along_eps0(self):
        specs = [sb.Fock(2), sb.SPAT(1.0), sb.SqueezedVacuum(0.5), sb.EnergyOnly(1.0)]
        for spec in specs:
            vals = [sb.extend(pr_curve(10.0**-k), spec).value for k in range(1, 8)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), (spec, vals)
            assert vals[-1] < vals[0] or vals[-1] < 2.0
