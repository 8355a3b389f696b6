"""Verification-layer tests: pair construction, exact distances, suites,
quadrature cross-checks, and determinism."""

import functools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from cvoodg import cvcore, oracle
from cvoodg.coherent_bounds import (
    CURVE_CONSTRUCTORS,
    BoundCurve,
    InDistributionGuarantee,
    universal_point,
)
from cvoodg.cvcore import (
    gamma_overlap,
    gaussian_output_fidelity_sq,
    mean_photon_number,
    p_rep_radial_fn,
)

G = InDistributionGuarantee(eps0=0.1, tau=1.0)
REPORT_SCHEMA = json.loads(
    (Path(oracle.__file__).parent / "schemas" / "verification_report.schema.json").read_text()
)


class TestWorstCasePairs:
    @pytest.mark.parametrize("class_tag", oracle.SUPPORTED_CLASSES)
    def test_achieved_saturates_guarantee(self, class_tag):
        pair = oracle.worst_case_pair(class_tag, G)
        assert pair.achieved_eps0 == pytest.approx(G.eps0, abs=1e-10)

    def test_phase_rotation_gap_inversion(self):
        pair = oracle.worst_case_pair("phase_rotation", G)
        expected = math.acos(1.0 + math.log(1.0 - (G.eps0 / 2.0) ** 2) / 2.0)
        assert pair.gap == pytest.approx(expected, rel=1e-12)

    def test_displacement_distance_r_independent(self):
        pair = oracle.worst_case_pair("displacement", G)
        dists = [oracle.exact_coherent_distance(pair, r, 0.7) for r in (0.0, 1.0, 5.0)]
        assert max(dists) - min(dists) <= 1e-12
        assert dists[0] == pytest.approx(G.eps0, abs=1e-12)

    def test_witness_gap_formula(self):
        pair = oracle.equality_witness_pair("phase_rotation", G)
        expected = math.acos(1.0 + math.log(1.0 - G.eps0 / 2.0) / 2.0)
        assert pair.gap == pytest.approx(expected, rel=1e-12)
        assert pair.achieved_eps0 == pytest.approx(math.sqrt(2.0 * G.eps0), rel=1e-9)

    def test_squeezing_witness_uses_lambert_inversion(self):
        import mpmath

        pair = oracle.equality_witness_pair("squeezing", G)
        w = float(mpmath.lambertw(2 * mpmath.exp(2) * (1 - mpmath.mpf(G.eps0) / 2)).real)
        sech = w / 2.0
        expected = math.log((1.0 + math.sqrt(1.0 - sech * sech)) / sech)
        assert pair.gap == pytest.approx(expected, rel=1e-10)

    def test_scaled_pair_stays_in_distribution(self):
        pair = oracle.worst_case_pair("squeezing", G, 0.4)
        assert pair.achieved_eps0 <= G.eps0

    def test_unsupported_class(self):
        with pytest.raises(ValueError):
            oracle.worst_case_pair("cubic_phase", G)

    @pytest.mark.parametrize("eps0", [1e-8, 1e-10, 1e-12])
    def test_small_guarantee_gives_the_leading_order_gap(self, eps0):
        # To leading order in the gap, 1 - F^2 at r = tau = 1 is theta^2
        # (rotation), dx^2 / 4 (displacement), 3 zeta^2 / 2 (squeezing) and
        # gap^2 (loss, eta = (1 - gap)^2); it equals (eps0/2)^2, and a gap
        # taken from the rounded f2 = 1 - (eps0/2)^2 would be 0.
        leading = {"phase_rotation": 0.5, "displacement": 1.0,
                   "squeezing": 1.0 / math.sqrt(6.0), "loss": 0.5}
        g = InDistributionGuarantee(eps0=eps0, tau=1.0)
        for class_tag in oracle.SUPPORTED_CLASSES:
            gap = oracle.worst_case_pair(class_tag, g).gap
            assert gap == pytest.approx(leading[class_tag] * eps0, rel=1e-6), class_tag


class TestExactCoherentDistance:
    def test_identical_pair(self):
        pair = oracle.worst_case_pair("phase_rotation", G, 1e-12)
        assert oracle.exact_coherent_distance(pair, 2.0, 0.1) <= 1e-10

    def test_saturation_at_tau(self):
        for class_tag in oracle.SUPPORTED_CLASSES:
            pair = oracle.worst_case_pair(class_tag, G)
            assert oracle.exact_coherent_distance(pair, G.tau, 0.0) == pytest.approx(
                G.eps0, abs=1e-10
            )

    def test_grid_equals_scalar_calls(self):
        pair = oracle.worst_case_pair("squeezing", G)
        rs, phis = [0.0, 0.5, 2.0], [0.0, 1.0]
        grid = oracle.exact_coherent_distance(pair, rs, phis)
        assert grid == [[oracle.exact_coherent_distance(pair, float(r), float(p))
                         for p in phis] for r in rs]
        assert type(oracle.exact_coherent_distance(pair, 1.0, 0.5)) is float

    def test_monotone_in_r_for_phase_rotation(self):
        pair = oracle.worst_case_pair("phase_rotation", G)
        rs = np.linspace(0.0, 6.0, 50)
        dists = [oracle.exact_coherent_distance(pair, float(r), 0.0) for r in rs]
        assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))


def _mp_channel(class_tag, gap):
    """The class's learned channel at the gap as 50-digit (M, N, d), built
    as cvcore builds it in floats."""
    import mpmath as mp

    gap = mp.mpf(gap)
    zero, origin = mp.zeros(2, 2), mp.matrix([0, 0])
    if class_tag == "phase_rotation":
        c, s = mp.cos(gap), mp.sin(gap)
        return mp.matrix([[c, -s], [s, c]]), zero, origin
    if class_tag == "displacement":
        return mp.eye(2), zero, mp.matrix([gap, 0])
    if class_tag == "squeezing":
        return mp.diag([mp.exp(gap), mp.exp(-gap)]), zero, origin
    eta = (1 - gap) ** 2
    return mp.sqrt(eta) * mp.eye(2), (1 - eta) * mp.eye(2), origin


def _mp_distance(class_tag, gap, r, phi):
    """2 sqrt(1 - F^2) at 50 digits from the general Gaussian fidelity
    F^2 = 2 exp(-mu^T (V1 + V2)^{-1} mu / 2) / (sqrt(Delta + delta) - sqrt(delta))
    of channel(0) and channel(gap) on |r e^{i phi}>."""
    import mpmath as mp

    with mp.workdps(50):
        (m1, n1, d1), (m2, n2, d2) = _mp_channel(class_tag, 0), _mp_channel(class_tag, gap)
        r, phi = mp.mpf(r), mp.mpf(phi)
        q = mp.matrix([2 * r * mp.cos(phi), 2 * r * mp.sin(phi)])
        mu = (m2 - m1) * q + d2 - d1
        v1, v2 = m1 * m1.T + n1, m2 * m2.T + n2
        quad = (mu.T * mp.inverse(v1 + v2) * mu)[0]
        delta = max((mp.det(v1) - 1) * (mp.det(v2) - 1), 0)
        f2 = 2 * mp.exp(-quad / 2) / (mp.sqrt(mp.det(v1 + v2) + delta) - mp.sqrt(delta))
        return 2 * mp.sqrt(1 - f2)


_EPS = 2.220446049250313e-16
#: Each class's largest admissible gap: a half turn; the worst-case
#: displacement and the squeezing witness at the loosest guarantee tested
#: below (eps0 1.99, tau 1e-3); a loss to transmissivity 0.
_LARGEST_GAP = {
    "phase_rotation": math.pi,
    "displacement": oracle.worst_case_pair(
        "displacement", InDistributionGuarantee(1.99, 1e-3)).gap,
    "squeezing": oracle.equality_witness_pair(
        "squeezing", InDistributionGuarantee(1.99, 1e-3)).gap,
    "loss": 1.0,
}
#: 13 gaps from 1e-12 to the largest, evenly spaced in log, and 7 radii
#: from 1e-3 to 10.
_PIN_RADII = [10.0 ** (-3.0 + 4.0 * i / 6) for i in range(7)]


def _pin_gaps(class_tag):
    top = math.log10(_LARGEST_GAP[class_tag])
    return [*(10.0 ** (-12.0 + (top + 12.0) * i / 12) for i in range(12)),
            _LARGEST_GAP[class_tag]]


class TestClosedFormDistance:
    """Each class's log F^2 against the general Gaussian fidelity."""

    @pytest.mark.parametrize("class_tag", oracle.SUPPORTED_CLASSES)
    def test_equals_the_50_digit_general_formula(self, class_tag):
        for gap in _pin_gaps(class_tag):
            # Every distance is at most 2, so any pair is admitted under 2.
            pair = oracle.ChannelPairSample(class_tag, gap, 2.0, 1.0)
            rows = oracle.exact_coherent_distance(pair, _PIN_RADII, oracle.PHI_GRID)
            for r, row in zip(_PIN_RADII, rows):
                for phi, distance in zip(oracle.PHI_GRID, row):
                    exact = _mp_distance(class_tag, gap, r, phi)
                    assert abs(distance - exact) <= 4.0 * _EPS * exact, (gap, r, phi)

    @pytest.mark.parametrize("class_tag", oracle.SUPPORTED_CLASSES)
    def test_equals_the_float_fidelity_where_it_does_not_cancel(self, class_tag):
        compared = 0
        for gap in _pin_gaps(class_tag):
            pair = oracle.ChannelPairSample(class_tag, gap, 2.0, 1.0)
            channels = pair.channels()
            for r in _PIN_RADII:
                for phi in oracle.PHI_GRID:
                    f2 = gaussian_output_fidelity_sq(*channels, r, phi)
                    if 1.0 - f2 >= 1e-4:
                        compared += 1
                        assert oracle.exact_coherent_distance(pair, r, phi) == pytest.approx(
                            2.0 * math.sqrt(1.0 - f2), rel=1e-10), (gap, r, phi)
        assert compared > 0

    @pytest.mark.parametrize("class_tag", oracle.SUPPORTED_CLASSES)
    def test_is_independent_of_the_phase(self, class_tag):
        for gap in _pin_gaps(class_tag):
            pair = oracle.ChannelPairSample(class_tag, gap, 2.0, 1.0)
            for row in oracle.exact_coherent_distance(pair, _PIN_RADII, oracle.PHI_GRID):
                assert row == [row[0]] * len(oracle.PHI_GRID)

    def test_no_admissible_squeezing_gives_nan(self):
        for gap in (*_pin_gaps("squeezing"), 40.0, 700.0):
            pair = oracle.ChannelPairSample("squeezing", gap, 2.0, 1.0)
            rows = oracle.exact_coherent_distance(pair, [0.0, *_PIN_RADII, 1e6], [0.0])
            assert all(0.0 <= d <= 2.0 for row in rows for d in row), gap


class TestPairAdmission:
    EPS0 = (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 1.0, 1.5, 1.9)
    TAU = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)

    def _saturating_pairs(self):
        for eps0 in self.EPS0:
            for tau in self.TAU:
                g = InDistributionGuarantee(eps0=eps0, tau=tau)
                for class_tag, entry in oracle.CHANNEL_CLASSES.items():
                    makers = [oracle.worst_case_pair]
                    if entry.witness:
                        makers.append(oracle.equality_witness_pair)
                    for make in makers:
                        try:
                            yield make(class_tag, g)
                        except ValueError as exc:
                            # A rotation or a loss cannot reach a loose
                            # guarantee at a small tau.
                            assert "too loose" in str(exc), (class_tag, eps0, tau)

    def test_every_saturating_pair_is_within_a_few_ulps(self):
        pairs = list(self._saturating_pairs())
        assert len(pairs) > 600
        for pair in pairs:
            assert abs(pair.achieved_eps0 - pair.declared_eps0) <= (
                4.0 * _EPS * pair.declared_eps0), pair

    def test_a_gap_past_saturation_is_rejected(self):
        # The absolute slack 1e-10 admitted this pair at eps0 1e-12: its
        # distance is 1e-9 relative above the guarantee.
        for pair in self._saturating_pairs():
            with pytest.raises(ValueError, match="exceeds its declared guarantee"):
                oracle.ChannelPairSample(pair.class_tag, pair.gap * (1.0 + 1e-9),
                                         pair.declared_eps0, pair.tau)

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            oracle.run_dominance_suite(G, seed=-1)


@pytest.mark.parametrize("argv", [
    ["--class", "phase_rotation", "--eps0", "0.1", "--tau", "1e6"],
    ["--class", "phase_rotation", "--eps0", "1e-12", "--tau", "1"],
    ["--class", "squeezing", "--eps0", "0.1", "--tau", "3e6"],
])
def test_tiny_distances_do_not_cancel(argv, capsys):
    # The float F^2 read a distance below about 1e-7 as rounding: these
    # exited 1, 1 and 2.
    from cvoodg import cli

    assert cli.main(["verify", "--suite", "dominance", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


class TestDominanceSuite:
    def test_matched_classes_pass(self):
        report = oracle.run_dominance_suite(G, seed=7)
        assert report.passed
        names = [a.name for a in report.assertions]
        assert any("witness" in n for n in names)

    def test_deterministic_given_seed(self):
        a = oracle.run_dominance_suite(G, seed=3).as_json()
        b = oracle.run_dominance_suite(G, seed=3).as_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_under_scaled_curve_fails_with_worst_point(self):
        report = oracle.run_dominance_suite(G, classes=("phase_rotation",), curve_scale=0.2)
        assert not report.passed
        failed = [a for a in report.assertions if a.status == "fail"]
        assert failed and "nbar" in failed[0].worst_point

    def test_step_dominates_every_pair(self):
        step = CURVE_CONSTRUCTORS["step"](G)
        bounds = [step(nbar) for nbar in oracle.R2_GRID]
        for class_tag in oracle.SUPPORTED_CLASSES:
            pair = oracle.worst_case_pair(class_tag, G)
            distances = oracle.exact_coherent_distance(
                pair, [math.sqrt(nbar) for nbar in oracle.R2_GRID], oracle.PHI_GRID)
            result = oracle.dominance_suite(bounds, distances, name=class_tag)
            assert result.status == "pass"

    def test_universal_bound_dominates_at_moderate_r(self):
        # The only tractable check for the class-agnostic construction:
        # saturating pairs at small eps0, where it is non-trivial.
        g = InDistributionGuarantee(eps0=1e-4, tau=1.0)
        for class_tag in ("phase_rotation", "squeezing", "loss"):
            pair = oracle.worst_case_pair(class_tag, g)
            for nbar in (0.01, 0.04, 0.16, 0.25):
                bound = universal_point(g, math.sqrt(nbar))[0]
                dist = oracle.exact_coherent_distance(pair, math.sqrt(nbar), 0.0)
                assert dist <= bound + 1e-9, (class_tag, nbar)
                if nbar <= 0.16:
                    assert bound < 2.0


class TestGammaQuadrature:
    def test_vacuum_value(self):
        assert oracle.gamma_quadrature([((0, 0), (0, 0))], 0.2) == [
            pytest.approx(1.0 / 1.2, abs=1e-8)]

    def test_mismatched_delta_vanishes(self):
        assert oracle.gamma_quadrature([((2, 0), (2, 1))], 0.2) == [0.0]

    @pytest.mark.parametrize("s", [0.05, 0.1, 0.3])
    def test_grid_against_closed_form(self, s):
        elements = [(m, n) for m in range(5) for n in range(m + 1)]
        pairs = [(e1, e2) for i, e1 in enumerate(elements) for e2 in elements[i:]]
        for (e1, e2), quad in zip(pairs, oracle.gamma_quadrature(pairs, s)):
            closed = gamma_overlap(e1, e2, s)
            if e1[0] - e1[1] != e2[0] - e2[1]:
                assert quad == closed == 0.0
            else:
                assert quad == pytest.approx(closed, rel=1e-6)

    def test_either_order_of_a_pair(self):
        pairs = [((3, 1), (4, 2)), ((1, 3), (4, 2)), ((3, 1), (2, 4)), ((1, 3), (2, 4))]
        values = oracle.gamma_quadrature(pairs, 0.1)
        assert values == [values[0]] * 4
        assert values[0] == pytest.approx(gamma_overlap((3, 1), (4, 2), 0.1), rel=1e-6)


def _exact_delta_s(m: int, s: float) -> Fraction:
    """2 (1 - p_m) in rational arithmetic at the float s, where
    p_m = (1+s)^-(2m+1) sum_{l<=m} C(m,l)^2 s^(2l)."""
    s = Fraction(s)
    kept = sum(math.comb(m, l) ** 2 * s ** (2 * l) for l in range(m + 1)) / (1 + s) ** (2 * m + 1)
    return 2 * (1 - kept)


class TestDeltaSExact:
    def test_small_s_small_distance(self):
        assert oracle.delta_s_exact(0, 1e-4) <= 0.05

    def test_vacuum_bound_value(self):
        # 2 sqrt(0.04) = 0.4 dominates the exact distance.
        assert oracle.delta_s_exact(0, 0.04) <= 0.4

    def test_m3_bound_value(self):
        assert oracle.delta_s_exact(3, 0.02) <= 2.0 * math.sqrt(0.02 * 7.0)

    def test_needs_no_dimension(self):
        # The distance is the full 2 (1 - p_m), with no Fock space to size.
        exact = _exact_delta_s(5, 0.05)
        assert abs(Fraction(oracle.delta_s_exact(5, 0.05)) - exact) <= 2.0 * oracle._EPS * exact

    def test_equals_the_exact_rational_distance(self):
        # m positive terms and one expm1, so a few ulps at most.
        for s in (*np.geomspace(1e-3, 0.1, 9).tolist(), *oracle.DELTA_S_S_VALUES):
            for m in range(12):
                exact = _exact_delta_s(m, s)
                value = Fraction(oracle.delta_s_exact(m, s))
                assert abs(value - exact) <= 4.0 * oracle._EPS * exact, (s, m)


class TestConcavityLimitSuite:
    def test_all_pass_with_documented_exception(self):
        report = oracle.concavity_and_limit_suite(1.0)
        assert report.passed
        exceptions = [
            a for a in report.assertions
            if a.name.startswith("eps0-convergence") and a.detail.get("documented_exception")
        ]
        assert {a.name.split(":")[1] for a in exceptions} == {"step", "lipschitz"}

    @pytest.mark.parametrize("tau", [0.1, 0.01])
    def test_small_tau_passes(self, tau):
        # The eps0-convergence probes scale with tau^2, so a valid small tau
        # is not read as a violation.
        assert oracle.concavity_and_limit_suite(tau).passed

    def test_each_failed_assertion_reports_its_own_point(self, monkeypatch):
        # A curve that rises as eps0 falls and stays above 0.05 fails both
        # eps0 assertions at every probe.
        monkeypatch.setitem(
            oracle.CURVE_CONSTRUCTORS, "gaussian",
            lambda g: BoundCurve(class_tag="gaussian", guarantee=g,
                                 eval_fn=lambda nbar: 1.0 - g.eps0, concavified=False),
        )
        report = oracle.concavity_and_limit_suite(1.0)
        failed = {a.name: a for a in report.assertions if a.status == "fail"}
        assert sorted(failed) == ["eps0-convergence:gaussian", "eps0-monotone:gaussian"]
        # Each of the 5 eps0 steps at each of the 4 probes rises by 9 eps0 / 10.
        monotone = failed["eps0-monotone:gaussian"]
        assert monotone.detail["violations"] == 20
        assert monotone.worst_point == pytest.approx(
            {"nbar": 0.5, "eps0": 1e-2, "value": 0.99, "bound": 0.9, "slack": -0.09})
        convergence = failed["eps0-convergence:gaussian"]
        assert convergence.detail["violations"] == 4
        assert convergence.worst_point == pytest.approx(
            {"nbar": 0.5, "eps0": 1e-6, "final_value": 1.0 - 1e-6, "bound": 0.05,
             "slack": 0.05 - (1.0 - 1e-6)})

    def test_convex_kink_fails_concavity_at_its_midpoint(self, monkeypatch):
        monkeypatch.setitem(
            oracle.CURVE_CONSTRUCTORS, "gaussian",
            lambda g: BoundCurve(class_tag="gaussian", guarantee=g,
                                 eval_fn=lambda nbar: max(nbar - 50.0, 0.0) / 100.0,
                                 concavified=True),
        )
        report = oracle.concavity_and_limit_suite(1.0)
        failed = [a for a in report.assertions if a.name == "concavity:gaussian"]
        assert failed[0].status == "fail"
        gap = 0.5 * (1.25 / 100.0)
        assert failed[0].worst_point == {"nbar": 50.0, "gap": gap, "bound": 0.0, "slack": -gap}
        assert failed[0].detail == {"violations": 1, "min_slack": -gap, "tol": 1e-10}

    def test_hulled_curves_pass_concavity(self):
        from cvoodg.coherent_bounds import concave_hull, lipschitz_bound, step_bound

        for constructor in (step_bound, lipschitz_bound):
            hulled = concave_hull(constructor(G), 100.0, 201)
            grid = np.linspace(0.0, 100.0, 201)
            for a, b in zip(grid, grid[2:]):
                mid = 0.5 * (a + b)
                gap = 0.5 * (hulled(float(a)) + hulled(float(b))) - hulled(float(mid))
                assert gap <= 1e-10


class TestSuiteRunners:
    def test_gamma_suite_passes(self):
        report = oracle.run_gamma_suite()
        assert report.passed

    def test_mu_nu_suite_passes(self):
        report = oracle.run_mu_nu_suite()
        assert report.passed
        assert all(a.detail["violations"] == 0 for a in report.assertions)

    def test_delta_s_suite_passes(self):
        report = oracle.run_delta_s_suite()
        assert report.passed

    def test_delta_s_solves_no_eigenproblem(self, monkeypatch):
        # The states are diagonal, so no distance needs an eigensolve and no
        # FockMatrix is built.
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        monkeypatch.setattr(oracle, "FockMatrix", None)
        assert oracle.run_delta_s_suite().passed

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            oracle.run_suites("nope", G, seed=0, curve_scale=1.0,
                              classes=oracle.SUPPORTED_CLASSES)

    def test_all_resolves_every_suite(self):
        names = set(oracle.SUITE_RUNNERS)
        assert names == {
            "dominance", "gamma-closed-form", "mu-nu", "delta-s", "concavity-limits"
        }


class TestStateBuilders:
    def test_traces(self):
        assert np.trace(oracle.fock_state(3, 8).entries).real == 1.0
        for rho, tol in ((oracle.squeezed_vacuum_state(0.5, 40), 1e-10),
                         (oracle.spat_state(1.0, 60), 1e-7),
                         (oracle.coherent_projector(0.7, 20), 1e-12)):
            assert np.trace(rho.entries).real == pytest.approx(1.0, abs=tol)

    def test_spat_mean_energy(self):
        rho = oracle.spat_state(1.0, 80)
        assert mean_photon_number(rho) == pytest.approx(3.0, abs=1e-5)

    def test_squeezed_vacuum_mean_energy(self):
        rho = oracle.squeezed_vacuum_state(0.5, 40)
        assert mean_photon_number(rho) == pytest.approx(0.25 / 0.75, abs=1e-10)

    def test_classical_mixture_weights(self):
        with pytest.raises(ValueError):
            oracle.classical_mixture([0.1], [0.5], 8)

    def test_phase_rotation_state_distance_pure_check(self):
        # Coherent projector: distance matches the pure-state identity.
        alpha = 0.9
        rho = oracle.coherent_projector(alpha, 30)
        d_theta = 0.4
        expect = 2.0 * math.sqrt(
            1.0 - math.exp(-2.0 * alpha**2 * (1.0 - math.cos(d_theta)))
        )
        assert oracle.phase_rotation_state_distance(d_theta, rho) == pytest.approx(
            expect, abs=1e-9
        )


def per_point_dominance(curve, pair, name, tol=oracle.VIOLATION_TOL):
    """The dominance suite as one scalar distance call per grid point."""
    min_slack, max_slack, worst, violations = math.inf, -math.inf, {}, 0
    for nbar in oracle.R2_GRID:
        bound = curve(nbar)
        r = math.sqrt(nbar)
        for phi in oracle.PHI_GRID:
            dist = oracle.exact_coherent_distance(pair, r, phi)
            slack = bound - dist
            max_slack = max(max_slack, slack)
            if slack < min_slack:
                min_slack = slack
                worst = {"nbar": nbar, "phi": phi, "distance": dist,
                         "bound": bound, "slack": slack}
            if slack < -tol:
                violations += 1
    return oracle.AssertionResult(
        name=name,
        status="pass" if violations == 0 else "fail",
        max_slack=max_slack,
        worst_point=worst,
        detail={"violations": violations, "min_slack": min_slack, "tol": tol},
    )


class TestDominanceGrid:
    @pytest.mark.parametrize("curve_scale", [1.0, 0.5])
    @pytest.mark.parametrize("class_tag", oracle.SUPPORTED_CLASSES)
    def test_reports_equal_the_per_point_loop(self, class_tag, curve_scale):
        g = InDistributionGuarantee(eps0=0.05, tau=1.2)
        report = oracle.run_dominance_suite(g, classes=(class_tag,), seed=5,
                                            curve_scale=curve_scale)
        rng = random.Random(5)
        entry = oracle.CHANNEL_CLASSES[class_tag]
        pairs = [("worst", oracle.worst_case_pair(class_tag, g))]
        if entry.witness:
            pairs.append(("witness", oracle.equality_witness_pair(class_tag, g)))
        for i in range(2):
            pairs.append((f"random{i}",
                          oracle.worst_case_pair(class_tag, g, rng.uniform(0.05, 0.999))))
        step = oracle._scaled_curve(CURVE_CONSTRUCTORS["step"](g), curve_scale)
        expected = []
        for kind, pair in pairs:
            for name in entry.curves:
                curve = oracle._scaled_curve(CURVE_CONSTRUCTORS[name](g), curve_scale)
                expected.append(per_point_dominance(
                    curve, pair, name=f"dominance:{class_tag}:{kind}:vs:{curve.class_tag}"))
            if kind != "witness":
                expected.append(per_point_dominance(
                    step, pair, name=f"dominance:{class_tag}:{kind}:vs:step"))
        assert [a.as_json() for a in report.assertions] == [a.as_json() for a in expected]
        violations = sum(a.detail["violations"] for a in report.assertions)
        if curve_scale == 0.5:
            assert violations > 0
        else:
            assert violations == 0


def _counted_calls(monkeypatch) -> dict[str, int]:
    """Count the oracle's exact-distance calls and every BoundCurve
    evaluation."""
    calls = {"distance": 0, "curve": 0}
    distance, curve_call = oracle.exact_coherent_distance, BoundCurve.__call__

    def counted_distance(*args):
        calls["distance"] += 1
        return distance(*args)

    def counted_curve_call(curve, nbar):
        calls["curve"] += 1
        return curve_call(curve, nbar)

    monkeypatch.setattr(oracle, "exact_coherent_distance", counted_distance)
    monkeypatch.setattr(BoundCurve, "__call__", counted_curve_call)
    return calls


class TestEachPieceOnce:
    def test_dominance_evaluates_each_grid_once(self, monkeypatch):
        calls = _counted_calls(monkeypatch)
        report = oracle.run_dominance_suite(G, seed=0)
        assert len(report.assertions) == 29
        # 14 pairs: one distance grid each, plus the scalar check of each
        # pair's guarantee; 6 curves (the step curve included) on 60 points.
        assert calls == {"distance": 28, "curve": 360}

    def test_concavity_evaluates_each_grid_point_once(self, monkeypatch):
        calls = _counted_calls(monkeypatch)
        oracle.concavity_and_limit_suite(1.0)
        assert calls["curve"] <= 573

    def test_nan_slack_is_a_violation(self):
        r2_grid, phi_grid = oracle.R2_GRID, oracle.PHI_GRID
        undefined = [5.0 < nbar < 50.0 for nbar in r2_grid]
        bounds = [math.nan if u else 2.0 for u in undefined]
        distances = [[0.0] * len(phi_grid) for _ in r2_grid]
        result = oracle.dominance_suite(bounds, distances, "nan")
        assert result.status == "fail"
        assert result.detail["violations"] == sum(undefined) * len(phi_grid)
        first = undefined.index(True)
        assert result.worst_point == {"nbar": r2_grid[first], "phi": 0.0,
                                      "distance": 0.0, "bound": None, "slack": None}
        assert result.max_slack is None and result.detail["min_slack"] is None
        json.dumps(result.as_json(), allow_nan=False)

    def test_worst_point_is_the_first_in_row_major_order(self):
        r2_grid, phi_grid = oracle.R2_GRID, oracle.PHI_GRID
        distances = [[0.0] * len(phi_grid) for _ in r2_grid]
        distances[7][1] = distances[3][5] = 0.5
        result = oracle.dominance_suite([1.0] * len(r2_grid), distances, "tie")
        assert result.status == "pass"
        assert (result.worst_point["nbar"], result.worst_point["phi"]) == (
            r2_grid[3], phi_grid[5])
        assert result.max_slack == 1.0 and result.detail["min_slack"] == 0.5


class TestSlackAssertion:
    """The one builder behind every suite's assertions."""

    def test_reports_the_first_smallest_slack(self):
        # A 3 x 4 grid flattened in row-major order, one bound per row.
        bound = [b for b in (1.0, 2.0, 3.0) for _ in range(4)]
        value = [0.5, 0.9, 0.1, 0.9, 1.0, 1.1, 1.9, 1.1, 0.0, 2.9, 0.5, 0.0]
        result = oracle.slack_assertion("b", bound, value, lambda k: {"k": k}, "v", 0.0,
                                        extra="kept")
        assert result.status == "pass"
        assert result.max_slack == 3.0
        assert result.worst_point == {"k": 1, "v": 0.9, "bound": 1.0,
                                      "slack": pytest.approx(0.1)}
        assert result.detail == {"violations": 0, "min_slack": pytest.approx(0.1), "tol": 0.0,
                                 "extra": "kept"}

    def test_a_slack_of_minus_tol_passes_and_below_fails(self):
        def check(value):
            return oracle.slack_assertion("t", 1.0, [value], lambda k: {}, "v", 0.5)

        assert check(1.5).status == "pass"
        failed = check(math.nextafter(1.5, 2.0))
        assert failed.status == "fail" and failed.detail["violations"] == 1

    def test_nan_and_infinite_numbers_are_null(self):
        result = oracle.slack_assertion("n", [math.inf, 1.0, 1.0], [0.0, math.nan, 2.0],
                                        lambda k: {"k": k}, "v", 1e-9)
        assert result.status == "fail" and result.detail["violations"] == 2
        assert result.max_slack is None
        assert result.worst_point == {"k": 1, "v": None, "bound": 1.0, "slack": None}
        jsonschema.validate({"schema": "cvoodg.verification_report.v1", "status": "fail",
                             "suites": [oracle.SuiteReport("n", [result]).as_json()]},
                            REPORT_SCHEMA)
        json.dumps(result.as_json(), allow_nan=False)


class _NanCurve:
    """A concavified curve that is eps0 / 10 at every nbar and NaN where
    where(eps0, nbar) holds; a BoundCurve would refuse to return the NaN."""

    concavified = True

    def __init__(self, g, where):
        self.eps0, self.where = g.eps0, where

    def __call__(self, nbar):
        return math.nan if self.where(self.eps0, nbar) else 0.1 * self.eps0


def _nan_curve(where):
    return lambda g: _NanCurve(g, where)


def _nan_distance_row(monkeypatch):
    """Set the 11th nbar row of every phase-rotation distance grid to NaN."""
    entry = oracle.CHANNEL_CLASSES["phase_rotation"]
    r_nan = math.sqrt(oracle.R2_GRID[10])

    def log_f2(gap, r, phi):
        return math.nan if r == r_nan else entry.log_f2(gap, r, phi)

    monkeypatch.setitem(oracle.CHANNEL_CLASSES, "phase_rotation",
                        oracle._ChannelClass(entry.channel, log_f2, entry.saturating_gap,
                                             entry.curves, entry.witness))


def _patch_result(monkeypatch, module, name, nan_at):
    """Wrap module.name so that its result is NaN where nan_at(*args) holds."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: math.nan if nan_at(*args) else original(*args))


def _nan_mu_nu(monkeypatch):
    original = oracle.mu_nu_numeric

    def mu_nu_numeric(labels, s):
        values = original(labels, s)
        values[4] = (values[4][0], math.nan)
        return values

    monkeypatch.setattr(oracle, "mu_nu_numeric", mu_nu_numeric)


#: Each suite with one checked value set to NaN: the suite, how the value is
#: set, the assertion that must fail and its number of violations.
_NAN_CASES = {
    # One nbar of the grid at every phase.
    "dominance": ("dominance", _nan_distance_row,
                  "dominance:phase_rotation:worst:vs:phase_rotation", 8),
    "gamma": ("gamma-closed-form", lambda mp: _patch_result(
        mp, cvcore, "gamma_overlap", lambda e1, e2, s: (*e1, *e2) == (3, 1, 5, 3)),
        "gamma-closed-form:s=0.1", 1),
    "mu-nu": ("mu-nu", _nan_mu_nu, "mu-nu-dominance:s=0.3", 1),
    "delta-s": ("delta-s", lambda mp: _patch_result(
        mp, oracle, "delta_s_exact", lambda m, s: m == 2), "delta-s-dominance:s=0.02", 1),
    # nbar 50 is a grid point (three midpoint gaps) and the last probe.
    "concavity": ("concavity-limits", lambda mp: mp.setitem(
        oracle.CURVE_CONSTRUCTORS, "gaussian",
        _nan_curve(lambda eps0, nbar: eps0 == 0.3 and nbar == 50.0)),
        "concavity:gaussian", 3),
    # The eps0 = 1e-3 value is the checked value of one step and the bound
    # of the next.
    "eps0-monotone": ("concavity-limits", lambda mp: mp.setitem(
        oracle.CURVE_CONSTRUCTORS, "gaussian",
        _nan_curve(lambda eps0, nbar: eps0 == 1e-3 and nbar == 2.0)),
        "eps0-monotone:gaussian", 2),
    "eps0-convergence": ("concavity-limits", lambda mp: mp.setitem(
        oracle.CURVE_CONSTRUCTORS, "gaussian",
        _nan_curve(lambda eps0, nbar: eps0 == 1e-6 and nbar == 10.0)),
        "eps0-convergence:gaussian", 1),
}


@pytest.mark.parametrize("case", list(_NAN_CASES))
def test_a_nan_value_fails_its_assertion(monkeypatch, tmp_path, capsys, case):
    from cvoodg import cli

    suite, set_nan, name, violations = _NAN_CASES[case]
    set_nan(monkeypatch)
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", suite, "--eps0", "0.1", "--tau", "1", "--output", str(out)]
    if suite == "dominance":
        argv += ["--class", "phase_rotation"]
    assert cli.main(argv) == 1
    assert "verification FAILED" in capsys.readouterr().err
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, REPORT_SCHEMA)
    [report] = payload["suites"]
    failed = {a["name"]: a for a in report["assertions"] if a["status"] == "fail"}
    assertion = failed[name]
    assert assertion["detail"]["violations"] == violations
    assert assertion["worst_point"]["slack"] is None
    assert assertion["detail"]["min_slack"] is None and assertion["max_slack"] is None


class TestRadialClosure:
    @pytest.mark.parametrize("s", [0.01, 0.05, 0.3, 0.7])
    def test_closure_equals_the_one_shot_call(self, s):
        radii = [0.0, 1e-3, 0.05, 0.3, 0.9, 1.7, 3.0, 6.5]
        for m in range(8):
            for n in range(m + 1):
                radial = p_rep_radial_fn((m, n), s)
                # The closure, reused, equals one built afresh per radius.
                fresh = [p_rep_radial_fn((m, n), s)(r) for r in radii]
                assert [radial(r) for r in radii] == fresh

    def test_validation(self):
        with pytest.raises(ValueError, match="noise parameter"):
            p_rep_radial_fn((2, 2), 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            p_rep_radial_fn((-1, 0), 0.2)
        with pytest.raises(ValueError, match="radius"):
            p_rep_radial_fn((2, 2), 0.2)(-0.1)


class TestBatchedQuadrature:
    """The gamma suite integrates all pairs of one s with one rule."""

    def test_one_gamma_rule_per_s(self, monkeypatch):
        # The pairs of the suite reach m_Q + n_P = 12, so N = 7 nodes.
        sizes = []
        rule = oracle._gauss_laguerre
        monkeypatch.setattr(oracle, "_gauss_laguerre", lambda n: sizes.append(n) or rule(n))
        assert oracle.run_gamma_suite().passed
        assert sizes == [7] * len(oracle.QUADRATURE_S_VALUES)

    @pytest.mark.parametrize("s", oracle.QUADRATURE_S_VALUES)
    def test_batched_gamma_matches_each_pair_alone(self, s):
        elements = oracle._quadrature_elements()
        pairs = [(e1, e2) for i, e1 in enumerate(elements) for e2 in elements[i:]]
        batched = oracle.gamma_quadrature(pairs, s)
        for pair, value in zip(pairs, batched):
            [alone] = oracle.gamma_quadrature([pair], s)
            assert value == pytest.approx(alone, rel=1e-13, abs=0.0)

    def test_empty_and_unmatched_batches_integrate_nothing(self, monkeypatch):
        monkeypatch.setattr(oracle, "_gauss_laguerre", None)
        monkeypatch.setattr(oracle, "_tail_integrals", None)
        assert oracle.gamma_quadrature([], 0.1) == []
        assert oracle.gamma_quadrature([((2, 0), (3, 2))], 0.1) == [0.0]
        assert oracle.mu_nu_numeric([], 0.1) == []

    @staticmethod
    def _nan_at(monkeypatch, element):
        """Make the P_s factor of element NaN at every radius."""
        radial_fn = oracle.p_rep_radial_fn
        monkeypatch.setattr(oracle, "p_rep_radial_fn", lambda pair, s: (
            (lambda r: math.nan) if pair == element else radial_fn(pair, s)))

    def test_gamma_error_names_the_pair(self, monkeypatch):
        self._nan_at(monkeypatch, (6, 3))
        with pytest.raises(oracle.QuadratureError, match=(
            r"^gamma quadrature is not finite for labels \(6, 3\) and \(6, 3\): "
            r"integral nan \(achieved error estimate nan\)$"
        )):
            oracle.gamma_quadrature([((0, 0), (0, 0)), ((6, 3), (6, 3))], 0.1)

    def test_mu_nu_error_names_the_label_and_moment(self, monkeypatch):
        # The exact form reads the kinks of |P_s|; those of (6, 3) are the
        # roots of L_3^3, here made NaN.
        roots = oracle.specfun.laguerre_roots
        monkeypatch.setattr(oracle.specfun, "laguerre_roots", lambda n, a: (
            [math.nan] * n if (n, a) == (3, 3.0) else roots(n, a)))
        with pytest.raises(oracle.QuadratureError, match=(
            r"^mu/nu quadrature is not finite for mu of label \(6, 3\): "
            r"integral nan \(achieved error estimate nan\)$"
        )):
            oracle.mu_nu_numeric([(0, 0), (6, 3)], 0.1)

    def test_verify_exits_2_and_names_the_failure(self, monkeypatch, capsys):
        from cvoodg import cli

        self._nan_at(monkeypatch, (2, 1))
        assert cli.main(["verify", "--suite", "gamma-closed-form"]) == 2
        assert "gamma quadrature is not finite for labels (2, 1) and (" in capsys.readouterr().err


class TestRoundingGate:
    """Each cross-check value is a signed sum; one whose rounding bound
    exceeds ROUNDING_GATE times the value raises instead of returning."""

    def test_a_cancelling_overlap_raises(self):
        # The Gauss-Laguerre sum once returned this 50 times too large.
        with pytest.raises(oracle.QuadratureError, match=(
            r"^gamma quadrature cancels past its rounding gate for labels \(26, 26\) and "
            r"\(26, 26\): integral "
        )):
            oracle.gamma_quadrature([((26, 26), (26, 26))], 0.05)

    def test_an_overlap_within_the_gate_is_right(self):
        # This sum once returned 22.08 with no error; its rounding bound is
        # now 3.4e-11 of the value.
        [value] = oracle.gamma_quadrature([((30, 30), (30, 30))], 0.3)
        assert value == pytest.approx(gamma_overlap((30, 30), (30, 30), 0.3), rel=1e-10)

    def test_a_cancelling_mass_raises(self):
        with pytest.raises(oracle.QuadratureError, match=(
            r"^mu/nu quadrature cancels past its rounding gate for mu of label \(20, 20\): "
        )):
            oracle.mu_nu_numeric([(20, 20)], 0.1)

    @pytest.mark.parametrize("s", oracle.QUADRATURE_S_VALUES)
    def test_every_overlap_to_index_10_is_right_or_raises(self, s):
        returned = raised = 0
        for m in range(11):
            for n in range(m + 1):
                for m2 in range(m - n, 11):
                    pair = ((m, n), (m2, m2 - m + n))
                    try:
                        [value] = oracle.gamma_quadrature([pair], s)
                    except oracle.QuadratureError:
                        raised += 1
                        continue
                    returned += 1
                    assert value == pytest.approx(gamma_overlap(*pair, s),
                                                  rel=oracle.ROUNDING_GATE), pair
        assert returned > raised > 0

    def test_the_suite_grid_stays_20_times_below_the_gate(self, monkeypatch):
        ratios = []
        gated = oracle._gated

        def spy(value, abs_sum, *names):
            ratios.append(oracle._TERM_RTOL * abs_sum / abs(value))
            return gated(value, abs_sum, *names)

        monkeypatch.setattr(oracle, "_gated", spy)
        assert oracle.run_gamma_suite().passed and oracle.run_mu_nu_suite().passed
        suites = len(oracle.QUADRATURE_S_VALUES)
        # 84 matched pairs of the gamma suite, and mu and nu of 28 elements.
        assert len(ratios) == suites * (84 + 2 * 28)
        assert max(ratios) <= oracle.ROUNDING_GATE / 20


class TestGaussLaguerre:
    """The rule behind gamma_quadrature, from the root finder that also
    gives mu_nu_numeric's kinks."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_roots_are_the_jacobi_eigenvalues(self, n):
        # The eigenvalues of the Jacobi matrix of the Laguerre recurrence of
        # order alpha are the roots of L_n^alpha.
        k = np.arange(n)
        for alpha in range(21):
            off = np.sqrt(k[1:] * (k[1:] + alpha))
            jacobi = np.diag(2.0 * k + 1.0 + alpha) + np.diag(off, 1) + np.diag(off, -1)
            np.testing.assert_allclose(oracle.specfun.laguerre_roots(n, float(alpha)),
                                       np.linalg.eigvalsh(jacobi), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_matches_numpy_laggauss(self, n):
        nodes, weights = oracle._gauss_laguerre(n)
        ref_nodes, ref_weights = np.polynomial.laguerre.laggauss(n)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("s", oracle.QUADRATURE_S_VALUES)
    def test_more_nodes_change_nothing(self, monkeypatch, s):
        # N nodes are exact on the suite's integrands, so three more agree to
        # round-off. That is 6e-14 here, not 1e-14: the sums cancel, e.g. the
        # (6, 6), (6, 6) terms add to 1/25 of their absolute sum at s = 0.05.
        elements = oracle._quadrature_elements()
        pairs = [(e1, e2) for i, e1 in enumerate(elements) for e2 in elements[i:]
                 if e1[0] - e1[1] == e2[0] - e2[1]]
        exact = oracle.gamma_quadrature(pairs, s)
        rule = oracle._gauss_laguerre
        monkeypatch.setattr(oracle, "_gauss_laguerre", lambda n: rule(n + 3))
        more = oracle.gamma_quadrature(pairs, s)
        assert all(abs(a - b) <= 1e-13 * abs(a) for a, b in zip(exact, more))
        # One node fewer misses the degree-12 pair by over 10%.
        monkeypatch.setattr(oracle, "_gauss_laguerre", lambda n: rule(n - 1))
        fewer = oracle.gamma_quadrature(pairs, s)
        assert max(abs(a - b) / abs(a) for a, b in zip(exact, fewer)) > 0.1


@functools.cache
def _mu_nu_reference(m: int, n: int, s: float) -> tuple[float, float]:
    """mu and nu of element (m, n) by 30-digit mpmath.quad on the explicit
    Laguerre coefficients, split at the roots of the Laguerre factor (the
    kinks of |P_s|) and cut where exp(-r^2/s) is below 1e-47."""
    import mpmath as mp

    with mp.workdps(30):
        s = mp.mpf(s)
        delta = m - n
        scale = s * (1 - s)
        const = mp.sqrt(mp.factorial(n) / mp.factorial(m)) * (1 - s) ** n / (mp.pi * s ** (m + 1))
        coeffs = [(-1) ** k * mp.binomial(n + delta, n - k) / mp.factorial(k)
                  for k in range(n, -1, -1)]
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=60) if n else []
        breaks = [mp.mpf(0), *sorted(mp.sqrt(x * scale) for x in roots),
                  mp.sqrt(s * (110 + 4 * (m + n)))]

        def p_abs(r):
            return abs(const * mp.exp(-r * r / s) * r**delta * mp.polyval(coeffs, r * r / scale))

        angular = 2 * mp.pi if m == n else 4
        mu = angular * mp.quad(lambda r: p_abs(r) * r, breaks, method="gauss-legendre")
        nu = angular * mp.quad(lambda r: p_abs(r) * r**3, breaks, method="gauss-legendre")
        return float(mu), float(nu)


def test_mu_nu_match_an_mpmath_reference_on_the_default_grid():
    worst = 0.0
    elements = [(m, n) for m in range(7) for n in range(m + 1)]
    for s in (0.05, 0.1, 0.3):
        # One batched pass per s, as run_mu_nu_suite makes it.
        for (m, n), got in zip(elements, oracle.mu_nu_numeric(elements, s)):
            ref = _mu_nu_reference(m, n, s)
            worst = max(worst, *(abs(g - r) / r for g, r in zip(got, ref)))
    assert worst <= 1e-9


def test_mu_nu_match_the_reference_to_2e_13_on_the_suite_grid():
    elements = oracle._quadrature_elements()
    for s in oracle.QUADRATURE_S_VALUES:
        for (m, n), got in zip(elements, oracle.mu_nu_numeric(elements, s)):
            ref = _mu_nu_reference(m, n, s)
            assert all(abs(g - r) <= 2e-13 * r for g, r in zip(got, ref)), (m, n, s)


@pytest.mark.parametrize("s", [0.05, 0.3])
def test_mu_nu_to_index_20_match_the_reference_or_raise(s):
    # The ends of the suite's s range; each reference takes some 20 ms.
    returned = raised = 0
    for m in range(21):
        for n in range(m + 1):
            try:
                [got] = oracle.mu_nu_numeric([(m, n)], s)
            except oracle.QuadratureError:
                raised += 1
                continue
            returned += 1
            ref = _mu_nu_reference(m, n, s)
            assert all(abs(g - r) <= 1e-10 * r for g, r in zip(got, ref)), (m, n)
    assert returned > raised > 0


class TestQuadraturePins:
    """Cross-check values pinned as repr floats: mu and nu from the exact
    finite forms, the overlaps from the Gauss-Laguerre rule. Against 30-digit
    mpmath.quad, each mu and nu agrees to 1.5e-14 relative and each overlap
    to 5e-17 absolute, but the (6, 2), (0, 4) overlap to 2.5e-14: its
    integrand cancels to 1/28000 of its absolute integral."""

    @pytest.mark.parametrize("element,s,mu,nu", [
        ((0, 0), 0.05, 1.0, 0.050000000000000024),
        ((3, 3), 0.1, 438.5455078625957, 79.30379227150438),
        ((4, 1), 0.3, 4.527503868839917, 3.853739321384183),
        ((6, 6), 0.05, 22830160.801315464, 1851324.480832383),
        ((2, 5), 0.1, 765.5806487682083, 156.72106164976918),
    ])
    def test_mu_nu_numeric(self, element, s, mu, nu):
        assert oracle.mu_nu_numeric([element], s) == [(mu, nu)]

    @pytest.mark.parametrize("e1,e2,s,value", [
        ((0, 0), (0, 0), 0.05, 0.9523809523809523),
        ((2, 2), (4, 4), 0.1, 0.031200526746545196),
        ((3, 1), (5, 3), 0.3, 0.042815022139293536),
        ((6, 2), (0, 4), 0.05, 0.003440571195044005),
        ((2, 1), (1, 1), 0.1, 0.0),
    ])
    def test_gamma_quadrature(self, e1, e2, s, value):
        assert oracle.gamma_quadrature([(e1, e2)], s) == [value]
