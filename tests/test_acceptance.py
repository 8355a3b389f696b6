"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from cvoodg import cli, oracle, state_bounds as sb
from cvoodg.coherent_bounds import (
    CURVE_CONSTRUCTORS,
    InDistributionGuarantee,
    concave_hull,
    cubic_phase_bound,
    gaussian_bound,
    phase_rotation_bound,
    squeezing_bound,
    step_bound,
)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} [{status}] {description} ({elapsed:.2f}s)")
        if status == "PASS":
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
            )


def test_criterion_1_figure_reproduction():
    with criterion(1, "step/Gaussian/phase-rotation curves over nbar in [0, 20]", 1.0):
        grid = np.linspace(0.0, 20.0, 201)
        curves = {}
        for eps0 in (0.3, 0.1):
            g = InDistributionGuarantee(eps0=eps0, tau=1.0)
            curves[eps0] = {
                "step": step_bound(g),
                "gaussian": gaussian_bound(g),
                "phase_rotation": phase_rotation_bound(g),
            }
            base = 1.0 - eps0 / 2.0
            for nbar in grid:
                n = float(nbar)
                gauss_ref = 2.0 * math.sqrt(
                    1.0 - base ** (2.0 * n + math.sqrt(n) + 2.0)
                )
                pr_ref = 2.0 * math.sqrt(1.0 - base**n)
                step_ref = eps0 if n <= 1.0 else 2.0
                assert abs(curves[eps0]["gaussian"](n) - gauss_ref) <= 1e-10
                assert abs(curves[eps0]["phase_rotation"](n) - pr_ref) <= 1e-10
                assert abs(curves[eps0]["step"](n) - step_ref) <= 1e-10
                # (a) phase rotation never exceeds the generic Gaussian curve.
                assert curves[eps0]["phase_rotation"](n) <= curves[eps0]["gaussian"](n) + 1e-12
                # (b) both non-trivial everywhere the formulas promise it.
                assert curves[eps0]["gaussian"](n) < 2.0
                assert curves[eps0]["phase_rotation"](n) < 2.0
        # (c) tightening eps0 tightens every curve pointwise.
        for tag in ("step", "gaussian", "phase_rotation"):
            for nbar in grid:
                assert curves[0.1][tag](float(nbar)) <= curves[0.3][tag](float(nbar)) + 1e-12


def test_criterion_2_soundness_dominance():
    with criterion(2, "worst-case pairs under their curves; witness equality", 10.0):
        # The suite's own grids and tolerance are the criterion's.
        r2_grid, phi_grid = oracle.R2_GRID, oracle.PHI_GRID
        assert len(r2_grid) == 60 and len(phi_grid) == 8
        assert oracle.VIOLATION_TOL == 1e-9
        matching = {
            "phase_rotation": ("phase_rotation",),
            "displacement": ("displacement",),
            "squeezing": ("squeezing",),
            "loss": ("gaussian", "symmetric"),
        }
        for eps0 in (0.3, 0.1):
            g = InDistributionGuarantee(eps0=eps0, tau=1.0)
            for class_tag, curve_tags in matching.items():
                pair = oracle.worst_case_pair(class_tag, g)
                assert pair.achieved_eps0 == pytest.approx(eps0, abs=1e-10)
                distances = oracle.exact_coherent_distance(
                    pair, [math.sqrt(nbar) for nbar in r2_grid], phi_grid)
                for curve_tag in curve_tags:
                    curve = CURVE_CONSTRUCTORS[curve_tag](g)
                    bounds = [curve(nbar) for nbar in r2_grid]
                    result = oracle.dominance_suite(bounds, distances, name=curve_tag)
                    assert result.status == "pass", result.as_json()
                    assert result.detail["violations"] == 0
            # Equality at the phase-rotation witness points.
            witness = oracle.equality_witness_pair("phase_rotation", g)
            curve = phase_rotation_bound(g)
            for nbar in r2_grid:
                dist = oracle.exact_coherent_distance(witness, math.sqrt(float(nbar)), 0.0)
                assert abs(dist - curve(float(nbar))) <= 1e-10


def test_criterion_3_gamma_and_mass_bounds_vs_quadrature():
    with criterion(3, "closed-form gamma within 1e-6 of quadrature; mu/nu dominate", 60.0):
        assert oracle.QUADRATURE_MAX_INDEX == 6
        assert oracle.QUADRATURE_S_VALUES == (0.05, 0.1, 0.3)
        assert oracle.GAMMA_REL_TOL == 1e-6
        gamma_report = oracle.run_gamma_suite()
        assert gamma_report.passed, gamma_report.as_json()
        mu_nu_report = oracle.run_mu_nu_suite()
        assert mu_nu_report.passed, mu_nu_report.as_json()
        assert all(a.detail["violations"] == 0 for a in mu_nu_report.assertions)


def test_criterion_4_additive_noise_distance_dominance():
    with criterion(4, "exact || |m><m| - C_s(|m><m|) || under 2 sqrt(s(1+2m))", 60.0):
        assert oracle.DELTA_S_MAX_M == 5
        assert oracle.DELTA_S_S_VALUES == (0.005, 0.01, 0.02, 0.05)
        report = oracle.run_delta_s_suite()
        assert report.passed, report.as_json()
        assert all(a.detail["violations"] == 0 for a in report.assertions)
        # Nothing is truncated: each distance is the full 2 (1 - p_m), with
        # p_m = (1+s)^-(2m+1) sum_l C(m,l)^2 s^(2l), to a few ulps.
        for s in oracle.DELTA_S_S_VALUES:
            for m in range(oracle.DELTA_S_MAX_M + 1):
                q = Fraction(s)
                kept = (sum(math.comb(m, l) ** 2 * q ** (2 * l) for l in range(m + 1))
                        / (1 + q) ** (2 * m + 1))
                exact = 2 * (1 - kept)
                assert abs(Fraction(oracle.delta_s_exact(m, s)) - exact) <= 1e-15 * exact


def test_criterion_5_state_extension_convergence():
    with criterion(5, "state extensions monotone in eps0; Fock/SPAT reach < 0.5", 120.0):
        def curve(eps0):
            return phase_rotation_bound(InDistributionGuarantee(eps0=eps0, tau=1.0))

        extensions = {
            "fock2": lambda c: sb.fock_bound(c, sb.Fock(2)),
            "spat1": lambda c: sb.spat_bound(c, sb.SPAT(1.0)),
            "sqvac05": lambda c: sb.squeezed_vacuum_bound(c, sb.SqueezedVacuum(0.5)),
            "energy1": lambda c: sb.generic_energy_bound(c, sb.EnergyOnly(1.0)),
        }
        eps_grid = [10.0**-k for k in range(1, 8)]
        for name, extend in extensions.items():
            values = [extend(curve(e)).value for e in eps_grid]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), (name, values)
        # "Sufficiently small eps0": SPAT reaches 0.5 inside the listed grid;
        # the Fock prefactor scales as eps0^(1/8), so its crossing sits lower.
        assert sb.spat_bound(curve(1e-7), sb.SPAT(1.0)).value < 0.5
        assert sb.fock_bound(curve(1e-13), sb.Fock(2)).value < 0.5


def test_criterion_6_consistency_limits():
    with criterion(6, "SPAT smoothing limit, eta floors, exact squeezing zero", 5.0):
        # Smoothed photon-added-thermal closed forms at s = 1e-8 against the
        # raw state's: the smooth mu * curve(nu/mu) product matches to 1e-6,
        # and at s = 0 the two coincide exactly (zero smoothing penalty).
        curve = phase_rotation_bound(InDistributionGuarantee(eps0=0.05, tau=1.0))
        for q in (0.5, 1.0, 2.0):
            mu0, ratio0 = sb.spat_mu_nu(q, 0.0)
            mu_s, ratio_s = sb.spat_mu_nu(q, 1e-8)
            assert abs(mu_s - mu0) / mu0 <= 1e-6
            assert abs(ratio_s - ratio0) / ratio0 <= 1e-6
            smooth0 = mu0 * curve(ratio0)
            smooth_s = mu_s * curve(ratio_s)
            assert abs(smooth_s - smooth0) / smooth0 <= 1e-6
            at_zero = smooth0 + 4.0 * math.sqrt(0.0 * (3.0 + 4.0 * q))
            assert at_zero == smooth0
        for lam in (0.3, 0.6):
            for M in (3, 5, 7, 9):
                floor = 1.0 - lam * lam / (M * (1.0 - lam * lam))
                assert sb.squeezed_vacuum_eta_exact(lam, M) >= floor
        # W0(2 tau^2 e^{2 tau^2}) = 2 tau^2, so the log of the ratio is 0 at
        # y = 1 and the squeezing curve collapses.
        from cvoodg.specfun import log_lambert_ratio

        for tau_sq in (0.5, 1.0, 2.0):
            assert log_lambert_ratio(tau_sq, 0.0) == 0.0
        zero_curve = squeezing_bound(InDistributionGuarantee(eps0=0.0, tau=1.0))
        for nbar in (0.0, 1.0, 10.0, 100.0):
            assert zero_curve(nbar) == 0.0


def test_criterion_7_concavity_and_monotone_envelope():
    with criterion(7, "midpoint concavity on [0, 100]; mu-envelope monotone", 5.0):
        g = InDistributionGuarantee(eps0=0.3, tau=1.0)
        concave_curves = {
            tag: CURVE_CONSTRUCTORS[tag](g)
            for tag in ("gaussian", "phase_rotation", "squeezing", "displacement", "symmetric")
        }
        concave_curves["step+hull"] = concave_hull(step_bound(g), 100.0, 201)
        concave_curves["lipschitz+hull"] = concave_hull(
            CURVE_CONSTRUCTORS["lipschitz"](g), 100.0, 201
        )
        concave_curves["cubic_phase"] = cubic_phase_bound(g, nbar_max=100.0)
        grid = np.linspace(0.0, 100.0, 161)
        for tag, curve in concave_curves.items():
            assert curve.concavified, tag
            for a, b in zip(grid, grid[2:]):
                mid = 0.5 * (a + b)
                gap = 0.5 * (curve(float(a)) + curve(float(b))) - curve(float(mid))
                assert gap <= 1e-10, (tag, mid, gap)
        # Concavity makes mu -> mu * curve(nu/mu) non-decreasing, so an
        # upper bound on mu is safe on both sides of the curve.
        nu = 5.0
        for tag in ("phase_rotation", "gaussian", "squeezing"):
            curve = concave_curves[tag]
            mus = np.linspace(1.0, 100.0, 120)
            vals = [float(m) * curve(nu / float(m)) for m in mus]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:])), tag


def test_criterion_8_negative_control(tmp_path):
    with criterion(8, "under-scaled curve makes verify exit 1 naming the worst point", 30.0):
        out = tmp_path / "negative.json"
        rc = cli.main([
            "verify", "--suite", "dominance", "--class", "phase_rotation",
            "--eps0", "0.1", "--tau", "1", "--seed", "7",
            "--curve-scale", "0.2", "--output", str(out),
        ])
        assert rc == 1
        payload = json.loads(out.read_text())
        assert payload["status"] == "fail"
        worst_points = [
            a["worst_point"]
            for suite in payload["suites"]
            for a in suite["assertions"]
            if a["status"] == "fail"
        ]
        assert worst_points
        for point in worst_points:
            assert {"nbar", "phi", "distance", "bound"} <= set(point)
