"""Bound-curve constructor tests: closed forms, concavity, monotonicity,
convergence, hulling, and the universal construction."""

import bisect
import copy
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from cvoodg import coherent_bounds as cb
from cvoodg import specfun
from cvoodg.coherent_bounds import InDistributionGuarantee
from cvoodg.cvcore import delta_s_bound
from cvoodg.oracle import equality_witness_pair, exact_coherent_distance

G03 = InDistributionGuarantee(eps0=0.3, tau=1.0)

G01 = InDistributionGuarantee(eps0=0.1, tau=1.0)

CONCAVE_TAGS = ("gaussian", "phase_rotation", "squeezing", "displacement", "symmetric")


def full_grid_table(dim):
    """The mass table of every element (m, n), m, n < dim, with unit weights:
    a pair list in row-major order, so element (m, n) is pair m * dim + n."""
    m, n = np.divmod(np.arange(dim * dim), dim)
    return cb.FockMassTable(m, n, np.ones(dim * dim))


def cubic_phase_fidelity(delta_gamma, x):
    """The fidelity half of the Airy closed form."""
    return cb._cubic_phase_fidelity_distance(delta_gamma, x)[0]


def chord_max_hull_oracle(xs, ys, x):
    """Least concave majorant of sampled data at x: max over all chords."""
    best = -math.inf
    for i in range(len(xs)):
        for k in range(i, len(xs)):
            if not xs[i] <= x <= xs[k]:
                continue
            if i == k:
                best = max(best, ys[i])
                continue
            t = (x - xs[i]) / (xs[k] - xs[i])
            best = max(best, (1.0 - t) * ys[i] + t * ys[k])
    return best


class TestGuarantee:
    def test_rejects_bad_eps0(self):
        with pytest.raises(ValueError):
            InDistributionGuarantee(eps0=2.5, tau=1.0)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            InDistributionGuarantee(eps0=0.1, tau=0.0)

    def test_zero_eps0_admitted(self):
        InDistributionGuarantee(eps0=0.0, tau=1.0)


class TestBoundCurveRejectsNaN:
    def test_nan_value_names_the_class_and_nbar(self):
        curve = cb.BoundCurve("broken", G03, lambda nbar: math.nan, True)
        with pytest.raises(ValueError, match=r"broken curve is NaN at nbar 1\.5"):
            curve(1.5)

    def test_nan_nbar_names_the_class(self):
        with pytest.raises(ValueError, match="step curve: .* non-negative, got nan"):
            cb.step_bound(G03)(math.nan)


class TestStepBound:
    def test_inside(self):
        assert cb.step_bound(G03)(0.5) == 0.3

    def test_outside(self):
        assert cb.step_bound(G03)(4.0) == 2.0

    def test_zero_eps0_inside(self):
        curve = cb.step_bound(InDistributionGuarantee(eps0=0.0, tau=1.0))
        assert curve(0.7) == 0.0


class TestLipschitzBound:
    def test_at_tau(self):
        assert cb.lipschitz_bound(G01)(1.0) == pytest.approx(0.1, abs=1e-15)

    def test_clamps_far_out(self):
        assert cb.lipschitz_bound(G01)(400.0) == 2.0

    def test_interpolation_value(self):
        expect = 0.1 + 4.0 * math.sqrt(1.0 - math.exp(-0.25))
        assert cb.lipschitz_bound(G01)(1.5**2) == pytest.approx(expect, rel=1e-12)

    def test_coherent_distance_cross_check(self):
        # The 2*delta increment uses the coherent-state trace distance:
        # delta = || |tau><tau| - |r><r| || / ... verified against cvcore.
        from cvoodg.cvcore import trace_distance
        from cvoodg.oracle import coherent_projector

        r, tau = 1.5, 1.0
        delta = 2.0 * math.sqrt(1.0 - math.exp(-((r - tau) ** 2)))
        numeric = trace_distance(coherent_projector(tau, 30), coherent_projector(r, 30))
        assert numeric == pytest.approx(delta, abs=1e-9)
        assert cb.lipschitz_bound(G01)(r * r) == pytest.approx(0.1 + 2.0 * delta, rel=1e-12)

    def test_monotone_in_r(self):
        curve = cb.lipschitz_bound(G01)
        grid = np.linspace(0.0, 30.0, 200)
        vals = [curve(float(n)) for n in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestGaussianBound:
    def test_zero_eps0(self):
        curve = cb.gaussian_bound(InDistributionGuarantee(eps0=0.0, tau=1.0))
        assert curve(7.3) == 0.0

    def test_direct_value(self):
        assert cb.gaussian_bound(G03)(1.0) == pytest.approx(
            2.0 * math.sqrt(1.0 - 0.85**5), rel=1e-12
        )

    def test_r_zero_exponent_two(self):
        assert cb.gaussian_bound(G03)(0.0) == pytest.approx(
            2.0 * math.sqrt(1.0 - 0.85**2), rel=1e-12
        )

    def test_never_trivial(self):
        # Strictly below 2 for every finite nbar; checked as far out as the
        # gap stays representable in double precision.
        curve = cb.gaussian_bound(G03)
        assert curve(20.0) < 2.0
        assert curve(60.0) < 2.0


class TestPhaseRotationBound:
    def test_zero_at_origin(self):
        assert cb.phase_rotation_bound(G01)(0.0) == 0.0

    def test_value_at_tau(self):
        assert cb.phase_rotation_bound(G01)(1.0) == pytest.approx(
            2.0 * math.sqrt(0.05), rel=1e-12
        )

    def test_equality_witness(self):
        # cos(dtheta) = 1 + log(1 - eps0/2)/(2 tau^2) makes the actual
        # pure-output distance coincide with the curve at every amplitude.
        curve = cb.phase_rotation_bound(G01)
        pair = equality_witness_pair("phase_rotation", G01)
        for nbar in np.geomspace(1e-3, 100.0, 25):
            dist = exact_coherent_distance(pair, math.sqrt(float(nbar)), 0.4)
            assert dist == pytest.approx(curve(float(nbar)), abs=1e-12)


class TestSqueezingBound:
    def test_zero_eps0_is_exactly_zero(self):
        curve = cb.squeezing_bound(InDistributionGuarantee(eps0=0.0, tau=1.0))
        for nbar in (0.0, 1.0, 25.0):
            assert curve(nbar) == 0.0

    def test_r_zero_value_via_kernel(self):
        # 2 sqrt(1 - W0(e^2 * 1.7)/2) at eps0 = 0.3, tau = 1, nbar = 0.
        w = float(mpmath.lambertw(mpmath.exp(2) * mpmath.mpf(1.7)).real)
        assert cb.squeezing_bound(G03)(0.0) == pytest.approx(
            2.0 * math.sqrt(1.0 - w / 2.0), rel=1e-12
        )

    @pytest.mark.parametrize("tau", [1e9, 1e150, 1.3e154])
    def test_large_tau_stays_positive_and_finite(self, tau):
        curve = cb.squeezing_bound(InDistributionGuarantee(0.1, tau))
        values = [curve(nbar) for nbar in (0.0, 10.0, 20.0, 0.5 * tau * tau)]
        assert all(0.0 < v < 2.0 for v in values)
        assert values == sorted(values)

    def test_midpoint_concavity(self):
        curve = cb.squeezing_bound(G03)
        grid = np.linspace(0.0, 25.0, 120)
        for a, b in zip(grid, grid[2:]):
            mid = 0.5 * (a + b)
            assert 0.5 * (curve(a) + curve(b)) <= curve(mid) + 1e-10


class TestDisplacementAndSymmetric:
    def test_displacement_constant(self):
        curve = cb.displacement_bound(G03)
        assert curve(0.0) == curve(13.7) == 0.3

    def test_symmetric_matches_gaussian_at_origin(self):
        assert cb.symmetric_gaussian_bound(G03)(0.0) == pytest.approx(
            cb.gaussian_bound(G03)(0.0), rel=1e-14
        )

    def test_symmetric_below_gaussian(self):
        sym, gauss = cb.symmetric_gaussian_bound(G03), cb.gaussian_bound(G03)
        for nbar in np.linspace(0.0, 50.0, 40):
            assert sym(float(nbar)) <= gauss(float(nbar)) + 1e-14


class TestCurveFamilyProperties:
    @pytest.mark.parametrize("tag", CONCAVE_TAGS + ("step", "lipschitz"))
    def test_monotone_in_eps0_50_point_grid(self, tag):
        eps_values = (0.3, 0.1, 0.03, 1e-3, 1e-6)
        curves = [
            cb.CURVE_CONSTRUCTORS[tag](InDistributionGuarantee(e, 1.0)) for e in eps_values
        ]
        for nbar in np.linspace(0.0, 100.0, 50):
            vals = [c(float(nbar)) for c in curves]
            assert all(b <= a + 1e-13 for a, b in zip(vals, vals[1:]))

    def test_cubic_phase_monotone_in_eps0(self):
        # Bisection resolves the strength gap to ~1e-3 relative, so compare
        # well-separated guarantees only.
        curves = [
            cb.cubic_phase_bound(InDistributionGuarantee(e, 1.0), nbar_max=25.0)
            for e in (0.3, 0.1, 0.03)
        ]
        for nbar in np.linspace(0.0, 25.0, 11):
            vals = [c(float(nbar)) for c in curves]
            assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("tag", CONCAVE_TAGS)
    def test_midpoint_concavity_wide_grid(self, tag):
        curve = cb.CURVE_CONSTRUCTORS[tag](G03)
        grid = np.linspace(0.0, 100.0, 161)
        for a, b in zip(grid, grid[2:]):
            mid = 0.5 * (a + b)
            assert 0.5 * (curve(float(a)) + curve(float(b))) <= curve(float(mid)) + 1e-10

    @pytest.mark.parametrize("tag", list(cb.CURVE_CONSTRUCTORS))
    def test_range_clamped(self, tag):
        curve = cb.CURVE_CONSTRUCTORS[tag](G03)
        samples = [0.0, 0.3, 1.0, 9.0] if tag == "universal" else np.linspace(0, 200, 60)
        for nbar in samples:
            assert 0.0 <= curve(float(nbar)) <= 2.0

    def test_cubic_phase_reachable_from_registry(self):
        curve = cb.CURVE_CONSTRUCTORS["cubic_phase"](G03)
        assert curve.class_tag == "cubic_phase"
        assert curve.concavified


class TestCubicPhase:
    def test_fidelity_identity_at_zero_gap(self):
        assert cubic_phase_fidelity(0.0, 0.7) == 1.0

    def test_fidelity_decreasing_in_gap(self):
        vals = [cubic_phase_fidelity(d, 0.0) for d in (0.01, 0.1, 1.0)]
        assert vals[0] < 1.0
        assert vals[0] > vals[1] > vals[2]

    def test_fidelity_even_in_x(self):
        assert cubic_phase_fidelity(0.2, 0.8) == pytest.approx(
            cubic_phase_fidelity(0.2, -0.8), rel=1e-9
        )

    def test_curve_construction(self):
        curve = cb.cubic_phase_bound(G03, nbar_max=9.0)
        assert curve.concavified
        assert curve(0.0) <= curve(9.0) + 1e-12
        vals = [curve(float(n)) for n in np.linspace(0.0, 9.0, 25)]
        assert all(0.0 <= v <= 2.0 for v in vals)
        # The guarantee region stays consistent: in-distribution the curve
        # cannot undercut the distance it was calibrated on.
        assert curve(1.0) >= 0.0

    def test_zero_eps0(self):
        curve = cb.cubic_phase_bound(InDistributionGuarantee(eps0=0.0, tau=1.0))
        assert curve(4.0) == 0.0

    @staticmethod
    def _reference_fidelity(delta, x):
        # Reference with no code in common with the Airy form: mpmath.quad of
        # the integral of exp(-(v - 2x)^2/2 + i delta v^3) over the line
        # Im v = 1, where it equals the one over the real line (the integrand
        # is entire and decays in the strip) and the factor
        # exp(-3 delta v^2) damps the oscillation: a Gaussian about
        # 2x / (1 + 6 delta), of width 1/sqrt(1 + 6 delta).
        with mpmath.workdps(20):
            c, d = 2 * mpmath.mpf(x), mpmath.mpf(delta)
            centre, width = c / (1 + 6 * d), 1 / mpmath.sqrt(1 + 6 * d)
            integral = mpmath.quad(
                lambda v: mpmath.exp(-(v + 1j - c) ** 2 / 2 + 1j * d * (v + 1j) ** 3),
                [-mpmath.inf, centre - 12 * width, centre, centre + 12 * width, mpmath.inf],
            )
            return float(abs(integral) / mpmath.sqrt(2 * mpmath.pi))

    @pytest.mark.parametrize("delta", [1e-3, 0.01, 0.1, 0.3, 1.0, 2.0])
    def test_airy_form_matches_quadrature(self, delta):
        for x in np.linspace(0.0, 4.0, 9):
            assert cubic_phase_fidelity(delta, float(x)) == pytest.approx(
                self._reference_fidelity(delta, float(x)), rel=0.0, abs=1e-12
            ), x

    @pytest.mark.parametrize("delta", [1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
    def test_distance_matches_a_60_digit_reference(self, delta):
        # Here 1 - F^2 is below 1e-8 and a float F cannot carry it.
        for x in (0.0, 1.0, 2.0):
            with mpmath.workdps(60):
                d, c = mpmath.mpf(delta), 2 * mpmath.mpf(x)
                integral = mpmath.quad(
                    lambda q: mpmath.expj(d * q**3) * mpmath.exp(-(q - c) ** 2 / 2),
                    [-mpmath.inf, c - 10, c, c + 10, mpmath.inf],
                )
                reference = float(2 * mpmath.sqrt(1 - abs(integral) ** 2 / (2 * mpmath.pi)))
            distance = cb._cubic_phase_fidelity_distance(delta, x)[1]
            assert distance == pytest.approx(reference, rel=1e-13, abs=0.0), x

    def test_fidelity_at_most_one_at_a_tiny_gap(self):
        for x in (0.0, 1.0, 4.0):
            assert cubic_phase_fidelity(1e-10, x) <= 1.0

    @pytest.mark.parametrize("bad", [mpmath.mpf(0), mpmath.nan, mpmath.mpf(10) ** 100])
    def test_out_of_range_result_raises(self, monkeypatch, bad):
        # Ai = 0 gives log F = -inf, NaN stays NaN, a huge Ai gives log F > 0.
        monkeypatch.setattr(mpmath, "airyai", lambda z: bad)
        with pytest.raises(ValueError, match="cubic phase fidelity out of range"):
            cubic_phase_fidelity(0.1, 0.5)

    def test_tiny_eps0_curve_is_resolved(self):
        # At eps0 1e-9 a float 1 - F^2 is all rounding; the log-domain
        # distance keeps the curve positive at nbar 0 and at least eps0 at
        # the edge nbar = tau^2 of the guarantee.
        g = InDistributionGuarantee(eps0=1e-9, tau=1.0)
        curve = cb.cubic_phase_bound(g)
        assert 0.0 < curve(0.0) <= g.eps0
        assert curve(1.0) >= g.eps0
        assert curve(10.0) < 1e-8

    def test_curve_covers_the_largest_admissible_gap(self):
        # An independent bisection, to 1e-9 relative, for the largest strength
        # gap whose worst in-distribution distance (on the bound's own 9-point
        # x grid) stays within eps0. The curve must cover that gap's output
        # distance at every grid node.
        g = G03
        xs = np.linspace(0.0, g.tau, 9)

        def distance(delta, x):
            return 2.0 * math.sqrt(max(0.0, 1.0 - cubic_phase_fidelity(delta, x) ** 2))

        lo, hi = 0.0, 1.0
        assert max(distance(hi, float(x)) for x in xs) > g.eps0
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            if max(distance(mid, float(x)) for x in xs) <= g.eps0:
                lo = mid
            else:
                hi = mid
        curve = cb.cubic_phase_bound(g)
        for nbar in np.linspace(0.0, 20.0, 41):
            assert curve(float(nbar)) >= distance(lo, math.sqrt(float(nbar))), nbar


#: The channel classes whose curve is pinned by the guarantee's fidelity.
CLASS_CURVE_TAGS = CONCAVE_TAGS + ("cubic_phase",)


def frozen_clamped_readout(z):
    """2 sqrt(1 - e^z) as the exponential curves read it before the shared
    readout: 2 sqrt(min(max(-expm1 z, 0), 1))."""
    return 2.0 * math.sqrt(min(max(-math.expm1(z), 0.0), 1.0))


def frozen_inline_readout(z):
    """2 sqrt(1 - e^z) as lipschitz_bound read it: 2 sqrt(-expm1 z)."""
    return 2.0 * math.sqrt(-math.expm1(z))


def frozen_raw_sample_hull(xs, ys):
    """The hull of raw samples (xs, ys), xs increasing from 0, as the
    cubic-phase curve was read before it went through concave_hull: a
    monotone-chain upper hull, np.interp inside it, the last segment past
    it, clamped to [0, 2]."""
    hull = []
    for x, y in zip(xs, ys):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) <= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((float(x), float(y)))
    hx, hy = [p[0] for p in hull], [p[1] for p in hull]

    def evaluate(nbar):
        if nbar <= hx[-1]:
            j = bisect.bisect_right(hx, nbar) - 1
            if j == len(hx) - 1 or hx[j] == nbar:
                return hy[j]
            slope = (hy[j + 1] - hy[j]) / (hx[j + 1] - hx[j])
            return slope * (nbar - hx[j]) + hy[j]
        if len(hx) == 1:
            return hy[-1]
        slope = (hy[-1] - hy[-2]) / (hx[-1] - hx[-2])
        return min(max(hy[-1] + slope * (nbar - hx[-1]), 0.0), 2.0)

    return evaluate


class TestClassCurveEdges:
    """Every class curve goes through one eps0 guard, one eps0 = 0 zero
    curve and one 2 sqrt(1 - e^z) readout; the cubic-phase curve through
    the one hull entry."""

    @pytest.mark.parametrize("tag", CLASS_CURVE_TAGS)
    def test_eps0_two_raises_with_the_tag(self, tag):
        g = InDistributionGuarantee(eps0=2.0, tau=1.0)
        with pytest.raises(ValueError, match=f"^{tag} bound requires eps0 < 2$"):
            cb.CURVE_CONSTRUCTORS[tag](g)

    @pytest.mark.parametrize("tag", CLASS_CURVE_TAGS)
    def test_eps0_zero_is_the_zero_curve_without_a_build(self, monkeypatch, tag):
        def no_cubic_build(*args):
            raise AssertionError("the cubic-phase curve was built at eps0 = 0")

        monkeypatch.setattr(cb, "_cubic_phase_fidelity_distance", no_cubic_build)
        curve = cb.CURVE_CONSTRUCTORS[tag](InDistributionGuarantee(eps0=0.0, tau=1.0))
        assert curve.class_tag == tag
        assert curve.concavified
        assert bits(curve(nbar) for nbar in (0.0, 1.0, 1e300, math.inf)) == bits([0.0] * 4)

    @settings(max_examples=3000, deadline=None, derandomize=True)
    @given(z=st.one_of(
        st.floats(max_value=0.0),
        # Subnormal and near-subnormal exponents.
        st.integers(-(1 << 60), 0).map(lambda k: k * 5e-324),
        st.floats(-1e-300, 0.0),
    ))
    @example(z=-0.0)
    @example(z=-5e-324)
    @example(z=-2.2250738585072014e-308)
    @example(z=-2.225073858507201e-308)
    @example(z=-math.inf)
    @example(z=-1e-17)
    @example(z=-745.2)
    def test_readout_is_the_frozen_forms(self, z):
        if z == 0.0 and math.copysign(1.0, z) > 0.0:
            z = -0.0
        got = 2.0 * specfun.sqrt_one_minus_exp(z, 1.0)
        assert got.hex() == frozen_clamped_readout(z).hex() == frozen_inline_readout(z).hex()

    def test_readout_at_positive_zero_is_a_non_negative_zero(self):
        # The one exponent where the frozen forms give -0.0; it arose only
        # from nbar = -0.0, which the CLI no longer reads.
        assert frozen_clamped_readout(0.0).hex() == "-0x0.0p+0"
        assert (2.0 * specfun.sqrt_one_minus_exp(0.0, 1.0)).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("eps0,tau,nbar_max", [(0.3, 1.0, 20.0), (0.05, 0.5, 7.0)])
    def test_cubic_hull_is_the_frozen_raw_sample_hull(self, eps0, tau, nbar_max):
        g = InDistributionGuarantee(eps0=eps0, tau=tau)
        curve = cb.cubic_phase_bound(g, nbar_max=nbar_max)
        assert curve.concavified and curve.class_tag == "cubic_phase"
        delta = cb._cubic_phase_gap(g)
        xs = cb.linspace(nbar_max, 41)
        reference = frozen_raw_sample_hull(
            xs, [cb._cubic_phase_fidelity_distance(delta, math.sqrt(x))[1] for x in xs]
        )
        probes = [*xs, *(nbar_max * k / 97.0 for k in range(98)),
                  *(nbar_max * (1.0 + k / 3.0) for k in range(1, 10))]
        assert bits(curve(p) for p in probes) == bits(reference(p) for p in probes)

    def test_cubic_hull_needs_a_positive_reach(self):
        with pytest.raises(ValueError, match="grid_max_nbar must be positive"):
            cb.cubic_phase_bound(G03, nbar_max=0.0)


class TestUniversalBound:
    def test_order_cap_is_checked_before_any_table(self, monkeypatch):
        # At nbar 1 the order grows 40 -> 70 -> 115. A cap between the two
        # growth steps stops the point at 115, before its pair list exists.
        g = InDistributionGuarantee(eps0=1e-3, tau=1.0)
        built, series_table = [], cb._series_table
        monkeypatch.setattr(cb, "_series_table",
                            lambda r, order, lf: built.append(order) or series_table(r, order, lf))
        assert cb.universal_coherent_bound_detail(g, cb.UniversalSeries(1.0)).truncation_order == 115
        assert built == [115]
        built.clear()
        monkeypatch.setattr(cb, "_UNIVERSAL_MAX_ORDER", 100)
        with pytest.raises(ValueError, match="nbar 1.0 needs truncation order 115, above the cap 100"):
            cb.UniversalSeries(1.0)
        assert built == []
        monkeypatch.setattr(cb, "_UNIVERSAL_MAX_ORDER", 39)
        with pytest.raises(ValueError, match="order 40, above the cap 39"):
            cb.UniversalSeries(1.0)

    def test_xi_clamped_at_two(self):
        table = cb._xi_floor(full_grid_table(26), 0.3, 1.0, 0.2, 0.2)
        assert table.max() <= 2.0 + 1e-12
        assert table.min() >= 0.0

    def test_r_zero_small_multiple_of_eps0(self):
        g = InDistributionGuarantee(eps0=1e-4, tau=1.0)
        value = cb.universal_point(g, 0.0)[0]
        assert value <= 10.0 * g.eps0

    def test_monotone_improvement_halving_eps0(self):
        for r in (0.0, 0.3, 0.6):
            prev = math.inf
            for eps0 in (4e-4, 2e-4, 1e-4):
                val = cb.universal_point(
                    InDistributionGuarantee(eps0=eps0, tau=1.0), r
                )[0]
                assert val <= prev + 1e-12
                prev = val

    def test_detail_fields(self):
        g = InDistributionGuarantee(eps0=1e-4, tau=1.0)
        detail = cb.universal_coherent_bound_detail(g, cb.UniversalSeries(0.5))
        assert 0.0 < detail.s_opt < 0.5
        assert detail.tail_bound <= 1e-12
        assert detail.truncation_order >= 40
        assert 0.0 <= detail.value <= 2.0

    def test_r_zero_keeps_base_order(self, monkeypatch):
        # The tail is exactly 0 at r = 0, so the order stays at 40; the extra
        # terms of an order-115 evaluation are exact zeros.
        g = InDistributionGuarantee(eps0=1e-3, tau=1.0)
        assert cb._poisson_tail_bound(0.0, 40) == 0.0
        detail = cb.universal_coherent_bound_detail(g, cb.UniversalSeries(0.0))
        assert detail.truncation_order == 40
        monkeypatch.setattr(cb, "_universal_order", lambda r: 115)
        wide = cb.universal_coherent_bound_detail(g, cb.UniversalSeries(0.0))
        assert wide.truncation_order == 115
        assert (detail.value, detail.s_opt) == (wide.value, wide.s_opt)

    def test_curve_wrapper(self):
        g = InDistributionGuarantee(eps0=1e-4, tau=1.0)
        curve = cb.universal_curve(g)
        assert not curve.concavified
        assert curve(0.25) == pytest.approx(cb.universal_point(g, 0.5)[0], rel=1e-12)


def mp_coherent_weights(r, size):
    """b_m = e^{-r^2/2} r^m / sqrt(m!) for m < size, at the working precision."""
    r = mpmath.mpf(r)
    return [mpmath.exp(-r * r / 2) * r**m / mpmath.sqrt(mpmath.factorial(m)) for m in range(size)]


def mp_suffix_sums(b):
    """suffix[k] = sum_{n >= k} b_n, with suffix[len(b)] = 0."""
    suffix = [mpmath.mpf(0)] * (len(b) + 1)
    for k in range(len(b) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + b[k]
    return suffix


def mp_tail_formula(r, order):
    """The tail bound's own formula at 50 digits:
    2 (sum_{m>=1} b_m suffix[order - m + 1] + (2 S + T) T)."""
    with mpmath.workdps(50):
        b = mp_coherent_weights(r, order + 1)
        suffix = mp_suffix_sums(b)
        inner = mpmath.fsum(b[m] * suffix[order - m + 1] for m in range(1, order + 1))
        r2 = mpmath.mpf(r) ** 2
        tail_1d = min(
            mpmath.sqrt(mpmath.mpf(theta) ** (order + 1) / (1 - mpmath.mpf(theta)))
            * mpmath.exp(r2 / (2 * mpmath.mpf(theta)) - r2 / 2)
            for theta in (0.5, 0.7, 0.85, 0.95)
        )
        return 2 * (inner + (2 * suffix[0] + tail_1d) * tail_1d)


def mp_series_tail(r, order, extra=300):
    """The exact tail 2 sum_{m+n > order} b_m b_n at 50 digits, over indices
    up to order + extra, past which every b_m is below 1e-100 at the
    amplitudes tested."""
    with mpmath.workdps(50):
        b = mp_coherent_weights(r, order + extra + 1)
        suffix = mp_suffix_sums(b)
        return 2 * mpmath.fsum(b[m] * suffix[max(order - m + 1, 0)] for m in range(len(b)))


class TestPoissonTail:
    """The truncation tail of the universal series: a sum of positive terms
    in O(order)."""

    @pytest.mark.parametrize("nbar,order", [(1.0, 40), (1.0, 115), (10.0, 118), (40.0, 224)])
    def test_matches_its_formula_at_50_digits(self, nbar, order):
        r = math.sqrt(nbar)
        exact = mp_tail_formula(r, order)
        assert abs(cb._poisson_tail_bound(r, order) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("nbar,order", [(1.0, 40), (1.0, 115), (10.0, 118), (40.0, 224)])
    def test_bounds_the_series_tail(self, nbar, order):
        r = math.sqrt(nbar)
        assert mp_series_tail(r, order) <= cb._poisson_tail_bound(r, order)

    def test_no_cancellation_at_large_nbar(self):
        # Far past the order, the tail is tiny but positive, not a rounded 0.
        assert 0.0 < cb._poisson_tail_bound(math.sqrt(1160.0), 4981) < 1e-200

    def test_certified_point_near_the_cap_stays_small(self):
        # A point that the diagonal stage certifies touches nothing of
        # O(order^2): the tail, the weights and the diagonal are O(order).
        g = InDistributionGuarantee(eps0=1e-3, tau=1.0)
        tracemalloc.start()
        try:
            value = cb.universal_point(g, math.sqrt(1160.0))[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 2.0
        assert peak < 16 * 2**20


# Orders up to 250, diagonal and off-diagonal, near and far from the diagonal.
MASS_ELEMENTS = ((0, 0), (1, 1), (250, 250), (0, 1), (1, 0), (3, 200), (0, 250), (120, 121),
                 (249, 250), (10, 240))
# Both ends of the universal s window and two interior points.
MASS_S = (1e-8, 1e-4, 0.2, 0.499)


def log_mass_oracle(s, m, n, factor):
    """log of the closed-form mass bound with Gamma(1 + |m-n|/2) replaced by
    factor(a), a = 1 + |m-n|/2, at 50 digits."""
    with mpmath.workdps(50):
        s = mpmath.mpf(s)
        if m == n:
            head = 2 * (1 - s) ** (m + 1) / (s**m * (1 - 2 * s))
            return mpmath.log(head * factor(mpmath.mpf(1)))
        d, lo = abs(m - n), min(m, n)
        head = (
            2 ** (2 + mpmath.mpf(d) / 2) / mpmath.pi
            * mpmath.factorial(d + lo) / mpmath.factorial(d)
            / mpmath.sqrt(mpmath.factorial(m) * mpmath.factorial(n))
            * (1 - s) ** (1 + mpmath.mpf(m + n) / 2)
            / (s ** (mpmath.mpf(m + n) / 2) * (1 - 2 * s) ** (1 + mpmath.mpf(d) / 2))
        )
        return mpmath.log(head * factor(1 + mpmath.mpf(d) / 2))


def log_mass_tolerance(table, s, k, log_factor):
    """A few ulps of the largest term the table sums for its pair k."""
    delta = table.delta[k]
    terms = (table.G[k], log_factor[delta], (1.0 + table.C[k]) * math.log1p(-s),
             table.C[k] * math.log(s), (1.0 + 0.5 * delta) * math.log1p(-2.0 * s))
    return 8.0 * np.finfo(float).eps * sum(abs(t) for t in terms)


class TestFockMassTable:
    DIM = 251
    TABLE = full_grid_table(DIM)

    @pytest.mark.parametrize("s", MASS_S)
    def test_mu_matches_closed_form(self, s):
        log_mu = self.TABLE.log_mu(s)
        for m, n in MASS_ELEMENTS:
            exact = float(log_mass_oracle(s, m, n, mpmath.gamma))
            k = m * self.DIM + n
            tol = log_mass_tolerance(self.TABLE, s, k, self.TABLE.log_gamma)
            assert abs(log_mu[k] - exact) <= tol, (m, n)

    @pytest.mark.parametrize("s", MASS_S)
    @pytest.mark.parametrize("eps0,tau", [(1e-4, 1.0), (0.3, 1.0), (1e-3, 10.0)])
    def test_xi_matches_closed_form(self, s, eps0, tau):
        T = tau * tau * (1.0 - 2.0 * s) / (2.0 * s * (1.0 - s))

        def bracket(a):
            return eps0 * mpmath.gamma(a) + (2 - eps0) * mpmath.gammainc(a, T)

        log_bracket = cb._log_delta_bracket(self.TABLE, eps0, T)
        log_xi = self.TABLE.log_mass_floor(s, s, log_bracket)
        xi = cb._xi_floor(self.TABLE, eps0, tau, s, s)
        for m, n in MASS_ELEMENTS:
            exact = log_mass_oracle(s, m, n, bracket)
            k = m * self.DIM + n
            tol = log_mass_tolerance(self.TABLE, s, k, log_bracket)
            assert abs(log_xi[k] - float(exact)) <= tol, (m, n)
            assert xi[k] == pytest.approx(
                min(float(mpmath.exp(exact)), 2.0), rel=1e-12
            ), (m, n)

    @pytest.mark.parametrize("s", [1e-8, 0.05, 0.1, 0.3, 0.49])
    def test_scalar_log_mu_is_the_table_bit_for_bit(self, s):
        # The pairs n <= m <= 60, in both orders, as unit-weight table rows.
        pairs = [(m, n) for m in range(61) for n in range(m + 1)]
        m, n = (np.array(column) for column in zip(*pairs))
        for table, rows in ((cb.FockMassTable(m, n, np.ones(len(pairs))), pairs),
                            (cb.FockMassTable(n, m, np.ones(len(pairs))),
                             [pair[::-1] for pair in pairs])):
            assert [cb.fock_log_mu(s, *pair) for pair in rows] == table.log_mu(s).tolist()

    def test_xi_past_incomplete_gamma_underflow(self):
        # At s = 1e-8, T = 5e7: Q(a, T) underflows to 0 for every order, and
        # the bracket reduces to eps0 Gamma(a) exactly.
        s, eps0 = 1e-8, 1e-4
        T = (1.0 - 2.0 * s) / (2.0 * s * (1.0 - s))
        assert not special.gammaincc(self.TABLE.gamma_order, T).any()
        log_bracket = cb._log_delta_bracket(self.TABLE, eps0, T)
        assert np.array_equal(log_bracket, self.TABLE.log_gamma + math.log(eps0))


def reference_universal_objective(g, r, order):
    """The universal series objective written over the full (order+1)^2 table:
    every element computed, those with m + n > order masked to 0."""
    lf = np.array([specfun.log_factorial(k) for k in range(order + 1)])
    if r == 0.0:
        b = np.zeros(order + 1)
        b[0] = 1.0
    else:
        b = np.exp(np.arange(order + 1) * math.log(r) - 0.5 * lf - 0.5 * r * r)
    mask = np.add.outer(np.arange(order + 1), np.arange(order + 1)) <= order
    table = full_grid_table(order + 1)

    def objective(s):
        xi_grid = cb._xi_floor(table, g.eps0, g.tau, s, s).reshape(order + 1, order + 1)
        xi = np.where(mask, xi_grid, 0.0)
        return float(b @ xi @ b) + 4.0 * math.sqrt(s * (1.0 + 2.0 * r * r))

    return objective


def search_objective(monkeypatch, g, series):
    """The objective that universal_coherent_bound_detail(g, series) hands
    to its s-search, as s -> value."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(cb, "grid_seeded_log_min", lambda f, lo, hi: seen.append(f) or (0.0, lo))
        cb.universal_coherent_bound_detail(g, series)
    return lambda s: seen[0](s)[0]


#: (eps0, tau, nbar, value, s_opt, truncation_order, tail_bound) of
#: universal_coherent_bound_detail. value, s_opt and order were computed
#: with the full masked table; the tails are those of the positive-term form.
UNIVERSAL_PINNED = (
    (0.0001, 0.5, 0.0, 0.0006000000019999996, 9.999999999999982e-09, 40, 0.0),
    (0.0001, 0.5, 1.0, 2.0, 0.007559024454006723, 115, 6.80930712473154e-17),
    (0.0001, 0.5, 10.0, 2.0, 9.999999999999982e-09, 118, 4.070654930969029e-15),
    (0.0001, 0.5, 40.0, 2.0, 9.999999999999982e-09, 224, 4.522078959265249e-19),
    (0.0001, 1.0, 0.0, 0.0006000000019999996, 9.999999999999982e-09, 40, 0.0),
    (0.0001, 1.0, 1.0, 2.0, 0.03038162407974672, 115, 6.80930712473154e-17),
    (0.0001, 1.0, 10.0, 2.0, 9.999999999999982e-09, 118, 4.070654930969029e-15),
    (0.0001, 1.0, 40.0, 2.0, 9.999999999999982e-09, 224, 4.522078959265249e-19),
    (0.0001, 2.0, 0.0, 0.0006000000019999996, 9.999999999999982e-09, 40, 0.0),
    (0.0001, 2.0, 1.0, 2.0, 0.08598393470491689, 115, 6.80930712473154e-17),
    (0.0001, 2.0, 10.0, 2.0, 9.999999999999982e-09, 118, 4.070654930969029e-15),
    (0.0001, 2.0, 40.0, 2.0, 9.999999999999982e-09, 224, 4.522078959265249e-19),
    (0.001, 0.5, 0.0, 0.0024000000200000006, 9.999999999999982e-09, 40, 0.0),
    (0.001, 0.5, 1.0, 2.0, 0.006261246590646839, 115, 6.80930712473154e-17),
    (0.001, 0.5, 10.0, 2.0, 9.999999999999982e-09, 118, 4.070654930969029e-15),
    (0.001, 0.5, 40.0, 2.0, 9.999999999999982e-09, 224, 4.522078959265249e-19),
    (0.001, 1.0, 0.0, 0.0024000000200000006, 9.999999999999982e-09, 40, 0.0),
    (0.001, 1.0, 1.0, 2.0, 0.03730114414547426, 115, 6.80930712473154e-17),
    (0.001, 1.0, 10.0, 2.0, 9.999999999999982e-09, 118, 4.070654930969029e-15),
    (0.001, 1.0, 40.0, 2.0, 9.999999999999982e-09, 224, 4.522078959265249e-19),
    (0.001, 2.0, 0.0, 0.0024000000200000006, 9.999999999999982e-09, 40, 0.0),
    (0.001, 2.0, 1.0, 2.0, 0.11343801968699294, 115, 6.80930712473154e-17),
    (0.001, 2.0, 10.0, 2.0, 9.999999999999982e-09, 118, 4.070654930969029e-15),
    (0.001, 2.0, 40.0, 2.0, 9.999999999999982e-09, 224, 4.522078959265249e-19),
    (0.05, 0.5, 0.0, 0.10040000100000006, 9.999999999999982e-09, 40, 0.0),
    (0.05, 0.5, 1.0, 2.0, 0.008338550669031376, 115, 6.80930712473154e-17),
    (0.05, 0.5, 10.0, 2.0, 9.999999999999982e-09, 118, 4.070654930969029e-15),
    (0.05, 0.5, 40.0, 2.0, 9.999999999999982e-09, 224, 4.522078959265249e-19),
    (0.05, 1.0, 0.0, 0.10040000100000006, 9.999999999999982e-09, 40, 0.0),
    (0.05, 1.0, 1.0, 2.0, 0.008351631581135676, 115, 6.80930712473154e-17),
    (0.05, 1.0, 10.0, 2.0, 9.999999999999982e-09, 118, 4.070654930969029e-15),
    (0.05, 1.0, 40.0, 2.0, 9.999999999999982e-09, 224, 4.522078959265249e-19),
    (0.05, 2.0, 0.0, 0.10040000100000006, 9.999999999999982e-09, 40, 0.0),
    (0.05, 2.0, 1.0, 2.0, 0.008351631581135676, 115, 6.80930712473154e-17),
    (0.05, 2.0, 10.0, 2.0, 9.999999999999982e-09, 118, 4.070654930969029e-15),
    (0.05, 2.0, 40.0, 2.0, 9.999999999999982e-09, 224, 4.522078959265249e-19),
)


class TestUniversalPairTable:
    """The universal series is computed on one weighted list of the pairs
    m <= n, m + n <= order; it must agree with the full masked table."""

    # Each order is the one the series reaches at r.
    @pytest.mark.parametrize("order,r", [(40, 0.0), (115, 0.5), (115, 1.0), (224, math.sqrt(40.0))])
    @pytest.mark.parametrize("eps0,tau", [(1e-4, 1.0), (0.05, 2.0)])
    def test_objective_equals_full_table(self, monkeypatch, order, r, eps0, tau):
        g = InDistributionGuarantee(eps0=eps0, tau=tau)
        series = cb.UniversalSeries(r)
        assert series.order == order
        objective = search_objective(monkeypatch, g, series)
        reference = reference_universal_objective(g, r, order)
        table = series.pairs
        penalty = 1.0 + 2.0 * r * r
        for s in MASS_S:
            # The search evaluates the certificate's bound on the cell [s, s].
            assert objective(s) == cb._objective_floor(table, g, penalty, s, s), s
            if r == 0.0:
                # Only the vacuum pair: one term, no rounding to differ.
                assert objective(s) == reference(s), s
            else:
                # Every summed term is positive, so the value is the sum of
                # their magnitudes; the two summation orders agree to a few
                # ulps of it.
                assert abs(objective(s) - reference(s)) <= 8.0 * np.finfo(float).eps * reference(s), s

    @pytest.mark.parametrize("order", [40, 115, 224])
    def test_pair_table_equals_full_table(self, order):
        # The series' pair list at r = 1, where every weight is positive,
        # against the full grid, whose element (m, n) is pair m (order + 1) + n.
        full = full_grid_table(order + 1)
        m, n = cb._series_pairs(order)
        pairs = cb._series_table(1.0, order, cb.log_factorial_array(order + 1))
        assert len(pairs.weight) == len(m)
        k = m * (order + 1) + n
        for name in ("G", "delta", "C"):
            assert np.array_equal(getattr(pairs, name), getattr(full, name)[k]), name
        for s in MASS_S:
            assert np.array_equal(pairs.log_mu(s), full.log_mu(s)[k]), s
            log_factor = cb._log_delta_bracket(full, 1e-3, 1.0 / s)
            assert np.array_equal(pairs.log_mass_floor(s, s, log_factor),
                                  full.log_mass_floor(s, s, log_factor)[k]), s

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 40])
    def test_series_pairs_row_major(self, order):
        m, n = cb._series_pairs(order)
        expected = [(i, j) for i in range(order + 1) for j in range(order + 1)
                    if i + j <= order and i <= j]
        assert list(zip(m.tolist(), n.tolist())) == expected

    @pytest.mark.parametrize("eps0,tau,nbar,value,s_opt,order,tail", UNIVERSAL_PINNED)
    def test_detail_pinned(self, eps0, tau, nbar, value, s_opt, order, tail):
        g = InDistributionGuarantee(eps0=eps0, tau=tau)
        detail = cb.universal_coherent_bound_detail(g, cb.UniversalSeries(math.sqrt(nbar)))
        assert (detail.value, detail.s_opt, detail.truncation_order, detail.tail_bound) == (
            value, s_opt, order, tail)


CEILING_EPS0 = (1e-8, 1e-4, 1e-3, 0.05, 0.3, 1.5, 1.99)
CEILING_TAU = (1e-3, 0.5, 1.0, 2.0, 1e3)
CEILING_NBAR = (0.0, 0.01, 0.25, 0.5, 1.0, 2.0, 5.0, 40.0, 200.0)


def assert_certificate_agrees(g, r):
    """A certified point is at the ceiling of the full search and has no s;
    any other point is the full search's value and s bit for bit."""
    series = cb.UniversalSeries(r)
    detail = cb.universal_coherent_bound_detail(g, series)
    point = cb.universal_point(g, r)
    if cb.universal_at_ceiling(g, series):
        assert detail.value == 2.0
        assert repr(point) == repr((2.0, None))
    else:
        assert repr(point) == repr((detail.value, detail.s_opt))


class TestUniversalCeiling:
    """universal_at_ceiling: a certified point skips the s-search, so it
    must be one whose full search gives exactly 2."""

    @pytest.mark.parametrize("r", [0.0, 0.5, 3.0])
    def test_penalty_is_twice_delta_s(self, r):
        # With every weight 0 only the penalty is left: the one the
        # delta-s oracle checks, paid twice.
        g = InDistributionGuarantee(eps0=1e-3, tau=1.0)
        series = cb.UniversalSeries(r)
        table = copy.copy(series.pairs)
        table.weight = np.zeros_like(table.weight)
        scale = 1.0 + 2.0 * r * r
        assert series.penalty == scale
        for s1, s2 in ((1e-8, 1e-8), (1e-4, 2e-4), (0.3, 0.49)):
            floor = cb._objective_floor(table, g, scale, s1, s2)
            assert floor == 2.0 * delta_s_bound(s1, scale), (s1, s2)

    @pytest.mark.parametrize("eps0,tau,nbar", [
        (1e-4, 1.0, 1.0), (1e-3, 0.5, 2.0), (0.05, 2.0, 0.5), (1e-8, 1e3, 5.0), (0.3, 1e-3, 0.25),
    ])
    def test_cell_bound_is_below_the_objective(self, monkeypatch, eps0, tau, nbar):
        g = InDistributionGuarantee(eps0=eps0, tau=tau)
        r = math.sqrt(nbar)
        series = cb.UniversalSeries(r)
        objective = search_objective(monkeypatch, g, series)
        lf = series.log_factorials
        b = cb._coherent_weights(r, lf)
        diag = np.arange(series.order // 2 + 1)
        stages = (series.pairs, cb.FockMassTable(diag, diag, b[diag] ** 2, lf))
        penalty = 1.0 + 2.0 * nbar
        rng = np.random.default_rng(7)
        lo, hi = cb._UNIVERSAL_S_RANGE
        for _ in range(4):
            s1, s2 = np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), 2))).tolist()
            least = min(objective(float(s)) for s in np.geomspace(s1, s2, 200))
            for table in stages:
                assert cb._objective_floor(table, g, penalty, s1, s2) <= least, (s1, s2)

    @pytest.mark.parametrize("eps0", CEILING_EPS0)
    @pytest.mark.parametrize("tau", CEILING_TAU)
    def test_certified_points_match_the_search(self, eps0, tau):
        g = InDistributionGuarantee(eps0=eps0, tau=tau)
        for nbar in CEILING_NBAR:
            assert_certificate_agrees(g, math.sqrt(nbar))

    @pytest.mark.parametrize("eps0,tau,nbar,value,s_opt,order,tail", UNIVERSAL_PINNED)
    def test_pinned_rows(self, eps0, tau, nbar, value, s_opt, order, tail):
        g = InDistributionGuarantee(eps0=eps0, tau=tau)
        # Every pinned row at 2 is certified, and no row below 2 is.
        assert cb.universal_at_ceiling(g, cb.UniversalSeries(math.sqrt(nbar))) == (value == 2.0)
        assert cb.universal_point(g, math.sqrt(nbar))[0] == value

    @pytest.mark.parametrize("eps0", [1e-8, 1e-4, 1e-3, 0.05, 0.3])
    @pytest.mark.parametrize("tau", CEILING_TAU)
    def test_vacuum_below_the_ceiling_is_not_certified(self, eps0, tau):
        g = InDistributionGuarantee(eps0=eps0, tau=tau)
        series = cb.UniversalSeries(0.0)
        assert cb.universal_coherent_bound_detail(g, series).value < 2.0
        assert not cb.universal_at_ceiling(g, series)

    @pytest.mark.parametrize("r", [0.0, 3.0, 1e3, 1e200])
    def test_eps0_zero_is_zero_before_any_series(self, monkeypatch, r):
        # The two channels agree on every coherent state: no certificate, no
        # series and so no order cap, however large the amplitude.
        def no_series(r):
            raise AssertionError("a series was built")

        monkeypatch.setattr(cb, "UniversalSeries", no_series)
        point = cb.universal_point(InDistributionGuarantee(eps0=0.0, tau=1.0), r)
        assert repr(point) == repr((0.0, 0.0))

    @pytest.mark.parametrize("nbar", [1.0, 40.0, 200.0])
    def test_certified_point_runs_no_search(self, monkeypatch, nbar):
        g = InDistributionGuarantee(eps0=1e-3, tau=1.0)
        assert cb.universal_at_ceiling(g, cb.UniversalSeries(math.sqrt(nbar)))

        def no_search(*args):
            raise AssertionError("the s-search ran")

        monkeypatch.setattr(cb, "grid_seeded_log_min", no_search)
        assert cb.universal_point(g, math.sqrt(nbar))[0] == 2.0

    @pytest.mark.parametrize("eps0,r,cap,message", [
        (2.0, 1.0, None, "universal bound requires eps0 < 2"),
        (1e-3, -1.0, None, "amplitude must be non-negative"),
        (1e-3, 1.0, 100, "nbar 1.0 needs truncation order 115, above the cap 100"),
        (1e-3, 1e3, None, "nbar 1000000.0 needs truncation order 4010000, above the cap 5000"),
    ])
    def test_errors_are_those_of_the_search(self, monkeypatch, eps0, r, cap, message):
        # Every error comes from universal_point before any mass table
        # exists; the cap errors are those of the series itself.
        if cap is not None:
            monkeypatch.setattr(cb, "_UNIVERSAL_MAX_ORDER", cap)
        tables = []
        monkeypatch.setattr(cb, "FockMassTable", lambda *args: tables.append(args))
        g = InDistributionGuarantee(eps0=eps0, tau=1.0)
        with pytest.raises(ValueError, match=message):
            cb.universal_point(g, r)
        if eps0 < 2.0 and r >= 0.0:
            with pytest.raises(ValueError, match=message):
                cb.UniversalSeries(r)
        assert tables == []

    @pytest.mark.parametrize("eps0,nbar,pair_lists", [
        (1e-4, 0.0, 1), (1e-4, 0.01, 1), (1e-4, 0.1, 1), (1e-4, 0.5, 1),
        # Closed by the certificate's second stage: no search.
        (1e-4, 1.0, 1), (1e-3, 2.0, 1),
        # Closed by its diagonal stage: nothing of order squared.
        (1e-3, 10.0, 0), (1e-4, 40.0, 0),
    ])
    def test_one_series_and_one_pair_list_per_point(self, monkeypatch, eps0, nbar, pair_lists):
        built = {"series": 0, "pairs": 0}
        series_type, series_table = cb.UniversalSeries, cb._series_table

        def counted_series(r):
            built["series"] += 1
            return series_type(r)

        def counted_table(*args):
            built["pairs"] += 1
            return series_table(*args)

        monkeypatch.setattr(cb, "UniversalSeries", counted_series)
        monkeypatch.setattr(cb, "_series_table", counted_table)
        g = InDistributionGuarantee(eps0=eps0, tau=1.0)
        point = cb.universal_point(g, math.sqrt(nbar))
        assert built == {"series": 1, "pairs": pair_lists}
        assert (point[1] is None) == (nbar >= 1.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(eps0=st.floats(1e-10, 1.99), tau=st.floats(1e-3, 1e3), nbar=st.floats(0.0, 60.0))
    def test_certificate_implies_the_ceiling(self, eps0, tau, nbar):
        assert_certificate_agrees(InDistributionGuarantee(eps0=eps0, tau=tau), math.sqrt(nbar))


class TestConcaveHull:
    def test_concave_input_unchanged(self):
        curve = cb.phase_rotation_bound(G03)
        hulled = cb.concave_hull(curve, 20.0, 101)
        for nbar in np.linspace(0.0, 20.0, 101):
            assert hulled(float(nbar)) == pytest.approx(curve(float(nbar)), abs=1e-12)

    def test_step_hull_matches_chord_oracle(self):
        curve = cb.step_bound(G03)
        xs = np.linspace(0.0, 20.0, 81)
        ys = np.array([curve(float(x)) for x in xs])
        hulled = cb.concave_hull(curve, 20.0, 81)
        for x in xs:
            assert hulled(float(x)) == pytest.approx(
                chord_max_hull_oracle(xs, ys, float(x)), abs=1e-12
            )

    def test_idempotent(self):
        curve = cb.lipschitz_bound(G03)
        once = cb.concave_hull(curve, 30.0, 61)
        twice = cb.concave_hull(once, 30.0, 61)
        for nbar in np.linspace(0.0, 30.0, 61):
            assert twice(float(nbar)) == pytest.approx(once(float(nbar)), abs=1e-12)

    def test_dominates_input_on_grid(self):
        curve = cb.lipschitz_bound(G03)
        hulled = cb.concave_hull(curve, 30.0, 61)
        for nbar in np.linspace(0.0, 30.0, 61):
            assert hulled(float(nbar)) >= curve(float(nbar)) - 1e-12

    def test_extension_clamps(self):
        hulled = cb.concave_hull(cb.step_bound(G03), 5.0, 21)
        assert hulled(1e6) == 2.0

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            cb.concave_hull(cb.step_bound(G03), 5.0, 2)


def numpy_hull_curve(xmax, ys):
    """The hull curve as numpy gives it: samples on np.linspace(0, xmax),
    the upper hull of the arrays, np.interp inside it and the last segment
    past it, clamped to [0, 2]."""
    hx, hy = (np.array(v) for v in cb._upper_hull(np.linspace(0.0, xmax, len(ys)), np.array(ys)))

    def evaluate(nbar):
        if nbar <= hx[-1]:
            return float(np.interp(nbar, hx, hy))
        slope = (hy[-1] - hy[-2]) / (hx[-1] - hx[-2])
        return float(min(max(hy[-1] + slope * (nbar - hx[-1]), 0.0), 2.0))

    return evaluate


def bits(values):
    return [float(v).hex() for v in values]


def grid_curve(xmax, ys):
    """A curve that gives ys[i] at the i-th point of linspace(xmax, len(ys)),
    so that concave_hull on that grid hulls exactly these samples."""
    at = dict(zip(cb.linspace(xmax, len(ys)), ys))
    return cb.BoundCurve("t", G03, at.__getitem__, False)


class TestFloatGridAndHull:
    """The float grid and the list hull equal numpy's linspace and interp
    bit for bit, so the curves and the CLI output do not move."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        x=st.one_of(
            st.floats(0.0, 1e300),
            st.floats(0.0, 1e-300),
            # Subnormal stops, where x / (n - 1) may round to 0.
            st.integers(0, 1 << 16).map(lambda k: k * 5e-324),
        ),
        n=st.integers(2, 500),
    )
    @example(x=5e-324, n=3)
    @example(x=1.5e-323, n=8)
    @example(x=1e-320, n=241)
    @example(x=0.0, n=2)
    @example(x=20.0, n=200)
    def test_linspace_is_numpys(self, x, n):
        assert bits(cb.linspace(x, n)) == bits(np.linspace(0.0, x, n))

    def test_linspace_takes_numpys_branch_for_a_zero_step(self):
        # 3 ulp / 7 rounds to 0, so i * step would give 0 inside the grid.
        x = 3 * 5e-324
        assert x / 7 == 0.0
        grid = cb.linspace(x, 8)
        assert bits(grid) == bits(np.linspace(0.0, x, 8))
        assert any(grid[1:-1])

    def test_linspace_holds_at_most_a_million_points(self):
        grid = cb.linspace(2.0, 1_000_000)
        assert (len(grid), grid[-1]) == (1_000_000, 2.0)
        for num in (1_000_001, 10**11, 10**400):
            with pytest.raises(ValueError, match="^a grid holds at most 1000000 points$"):
                cb.linspace(2.0, num)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), xmax=st.floats(1e-3, 1e3), n=st.integers(3, 60))
    def test_hull_curve_is_numpys(self, data, xmax, n):
        ys = data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
        inside = data.draw(st.lists(st.floats(0.0, 1.0), max_size=20))
        past = data.draw(st.lists(st.floats(0.0, 10.0, exclude_min=True), max_size=5))
        curve = cb.concave_hull(grid_curve(xmax, ys), xmax, n)
        reference = numpy_hull_curve(xmax, ys)
        # Every grid point, hull vertices included, points inside the grid
        # and points past the last vertex.
        probes = [*cb.linspace(xmax, n), *(u * xmax for u in inside),
                  *(xmax * (1.0 + u) for u in past)]
        assert bits(curve(p) for p in probes) == bits(reference(p) for p in probes)

    @pytest.mark.parametrize("ys", [[0.5] * 7, [0.0, 2.0, 0.0, 2.0, 0.0], [2.0, 1.0, 0.0]])
    def test_hull_curve_is_numpys_on_collinear_and_falling_samples(self, ys):
        curve = cb.concave_hull(grid_curve(6.0, ys), 6.0, len(ys))
        reference = numpy_hull_curve(6.0, ys)
        probes = [k * 0.25 for k in range(40)]
        assert bits(curve(p) for p in probes) == bits(reference(p) for p in probes)


class TestCombinedMode:
    def test_pointwise_min_with_step(self):
        curve = cb.gaussian_bound(G03)
        combined = cb.combined_with_step(curve)
        step = cb.step_bound(G03)
        for nbar in (0.0, 0.5, 1.0, 2.0, 10.0):
            assert combined(nbar) == pytest.approx(min(curve(nbar), step(nbar)), abs=1e-14)
