"""Special-function kernel tests against independent oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from cvoodg import coherent_bounds as cb
from cvoodg import oracle, specfun
from test_coherent_bounds import full_grid_table


def halley_w_oracle(x: float, dps: int = 30) -> float:
    """Independent Lambert W oracle: Halley iteration at 30-digit precision."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        w = mpmath.mpf(0.5) if x < 10 else mpmath.log(xm)
        for _ in range(200):
            ew = mpmath.exp(w)
            f = w * ew - xm
            step = f / (ew * (w + 1) - (w + 2) * f / (2 * w + 2))
            w -= step
            if abs(step) < mpmath.mpf(10) ** (-dps + 2):
                break
        return float(w)


def lambert_w0_via_kernel(a: float, log_z: float) -> float:
    """W0(z) = a e^x, where (1 + a/2) x = log_lambert_ratio(a/2, log y) and
    z = a e^a y: the kernel solves the Lambert equation in log coordinates.
    a is chosen with a e^a >= z, so that y <= 1."""
    v = specfun.log_lambert_ratio(a / 2.0, log_z - math.log(a) - a)
    return a * math.exp(v / (1.0 + a / 2.0))


class TestLambertW:
    """W0 through log_lambert_ratio, which returns the log of W0(a e^a y)/a."""

    def test_zero(self):
        # y = 1: W0(a e^a) = a, so the log of the ratio is exactly 0.
        for tau_sq in (1e-300, 0.5, 1.0, 2.0, 1e300):
            assert specfun.log_lambert_ratio(tau_sq, 0.0) == 0.0

    def test_at_e(self):
        assert lambert_w0_via_kernel(2.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_omega_constant(self):
        # W(1) against the 30-digit Halley oracle.
        assert lambert_w0_via_kernel(1.0, 0.0) == pytest.approx(halley_w_oracle(1.0), rel=1e-13)

    @pytest.mark.parametrize("exponent", range(-6, 7))
    def test_round_trip_log_grid(self, exponent):
        x = 10.0**exponent
        a = 1.0 + max(0.0, math.log(x))
        w = lambert_w0_via_kernel(a, math.log(x))
        assert abs(w * math.exp(w) - x) / x <= 1e-10

    def test_domain_error(self):
        for tau_sq, log_y in ((1.0, 1e-3), (1.0, math.nan), (1.0, -math.inf),
                              (0.0, -1.0), (math.inf, -1.0)):
            with pytest.raises(specfun.DomainError):
                specfun.log_lambert_ratio(tau_sq, log_y)

    def test_from_log_matches_direct(self):
        # The same W0(e^5) from two scalings a of its argument.
        assert lambert_w0_via_kernel(6.0, 5.0) == pytest.approx(
            lambert_w0_via_kernel(40.0, 5.0), rel=1e-13
        )

    def test_from_log_huge_argument(self):
        # w + log(w) must reproduce ln_x even where exp(ln_x) overflows.
        ln_x = 5000.0
        w = lambert_w0_via_kernel(ln_x, ln_x)
        assert w + math.log(w) == pytest.approx(ln_x, rel=1e-14)


def log_lambert_ratio_reference(tau, y):
    """log(W0(2 tau^2 e^{2 tau^2} y) / (2 tau^2)) as an mpf from mpmath's W0,
    at 120 digits plus the 2 log10(tau) that the ratio cancels. y is a float,
    or a function that builds it at that precision."""
    with mpmath.workdps(120 + max(0, math.ceil(2 * math.log10(tau)))):
        a = 2 * mpmath.mpf(tau) ** 2
        y = y() if callable(y) else mpmath.mpf(y)
        return +mpmath.log(mpmath.lambertw(a * mpmath.exp(a) * y).real / a)


#: eps0 from 1e-12 to 1.99, and tau from 1e-3 to 1e150, where x = log c is
#: far below the normal floats.
SQUEEZING_EPS0 = (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 1.5, 1.9, 1.99)
SQUEEZING_TAUS = (1e-3, 0.1, 0.5, 1.0, 3.0, 1e3, 1e5, 1e9, 1e20, 1e50, 1e100, 1e150)


class TestLogLambertRatio:
    """The kernel and its two squeezing uses against mpmath's W0."""

    @pytest.mark.parametrize("eps0", SQUEEZING_EPS0)
    def test_root_matches_the_reference(self, eps0):
        for tau in SQUEEZING_TAUS:
            tau_sq = tau * tau
            v = specfun.log_lambert_ratio(tau_sq, math.log1p(-eps0 / 2.0))
            exact = log_lambert_ratio_reference(tau, lambda: 1 - mpmath.mpf(eps0) / 2)
            exact *= 1 + mpmath.mpf(tau_sq)
            assert abs(v - exact) <= 1e-13 * abs(exact), tau

    @pytest.mark.parametrize("eps0", SQUEEZING_EPS0)
    def test_squeezing_curve_matches_the_reference(self, eps0):
        # 2 sqrt(1 - c exp(2 nbar (c - 1))), with 1 - c e^z = -expm1(log c + z)
        # so that the reference does not cancel either.
        for tau in SQUEEZING_TAUS:
            curve = cb.squeezing_bound(cb.InDistributionGuarantee(eps0, tau))
            log_c = log_lambert_ratio_reference(tau, lambda: 1 - mpmath.mpf(eps0) / 2)
            for nbar in (0.0, tau * tau, 10.0 * tau * tau):
                with mpmath.workdps(40):
                    z = log_c + 2 * mpmath.mpf(nbar) * mpmath.expm1(log_c)
                    exact = 2 * mpmath.sqrt(-mpmath.expm1(z))
                assert abs(curve(nbar) - exact) <= 1e-11 * exact, (tau, nbar)

    @pytest.mark.parametrize("eps0", SQUEEZING_EPS0)
    def test_oracle_gap_matches_the_reference(self, eps0):
        # zeta = log((1 + sqrt(1 - c^2)) / c) at f2 = 1 - (eps0/2)^2 (worst
        # case) and f2 = 1 - eps0/2 (witness), taken at 40 digits. The oracle
        # passes log f2 = log1p(-...), so no gap rounds to 0.
        saturating_gap = oracle.CHANNEL_CLASSES["squeezing"].saturating_gap
        cases = (
            (math.log1p(-(eps0 / 2.0) ** 2), lambda: 1 - (mpmath.mpf(eps0) / 2) ** 2),
            (math.log1p(-eps0 / 2.0), lambda: 1 - mpmath.mpf(eps0) / 2),
        )
        for tau in SQUEEZING_TAUS:
            for log_f2, f2 in cases:
                gap = saturating_gap(tau, log_f2)
                log_c = log_lambert_ratio_reference(tau, f2)
                with mpmath.workdps(40):
                    exact = -log_c + mpmath.log1p(mpmath.sqrt(-mpmath.expm1(2 * log_c)))
                assert abs(gap - exact) <= 1e-11 * exact, (tau, log_f2)

    @pytest.mark.parametrize("tau", [9.5e153, 1.3e154])
    def test_finite_where_two_tau_squared_overflows(self, tau):
        g = cb.InDistributionGuarantee(0.1, tau)
        assert math.isinf(2.0 * tau * tau)
        v = specfun.log_lambert_ratio(tau * tau, math.log1p(-0.05))
        assert v == pytest.approx(math.log1p(-0.05) / 2.0, rel=1e-15)
        assert 0.0 < cb.squeezing_bound(g)(0.0) < 1e-150
        gap = oracle.CHANNEL_CLASSES["squeezing"].saturating_gap(tau, math.log1p(-0.05**2))
        assert 0.0 < gap < 1e-150

    @pytest.mark.parametrize("w", [-3.0, -1e-3, -1e-300, 0.0])
    @pytest.mark.parametrize("scale", [1.0, 7.5, 1e200, 1.7e308])
    def test_sqrt_one_minus_exp(self, w, scale):
        with mpmath.workdps(60):
            exact = mpmath.sqrt(-mpmath.expm1(mpmath.mpf(w) / mpmath.mpf(scale)))
        got = specfun.sqrt_one_minus_exp(w, scale)
        assert math.copysign(1.0, got) == 1.0
        assert abs(got - exact) <= 4e-16 * exact


def laguerre_coefficient_oracle(n: int, a: int, x: Fraction) -> Fraction:
    """Explicit-coefficient evaluation in exact rational arithmetic."""
    total = Fraction(0)
    for k in range(n + 1):
        binom = Fraction(math.comb(n + a, n - k))
        total += (-1) ** k * binom * x**k / Fraction(math.factorial(k))
    return total


class TestLaguerre:
    def test_degree_zero(self):
        assert specfun.laguerre(0, 3.7, 11.0) == 1.0

    def test_degree_one(self):
        assert specfun.laguerre(1, 0.0, 0.25) == pytest.approx(0.75, rel=1e-15)

    def test_explicit_quadratic(self):
        # L_2(1) = 1 - 2 + 1/2 = -1/2.
        assert specfun.laguerre(2, 0.0, 1.0) == pytest.approx(-0.5, rel=1e-14)

    @pytest.mark.parametrize("n", range(11))
    @pytest.mark.parametrize("a", [0, 1, 3])
    def test_recurrence_matches_coefficients(self, n, a):
        for x in (Fraction(1, 4), Fraction(3, 2), Fraction(7), Fraction(25, 2)):
            exact = laguerre_coefficient_oracle(n, a, x)
            got = specfun.laguerre(n, float(a), float(x))
            if exact == 0:
                assert abs(got) < 1e-10
            else:
                assert abs(got - float(exact)) / abs(float(exact)) <= 1e-10

    def test_negative_degree_rejected(self):
        with pytest.raises(specfun.DomainError):
            specfun.laguerre(-1, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_argument_rejected(self, bad):
        with pytest.raises(specfun.DomainError, match="argument"):
            specfun.laguerre(2, 0.0, bad)
        with pytest.raises(specfun.DomainError, match="order"):
            specfun.laguerre(2, bad, 0.5)


class TestLaguerreRoots:
    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("a", [0, 1, 3])
    def test_each_root_is_a_sign_change(self, n, a):
        # Exact rational values just inside and outside each float root.
        roots = specfun.laguerre_roots(n, float(a))
        assert len(roots) == n and roots == sorted(roots) and roots[0] > 0.0
        for x in roots:
            lo, hi = Fraction(x) * (1 - Fraction(1, 10**13)), Fraction(x) * (1 + Fraction(1, 10**13))
            assert laguerre_coefficient_oracle(n, a, lo) * laguerre_coefficient_oracle(n, a, hi) < 0

    def test_degree_zero_has_no_roots(self):
        assert specfun.laguerre_roots(0, 2.0) == []

    @pytest.mark.parametrize("n, a", [(-1, 0.0), (2.5, 0.0), (3, -1.0), (3, math.nan),
                                      (3, math.inf)])
    def test_bad_arguments_rejected(self, n, a):
        with pytest.raises(specfun.DomainError):
            specfun.laguerre_roots(n, a)


def log_q(orders, x: float):
    """log Q(a, x) at positive half-integer orders a, read off the ladder of
    the Delta-bracket (entry 2a - 1). The ladder takes x > 0, so x = 0 is
    read at x = 1e-300, where Q(a, x) = 1 - O(x^a) rounds to 1."""
    twice = np.rint(2.0 * np.asarray(orders, dtype=float)).astype(int)
    log_gamma = [math.lgamma(1.0 + 0.5 * j) for j in range(int(twice.max()) - 1)]
    return cb._log_q_ladder(max(x, 1e-300), cb._log_q_base(log_gamma))[twice - 1]


class TestIncompleteGamma:
    """The upper incomplete gamma of the Delta-bracket: Gamma(a) Q(a, x) with
    log Q from coherent_bounds._log_q_ladder (closed forms at half-integer a)."""

    @staticmethod
    def gamma_upper_log(a, x):
        return math.lgamma(a) + float(log_q(a, x))

    def gamma_upper(self, a, x):
        return math.exp(self.gamma_upper_log(a, x))

    def test_gamma_one_zero(self):
        assert self.gamma_upper(1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 20.0])
    def test_gamma_one_closed_form(self, x):
        assert self.gamma_upper(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_quadrature_oracle(self):
        # Gamma(2, 1) = 2/e by adaptive quadrature.
        oracle, _ = integrate.quad(lambda t: t * math.exp(-t), 1.0, math.inf)
        assert self.gamma_upper(2.0, 1.0) == pytest.approx(oracle, rel=1e-10)
        assert self.gamma_upper(2.0, 1.0) == pytest.approx(2.0 / math.e, rel=1e-13)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.0, 20.0])
    @pytest.mark.parametrize("x", [0.0, 0.3, 2.0, 9.0, 40.0])
    def test_upper_plus_lower_is_gamma(self, a, x):
        upper = self.gamma_upper(a, x)
        lower = float(mpmath.gammainc(a, 0, x))
        assert upper + lower == pytest.approx(math.exp(math.lgamma(a)), rel=1e-10)

    def test_log_version_matches(self):
        for a, x in ((3.0, 1.0), (40.0, 10.0), (2.0, 60.0)):
            assert self.gamma_upper_log(a, x) == pytest.approx(
                float(mpmath.log(mpmath.gammainc(a, x))), rel=1e-12
            )

    def test_log_version_beyond_overflow(self):
        # Gamma(300, 10) overflows a double; its log must not.
        val = self.gamma_upper_log(300.0, 10.0)
        assert val == pytest.approx(math.lgamma(300.0), rel=1e-12)


# Half-integer orders up to 901 (Delta up to 1800), and x from 1e-8 to 5e7
# with points on both sides of sqrt(x) = 26, where log erfc(sqrt x) switches
# from math.erfc to its asymptotic series.
Q_ORDERS = (0.5, 1.0, 1.5, 2.0, 3.5, 7.0, 15.5, 16.0, 40.5, 99.0, 150.5, 200.5,
            201.0, 333.5, 500.0, 700.5, 899.5, 901.0)
Q_X = (1e-8, 1e-4, 0.02, 0.5, 1.0, 3.3, 14.0, 16.0, 42.0, 99.0, 150.0, 199.0, 350.0,
       675.9, 676.1, 700.0, 900.0, 1500.0, 1e4, 1e6, 5e7)


class TestLogGammaQClosedForms:
    """log Q(a, x) by its half-integer closed forms against 40-digit mpmath."""

    @pytest.mark.parametrize("x", Q_X)
    def test_matches_mpmath(self, x):
        got = log_q(Q_ORDERS, x)
        with mpmath.workdps(40):
            for a, value in zip(Q_ORDERS, got):
                exact = float(mpmath.log(mpmath.gammainc(a, x, regularized=True)))
                rel = 1e-13 if a <= 200.5 else 1e-12
                assert abs(value - exact) <= rel * max(1.0, abs(exact)), (a, x)

    def test_mass_table_ladder_gives_the_same_values(self):
        # The Delta-bracket reads the ladder through the mass table's own
        # log Gamma values.
        table = full_grid_table(60)
        for x in (0.7, 30.0, 2e3):
            assert np.array_equal(cb._log_q_ladder(x, table.log_q_base)[1:],
                                  log_q(table.gamma_order, x))

    @pytest.mark.parametrize("x", [1e17, 1e18, 1e300])
    def test_huge_x_stays_finite(self, x):
        # From x = 15 * 2^54 (about 2.7e17) on, (nu - x) / x rounds to -1 at
        # the smallest saddle-point orders (at 1e18 only at some of them),
        # and log1p of it would be -inf.
        got = log_q(Q_ORDERS, x)
        with mpmath.workdps(40):
            for a, value in zip(Q_ORDERS, got):
                exact = float(mpmath.log(mpmath.gammainc(a, x, regularized=True)))
                assert value == pytest.approx(exact, rel=1e-15), a

    def test_infinite_x_is_the_limit(self):
        assert np.array_equal(log_q(Q_ORDERS, math.inf), np.full(len(Q_ORDERS), -math.inf))


class TestLogFactorialPochhammer:
    @pytest.mark.parametrize("n", range(21))
    def test_exact_against_integers(self, n):
        assert specfun.log_factorial(n) == pytest.approx(
            math.log(math.factorial(n)) if n else 0.0, rel=1e-13, abs=1e-13
        )

    def test_monotone(self):
        values = [specfun.log_factorial(n) for n in range(40)]
        assert all(b >= a for a, b in zip(values, values[1:]))
