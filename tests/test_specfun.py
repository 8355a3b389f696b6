"""Special-function kernel tests against independent oracles."""

import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

from cvoodg import coherent_bounds as cb
from cvoodg import specfun


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


class TestLambertW:
    def test_zero(self):
        assert specfun.lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert specfun.lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)

    def test_omega_constant(self):
        # W(1) against the 30-digit Halley oracle.
        assert specfun.lambert_w0(1.0) == pytest.approx(halley_w_oracle(1.0), rel=1e-13)

    @pytest.mark.parametrize("exponent", range(-6, 7))
    def test_round_trip_log_grid(self, exponent):
        x = 10.0**exponent
        w = specfun.lambert_w0(x)
        assert abs(w * math.exp(w) - x) / x <= 1e-10

    def test_near_branch_point(self):
        x = -math.exp(-1.0) + 1e-9
        w = specfun.lambert_w0(x)
        assert w >= -1.0
        assert w * math.exp(w) == pytest.approx(x, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(specfun.DomainError):
            specfun.lambert_w0(-1.0)

    def test_from_log_matches_direct(self):
        ln_x = 5.0
        assert specfun.lambert_w0_from_log(ln_x) == pytest.approx(
            specfun.lambert_w0(math.exp(ln_x)), rel=1e-13
        )
        # Below 0 the argument exp(ln_x) is a plain double: the same bits.
        assert specfun.lambert_w0_from_log(-3.0) == specfun.lambert_w0(math.exp(-3.0))

    def test_from_log_huge_argument(self):
        # w + log(w) must reproduce ln_x even where exp(ln_x) overflows.
        ln_x = 5000.0
        w = specfun.lambert_w0_from_log(ln_x)
        assert w + math.log(w) == pytest.approx(ln_x, rel=1e-14)


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

    @pytest.mark.parametrize("n", range(8))
    def test_array_call_equals_the_float_calls(self, n):
        x = np.array([[0.0, 0.25, 1.5], [7.0, 12.5, 40.0]])
        for a in (0.0, 1.0, 3.0, 2.5):
            values = specfun.laguerre(n, a, x)
            assert values.shape == x.shape
            assert values.tolist() == [[specfun.laguerre(n, a, float(v)) for v in row] for row in x]
        assert type(specfun.laguerre(n, 1.0, 0.5)) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_argument_rejected(self, bad):
        with pytest.raises(specfun.DomainError, match="argument"):
            specfun.laguerre(2, 0.0, bad)
        with pytest.raises(specfun.DomainError, match="argument"):
            specfun.laguerre(2, 0.0, np.array([0.5, bad]))
        with pytest.raises(specfun.DomainError, match="order"):
            specfun.laguerre(2, bad, np.array([0.5]))


class TestIncompleteGamma:
    """The upper incomplete gamma of the Delta-bracket: Gamma(a) Q(a, x) with
    log Q from coherent_bounds._log_gamma_q (closed forms at half-integer a)."""

    @staticmethod
    def gamma_upper_log(a, x):
        return math.lgamma(a) + float(cb._log_gamma_q(a, x))

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

    def test_domain_errors(self):
        # Outside a > 0, x >= 0 the result is NaN, never a usable number.
        assert math.isnan(cb._log_gamma_q(-1.0, 1.0))
        assert math.isnan(cb._log_gamma_q(1.0, -0.5))


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
        got = cb._log_gamma_q(Q_ORDERS, x)
        with mpmath.workdps(40):
            for a, value in zip(Q_ORDERS, got):
                exact = float(mpmath.log(mpmath.gammainc(a, x, regularized=True)))
                rel = 1e-13 if a <= 200.5 else 1e-12
                assert abs(value - exact) <= rel * max(1.0, abs(exact)), (a, x)

    def test_mass_table_ladder_gives_the_same_values(self):
        # The Delta-bracket reads the ladder through the mass table's own
        # log Gamma values.
        table = cb.FockMassTable(60)
        for x in (0.7, 30.0, 2e3):
            assert np.array_equal(cb._log_q_ladder(x, table.log_q_base)[1:],
                                  cb._log_gamma_q(table.gamma_order, x))

    def test_zero_x(self):
        assert np.array_equal(cb._log_gamma_q(Q_ORDERS, 0.0), np.zeros(len(Q_ORDERS)))

    @pytest.mark.parametrize("x", [1e17, 1e18, 1e300])
    def test_huge_x_stays_finite(self, x):
        # From x = 15 * 2^54 (about 2.7e17) on, (nu - x) / x rounds to -1 at
        # the smallest saddle-point orders (at 1e18 only at some of them),
        # and log1p of it would be -inf.
        got = cb._log_gamma_q(Q_ORDERS, x)
        with mpmath.workdps(40):
            for a, value in zip(Q_ORDERS, got):
                exact = float(mpmath.log(mpmath.gammainc(a, x, regularized=True)))
                assert value == pytest.approx(exact, rel=1e-15), a

    def test_infinite_x_is_the_limit(self):
        assert np.array_equal(cb._log_gamma_q(Q_ORDERS, math.inf),
                              np.full(len(Q_ORDERS), -math.inf))

    @pytest.mark.parametrize("a", [0.0, -0.5, -1.0, -7.0])
    def test_nan_for_non_positive_order(self, a):
        assert math.isnan(cb._log_gamma_q(a, 1.0))
        values = cb._log_gamma_q([a, 1.5], 1.0)
        assert math.isnan(values[0]) and not math.isnan(values[1])

    def test_nan_for_negative_x(self):
        assert np.isnan(cb._log_gamma_q(Q_ORDERS, -1e-3)).all()

    def test_rejects_orders_off_the_half_integers(self):
        with pytest.raises(ValueError):
            cb._log_gamma_q(1.3, 1.0)


class TestLogFactorialPochhammer:
    @pytest.mark.parametrize("n", range(21))
    def test_exact_against_integers(self, n):
        assert specfun.log_factorial(n) == pytest.approx(
            math.log(math.factorial(n)) if n else 0.0, rel=1e-13, abs=1e-13
        )

    def test_monotone(self):
        values = [specfun.log_factorial(n) for n in range(40)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_every_kernel_function_is_used_by_the_package():
    # The kernel holds only what the package calls. DomainError is exempt:
    # it is raised by the kernel, and callers catch it as a ValueError.
    package = Path(specfun.__file__).parent
    others = "\n".join(
        path.read_text(encoding="utf-8")
        for path in package.glob("*.py")
        if path.name != "specfun.py"
    )
    unused = [
        name
        for name in specfun.__all__
        if name != "DomainError"
        and not re.search(rf"\b{name}\b", others)
    ]
    assert unused == []
