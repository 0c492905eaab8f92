import math
import random

import mpmath
import pytest

from ararps.ara import (
    AraSeries,
    ara_monomial,
    ara_numeric,
    from_ara,
    to_ara,
    verify_property,
)
from ararps.fpseries import FracSeries, series_eval
from ararps.hypalg import HypExpr
from ararps.special import gamma
from strategies import ALPHAS, random_series

S_GRID = (10.0, 20.0, 40.0, 80.0)


class TestSeriesMaps:
    def test_coefficient_scaling(self):
        s = FracSeries(0.5, (HypExpr.const(2.0), HypExpr.const(4.0)))
        a = to_ara(s)
        assert a.coeffs[0] == HypExpr.const(2.0)  # (0*alpha+1) = 1
        assert a.coeffs[1] == HypExpr.const(6.0)  # (alpha+1) = 1.5

    def test_round_trip_exact(self):
        rng = random.Random(7)
        for alpha in ALPHAS:
            s = random_series(rng, alpha, 6)
            back = from_ara(to_ara(s))
            for c1, c2 in zip(s.coeffs, back.coeffs):
                for (k1, f1, v1), (k2, f2, v2) in zip(c1.terms, c2.terms):
                    assert (k1, f1) == (k2, f2)
                    assert v2 == pytest.approx(v1, rel=1e-15)

    def test_transform_of_series_matches_quadrature(self):
        # the formal image evaluated at moderate s equals the numeric transform
        alpha, x = 0.5, 0.4
        s = random_series(random.Random(8), alpha, 4)
        img = to_ara(s)
        f = lambda t: series_eval(s, x, t)
        for s0 in (5.0, 8.0):
            assert img.eval_order2(x, s0) == pytest.approx(
                ara_numeric(f, 2, s0), rel=1e-8
            )

    def test_image_at_extreme_s(self):
        # the order-one term underflows to 0 at s = 1e300 and overflows, named, at 1e-300
        img = AraSeries(0.5, (HypExpr.const(1.0), HypExpr.cosh(1.0)))
        assert img.eval_order2(0.0, 1e300) == 1e-300
        with pytest.raises(OverflowError, match="s=1e-300"):
            img.eval_order2(0.0, 1e-300)


class TestNumericTransform:
    def test_monomial_closed_form(self):
        for p in (0.0, 0.5, 1.0, 1.5, 2.0):
            for n in (1, 2):
                for s in (1.0, 2.0, 5.0, 10.0):
                    ref = ara_monomial(p, n, s)
                    got = ara_numeric(lambda t: t ** p, n, s)
                    assert got == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("p,n,s", [(2.0, 2, 1000.0), (0.5, 1, 1e-303)])
    def test_monomial_at_extreme_s(self, p, n, s):
        # the integrand in u = s*t has the same scale at every s
        got = ara_numeric(lambda t: t ** p, n, s)
        assert got == pytest.approx(ara_monomial(p, n, s), rel=1e-12, abs=0.0)

    def test_integrand_past_double_range_named(self):
        # f(u/s) = inf at s = 5e-324: no finite value, and s is named
        with pytest.raises(OverflowError, match="s=5e-324"):
            ara_numeric(lambda t: t ** 0.5, 1, 5e-324)

    def test_overflow_in_f_named(self):
        # (u/s)**2 raises OverflowError inside f at s = 1e-310; s is named, not f's errno text
        with pytest.raises(OverflowError, match="s=1e-310"):
            ara_numeric(lambda t: t ** 2, 2, 1e-310)

    @pytest.mark.parametrize("p,n,s", [(2.0, 2, 5e-324), (2.0, 1, 1e-300)])
    def test_closed_form_past_double_range_named(self, p, n, s):
        with pytest.raises(OverflowError, match=f"s={s!r}"):
            ara_monomial(p, n, s)

    def test_closed_form_at_extreme_s(self):
        # s^(-k) is one power: it underflows to 0, and keeps s where 1/s itself overflows
        assert ara_monomial(2.5, 2, 1e300) == 0.0
        want = float(mpmath.gamma(1.5) / mpmath.sqrt(mpmath.mpf(5e-324)))
        assert ara_monomial(0.5, 1, 5e-324) == pytest.approx(want, rel=1e-15)

    def test_finite_value_where_one_over_s_overflows(self):
        # G_2[c](s) = c / s; 1/s is inf below s = 2^-1024, c / s is not
        assert ara_numeric(lambda t: 1e-20, 2, 1e-310) == pytest.approx(1e290, rel=1e-14)

    @pytest.mark.parametrize("c", [1e-12, 1e-20])
    @pytest.mark.parametrize("n", [1, 2])
    def test_small_f_keeps_relative_accuracy(self, c, n):
        # G_n[c](1) = c: the quadrature's tolerance is relative only
        assert ara_numeric(lambda t: c, n, 1.0) == pytest.approx(c, rel=1e-14, abs=0.0)

    def test_transform_that_cancels_to_zero(self):
        # G_1[1 - t](1) = 0 exactly: it ends on the floor of a few ulps of the
        # absolute mass, in no more integrand calls than G_1[1 + t](1) = 2
        calls = []
        counted = lambda f: lambda t: calls.append(t) or f(t)
        assert abs(ara_numeric(counted(lambda t: 1.0 - t), 1, 1.0)) <= 1e-15
        zero_calls = len(calls)
        calls.clear()
        assert ara_numeric(counted(lambda t: 1.0 + t), 1, 1.0) == pytest.approx(2.0, rel=1e-14)
        assert zero_calls <= len(calls)

    def test_order_one_of_constant(self):
        # G_1[1] = 1 for every s
        for s in (0.5, 3.0, 50.0):
            assert ara_numeric(lambda t: 1.0, 1, s) == pytest.approx(1.0, rel=1e-10)

    def test_exponential(self):
        # G_2[e^t](s) = s/(s-1)^2
        s = 4.0
        assert ara_numeric(math.exp, 2, s) == pytest.approx(
            s / (s - 1.0) ** 2, rel=1e-9
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ara_numeric(math.exp, 3, 1.0)
        with pytest.raises(ValueError):
            ara_numeric(math.exp, 1, 0.0)
        with pytest.raises(ValueError):
            ara_monomial(-1.0, 1, 1.0)


class TestProperties:
    def test_linearity(self):
        rep = verify_property(1, lambda t: t * t, S_GRID, g=math.exp)
        assert rep.max_discrepancy < 1e-8

    def test_initial_value_limits(self):
        f = lambda t: math.exp(-t) + t
        assert verify_property(2, f, S_GRID).max_discrepancy < 1e-4
        assert verify_property(7, f, S_GRID).max_discrepancy < 1e-4

    def test_derivative_order_one(self):
        alpha = 0.5
        d = gamma(1.5)  # D^0.5 t^0.5 = Gamma(1.5)
        rep = verify_property(
            3, lambda t: t ** 0.5, S_GRID, alpha=alpha, dalpha_f=lambda t: d
        )
        assert rep.max_discrepancy < 1e-8

    def test_derivative_order_two(self):
        alpha = 0.5
        d = gamma(1.5)
        rep = verify_property(
            5, lambda t: t ** 0.5, S_GRID, alpha=alpha, dalpha_f=lambda t: d
        )
        assert rep.max_discrepancy < 1e-8

    def test_second_derivative_identity(self):
        # f = t^(2 alpha): D^alpha f = Gamma(2a+1)/Gamma(a+1) t^a, D^2a f = Gamma(2a+1)
        alpha = 0.5
        c = gamma(2 * alpha + 1.0) / gamma(alpha + 1.0)
        rep = verify_property(
            6,
            lambda t: t ** (2 * alpha),
            S_GRID,
            alpha=alpha,
            dalpha_f=lambda t: c * t ** alpha,
            d2alpha_f=lambda t: gamma(2 * alpha + 1.0),
            dalpha_f0=0.0,
        )
        assert rep.max_discrepancy < 1e-6

    def test_second_derivative_identity_default_initial_derivative(self):
        # f = t^alpha: D^alpha f = Gamma(alpha+1) everywhere, so dalpha_f(1e-12) is the
        # exact D^alpha f(0+) and the b0 term of the identity is nonzero
        alpha = 0.5
        kw = dict(alpha=alpha, dalpha_f=lambda t: gamma(alpha + 1.0), d2alpha_f=lambda t: 0.0)
        rep = verify_property(6, lambda t: t ** alpha, S_GRID, **kw)
        assert rep.max_discrepancy < 1e-8
        assert rep == verify_property(6, lambda t: t ** alpha, S_GRID, dalpha_f0=gamma(1.5), **kw)
        assert verify_property(6, lambda t: t ** alpha, S_GRID, dalpha_f0=0.0, **kw).max_discrepancy > 0.1

    def test_monomial_property(self):
        rep = verify_property(4, lambda t: t, S_GRID, alpha=0.7)
        assert rep.max_discrepancy < 1e-8

    def test_closed_form_derivatives_required(self):
        with pytest.raises(ValueError):
            verify_property(3, math.exp, S_GRID)
        with pytest.raises(ValueError):
            verify_property(6, math.exp, S_GRID, dalpha_f=math.exp)

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            verify_property(9, math.exp, S_GRID)
