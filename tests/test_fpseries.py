import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import round_down, to_float

from ararps import fpseries
from ararps.bench import REFERENCE_T, REFERENCE_X
from ararps.fpseries import (
    FracSeries,
    conv_weight,
    mul_coeff,
    series_caputo,
    series_eval,
    series_grid,
    series_mul,
    series_pow,
    series_spatial_diff,
)
from ararps.hypalg import HypExpr, Kind
from ararps.solver import builtin_example, solve, with_alpha
from ararps.special import _gamma40, gamma
from strategies import ALPHAS, full_lattice_exprs, hex_terms, random_series


_normal_coeff = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-100)
_raw_term = st.tuples(st.just(Kind.CONST), st.just(0.0), _normal_coeff) | st.tuples(
    st.sampled_from([Kind.COSH, Kind.SINH]),
    st.sampled_from([0.4, 0.8, 1.2, 0.4 * math.sqrt(2.0)]) | st.floats(0.1, 3.0),
    _normal_coeff,
)


def _reference(s, x, t):
    """Sum_n c_n(x) t^(n*alpha) / Gamma(n*alpha+1) at 30 digits from the stored
    double terms, and the sum of the terms' absolute values."""
    phi = {Kind.CONST: lambda z: 1, Kind.COSH: mpmath.cosh, Kind.SINH: mpmath.sinh}
    with mpmath.workdps(30):
        terms = []
        for n, c in enumerate(s.coeffs):
            p = n * mpmath.mpf(s.alpha)
            w = mpmath.mpf(t) ** p * mpmath.rgamma(p + 1)
            terms += [v * phi[k](mpmath.mpf(f) * x) * w for k, f, v in c.terms]
        return float(mpmath.fsum(terms)), float(mpmath.fsum(map(abs, terms)))


def _square(coeff):
    s = FracSeries(0.5, (coeff,))
    return series_mul(s, s)


class TestConvWeight:
    def test_classical_is_binomial(self):
        # the exact ratio of exact factorials at alpha = 1, rounded once: a binomial that
        # ties between two doubles, as C(57, 25) = 9929472283517787 does, rounds to even
        for n in range(171):
            for m in range(n + 1):
                assert conv_weight(1.0, m, n - m) == float(math.comb(n, m))

    def test_tiny_alpha_is_not_classical(self):
        # Gamma ratios near 1 at alpha = 1e-13, not the alpha = 1 binomial 35
        assert conv_weight(1e-13, 3, 4) == pytest.approx(1.0, abs=1e-12)
        c3 = [solve(with_alpha(builtin_example(4), a), 4).series.coeffs[3] for a in (1e-13, 2e-12)]
        assert c3[0].terms[0][:2] == c3[1].terms[0][:2]
        assert c3[0](0.0) == pytest.approx(c3[1](0.0), rel=1e-9)

    def test_symmetry(self):
        for alpha in (0.25, 0.6, 0.9):
            assert conv_weight(alpha, 2, 5) == conv_weight(alpha, 5, 2)

    def test_against_gamma_definition(self):
        for alpha in (0.3, 0.5, 0.75):
            for m in range(5):
                for j in range(5):
                    ref = gamma((m + j) * alpha + 1.0) / (
                        gamma(m * alpha + 1.0) * gamma(j * alpha + 1.0)
                    )
                    assert conv_weight(alpha, m, j) == pytest.approx(ref, rel=1e-14)

    def test_edge_cases(self):
        assert conv_weight(0.5, 0, 0) == 1.0
        assert conv_weight(0.5, 0, 7) == 1.0

    def test_rounded_to_nearest_like_mpf(self):
        # the same double as mpf arithmetic under workdps(60) gives on the cached
        # Gamma values, each converted explicitly from its Fraction; rounding the
        # ratio towards zero instead changes some of these weights
        truncated = 0
        for alpha in (0.25, 0.5, 0.75):
            for m in range(25):
                for j in range(25 - m):
                    with mpmath.workdps(60):
                        g = lambda k: mpmath.mpf(_gamma40(k * alpha + 1.0)[0].numerator) / _gamma40(k * alpha + 1.0)[0].denominator
                        ratio = g(m + j) / (g(m) * g(j))
                    assert conv_weight(alpha, m, j) == float(ratio)
                    truncated += to_float(ratio._mpf_, rnd=round_down) != float(ratio)
        assert truncated > 0


class TestFracSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            FracSeries(1.5, (HypExpr.const(1.0),))
        with pytest.raises(ValueError):
            FracSeries(0.5, ())

    def test_order(self):
        s = FracSeries.zero(0.5, 4)
        assert s.order == 4

    def test_truncate(self):
        s = FracSeries.constant(0.5, 2.0, 5)
        assert s.truncate(2).order == 2
        assert s.truncate(10) is s

    def test_add_truncates_to_min_order(self):
        s1 = FracSeries.constant(0.5, 1.0, 5)
        s2 = FracSeries.constant(0.5, 2.0, 3)
        assert (s1 + s2).order == 3
        assert (s1 + s2).coeffs[0] == HypExpr.const(3.0)

    def test_alpha_mismatch(self):
        # alphas are compared exactly: 1e-13 and 9e-13 are different series too
        for a1, a2 in ((0.5, 0.6), (1e-13, 9e-13)):
            s1 = FracSeries.constant(a1, 1.0, 2)
            s2 = FracSeries.constant(a2, 1.0, 2)
            for a, b in ((s1, s2), (s2, s1)):
                for op in (FracSeries.__add__, series_mul):
                    with pytest.raises(ValueError, match="alpha mismatch"):
                        op(a, b)


class TestShifts:
    def test_caputo_is_left_shift(self):
        s = random_series(random.Random(0), 0.5, 4)
        d = series_caputo(s)
        assert d.order == 3
        assert d.coeffs == s.coeffs[1:]

    def test_caputo_rejects_order_zero(self):
        with pytest.raises(ValueError):
            series_caputo(FracSeries.constant(0.5, 1.0, 0))


class TestMul:
    def test_classical_factorial_convolution(self):
        # exp-like series: c_n = 1 for all n at alpha = 1 gives
        # (e^t)^2 = e^(2t), i.e. product coefficients 2^n
        K = 6
        ones = FracSeries(1.0, (HypExpr.const(1.0),) * (K + 1))
        prod = series_mul(ones, ones)
        for n, c in enumerate(prod.coeffs):
            assert c == HypExpr.const(float(2 ** n))

    def test_truncation_to_min_order(self):
        s1 = FracSeries.constant(0.5, 1.0, 5)
        s2 = FracSeries.constant(0.5, 1.0, 2)
        assert series_mul(s1, s2).order == 2

    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.lists(st.lists(_raw_term, max_size=4), min_size=1, max_size=7))
    def test_square_is_bitwise_the_general_product(self, coeffs):
        # a square takes each pair once at weight 2; doubling is
        # exact away from subnormal contributions, which the coefficients avoid
        a = [HypExpr.of(terms) for terms in coeffs]
        for n in range(len(a)):
            assert hex_terms(mul_coeff(a, a, n).terms) == hex_terms(mul_coeff(a, list(a), n).terms)

    def test_mul_commutes(self):
        # bitwise: the contributions are the same doubles and fsum ignores their order
        rng = random.Random(3)
        for _ in range(200):
            s1 = random_series(rng, 0.6, 4)
            s2 = random_series(rng, 0.6, 4)
            p1, p2 = series_mul(s1, s2), series_mul(s2, s1)
            assert [c.terms for c in p1.coeffs] == [c.terms for c in p2.coeffs]

    @settings(max_examples=40, deadline=None)
    @given(g=st.floats(0.05, 1.5), data=st.data())
    def test_dense_products_commute_and_square_bitwise(self, g, data):
        # every multiple k*g up to 8 of both kinds and a constant: the dense kernel's size
        # rule takes these; a and b alike, so a * b and b * a take the same path
        a = data.draw(st.lists(full_lattice_exprs(g), min_size=1, max_size=4))
        b = data.draw(st.lists(full_lattice_exprs(g), min_size=len(a), max_size=len(a)))
        dense = []
        real = fpseries._laurent_products
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fpseries, "_laurent_products", lambda pairs, g: dense.append(g) or real(pairs, g))
            for n in range(len(a)):
                assert hex_terms(mul_coeff(a, b, n).terms) == hex_terms(mul_coeff(b, a, n).terms)
                assert hex_terms(mul_coeff(a, a, n).terms) == hex_terms(mul_coeff(a, list(a), n).terms)
        assert len(dense) == 4 * len(a)

    @pytest.mark.parametrize(
        "overflow",
        [lambda: HypExpr.const(1e308) + HypExpr.const(1e308),
         lambda: _square(HypExpr.cosh(1.0, 1e200) + HypExpr.sinh(1.0, 1e200)),
         lambda: _square(HypExpr.cosh(1.0, 1e200))],
        ids=["add", "cosh-plus-sinh-squared", "cosh-squared"],
    )
    def test_overflowing_coefficient_named(self, overflow):
        # fsum's own "intermediate overflow" and "-inf + inf" errors included
        with pytest.raises(OverflowError, match="is not finite"):
            overflow()

    def test_pointwise_agreement_with_tail_bound(self):
        rng = random.Random(4)
        for _ in range(25):
            alpha = rng.uniform(0.3, 1.0)
            K = rng.randint(1, 4)
            s1 = random_series(rng, alpha, K)
            s2 = random_series(rng, alpha, K)
            pad = (HypExpr.zero(),) * K
            full = series_mul(
                FracSeries(alpha, s1.coeffs + pad), FracSeries(alpha, s2.coeffs + pad)
            )
            trunc = series_mul(s1, s2)
            # truncated product must be the head of the full product
            for a, b in zip(trunc.coeffs, full.coeffs):
                assert a(0.5) == pytest.approx(b(0.5), rel=1e-11, abs=1e-11)
            x, t = rng.uniform(-1, 1), rng.uniform(0, 0.1)
            pointwise = series_eval(s1, x, t) * series_eval(s2, x, t)
            tail = sum(
                abs(full.coeffs[m](x)) * t ** (m * alpha) / gamma(m * alpha + 1.0)
                for m in range(K + 1, 2 * K + 1)
            )
            assert abs(pointwise - series_eval(trunc, x, t)) <= 1.01 * tail + 1e-11

    def test_pow(self):
        s = FracSeries(1.0, (HypExpr.const(1.0),) * 4)
        cube = series_pow(s, 3)
        for n, c in enumerate(cube.coeffs):
            assert c == HypExpr.const(float(3 ** n))
        with pytest.raises(ValueError):
            series_pow(s, 1)


class TestSpatialDiffAndEval:
    def test_diff_termwise(self):
        s = FracSeries(0.5, (HypExpr.cosh(2.0), HypExpr.sinh(1.0)))
        d = series_spatial_diff(s, 1)
        assert d.coeffs[0] == HypExpr.sinh(2.0, 2.0)
        assert d.coeffs[1] == HypExpr.cosh(1.0)

    def test_eval_classical_exponential(self):
        K = 30
        ones = FracSeries(1.0, (HypExpr.const(1.0),) * (K + 1))
        assert series_eval(ones, 0.0, 0.5) == pytest.approx(math.exp(0.5), rel=1e-14)

    def test_eval_at_t0_is_ic(self):
        s = random_series(random.Random(5), 0.4, 5)
        assert series_eval(s, 0.3, 0.0) == pytest.approx(s.coeffs[0](0.3), rel=1e-15)

    def test_eval_rejects_negative_t(self):
        with pytest.raises(ValueError):
            series_eval(FracSeries.constant(0.5, 1.0, 1), 0.0, -0.1)


class TestGrid:
    @pytest.mark.parametrize("example_id", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_grid_equals_pointwise(self, example_id, alpha):
        s = solve(with_alpha(builtin_example(example_id), alpha), 24).series
        xs, ts = [-3.0, 0.0, 0.7, 5.0], [0.0, 1e-3, 0.5, 2.0]
        grid = series_grid(s, xs, ts)
        assert grid == [[series_eval(s, x, t) for t in ts] for x in xs]

    def test_negative_t_anywhere_rejected(self):
        s = FracSeries.constant(0.5, 1.0, 2)
        nan, inf = math.nan, math.inf
        for xs, ts in (([0.0, 1.0], [-0.1]), ([0.0, 1.0], [0.0, 0.5, -1e-300]),
                       ([0.0, 1.0], [-2.0, 1.0]), ([0.0, 1.0], [0.5, nan]),
                       ([0.0, 1.0], [inf]), ([0.0, 1.0], [-inf, 1.0]),
                       ([0.0, nan], [0.5]), ([inf, 1.0], [0.5]), ([-inf], [0.0])):
            with pytest.raises(ValueError):
                series_grid(s, xs, ts)

    @pytest.mark.parametrize("x,t", [(2000.0, 1e11), (2100.0, 1e5), (3000.0, 1.0)],
                             ids=["inf", "inf-minus-inf", "cosh-overflow"])
    def test_point_past_the_double_range_named(self, x, t):
        # a value (1.2e310 at the first), a sum or a basis function that leaves the
        # doubles: one error naming the point
        s = solve(builtin_example(4), 2).series
        with pytest.raises(OverflowError, match=f"x={x!r}, t={t!r} is not finite"):
            series_grid(s, [0.0, x], [t])

    def test_point_near_the_double_range_finite(self):
        # c_2(x) * t^2 alone is 2.3e308, but the value is 1.1519e308
        s = solve(builtin_example(4), 2).series
        want, _ = _reference(s, 2000.0, 1e10)
        got = series_eval(s, 2000.0, 1e10)
        assert abs(got - want) <= 1e-14 * abs(want)
        assert 1.15e308 < got < 1.16e308

    def test_overflowing_basis_function_without_weight_ignored(self):
        # c_8's cosh(20.4x) overflows at x = 300, but at t = 0 its weight is 0:
        # the value is c_0(300) = 6.1e155, not 0 * inf
        from test_solver import _generic_spec

        s = solve(_generic_spec(), 8).series
        assert series_eval(s, 300.0, 0.0) == pytest.approx(s.coeffs[0](300.0), rel=1e-15)
        with pytest.raises(OverflowError, match="x=300.0, t=0.5 is not finite"):
            series_grid(s, [300.0], [0.0, 0.5])

    @pytest.mark.parametrize("example_id", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_grid_matches_mpmath_sum_of_terms(self, example_id, alpha):
        # table grid and surface points against 30 digits, within 8 ulps of sum |terms|
        s = solve(with_alpha(builtin_example(example_id), alpha), 24).series
        for xs, ts in ((REFERENCE_X, REFERENCE_T), ((-1.0, -0.3, 0.5, 1.0), (0.0, 0.05, 0.5, 1.0))):
            for x, row in zip(xs, series_grid(s, xs, ts)):
                for t, got in zip(ts, row):
                    want, size = _reference(s, x, t)
                    assert abs(got - want) <= 8 * 2.0 ** -53 * size, (x, t)

    def test_empty_axes(self):
        s = FracSeries.constant(0.5, 1.0, 2)
        assert series_grid(s, [], [0.0, 1.0]) == []
        assert series_grid(s, [0.0, 1.0], []) == [[], []]
