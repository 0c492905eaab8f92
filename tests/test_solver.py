import hashlib
import itertools
import json
import math
import operator
import re
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import ararps.solver
from ararps.fpseries import (
    FracSeries,
    mul_coeff,
    series_eval,
    series_mul,
    series_pow,
    series_spatial_diff,
)
from ararps.hypalg import HypExpr, Kind
from ararps.solver import (
    Add,
    Const,
    Dx,
    ExampleParams,
    Mul,
    PdeSpec,
    PowInt,
    Scale,
    Solution,
    SolveResult,
    apply_operator,
    builtin_example,
    exact_solution,
    pde_spec_from_json,
    pde_spec_to_json,
    residual_check,
    residuals,
    solve,
    with_alpha,
)
from ararps.solver import _times
from strategies import (
    ALPHAS,
    WORK_CEILING,
    dx_chain_spec,
    homogeneous_asts,
    ic_rank,
    json_values,
    quarter_terms,
    shared_asts,
    specs,
    term_map,
    work_bound,
)


def _assert_expr(e: HypExpr, expected: HypExpr, tol: float = 1e-12) -> None:
    got, want = term_map(e), term_map(expected)
    assert set(got) == set(want), f"{e} vs {expected}"
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=tol)


class TestAst:
    def test_apply_identity_and_const(self):
        s = FracSeries.constant(0.5, 3.0, 2)
        assert apply_operator(Solution(), s) is s
        out = apply_operator(Const(2.0), s)
        assert out.coeffs[0] == HypExpr.const(2.0)
        assert out.coeffs[1].is_zero()

    def test_apply_composite(self):
        # d^2/dx^2 (y^2) on y = cosh(x) (order 0): 2 cosh^2 + 2 sinh^2 = 2cosh(2x)
        s = FracSeries(1.0, (HypExpr.cosh(1.0),))
        out = apply_operator(Dx(2, PowInt(2, Solution())), s)
        _assert_expr(out.coeffs[0], HypExpr.cosh(2.0, 2.0))

    def test_scale_add(self):
        s = FracSeries(1.0, (HypExpr.cosh(1.0),))
        out = apply_operator(Add((Scale(2.0, Solution()), Scale(-1.0, Solution()))), s)
        _assert_expr(out.coeffs[0], HypExpr.cosh(1.0))

    def test_mul(self):
        s = FracSeries(1.0, (HypExpr.sinh(1.0),))
        out = apply_operator(Mul(Solution(), Solution()), s)
        _assert_expr(
            out.coeffs[0], HypExpr.cosh(2.0, 0.5) + HypExpr.const(-0.5)
        )

    def test_node_validation(self):
        with pytest.raises(ValueError):
            Add(())
        with pytest.raises(ValueError):
            PowInt(1, Solution())
        with pytest.raises(ValueError):
            Dx(0, Solution())
        # the budget: at most 64 for both, and the error names the limit
        assert PowInt(64, Solution()).exponent == Dx(64, Solution()).order == 64
        with pytest.raises(ValueError, match="64"):
            PowInt(65, Solution())
        with pytest.raises(ValueError, match="64"):
            Dx(65, Solution())

    def test_add_terms_given_as_a_list(self):
        # a list of terms becomes a tuple, so the node compares by value
        y = Solution()
        rhs = Add([y, Dx(1, y)])
        assert rhs == Add((y, Dx(1, y)))
        coeffs = solve(PdeSpec(1, 1.0, rhs, HypExpr.cosh(1.0)), 2).series.coeffs
        assert coeffs[2] == HypExpr.cosh(1.0, 2.0) + HypExpr.sinh(1.0, 2.0)


def _taylor_reference(node, a: list) -> list:
    """Whole-list evaluation of the operator on Taylor coefficients a_n."""
    if isinstance(node, Solution):
        return a
    if isinstance(node, Const):
        return [HypExpr.const(node.value)] + [HypExpr()] * (len(a) - 1)
    if isinstance(node, Add):
        acc = _taylor_reference(node.terms[0], a)
        for term in node.terms[1:]:
            acc = list(map(operator.add, acc, _taylor_reference(term, a)))
        return acc
    if isinstance(node, Scale):
        return [e.scale(node.factor) for e in _taylor_reference(node.child, a)]
    if isinstance(node, Mul):
        left, right = _taylor_reference(node.left, a), _taylor_reference(node.right, a)
        return [mul_coeff(left, right, n) for n in range(len(a))]
    if isinstance(node, PowInt):
        acc = base = _taylor_reference(node.child, a)
        for _ in range(node.exponent - 1):
            acc = [mul_coeff(acc, base, n) for n in range(len(a))]
        return acc
    if isinstance(node, Dx):
        return [e.diff(node.order) for e in _taylor_reference(node.child, a)]
    raise ValueError(f"ill-formed operator AST node: {node!r}")


def _apply_reference(node, y: FracSeries) -> FracSeries:
    """Reference: the operator on the whole Taylor list, converted in and out once."""
    if isinstance(node, Solution):
        return y
    a = [_times(c, n * y.alpha + 1.0, 0, True) for n, c in enumerate(y.coeffs)]
    out = _taylor_reference(node, a)
    return FracSeries(y.alpha, tuple(_times(e, n * y.alpha + 1.0, 0, False) for n, e in enumerate(out)))


def _abs_cosh(e: HypExpr) -> HypExpr:
    """|c| cosh(fx) for each term c k(fx): at every x at least |e|, since |sinh| <= cosh."""
    return HypExpr.of([(Kind.CONST if k is Kind.CONST else Kind.COSH, f, abs(c)) for k, f, c in e.terms])


def _taylor_bound(node, a: list) -> list:
    """``_taylor_reference`` on lists of |c| cosh(fx) terms, with |factors|: the product of two
    such terms, (cosh(a+b) + cosh(a-b))/2, is one, and f^k cosh(fx) bounds d^k/dx^k of one, so
    at each x entry n bounds the sum of |contributions| that entry n of the reference adds up."""
    if isinstance(node, Solution):
        return a
    if isinstance(node, Const):
        return [HypExpr.const(abs(node.value))] + [HypExpr()] * (len(a) - 1)
    if isinstance(node, Add):
        return [sum(es, HypExpr()) for es in zip(*(_taylor_bound(t, a) for t in node.terms))]
    if isinstance(node, Scale):
        return [e.scale(abs(node.factor)) for e in _taylor_bound(node.child, a)]
    if isinstance(node, Mul):
        left, right = _taylor_bound(node.left, a), _taylor_bound(node.right, a)
        return [mul_coeff(left, right, n) for n in range(len(a))]
    if isinstance(node, PowInt):
        acc = base = _taylor_bound(node.child, a)
        for _ in range(node.exponent - 1):
            acc = [mul_coeff(acc, base, n) for n in range(len(a))]
        return acc
    return [HypExpr.of([(k, f, c * f ** node.order) for k, f, c in e.terms]) for e in _taylor_bound(node.child, a)]


def _rounding_scale(spec: PdeSpec, coeffs) -> list:
    """Per order, a cosh-only expression that bounds at each x the sum of |contributions| to
    c_n: the scale of c_n's rounding, also where c_n itself cancels to almost nothing."""
    k, alpha = spec.time_order, spec.alpha
    a = [_abs_cosh(_times(c, n * alpha + 1.0, 0, True)) for n, c in enumerate(coeffs)]
    out = _taylor_bound(spec.rhs, a[: len(a) - k])
    return [_abs_cosh(c) for c in coeffs[:k]] + [_times(e, n * alpha + 1.0, 0, False) for n, e in enumerate(out)]


def _series_reference(node, y: FracSeries) -> FracSeries:
    """The operator composed from the public c_n series primitives (weights in ``series_mul``)."""
    if isinstance(node, Solution):
        return y
    if isinstance(node, Const):
        return FracSeries.constant(y.alpha, node.value, y.order)
    if isinstance(node, Add):
        acc = _series_reference(node.terms[0], y)
        for term in node.terms[1:]:
            acc = acc + _series_reference(term, y)
        return acc
    if isinstance(node, Scale):
        return _series_reference(node.child, y).scale(node.factor)
    if isinstance(node, Mul):
        return series_mul(_series_reference(node.left, y), _series_reference(node.right, y))
    if isinstance(node, PowInt):
        return series_pow(_series_reference(node.child, y), node.exponent)
    if isinstance(node, Dx):
        return series_spatial_diff(_series_reference(node.child, y), node.order)
    raise ValueError(f"ill-formed operator AST node: {node!r}")


def _generic_spec(rhs=None) -> PdeSpec:
    """D^0.7 y = (y^2)_xx + y*y_x - 0.5*y^3 with three IC frequencies."""
    y = Solution()
    if rhs is None:
        rhs = Add((Dx(2, PowInt(2, y)), Mul(y, Dx(1, y)), Scale(-0.5, PowInt(3, y))))
    ic = HypExpr.cosh(0.4, 0.5) + HypExpr.sinh(0.8, -0.45) + HypExpr.sinh(1.2, 0.55)
    return PdeSpec(1, 0.7, rhs, ic)


def _shared_pow_spec() -> PdeSpec:
    # one PowInt object in two Add terms, and a Const under a Mul
    y = Solution()
    cube = PowInt(3, y)
    rhs = Add((Dx(1, cube), Scale(-0.25, cube), Mul(Const(0.5), Dx(2, y))))
    return _generic_spec(rhs)


# sha256 over float.hex of every term of the reference solves.  Examples 1-4
# run only the sparse product kernel; most of the generic spec's products run
# the dense lattice kernel, so its digest moves with either kernel's bits.
GOLDEN_DIGESTS = {
    "examples": "31c0d0d7c97c2669e0f23315394a44e744244230fac4a02910464e89b2e68d86",
    "generic": "38529d0c342897d462bdbf3fbba5441cc94b33e39b64af2dd9d79472dd0a2b72",
}
GOLDEN_SOLVES = {
    "examples": [(with_alpha(builtin_example(ex), a), 24) for ex in (1, 2, 3, 4) for a in (0.5, 1.0)],
    "generic": [(_generic_spec(), 7)],
}

ENGINE_SPECS = [
    pytest.param(with_alpha(builtin_example(ex), a), 6, id=f"ex{ex}-alpha{a}")
    for ex in (1, 2, 3, 4)
    for a in ALPHAS
] + [
    pytest.param(_generic_spec(), 5, id="generic"),
    pytest.param(_shared_pow_spec(), 5, id="shared-pow"),
]


class TestOnePassEngine:
    @pytest.mark.parametrize("spec,K", ENGINE_SPECS)
    def test_matches_whole_series_recursion(self, spec, K):
        # bit-identical to re-applying the right-hand side at every order
        coeffs = solve(spec, K).series.coeffs
        k = spec.time_order
        for n in range(K - k + 1):
            trunc = FracSeries(spec.alpha, coeffs[: n + 1])
            assert coeffs[n + k] == _apply_reference(spec.rhs, trunc).coeffs[n]

    @pytest.mark.parametrize("spec,K", ENGINE_SPECS)
    def test_apply_operator_matches_reference(self, spec, K):
        series = solve(spec, K).series
        assert apply_operator(spec.rhs, series) == _apply_reference(spec.rhs, series)

    @pytest.mark.parametrize(
        "spec,K", [(builtin_example(1), 24), (_generic_spec(), 5)], ids=["ex1", "generic"]
    )
    def test_solve_skips_residual_and_whole_series_paths(self, spec, K, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called on the solve hot path")

        monkeypatch.setattr(ararps.solver, "residual_check", forbidden)
        monkeypatch.setattr(ararps.solver, "apply_operator", forbidden)
        assert solve(spec, K).order == K

    @pytest.mark.parametrize("spec,K", [pytest.param(with_alpha(builtin_example(ex), a), 8, id=f"ex{ex}-alpha{a}")
                                        for ex in (1, 2, 3, 4) for a in ALPHAS]
                             + [pytest.param(_generic_spec(), 6, id="generic")])
    def test_apply_operator_matches_series_primitives(self, spec, K):
        # the c_n primitives weigh each pair by conv_weight, the engine by 1 on a_n:
        # no weight is shared, so they agree within rounding, 1e-12 of sum|terms|
        # (3.8e-13 for example 4 at alpha = 1, whose products cancel; else below 1e-15)
        series = solve(spec, K).series
        got, want = apply_operator(spec.rhs, series).coeffs, _series_reference(spec.rhs, series).coeffs
        for g, w in zip(got, want):
            assert (g - w).max_abs_coeff() <= 1e-12 * sum(abs(c) for _, _, c in w.terms)

    def test_engine_never_calls_conv_weight(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("conv_weight called by the engine")

        monkeypatch.setattr(ararps.fpseries, "conv_weight", forbidden)
        for spec in [builtin_example(ex) for ex in (1, 2, 3, 4)] + [_generic_spec()]:
            for a in (0.5, spec.alpha):
                series = solve(with_alpha(spec, a), 6).series
                apply_operator(spec.rhs, series)

    def test_deep_taylor_coefficient_converts_past_the_double_gamma(self):
        # Gamma(173) = 172! is inf as a double; c_172 = a_172 * 172! is finite
        (kind, freq, coeff), = _times(HypExpr.sinh(1.0, 1e-300), 173.0, 0, False).terms
        with mpmath.workdps(60):
            want = float(mpmath.mpf(1e-300) * mpmath.factorial(172))
        assert (kind, freq) == (Kind.SINH, 1.0) and coeff == pytest.approx(want, rel=1e-15)
        assert 1e11 < coeff < 1e13

    @pytest.mark.parametrize("x", [172.0, 175.0, 178.0, 180.0])
    def test_taylor_conversion_is_exact_where_one_over_gamma_is_subnormal(self, x):
        # 1/Gamma(x) is subnormal as a double from x of about 171.4 and 0 from about 178.5;
        # shifted into the normal range, c * 2**300 / Gamma(x) keeps every bit
        (_, _, coeff), = _times(HypExpr.const(3.0), x, 300, True).terms
        with mpmath.workdps(60):
            assert coeff == float(mpmath.ldexp(3 / mpmath.gamma(x), 300))

    def test_forty_digit_conversion_drops_zeros_and_refuses_overflow(self):
        # Gamma(200) is inf as a double, so both convert by the exact 40-digit product
        assert _times(HypExpr.const(1e-300), 200.0, -2000, False).terms == ()
        with pytest.raises(OverflowError, match="not finite"):
            _times(HypExpr.const(1e300), 200.0, 0, False)

    def test_scale_shift_keeps_the_bits(self):
        # c_n = 2**(-300 n) puts a_n far from 1, so the engine shifts its scale at n = 1;
        # the whole-list reference, unshifted, stays in the normal range to K = 3
        spec = with_alpha(builtin_example(2), 0.5)
        coeffs = tuple(HypExpr.cosh(1.0, 2.0 ** (-300 * n)) + HypExpr.const(0.7 * 2.0 ** (-300 * n))
                       for n in range(4))
        y = FracSeries(0.5, coeffs)
        assert apply_operator(spec.rhs, y).coeffs == _apply_reference(spec.rhs, y).coeffs

    def test_engine_never_calls_of(self, monkeypatch):
        # example 4 at alpha = 0.5, K = 300 shifts its scale and converts by 40 digits:
        # both map canonical terms exactly and in order, so none goes back through ``of``
        spec, calls, real = with_alpha(builtin_example(4), 0.5), [], HypExpr.of
        monkeypatch.setattr(HypExpr, "of", staticmethod(lambda raw: calls.append(raw) or real(raw)))
        solve(spec, 300)
        assert len(calls) == 0

    def test_coefficient_past_the_scaled_range_raises(self):
        # one integer scale per pass puts b_n within n/2 bits of 1: past n of about 2044 a
        # coefficient can fall outside the doubles, which raises instead of giving 0
        n, alpha = 2100, 0.085
        bits = math.lgamma(n * alpha + 1.0) / math.log(2.0)
        last = HypExpr.cosh(1.0, 2.0 ** (round(bits) - 1049))  # b_2100 about 2**-1049
        coeffs = (HypExpr.const(1.0),) + (HypExpr(),) * (n - 1) + (last,)
        with pytest.raises(OverflowError, match="c_2100"):
            apply_operator(Dx(1, Solution()), FracSeries(alpha, coeffs))

    def test_coefficient_bits_pinned(self):
        digests = {}
        for name, solves in GOLDEN_SOLVES.items():
            h = hashlib.sha256()
            for spec, K in solves:
                for n, c in enumerate(solve(spec, K).series.coeffs):
                    h.update(f"c{n}\n".encode())
                    for kind, freq, coeff in c.terms:
                        h.update(f"{int(kind)} {freq.hex()} {coeff.hex()}\n".encode())
            digests[name] = h.hexdigest()
        assert digests == GOLDEN_DIGESTS

    @pytest.mark.parametrize(
        "spec,per_order", [(builtin_example(4), 2), (_generic_spec(), 3)], ids=["ex4", "generic"]
    )
    def test_equal_subtrees_share_products(self, spec, per_order, monkeypatch):
        # example 4's two PowInt(3, y) are one node value, and pow 3 reuses
        # pow 2: one product per PowInt power and per Mul in each order
        calls = []
        real = ararps.solver.mul_coeff

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ararps.solver, "mul_coeff", counting)
        solve(spec, 8)
        assert len(calls) == per_order * 8

    def test_nested_powers_keep_the_call_depth_flat(self):
        # y' = y^(64^8) from y(0) = 1: eight nested 64-step power chains
        node = Solution()
        for _ in range(8):
            node = PowInt(64, node)
        coeffs = solve(PdeSpec(1, 1.0, node, HypExpr.const(1.0)), 2).series.coeffs
        assert coeffs[1] == HypExpr.const(1.0)
        assert coeffs[2] == HypExpr.const(2.0 ** 48)

    def test_shared_objects_lower_once(self):
        # one object used twice per level: 2^60 paths through the AST, 60 steps
        node = Solution()
        for _ in range(60):
            node = Add((node, node))
        start = time.perf_counter()
        coeffs = solve(PdeSpec(1, 1.0, node, HypExpr.cosh(1.0)), 3).series.coeffs
        assert time.perf_counter() - start < 1.0
        assert coeffs[1] == HypExpr.cosh(1.0, 2.0 ** 60)

    @settings(max_examples=150, deadline=None)
    @given(ast=shared_asts(), alpha=st.sampled_from(ALPHAS),
           coeffs=st.lists(st.lists(quarter_terms, min_size=1, max_size=3).map(HypExpr.of),
                           min_size=1, max_size=4))
    def test_random_shared_asts_match_reference(self, ast, alpha, coeffs):
        # quarter-integer terms: every product and sum of frequencies is exact, so the
        # engine's shared products and squares must give the reference's bits
        s = FracSeries(alpha, tuple(coeffs))
        try:
            want = _apply_reference(ast, s)
        except OverflowError:
            with pytest.raises(OverflowError):
                apply_operator(ast, s)
            return
        assert apply_operator(ast, s).coeffs == want.coeffs

    def test_generic_spec_keeps_every_lattice_term(self):
        # IC frequencies 0.4*{1, 2, 3}: c_n spans 12n+5 (kind, frequency)
        # terms up to 1.2*(2n+1); a small coefficient on the top frequency
        # is still large pointwise, so none of them may be dropped
        coeffs = solve(_generic_spec(), 10).series.coeffs
        for n, c in enumerate(coeffs[1:], start=1):
            assert len(c.terms) == 12 * n + 5
            top = 1.2 * (2 * n + 1)
            assert any(abs(f - top) < 1e-12 for _, f, _ in c.terms)


class TestSpecValidation:
    def test_time_order(self):
        with pytest.raises(ValueError):
            PdeSpec(3, 1.0, Solution(), HypExpr.const(1.0))

    def test_ic_b_required_iff_second_order(self):
        with pytest.raises(ValueError):
            PdeSpec(2, 1.0, Solution(), HypExpr.const(1.0))
        with pytest.raises(ValueError):
            PdeSpec(1, 1.0, Solution(), HypExpr.const(1.0), HypExpr.const(0.0))

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            PdeSpec(1, 1.5, Solution(), HypExpr.const(1.0))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ExampleParams(v=-1.0)

    @pytest.mark.parametrize("name", ["v", "w", "lam", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_params_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            ExampleParams(**{name: value})

    @pytest.mark.parametrize("ex,params", [(1, ExampleParams(lam=1e200)),
                                           (1, ExampleParams(v=1e-300, lam=1e10)),
                                           (2, ExampleParams(gamma=1e200))])
    def test_overflowing_wave_names_example_and_values(self, ex, params):
        for call in (lambda: builtin_example(ex, params), lambda: exact_solution(ex, params)):
            with pytest.raises(ValueError, match=f"example {ex}.*{re.escape(repr(params))}"):
                call()


class TestTrivialDynamics:
    def test_zero_rhs_freezes_ic(self):
        # D^alpha y = 0 propagates nothing beyond the initial data
        spec = PdeSpec(1, 0.5, Const(0.0), HypExpr.cosh(1.0, 2.0))
        res = solve(spec, 5)
        assert res.series.coeffs[0] == HypExpr.cosh(1.0, 2.0)
        for c in res.series.coeffs[1:]:
            assert c.is_zero()

    def test_linear_rhs_exponential_pattern(self):
        # D^alpha y = y with y(x,0)=1 gives c_n = 1 for all n
        spec = PdeSpec(1, 0.5, Solution(), HypExpr.const(1.0))
        res = solve(spec, 6)
        for c in res.series.coeffs:
            assert c == HypExpr.const(1.0)


class TestCoefficientPatterns:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_example_1(self, alpha):
        res = solve(with_alpha(builtin_example(1), alpha), 6)
        # c_n = (2/3) 2^-n * (-cosh even / +sinh odd)(x/2) for n >= 2
        for n in range(2, 7):
            mag = (2.0 / 3.0) * 0.5 ** n
            if n % 2 == 0:
                _assert_expr(res.series.coeffs[n], HypExpr.cosh(0.5, -mag))
            else:
                _assert_expr(res.series.coeffs[n], HypExpr.sinh(0.5, mag))

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("gamma", [2.0, 0.5])
    def test_example_2(self, alpha, gamma):
        spec = with_alpha(builtin_example(2, ExampleParams(gamma=gamma)), alpha)
        res = solve(spec, 6)
        for n in range(2, 7):
            mag = gamma ** n * (gamma ** 2 - 1.0)
            if n % 2 == 0:
                _assert_expr(res.series.coeffs[n], HypExpr.cosh(1.0, -mag), tol=1e-11)
            else:
                _assert_expr(res.series.coeffs[n], HypExpr.sinh(1.0, mag), tol=1e-11)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_example_3(self, alpha):
        res = solve(with_alpha(builtin_example(3), alpha), 6)
        for n in range(2, 7):
            if n % 2 == 0:
                _assert_expr(res.series.coeffs[n], HypExpr.cosh(1.0))
            else:
                _assert_expr(res.series.coeffs[n], HypExpr.sinh(1.0, -1.0))

    @pytest.mark.parametrize("ex,alpha,K", [(1, 1.0, 200), (3, 1.0, 200), (2, 0.25, 720)])
    def test_examples_1_to_3_deep(self, ex, alpha, K):
        # c_n = A r^n (cosh even / -sinh odd)(q x) at every alpha, past the orders where the
        # double a_n = c_n / Gamma(n*alpha + 1), or 1/Gamma itself, leaves the normal range
        # (n = 152, 173 and 684 here); measured within 7.4e-15 relative
        A, q, r = ararps.solver._wave(ex, ExampleParams())
        coeffs = solve(with_alpha(builtin_example(ex), alpha), K).series.coeffs
        for n in range(1, K + 1):
            mag = A * r ** n
            want = HypExpr.cosh(q, mag) if n % 2 == 0 else HypExpr.sinh(q, -mag)
            _assert_expr(coeffs[n], want, tol=1e-13 * abs(mag))

    def test_example_4_classical(self):
        res = solve(builtin_example(4), 6)
        amp = math.sqrt(1.5)
        f = 1.0 / 3.0
        for n in range(2, 7):
            mag = amp * 3.0 ** -n
            if n % 2 == 0:
                _assert_expr(res.series.coeffs[n], HypExpr.sinh(f, mag))
            else:
                _assert_expr(res.series.coeffs[n], HypExpr.cosh(f, -mag))

    def test_example_4_accuracy_envelope(self):
        # c_n = (-1/3)^n sqrt(1.5) sinh^(n)(x/3); the doubles lose about 6x an order
        # from rounding the stored c_m, 2.3e-5 by n = 20
        x = 0.7
        coeffs = solve(builtin_example(4), 20).series.coeffs
        for n, c in enumerate(coeffs):
            want = (-1.0 / 3.0) ** n * math.sqrt(1.5) * (math.cosh if n % 2 else math.sinh)(x / 3.0)
            assert c(x) == pytest.approx(want, rel=1e-4), n

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_example_4_fractional_weight_dependence(self, alpha):
        # the cubic nonlinearity keeps base-frequency convolution terms, so
        # c_3 carries the weight Gamma(2a+1)/Gamma(a+1)^2 explicitly
        from ararps.special import gamma

        res = solve(with_alpha(builtin_example(4), alpha), 6)
        amp = math.sqrt(1.5)
        f = 1.0 / 3.0
        _assert_expr(res.series.coeffs[2], HypExpr.sinh(f, amp / 9.0))
        w11 = gamma(2 * alpha + 1.0) / gamma(alpha + 1.0) ** 2
        c3 = (2.0 * amp ** 3 / 81.0) * (w11 - 3.0)
        _assert_expr(res.series.coeffs[3], HypExpr.cosh(f, c3))


class TestModeClosure:
    """Each example's operator annihilates the one new frequency its nonlinearity
    creates, so every coefficient stays in the modes of its initial data, at
    every alpha; a kernel that leaks a contribution into another frequency breaks it."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize(
        "example_id,params,q",
        [(1, ExampleParams(), 0.5), (2, ExampleParams(), 1.0),
         (2, ExampleParams(gamma=0.5), 1.0), (3, ExampleParams(), 1.0)],
        ids=["ex1", "ex2", "ex2-gamma0.5", "ex3"],
    )
    def test_examples_1_to_3_keep_const_cosh_sinh_q(self, example_id, params, q, alpha):
        modes = {(Kind.CONST, 0.0), (Kind.COSH, q), (Kind.SINH, q)}
        for n, c in enumerate(solve(with_alpha(builtin_example(example_id, params), alpha), 24).series.coeffs):
            assert len(c.terms) <= 2 and {(k, f) for k, f, _ in c.terms} <= modes, (n, c)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_example_4_keeps_one_mode(self, alpha):
        for n, c in enumerate(solve(with_alpha(builtin_example(4), alpha), 24).series.coeffs):
            assert [f for _, f, _ in c.terms] == [1.0 / 3.0], (n, c)


def _shifted(e: HypExpr, x0: float) -> HypExpr:
    """e(x + x0) in the basis, each coefficient the exact shift of e's terms rounded once:
    cosh(f(x+x0)) = cosh(f*x0) cosh(fx) + sinh(f*x0) sinh(fx),
    sinh(f(x+x0)) = sinh(f*x0) cosh(fx) + cosh(f*x0) sinh(fx).  Summed in doubles,
    C cosh(f*x0) + S sinh(f*x0) cancels where C is near -S: 4.7e-3 of c_7(-1.1) = 5.7e8
    on one drawn spec."""
    sums = {}
    with mpmath.workdps(40):
        for k, f, c in e.terms:
            if k is Kind.CONST:
                sums[k, f] = mpmath.mpf(c)
                continue
            ch, sh = c * mpmath.cosh(mpmath.mpf(f) * x0), c * mpmath.sinh(mpmath.mpf(f) * x0)
            if k is Kind.SINH:
                ch, sh = sh, ch
            sums[Kind.COSH, f] = sums.get((Kind.COSH, f), 0) + ch
            sums[Kind.SINH, f] = sums.get((Kind.SINH, f), 0) + sh
        return HypExpr.of([(k, f, float(v)) for (k, f), v in sums.items()])


def _abs_terms(e: HypExpr, x: float) -> float:
    return sum(abs(HypExpr((t,))(x)) for t in e.terms)


def _lattice_spec() -> PdeSpec:
    """The generic right-hand side with IC frequencies 0.3 * {1, 2, 3}."""
    ic = HypExpr.cosh(0.3, 0.5) + HypExpr.sinh(0.6, -0.45) + HypExpr.cosh(0.9, 0.55)
    return PdeSpec(1, 0.7, _generic_spec().rhs, ic)


# the fixed specs and x points of the relations below, which also run on specs() draws
# (alpha below 1); example 4 at alpha = 1 stays out, its deep coefficients drift from
# any relation (3.0e-10 at K = 12 under time scaling)
_RELATION_SPECS = [
    pytest.param(with_alpha(builtin_example(1), 0.5), 12, id="ex1-alpha0.5"),
    pytest.param(with_alpha(builtin_example(2), 0.75), 12, id="ex2-alpha0.75"),
    pytest.param(with_alpha(builtin_example(4), 0.5), 12, id="ex4-alpha0.5"),
    pytest.param(_generic_spec(), 8, id="generic"),
    pytest.param(_lattice_spec(), 7, id="lattice"),
]
_RELATION_XS = (-1.1, -0.3, 0.0, 0.45, 1.3)


class TestTranslation:
    """Every operator is autonomous in x, so the ICs shifted by x0 give c_n(x + x0).

    A relation of the engine with itself, with no oracle: both sides share the
    weights, so a wrong weight passes, but a sign error in the product kernel
    does not.
    """

    @staticmethod
    def solves(spec, K, x0):
        ic_b = spec.ic_b and _shifted(spec.ic_b, x0)
        moved = PdeSpec(spec.time_order, spec.alpha, spec.rhs, _shifted(spec.ic_a, x0), ic_b)
        return moved, solve(moved, K).series.coeffs, solve(spec, K).series.coeffs

    @pytest.mark.parametrize("spec, K", _RELATION_SPECS)
    def test_shifted_ics_give_shifted_coefficients(self, spec, K):
        _, got, coeffs = self.solves(spec, K, 0.3)
        for n, c in enumerate(coeffs):
            want = _shifted(c, 0.3)
            for x in _RELATION_XS:
                assert abs(got[n](x) - want(x)) <= 1e-12 * _abs_terms(want, x), (n, x)

    @settings(max_examples=40, deadline=None)
    @given(case=specs(), x0=st.floats(-1.0, 1.0))
    def test_on_drawn_specs(self, case, x0):
        # each side rounds relative to its own contributions, got's at x and c_n's at x + x0,
        # where a drawn coefficient may cancel to almost nothing
        spec, K = case
        moved, got, coeffs = self.solves(spec, K, x0)
        for n, (c, m_got, m) in enumerate(zip(coeffs, _rounding_scale(moved, got), _rounding_scale(spec, coeffs))):
            want = _shifted(c, x0)
            for x in _RELATION_XS:
                assert abs(got[n](x) - want(x)) <= 1e-12 * (m_got(x) + m(x + x0)), (n, x)


def _reflected(e: HypExpr) -> HypExpr:
    """e(-x) in the basis: cosh is even, sinh is odd."""
    return HypExpr(tuple((k, f, -c if k is Kind.SINH else c) for k, f, c in e.terms))


def _reflected_rhs(node):
    """The operator on y(-x): each odd-order Dx wrapped in Scale(-1, .)."""
    if isinstance(node, Dx):
        inner = Dx(node.order, _reflected_rhs(node.child))
        return Scale(-1.0, inner) if node.order % 2 else inner
    if isinstance(node, Scale):
        return Scale(node.factor, _reflected_rhs(node.child))
    if isinstance(node, PowInt):
        return PowInt(node.exponent, _reflected_rhs(node.child))
    if isinstance(node, Mul):
        return Mul(_reflected_rhs(node.left), _reflected_rhs(node.right))
    if isinstance(node, Add):
        return Add(tuple(map(_reflected_rhs, node.terms)))
    return node  # Solution, Const


class TestReflection:
    """Every operator is covariant under x -> -x up to the sign of odd Dx, so the
    reflected ICs (sinh coefficients negated) give c_n(-x) for the reflected operator.

    A relation of the engine with itself, like translation, but one that a
    derivative keeping the kind of its term fails.
    """

    def check(self, spec, K):
        ic_b = spec.ic_b and _reflected(spec.ic_b)
        moved = PdeSpec(spec.time_order, spec.alpha, _reflected_rhs(spec.rhs), _reflected(spec.ic_a), ic_b)
        got = solve(moved, K).series.coeffs
        for n, c in enumerate(solve(spec, K).series.coeffs):
            for x in _RELATION_XS:
                assert abs(got[n](x) - c(-x)) <= 1e-12 * _abs_terms(c, x), (n, x)

    @pytest.mark.parametrize("spec, K", _RELATION_SPECS)
    def test_reflected_ics_give_reflected_coefficients(self, spec, K):
        self.check(spec, K)

    @settings(max_examples=40, deadline=None)
    @given(case=specs())
    def test_on_drawn_specs(self, case):
        self.check(*case)


class TestTimeScaling:
    """If y solves D^(k*alpha) y = N[y], then y(x, lam*t) solves it with lam^(k*alpha)*N.

    Its second IC is lam^alpha * ic_b, and its c_n is lam^(n*alpha) * c_n.  A
    relation of the engine with itself, like translation, but one that a
    ``Scale`` step ignoring positive factors fails.
    """

    @staticmethod
    def solves(spec, K, lam):
        k, a = spec.time_order, spec.alpha
        ic_b = spec.ic_b and spec.ic_b.scale(lam ** a)
        scaled = PdeSpec(k, a, Scale(lam ** (k * a), spec.rhs), spec.ic_a, ic_b)
        return scaled, solve(scaled, K).series.coeffs, solve(spec, K).series.coeffs

    @pytest.mark.parametrize("lam", [1.7, 0.6])
    @pytest.mark.parametrize("spec, K", _RELATION_SPECS)
    def test_scaled_time_gives_scaled_coefficients(self, spec, K, lam):
        _, got, coeffs = self.solves(spec, K, lam)
        for n, c in enumerate(coeffs):
            w = lam ** (n * spec.alpha)
            for x in _RELATION_XS:
                assert abs(got[n](x) - w * c(x)) <= 1e-12 * w * _abs_terms(c, x), (n, x)

    @settings(max_examples=40, deadline=None)
    @given(case=specs(), lam=st.floats(0.5, 2.0))
    def test_on_drawn_specs(self, case, lam):
        # relative to each side's contributions, as for translation
        spec, K = case
        scaled, got, coeffs = self.solves(spec, K, lam)
        for n, (c, m_got, m) in enumerate(zip(coeffs, _rounding_scale(scaled, got), _rounding_scale(spec, coeffs))):
            w = lam ** (n * spec.alpha)
            for x in _RELATION_XS:
                assert abs(got[n](x) - w * c(x)) <= 1e-12 * (m_got(x) + w * m(x)), (n, x)


def _swapped(node):
    """The operator with every Mul's operands swapped and every Add's terms reversed."""
    if isinstance(node, Mul):
        return Mul(_swapped(node.right), _swapped(node.left))
    if isinstance(node, Add):
        return Add(tuple(map(_swapped, reversed(node.terms))))
    if isinstance(node, (Scale, PowInt, Dx)):
        return replace(node, child=_swapped(node.child))
    return node  # Solution, Const


class TestOperandOrder:
    """Products commute and sums reorder, so the swapped operator gives the same c_n.

    Not bit for bit: a cell keeps the first float frequency it meets, so the
    last bits of its frequency follow the operand order, and an Add rounds its
    partial sums in order.  A relation of the engine with itself that a
    product kernel fails if it gets an asymmetric entry of the sign table
    (cosh*sinh against sinh*cosh) wrong.
    """

    def check(self, spec, K):
        # both sides sum the same |contributions|, so each side's scale is m: 1e-12 of both is 2e-12 m
        got = solve(replace(spec, rhs=_swapped(spec.rhs)), K).series.coeffs
        coeffs = solve(spec, K).series.coeffs
        for n, m in enumerate(_rounding_scale(spec, coeffs)):
            for x in _RELATION_XS:
                assert abs(got[n](x) - coeffs[n](x)) <= 2e-12 * m(x), (n, x)

    @pytest.mark.parametrize("spec, K", _RELATION_SPECS)
    def test_swapped_operands_give_the_same_coefficients(self, spec, K):
        self.check(spec, K)

    @settings(max_examples=40, deadline=None)
    @given(case=specs())
    def test_on_drawn_specs(self, case):
        # a drawn AST seldom multiplies unequal operands, so each draw gets y * y_x too
        spec, K = case
        self.check(replace(spec, rhs=Add((spec.rhs, Mul(Solution(), Dx(1, Solution()))))), K)


@pytest.fixture
def dense_products(monkeypatch):
    """The generators of the products that took the dense lattice kernel."""
    calls = []
    real = ararps.fpseries._laurent_products
    monkeypatch.setattr(ararps.fpseries, "_laurent_products", lambda pairs, g: calls.append(g) or real(pairs, g))
    return calls


def _homogeneous_p2_spec() -> PdeSpec:
    """(y^2)_xx + y*y_x, homogeneous of degree 2, with the lattice spec's IC."""
    y = Solution()
    return replace(_lattice_spec(), rhs=Add((Dx(2, PowInt(2, y)), Mul(y, Dx(1, y)))))


class TestAmplitudeScaling:
    """If N is homogeneous of degree p, the IC lam*c_0 gives lam^(1 + n(p-1)) * c_n.

    A relation of the engine with itself.  A power of two scales every
    product, sum and fsum exactly, so lam = 2 gives the same bits; example 4
    runs the sparse kernel and the degree-2 lattice spec the dense one.
    """

    @pytest.mark.parametrize("lam", [2.0, 0.7])
    @pytest.mark.parametrize("spec, p, K, dense", [
        pytest.param(with_alpha(builtin_example(4), 0.5), 3, 12, False, id="ex4-alpha0.5"),
        pytest.param(_homogeneous_p2_spec(), 2, 7, True, id="lattice-p2"),
    ])
    def test_scaled_ic_gives_scaled_coefficients(self, spec, p, K, dense, lam, dense_products):
        got = solve(replace(spec, ic_a=spec.ic_a.scale(lam)), K).series.coeffs
        for n, c in enumerate(solve(spec, K).series.coeffs):
            w = lam ** (1 + n * (p - 1))
            if lam == 2.0:
                assert got[n] == c.scale(w), n
            for x in _RELATION_XS:
                assert abs(got[n](x) - w * c(x)) <= 1e-12 * w * _abs_terms(c, x), (n, x)
        assert bool(dense_products) == dense

    @settings(max_examples=40, deadline=None)
    @given(case=specs(), rhs=st.integers(1, 3).flatmap(lambda p: st.tuples(st.just(p), homogeneous_asts(p))),
           lam=st.floats(0.5, 2.0))
    def test_on_drawn_specs(self, case, rhs, lam):
        # with time order k, c_n scales by lam * rho**n, rho = lam**((p - 1)/k), and so does
        # c_1 = ic_b; lam = 2**k (lam = 2 at k = 1) makes rho = 2**(p - 1), so c_n keeps its bits
        (spec, K), (p, ast) = case, rhs
        spec, k = replace(spec, rhs=ast), spec.time_order
        coeffs = solve(spec, K).series.coeffs

        def scaled(lam):
            rho = lam ** ((p - 1) / k)
            ic_b = spec.ic_b and spec.ic_b.scale(lam * rho)
            got = solve(replace(spec, ic_a=spec.ic_a.scale(lam), ic_b=ic_b), K).series.coeffs
            return zip(got, coeffs, [lam * rho ** n for n in range(K + 1)])

        assert all(g == c.scale(w) for g, c, w in scaled(2.0 ** k))
        # the scaled side sums w times this side's |contributions|: 1e-12 of both is 2e-12 w m
        for n, ((g, c, w), m) in enumerate(zip(scaled(lam), _rounding_scale(spec, coeffs))):
            for x in _RELATION_XS:
                assert abs(g(x) - w * c(x)) <= 2e-12 * w * m(x), (n, x)


class TestProductPath:
    """``mul_coeff`` takes the dense lattice kernel for large products on one generator."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("example_id", [1, 2, 3, 4])
    def test_examples_stay_sparse(self, example_id, alpha, dense_products):
        solve(with_alpha(builtin_example(example_id), alpha), 24)
        assert not dense_products

    @pytest.mark.parametrize(
        "spec, g", [(_generic_spec(), 0.4), (_lattice_spec(), 0.3)], ids=["generic", "lattice"]
    )
    def test_one_generator_goes_dense(self, spec, g, dense_products):
        solve(spec, 7)
        assert dense_products and all(abs(h - g) <= 2.0 ** -30 for h in dense_products)

    def test_two_generators_stay_sparse(self, dense_products):
        # the multifreq-incommensurate workload's frequencies: rank 2
        b, r = 0.4, math.sqrt(2.0)
        ic = HypExpr.cosh(b, 0.5) + HypExpr.sinh(r * b, -0.45) + HypExpr.cosh((1 + r) * b, 0.55)
        solve(PdeSpec(1, 0.7, _generic_spec().rhs, ic), 4)
        assert not dense_products

    def test_long_lattice_builds_no_list(self, dense_products, monkeypatch):
        # 1e-6 and 1.0 lie on one lattice, with multiples up to 10**6 per frequency:
        # the products are large enough to look at the frequencies, and too sparse
        # on that lattice to build a Laurent list
        spans, lists = [], []
        for name, seen in (("_span", spans), ("_laurent", lists)):
            real = getattr(ararps.hypalg, name)
            monkeypatch.setattr(ararps.hypalg, name, lambda *a, real=real, seen=seen: seen.append(a) or real(*a))
        ic = HypExpr.cosh(1e-6, 0.5) + HypExpr.sinh(1.0, -0.45) + HypExpr.cosh(2.0, 0.3)
        solve(PdeSpec(1, 0.7, _generic_spec().rhs, ic), 6)
        assert spans and not lists and not dense_products


class TestDrawnSpecs:
    """What ``specs()`` promises the relations above: every draw's work within the
    ceiling, rank-1 draws that reach the dense kernel, and rank-2 draws that never do."""

    def test_work_within_the_ceiling_and_both_kernels_reached(self, dense_products):
        reached = []

        @settings(max_examples=60, deadline=None, database=None)
        @given(case=specs())
        def solve_draw(case):
            spec, K = case
            rank = ic_rank(spec)
            dense_products.clear()
            terms = sum(len(c.terms) for c in solve(spec, K).series.coeffs)
            assert terms <= work_bound(rank, K) <= WORK_CEILING
            if rank == 2:
                assert not dense_products
            else:
                reached.append(bool(dense_products))

        solve_draw()
        assert any(reached)


def _pde_residual_pointwise(series, alpha, x0, t0):
    """|D^alpha y - (y^3)_x + (y^3)_xxx| from quadrature + finite differences.

    Fully independent of the series algebra: only pointwise evaluations.
    """
    from ararps.caputo import caputo_numeric

    lhs = caputo_numeric(lambda t: series_eval(series, x0, t), alpha, t0)
    g = lambda x: series_eval(series, x, t0) ** 3
    h = 1e-2
    d1 = (g(x0 - 2 * h) - 8 * g(x0 - h) + 8 * g(x0 + h) - g(x0 + 2 * h)) / (12 * h)
    d3 = (-g(x0 - 2 * h) + 2 * g(x0 - h) - 2 * g(x0 + h) + g(x0 + 2 * h)) / (2 * h ** 3)
    return abs(lhs - (d1 - d3))


class TestFractionalPdeOracle:
    def test_solved_series_satisfies_pde(self):
        alpha = 0.5
        series = solve(with_alpha(builtin_example(4), alpha), 10).series
        assert _pde_residual_pointwise(series, alpha, 0.8, 0.3) < 1e-4

    def test_alpha_independent_family_fails_pde(self):
        # reusing the classical coefficient pattern at fractional alpha does
        # NOT solve the equation -- the defect is orders of magnitude larger
        alpha = 0.5
        amp, f = math.sqrt(1.5), 1.0 / 3.0
        coeffs = []
        for n in range(11):
            mag = amp * 3.0 ** -n
            coeffs.append(
                HypExpr.sinh(f, mag) if n % 2 == 0 else HypExpr.cosh(f, -mag)
            )
        fake = FracSeries(alpha, tuple(coeffs))
        assert _pde_residual_pointwise(fake, alpha, 0.8, 0.3) > 1e-3


class TestResiduals:
    @pytest.mark.parametrize("ex", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_residuals_vanish(self, ex, alpha):
        spec = with_alpha(builtin_example(ex), alpha)
        res = solve(spec, 6)
        for n in range(7):
            assert residual_check(spec, res, n).max_abs_coeff() <= 1e-12

    def test_fault_injection_detected(self):
        # corrupting one coefficient must light up the residual at its order
        spec = with_alpha(builtin_example(3), 0.5)
        res = solve(spec, 6)
        bad = list(res.series.coeffs)
        bad[2] = bad[2] + HypExpr.const(1.0)
        corrupted = SolveResult(FracSeries(spec.alpha, tuple(bad)))
        r = residual_check(spec, corrupted, 2)
        assert r.max_abs_coeff() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("ex", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("K", [6, 12])
    def test_one_pass_matches_each_order(self, ex, alpha, K):
        # every order from one operator pass is the order's own residual, term
        # for term, on the solution and on a series with c_2 corrupted
        spec = with_alpha(builtin_example(ex), alpha)
        res = solve(spec, K)
        bad = list(res.series.coeffs)
        bad[2] = bad[2] + HypExpr.const(1.0)
        corrupted = SolveResult(FracSeries(alpha, tuple(bad)))
        for r in (res, corrupted):
            all_orders = residuals(spec, r)
            assert len(all_orders) == K + 1
            for n in range(K + 1):
                assert all_orders[n].terms == residual_check(spec, r, n).terms
        lit = [e.max_abs_coeff() for e in residuals(spec, corrupted)]
        assert max(lit[:2]) <= 1e-12
        assert lit[2] == pytest.approx((2 - spec.time_order) * alpha + 1.0, rel=1e-12)

    def test_order_bound(self):
        spec = builtin_example(4)
        res = solve(spec, 3)
        with pytest.raises(ValueError):
            residual_check(spec, res, 4)


class TestInitialData:
    @pytest.mark.parametrize("ex", [1, 2, 3, 4])
    def test_solution_at_t0_is_ic(self, ex):
        spec = with_alpha(builtin_example(ex), 0.5)
        res = solve(spec, 6)
        for x in (0.0, 1.0, 3.0):
            assert series_eval(res.series, x, 0.0) == pytest.approx(
                spec.ic_a(x), rel=1e-15, abs=1e-15
            )
        if spec.time_order == 2:
            from ararps.fpseries import series_caputo

            d = series_caputo(res.series)
            for x in (0.0, 1.0, 3.0):
                assert series_eval(d, x, 0.0) == pytest.approx(
                    spec.ic_b(x), rel=1e-15, abs=1e-15
                )


class TestConvergence:
    def test_successive_order_gap_shrinks(self):
        # max-abs gap between the K and K-1 truncations decreases for K=3..6
        grid = [(x, t) for x in (0.0, 2.0, 6.0, 10.0) for t in (0.25, 1.0)]
        for ex in (1, 3, 4):
            spec = builtin_example(ex)
            sols = {K: solve(spec, K).series for K in range(2, 7)}
            gaps = [
                max(
                    abs(series_eval(sols[K], x, t) - series_eval(sols[K - 1], x, t))
                    for x, t in grid
                )
                for K in range(3, 7)
            ]
            assert all(a > b for a, b in zip(gaps, gaps[1:])), (ex, gaps)

    def test_error_decreases_with_order(self):
        spec = builtin_example(4)
        x, t = 2.0, 0.8
        exact = exact_solution(4, alpha=1.0, x=x, t=t)
        errs = [
            abs(series_eval(solve(spec, K).series, x, t) - exact) for K in (2, 4, 6, 8)
        ]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-6

    @pytest.mark.parametrize("ex", [1, 2, 3])
    def test_traveling_wave_at_classical_order(self, ex):
        # at alpha = 1 the converged series is a function of x - ct only
        spec = builtin_example(ex)
        series = solve(spec, 24).series
        c = {1: 1.0, 2: 2.0, 3: 1.0}[ex]  # wave speed in x-units
        pairs = [((1.0, 0.25), (1.0 + c * 0.5, 0.75)), ((0.0, 0.1), (c * 0.4, 0.5))]
        for (x1, t1), (x2, t2) in pairs:
            y1 = series_eval(series, x1, t1)
            y2 = series_eval(series, x2, t2)
            assert y1 == pytest.approx(y2, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("ex,speed", [(2, 2.0), (3, 1.0)])
    def test_mirrored_characteristics_even_profile(self, ex, speed):
        # even wave profile: equal values whenever |x1 - c t1| = |x2 - c t2|
        series = solve(builtin_example(ex), 24).series
        for t1, t2 in [(0.25, 0.5), (0.5, 1.0)]:
            x1 = speed * t1 + 1.0
            x2 = speed * t2 - 1.0  # mirrored offset
            assert series_eval(series, x1, t1) == pytest.approx(
                series_eval(series, x2, t2), rel=1e-9, abs=1e-9
            )

    def test_traveling_wave_example_4(self):
        # odd profile: mirrored characteristics flip the sign, so compare |y|
        series = solve(builtin_example(4), 24).series
        exact = lambda x, t: exact_solution(4, alpha=1.0, x=x, t=t)
        for (x1, t1), (x2, t2) in [((0.5, 0.25), (1.0, 0.75)), ((2.0, 0.0), (2.5, 0.5))]:
            assert series_eval(series, x1, t1) == pytest.approx(
                series_eval(series, x2, t2), rel=1e-9, abs=1e-9
            )
            assert series_eval(series, x1, t1) == pytest.approx(
                exact(x1, t1), rel=1e-9, abs=1e-9
            )
        y1 = series_eval(series, 0.0, 1.0)   # x - t = -1
        y2 = series_eval(series, 2.0, 1.0)   # x - t = +1
        assert abs(y1) == pytest.approx(abs(y2), rel=1e-7)
        assert y1 == pytest.approx(-y2, rel=1e-7)


class TestExactSolution:
    def test_example_1_spot_values(self):
        # -(2/3)(cosh((x-t)/2) - 1) at v=w=lam=1
        assert exact_solution(1, alpha=1.0, x=10.0, t=1.0) == pytest.approx(
            -(2.0 / 3.0) * (math.cosh(4.5) - 1.0), rel=1e-14
        )

    def test_example_3_zero_at_origin(self):
        assert exact_solution(3, alpha=1.0, x=0.0, t=0.0) == 0.0

    def test_example_3_is_squared_sinh(self):
        x, t = 1.3, 0.4
        assert exact_solution(3, alpha=1.0, x=x, t=t) == pytest.approx(
            2.0 * math.sinh((x - t) / 2.0) ** 2, rel=1e-14
        )

    def test_fractional_reduces_to_classical(self, monkeypatch):
        # alpha -> 1 through the series branch agrees with the closed form
        calls = []
        real = ararps.solver._mittag_leffler
        monkeypatch.setattr(ararps.solver, "_mittag_leffler",
                            lambda alpha, z: calls.append(alpha) or real(alpha, z))
        for ex in (1, 2, 3):
            a = 1.0 - 1e-13
            x, t = 1.5, 0.7
            calls.clear()
            assert exact_solution(ex, alpha=a, x=x, t=t) == pytest.approx(
                exact_solution(ex, alpha=1.0, x=x, t=t), rel=1e-10
            )
            assert calls and set(calls) == {a}, ex

    @pytest.mark.parametrize("alpha", [1.5, 0.0, -0.5, math.nan])
    def test_alpha_outside_range_refused(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\], got"):
            exact_solution(1, None, alpha, 0.5, 1.0)

    def test_negative_t_below_alpha_1_is_value_error(self):
        for ex in (1, 2, 3, 4):
            with pytest.raises(ValueError, match="t >= 0"):
                exact_solution(ex, None, 0.5, 0.0, -1.0)
        # the classical waves take no t**alpha, so they keep their value at t < 0
        assert exact_solution(1, alpha=1.0, x=0.5, t=-1.0) == pytest.approx(
            -(2.0 / 3.0) * (math.cosh(0.75) - 1.0), rel=1e-14
        )

    def test_example_4_closed_form(self):
        x, t, a = 2.0, 0.6, 0.5
        assert exact_solution(4, alpha=a, x=x, t=t) == pytest.approx(
            math.sqrt(1.5) * math.sinh((x - t ** a) / 3.0), rel=1e-14
        )

    # (example, gamma) -> (A, q, r) of the wave A*(cosh(q*x - r*t) - 1), v = w = lam = 1
    _WAVES = {(1, 2.0): (-2.0 / 3.0, 0.5, 0.5), (2, 2.0): (-3.0, 1.0, 2.0),
              (2, 0.5): (0.75, 1.0, 0.5), (3, 2.0): (1.0, 1.0, 1.0)}

    @staticmethod
    def _even_odd(alpha, z):
        # the even and odd halves of Sum_k z^k / Gamma(alpha*k + 1), to 1e-65
        terms = [mpmath.mpf(1)]
        while abs(terms[-1]) > mpmath.mpf(10) ** -65:
            terms.append(z ** len(terms) * mpmath.rgamma(alpha * len(terms) + 1))
        return mpmath.fsum(terms[::2]), mpmath.fsum(terms[1::2])

    def test_examples_1_to_3_match_even_odd_reference(self):
        # A*(cosh(qx)*even - sinh(qx)*odd - 1) in z = r*t^alpha at 70 digits, on
        # the 24-row grid; no truncation warning may be raised
        with warnings.catch_warnings(), mpmath.workdps(70):
            warnings.simplefilter("error")
            for ((ex, g), (A, q, r)), alpha, t in itertools.product(
                self._WAVES.items(), ALPHAS, (0.25, 0.5, 0.75, 1.0)
            ):
                even, odd = self._even_odd(mpmath.mpf(alpha), r * mpmath.mpf(t) ** alpha)
                for x in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0):
                    want = A * (mpmath.cosh(q * x) * even - mpmath.sinh(q * x) * odd - 1)
                    got = exact_solution(ex, ExampleParams(gamma=g), alpha, x, t)
                    # the floor is for example 2's exact zero at x = 2, t = 1, alpha = 1
                    assert abs(got - want) <= 1e-13 * abs(want) + 1e-60, (ex, g, alpha, x, t, got)

    def test_tiny_alpha_refused_promptly(self):
        # the terms of E_alpha(1) stay near 1 at alpha = 1e-300: past the term cap
        start = time.perf_counter()
        with pytest.raises(ValueError):
            exact_solution(3, alpha=1e-300, x=0.0, t=1.0)
        assert time.perf_counter() - start < 1.0

    def test_overflow_found_before_the_cancelling_half(self, monkeypatch):
        # E_alpha(-|z|) is in (0, 1], so E_alpha(30) alone decides the overflow
        args = []
        real = ararps.solver._mittag_leffler

        def spy(alpha, z):
            args.append(z)
            return real(alpha, z)

        monkeypatch.setattr(ararps.solver, "_mittag_leffler", spy)
        with pytest.raises(OverflowError, match="example 2"):
            exact_solution(2, ExampleParams(gamma=30.0), 0.5, 0.0, 1.0)
        assert args and all(z >= 0.0 for z in args)

    def test_unknown_example(self):
        with pytest.raises(ValueError):
            exact_solution(9)
        with pytest.raises(ValueError):
            builtin_example(0)


def _json_paths(obj, prefix=()):
    """The path of every object member and list item in a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


_EXAMPLE_2_DOC = json.loads(pde_spec_to_json(builtin_example(2)))


class TestJsonSpecs:
    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(list(_json_paths(_EXAMPLE_2_DOC))), value=json_values,
           errors=st.just((ValueError, ArithmeticError)))
    @example(path=("alpha",), value="0.5", errors=ValueError)
    @example(path=("time_order",), value=True, errors=ValueError)
    @example(path=("alpha",), value=10 ** 400, errors=ValueError)
    @example(path=("ic_a", 1, "freq"), value=1e300, errors=ValueError)
    def test_any_value_in_one_field_parses_or_raises(self, path, value, errors):
        # ingest gives a PdeSpec or raises one of ``errors``, nothing else; the
        # examples (a wrong JSON type, a number past a range) must not parse
        try:
            spec = pde_spec_from_json(_edited_spec(path, value, example_id=2))
        except errors:
            return
        assert errors is not ValueError, f"parsed: {spec!r}"
        assert isinstance(spec, PdeSpec)

    def test_round_trip(self):
        specs = [with_alpha(builtin_example(ex), 0.75) for ex in (1, 2, 3, 4)]
        for spec in specs + [_generic_spec(), _shared_pow_spec()]:
            back = pde_spec_from_json(pde_spec_to_json(spec))
            assert back.time_order == spec.time_order
            assert back.alpha == spec.alpha
            assert back.rhs == spec.rhs
            r1 = solve(spec, 4)
            r2 = solve(back, 4)
            for c1, c2 in zip(r1.series.coeffs, r2.series.coeffs):
                _assert_expr(c1, c2, tol=1e-14)

    def test_bad_tag_rejected(self):
        with pytest.raises(ValueError):
            pde_spec_from_json(
                '{"time_order": 1, "alpha": 1.0, "rhs": {"node": "frobnicate"},'
                ' "ic_a": [{"kind": "const", "coeff": 1.0}]}'
            )

    @pytest.mark.parametrize(
        "path,value",
        [(("ic_a", 0, "coeff"), "nan"), (("ic_a", 0, "freq"), "nan"),
         (("rhs", "terms", 1, "factor"), "inf"), (("alpha",), "nan")],
        ids=["coeff-nan", "freq-nan", "factor-inf", "alpha-nan"],
    )
    def test_non_finite_number_rejected(self, path, value):
        with pytest.raises(ValueError, match="finite"):
            pde_spec_from_json(_edited_spec(path, value))

    @pytest.mark.parametrize(
        "path,value",
        [(("rhs", "terms", 0, "child", "exponent"), 2.7),
         (("rhs", "terms", 0, "order"), 1.5), (("time_order",), 1.5)],
        ids=["exponent", "dx-order", "time-order"],
    )
    def test_non_integral_int_rejected(self, path, value):
        with pytest.raises(ValueError, match="integer"):
            pde_spec_from_json(_edited_spec(path, value))

    @pytest.mark.parametrize(
        "text",
        [lambda: "[]", lambda: '{"time_order": 1}',
         lambda: _edited_spec(("ic_a", 0, "kind"), "tanh"),
         lambda: _edited_spec(("rhs", "terms", 0, "child"), 3),
         lambda: _edited_spec(("ic_a",), 5), lambda: _edited_spec(("alpha",), [0.5]),
         lambda: _edited_spec(("rhs", "terms"), {"node": "solution"}),
         lambda: _edited_spec(("alpha",), "0.5"), lambda: _edited_spec(("time_order",), True),
         lambda: _edited_spec(("alpha",), 10 ** 400)],
        ids=["list-document", "missing-keys", "unknown-kind", "non-object-node",
             "non-list-ic", "list-number", "object-terms", "string-number", "bool-number",
             "integer-past-double-range"],
    )
    def test_malformed_document_raises_value_error(self, text):
        # KeyError and TypeError inside the decoders surface as ValueError
        with pytest.raises(ValueError):
            pde_spec_from_json(text())

    def test_frequency_in_constant_cell_rejected(self):
        with pytest.raises(ValueError, match="2\\*\\*-31"):
            pde_spec_from_json(_edited_spec(("ic_a", 0, "freq"), 1e-10))

    @pytest.mark.parametrize("depth,ok", [(100, True), (101, False), (800, False), (5000, False)])
    def test_ast_depth_limited(self, depth, ok):
        spec = dx_chain_spec(depth)
        if ok:
            assert pde_spec_from_json(spec).rhs is not None
        else:
            with pytest.raises(ValueError):
                pde_spec_from_json(spec)

    @pytest.mark.parametrize(
        "path", [("rhs", "terms", 0, "child", "exponent"), ("rhs", "terms", 0, "order")],
        ids=["exponent", "dx-order"],
    )
    def test_budget_checked_at_ingest(self, path):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="64"):
            pde_spec_from_json(_edited_spec(path, 1e12))
        assert time.perf_counter() - t0 < 1.0

    def test_integral_float_accepted(self):
        spec = pde_spec_from_json(_edited_spec(("rhs", "terms", 0, "child", "exponent"), 3.0))
        assert spec.rhs == builtin_example(4).rhs

    def test_field_table_covers_every_field(self):
        # the spec and every node decode through the one table, keyed by annotation
        classes = [PdeSpec, *ararps.solver._NODES.values()]
        missing = {f.type for cls in classes for f in fields(cls)} - set(ararps.solver._FIELD_DECODERS)
        assert missing == set()

    @pytest.mark.parametrize("example_id", [1, 4])
    def test_spec_keys_are_field_names(self, example_id):
        # the spec's keys follow PdeSpec's fields in order; example 4 has no ic_b
        spec = builtin_example(example_id)
        keys = list(json.loads(pde_spec_to_json(spec)))
        assert keys == [f.name for f in fields(PdeSpec) if f.name != "ic_b" or spec.ic_b is not None]
        assert ("ic_b" in keys) == (example_id == 1)

    def test_readme_spec_solves(self):
        # the README's schema example must parse and solve with this codec
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert len(blocks) == 1
        spec = pde_spec_from_json(blocks[0])
        assert solve(spec, 2).order == 2


def _edited_spec(path, value, example_id=4) -> str:
    """The example's JSON with the item at ``path`` set to ``value``."""
    doc = json.loads(pde_spec_to_json(builtin_example(example_id)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)
