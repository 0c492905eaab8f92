import ast
import math
import random
import time
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, strategies as st

from ararps.special import (
    _gamma40,
    _mittag_leffler,
    frac_cosh_series,
    frac_sinh_series,
    gamma,
    rgamma,
    tpow,
)

# n*alpha + 1 for n <= 3000 at six alphas, and 8,200 random x in (0.001, 3000): 20,025 in all
_RNG = random.Random(47)
_ARGS = sorted(
    {n * a + 1.0 for a in (0.25, 0.5, 0.75, 1.0, 1.0 / 3.0, 0.7) for n in range(3001)}
    | {_RNG.uniform(0.001, 3000.0) for _ in range(8200)}
)


class TestGamma:
    def test_integers_exact(self):
        for n in range(1, 20):
            assert gamma(float(n)) == float(math.factorial(n - 1))

    def test_correctly_rounded(self):
        # against mpmath at 60 digits, an oracle independent of special's decimal Gamma
        assert len(_ARGS) > 20000
        with mpmath.workdps(60):
            for x in _ARGS:
                want = mpmath.gamma(x)
                assert _gamma40(x)[1:] == (float(want), float(1 / want)), x
        assert gamma(171.5) == float(mpmath.gamma(171.5))
        with pytest.raises(OverflowError):
            gamma(172.0)

    def test_agrees_with_math_gamma(self):
        for x in (0.3, 1.7, 4.123, 33.33):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma(0.0)
        with pytest.raises(ValueError):
            gamma(-1.5)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma(172.0)

    def test_reciprocal_underflows(self):
        assert 0.0 < rgamma(172.0) < 2.0 ** -1022  # subnormal
        assert rgamma(200.0) == 0.0
        with pytest.raises(ValueError):
            rgamma(0.0)


def test_gamma_evaluated_only_in_special():
    # every Gamma value comes from special's one cached source: exact factorials and
    # Stirling's series (special._stirling), which no other module calls
    users = {}
    for path in (Path(__file__).resolve().parents[1] / "src" / "ararps").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}", node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names] + [a.name for a in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            for name in {"math.gamma", "math.factorial", "mpmath.gamma", "_stirling"} & set(names):
                users.setdefault(name, set()).add(path.name)
    assert users == {"math.factorial": {"special.py"}, "_stirling": {"special.py"}}


class TestTpow:
    def test_zero_conventions(self):
        assert tpow(0.0, 0.0) == 1.0
        assert tpow(0.0, 0.5) == 0.0
        assert tpow(2.0, 3.0) == 8.0

    @pytest.mark.parametrize("t", [-1.0, -1e-300, -math.inf, math.nan])
    def test_rejects_negative_and_nan_t(self, t):
        with pytest.raises(ValueError, match=r"t >= 0, got t="):
            tpow(t, 0.5)

    def test_overflow_names_t_and_p(self):
        with pytest.raises(OverflowError, match=r"t=1e\+300, p=2\.0"):
            tpow(1e300, 2.0)


class TestMittagLeffler:
    @pytest.mark.parametrize("z", [-12.0, -3.0, 0.0, 0.5, 7.0])
    def test_closed_forms(self, z):
        # E_1(z) = e^z, E_1/2(z) = e^(z^2) erfc(-z); for z < 0 both sums cancel
        with mpmath.workdps(40):
            for alpha, want in ((1.0, mpmath.exp(z)),
                                (0.5, mpmath.exp(z * z) * mpmath.erfc(-z))):
                got = mpmath.mpf(str(_mittag_leffler(alpha, z)))  # a Decimal, converted explicitly
                assert abs(got - want) <= 1e-22 * max(1, abs(want))

    @pytest.mark.parametrize("alpha,z", [(1e-300, 1.0), (0.05, 2.0), (0.5, math.nan)])
    def test_refused_past_the_term_cap(self, alpha, z):
        with pytest.raises(ValueError):
            _mittag_leffler(alpha, z)


class TestHyperbolicSeries:
    def test_classical_limits(self):
        for a in (0.5, 1.0, 2.0):
            for t in (0.0, 0.3, 1.0):
                assert frac_cosh_series(1.0, a, t, 40) == pytest.approx(
                    math.cosh(a * t), rel=1e-14, abs=1e-15
                )
                assert frac_sinh_series(1.0, a, t, 40) == pytest.approx(
                    math.sinh(a * t), rel=1e-14, abs=1e-15
                )

    def test_value_at_t0(self):
        assert frac_cosh_series(0.5, 2.0, 0.0, 10) == 1.0
        assert frac_sinh_series(0.5, 2.0, 0.0, 10) == 0.0

    @given(
        alpha=st.floats(0.25, 1.0),
        a=st.floats(0.1, 2.0),
        t=st.floats(0.0, 1.0),
    )
    def test_sum_of_halves_is_ml_like_series(self, alpha, a, t):
        # even half + odd half = sum over all n of a^n t^(n alpha)/Gamma(n alpha + 1)
        total = frac_cosh_series(alpha, a, t, 30) + frac_sinh_series(alpha, a, t, 30)
        direct = math.fsum(
            a ** n * tpow(t, n * alpha) / gamma(n * alpha + 1.0) for n in range(62)
        )
        assert total == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            frac_cosh_series(0.5, 1.0, 0.1, -1)
