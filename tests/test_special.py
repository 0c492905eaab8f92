import math

import pytest
from hypothesis import given, strategies as st

from ararps.special import (
    frac_cosh_series,
    frac_sinh_series,
    gamma,
    tpow,
)


class TestGamma:
    def test_integers_exact(self):
        for n in range(1, 20):
            assert gamma(float(n)) == float(math.factorial(n - 1))

    def test_half_integers_exact(self):
        assert gamma(0.5) == math.sqrt(math.pi)
        assert gamma(1.5) == 0.5 * math.sqrt(math.pi)
        assert gamma(2.5) == 0.75 * math.sqrt(math.pi)

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


class TestTpow:
    def test_zero_conventions(self):
        assert tpow(0.0, 0.0) == 1.0
        assert tpow(0.0, 0.5) == 0.0
        assert tpow(2.0, 3.0) == 8.0


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
