"""Gamma, the Mittag-Leffler function, and the truncated hyperbolic-type fractional series.

Gamma is evaluated here only: one cached 40-digit ``mpmath.gamma`` value per
argument, which ``gamma`` and ``rgamma`` round once to a double.  The solver
converts between c_n and its scaled Taylor coefficients c_n 2^(n*e) / Gamma(n*alpha + 1)
with those doubles, and reads the 40-digit value where one, or its shift, is
not a normal number, as ``fpseries.conv_weight`` does for its ratios.  Every series term
t^p / Gamma(p+1) is formed as ``tpow(t, p) * rgamma(p + 1)``, so a deep term
underflows to zero instead of overflowing.  ``_mittag_leffler`` gives
E_alpha(z) in mpmath for the closed-form benchmark waves.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath

__all__ = [
    "gamma",
    "rgamma",
    "frac_cosh_series",
    "frac_sinh_series",
    "tpow",
]


@lru_cache(maxsize=None)
def _gamma40(x: float) -> tuple[mpmath.mpf, float, float]:
    """Gamma(x) to 40 digits, and it and its reciprocal rounded to doubles."""
    if not x > 0.0:
        raise ValueError(f"gamma: argument must be positive, got {x!r}")
    with mpmath.workdps(40):
        g = mpmath.gamma(x)
        return g, float(g), float(1 / g)


def gamma(x: float) -> float:
    """Gamma(x) for x > 0, correctly rounded; OverflowError past the double range."""
    g = _gamma40(x)[1]
    if g == math.inf:
        raise OverflowError(f"gamma: overflow for argument {x!r}")
    return g


def rgamma(x: float) -> float:
    """1 / Gamma(x) for x > 0, correctly rounded; underflows to 0.0 for large x."""
    return _gamma40(x)[2]


# E_alpha(z) is summed until a term is _ML_DIGITS digits below 1, at _ML_DIGITS
# digits above its largest term when z < 0 (and 5 more when z >= 0); more than
# _ML_MAX_TERMS terms are refused
_ML_DIGITS, _ML_MAX_TERMS = 25, 5000


@lru_cache(maxsize=None)
def _mittag_leffler(alpha: float, z: float) -> mpmath.mpf:
    """E_alpha(z) = Sum_k z^k / Gamma(alpha*k + 1) for finite real z, to ~1e-25 * max(1, |E|).

    log|term k| is concave in k (lgamma is convex), so the terms rise to one
    peak, at least term 0 = 1, and then fall for good: a term 25 digits below 1
    is past the peak and 25 digits below it.  The terms for z < 0 cancel, hence
    the working precision there; for z >= 0 they are all positive, and their
    sum is at least 1.  ValueError, before summing, past the cap.
    """
    if not math.isfinite(z):
        raise ValueError(f"Mittag-Leffler: argument must be finite, got {z!r}")
    log_z = math.log(abs(z)) if z else -math.inf
    stop = -_ML_DIGITS * math.log(10.0)
    peak, n = 0.0, 1
    while (log_term := n * log_z - math.lgamma(alpha * n + 1.0)) >= stop:
        peak, n = max(peak, log_term), n + 1
        if n > _ML_MAX_TERMS:
            raise ValueError(f"Mittag-Leffler E_alpha(z) at alpha={alpha!r}, z={z!r} "
                             f"needs more than {_ML_MAX_TERMS} terms")
    with mpmath.workdps(_ML_DIGITS + (5 if z >= 0.0 else math.ceil(peak / math.log(10.0)))):
        a, x = mpmath.mpf(alpha), mpmath.mpf(z)
        return mpmath.fsum(x ** k * mpmath.rgamma(a * k + 1) for k in range(n))


def tpow(t: float, p: float) -> float:
    """t**p for t >= 0, where 0**0 = 1; ValueError for t < 0 or NaN, OverflowError names t, p."""
    if not t >= 0.0:
        raise ValueError(f"t**p needs t >= 0, got t={t!r}")
    try:
        return t ** p
    except OverflowError:
        raise OverflowError(f"t**p overflows at t={t!r}, p={p!r}") from None


def _frac_half(alpha: float, a: float, t: float, K: int, first: int) -> float:
    if K < 0:
        raise ValueError("frac_cosh_series/frac_sinh_series: K must be >= 0")
    return math.fsum(
        a ** k * tpow(t, k * alpha) * rgamma(k * alpha + 1.0)
        for k in range(first, 2 * K + 2, 2)
    )


def frac_cosh_series(alpha: float, a: float, t: float, K: int) -> float:
    """Sum_{n=0..K} a^(2n) * t^(2n*alpha) / Gamma(2n*alpha + 1).

    The even half of the hyperbolic traveling-wave factor; reduces to
    cosh(a*t) when alpha = 1 and K is large.
    """
    return _frac_half(alpha, a, t, K, 0)


def frac_sinh_series(alpha: float, a: float, t: float, K: int) -> float:
    """Sum_{n=0..K} a^(2n+1) * t^((2n+1)*alpha) / Gamma((2n+1)*alpha + 1)."""
    return _frac_half(alpha, a, t, K, 1)
