"""Gamma-function helpers and the truncated hyperbolic-type fractional series.

Everything here is scalar double-precision arithmetic.  Integer and
half-integer Gamma arguments are detected and dispatched to exact
recurrences so that the classical (alpha = 1) tables are bit-stable.
"""

from __future__ import annotations

import math

__all__ = [
    "gamma",
    "gamma_ratio",
    "frac_cosh_series",
    "frac_sinh_series",
    "tpow",
]

_INT_TOL = 1e-12
# Largest argument for which Gamma(x) is finite in double precision.
_GAMMA_OVERFLOW = 171.624


def _near_int(x: float) -> int | None:
    n = round(x)
    if abs(x - n) < _INT_TOL:
        return int(n)
    return None


def gamma(x: float) -> float:
    """Gamma(x) for x > 0, exact on integer and half-integer arguments."""
    if not x > 0.0:
        raise ValueError(f"gamma: argument must be positive, got {x!r}")
    if x > _GAMMA_OVERFLOW:
        raise OverflowError(f"gamma: overflow for argument {x!r}")
    n = _near_int(x)
    if n is not None:
        return float(math.factorial(n - 1))
    m = _near_int(x - 0.5)
    if m is not None:
        # Gamma(m + 1/2) = sqrt(pi) * prod_{i=1..m} (i - 1/2)
        acc = math.sqrt(math.pi)
        for i in range(1, m + 1):
            acc *= i - 0.5
        return acc
    return math.gamma(x)


def gamma_ratio(p: float, q: float) -> float:
    """Gamma(p)/Gamma(q) without intermediate overflow.

    When p - q is an integer the ratio is evaluated by the recurrence
    Gamma(x+1) = x*Gamma(x), which keeps e.g. gamma_ratio(10.5, 8.5)
    exactly 80.75.  Otherwise it falls back to lgamma subtraction.
    """
    if not (p > 0.0 and q > 0.0):
        raise ValueError(f"gamma_ratio: arguments must be positive, got {p!r}, {q!r}")
    d = p - q
    k = _near_int(d)
    if k is not None and abs(k) <= 60:
        if k >= 0:
            acc = 1.0
            for i in range(k):
                acc *= q + i
            return acc
        acc = 1.0
        for i in range(-k):
            acc *= p + i
        return 1.0 / acc
    return math.exp(math.lgamma(p) - math.lgamma(q))


def tpow(t: float, p: float) -> float:
    """t**p with the 0**0 = 1 convention used by every series evaluation."""
    if t == 0.0:
        return 1.0 if p == 0.0 else 0.0
    return t ** p


def frac_cosh_series(alpha: float, a: float, t: float, K: int) -> float:
    """Sum_{n=0..K} a^(2n) * t^(2n*alpha) / Gamma(2n*alpha + 1).

    The even half of the hyperbolic traveling-wave factor; reduces to
    cosh(a*t) when alpha = 1 and K is large.
    """
    if K < 0:
        raise ValueError("frac_cosh_series: K must be >= 0")
    terms = [
        a ** (2 * n) * tpow(t, 2 * n * alpha) / gamma(2 * n * alpha + 1.0)
        for n in range(K + 1)
    ]
    return math.fsum(terms)


def frac_sinh_series(alpha: float, a: float, t: float, K: int) -> float:
    """Sum_{n=0..K} a^(2n+1) * t^((2n+1)*alpha) / Gamma((2n+1)*alpha + 1)."""
    if K < 0:
        raise ValueError("frac_sinh_series: K must be >= 0")
    terms = [
        a ** (2 * n + 1)
        * tpow(t, (2 * n + 1) * alpha)
        / gamma((2 * n + 1) * alpha + 1.0)
        for n in range(K + 1)
    ]
    return math.fsum(terms)
