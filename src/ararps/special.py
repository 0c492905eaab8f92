"""Gamma-function helpers and the truncated hyperbolic-type fractional series.

Everything here is scalar double-precision arithmetic.  Integer and
half-integer Gamma arguments are detected and dispatched to exact
recurrences so that the classical (alpha = 1) tables are bit-stable.
"""

from __future__ import annotations

import math

__all__ = [
    "gamma",
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
