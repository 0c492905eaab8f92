"""Gamma, the Mittag-Leffler function, and the truncated hyperbolic-type fractional series.

Gamma is evaluated here only, on the standard library: the exact
``math.factorial`` at an integer argument, (x - 1) * Gamma(x - 1) where that
value is cached, else Stirling's series after an upward shift in ``decimal``.
Each argument's value, exact or to at least 40 digits, is cached with its and
its reciprocal's doubles, each rounded once, which ``gamma`` and ``rgamma``
return.  The solver converts between c_n and its scaled Taylor coefficients
c_n 2^(n*e) / Gamma(n*alpha + 1) with those doubles, and takes the exact
``Fraction`` product with the cached value, rounded once, where one, or its
shift, is not a normal number, as ``fpseries.conv_weight`` does for its ratios.  Every series term
t^p / Gamma(p+1) is formed as ``tpow(t, p) * rgamma(p + 1)``, so a deep term
underflows to zero instead of overflowing.  ``_mittag_leffler`` gives
E_alpha(z) in ``decimal`` for the closed-form benchmark waves.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "gamma",
    "rgamma",
    "frac_cosh_series",
    "frac_sinh_series",
    "tpow",
]

_GUARD = 10  # digits carried past each Gamma value's target
_DIGITS = 40  # the cached Gamma values' target
_EXACT_MAX = 1024.0  # exact Gamma values up to here: a bound on the digits each holds


def _context(digits: int) -> Context:
    """``digits`` digits, exponents without practical bound, an overflow as Infinity."""
    return Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])


@lru_cache(maxsize=None)
def _bernoulli(count: int) -> tuple[Fraction, ...]:
    """B_2, B_4, ..., B_(2 count), exact: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the
    tangent numbers T_k, which integer arithmetic alone builds (Brent & Harvey 2011)."""
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1)) for k in range(1, count + 1))


@lru_cache(maxsize=None)
def _stirling_terms(digits: int) -> tuple[list[Decimal], Decimal]:
    """The coefficients B_2k / (2k (2k-1)) that take Stirling's series at y >= ``digits``
    below 10^-digits, and log(2 pi) / 2, each to ``digits`` digits."""
    ctx = _context(digits)
    # |B_2k| = 2 (2k)! zeta(2k) / (2 pi)^2k with zeta(2k) <= pi^2/6 < e^0.5: count bounds the first term left out
    count = 1
    while (math.log(2.0) + 0.5 + math.lgamma(2 * count + 1) - 2 * count * math.log(2 * math.pi)
           - math.log(2 * count * (2 * count - 1)) - (2 * count - 1) * math.log(digits)) >= -digits * math.log(10.0):
        count += 1
    one = 10 ** (digits + 5)  # Machin: 2 pi = 32 acot 5 - 8 acot 239, in integers scaled by one
    two_pi = ctx.divide(32 * _acot(5, one) - 8 * _acot(239, one), one)
    terms = [ctx.divide(b.numerator, b.denominator * (2 * k + 2) * (2 * k + 1))
             for k, b in enumerate(_bernoulli(count))]
    return terms, ctx.divide(ctx.ln(two_pi), 2)


def _acot(n: int, one: int) -> int:
    """arctan(1/n) scaled by ``one``, truncating each term of its Taylor series."""
    total, power, k = 0, one // n, 1
    while power:
        total += power // k if k % 4 == 1 else -(power // k)
        power, k = power // (n * n), k + 2
    return total


def _stirling(x: Decimal, digits: int) -> Decimal:
    """Gamma(x) for x > 0 to about ``digits`` digits, at ``work`` digits: x shifted up to
    y = x + N >= work, where Stirling's series
    log Gamma(y) = (y - 1/2) log y - y + log(2 pi)/2 + Sum_k B_2k / (2k (2k-1) y^(2k-1))
    converges fast enough, and Gamma(x) = Gamma(y) / (x (x+1) ... (y-1))."""
    work = (digits + _GUARD + 9) // 10 * 10  # at least _GUARD more, in few distinct sizes
    terms, half_log_2pi = _stirling_terms(work)
    with localcontext(_context(work)):
        y, shift = x, Decimal(1)
        while y < work:
            y, shift = y + 1, shift * y
        w, series = 1 / (y * y), Decimal(0)
        for c in reversed(terms):
            series = series * w + c
        return ((y - Decimal("0.5")) * y.ln() - y + half_log_2pi + series / y).exp() / shift


_GAMMA: dict[float, tuple[Fraction | Decimal | None, float, float]] = {}


def _gamma40(x: float) -> tuple[Fraction | Decimal | None, float, float]:
    """Gamma(x), and it and its reciprocal rounded once to doubles; cached per argument.

    Where Gamma(x-1) is cached, Gamma(x) is (x-1) Gamma(x-1): exactly, as a Fraction,
    up to ``_EXACT_MAX``, so the ratio of two of one fractional part is exact too; past
    it, as a Decimal rounded to 50 digits.  Else Gamma(x) is exact at an integer up to
    ``_EXACT_MAX``, and Stirling's series to at least 40 digits elsewhere.  From 2**53,
    where x - 1 is not exact and Gamma(x) is past 10**(10**16), the value is None: no
    caller reads it there.
    """
    got = _GAMMA.get(x)
    if got is not None:
        return got
    if not x > 0.0:
        raise ValueError(f"gamma: argument must be positive, got {x!r}")
    with localcontext(_context(_DIGITS + _GUARD)):
        prev = _GAMMA.get(x - 1.0, (None,))[0]  # x - 1.0 is exact below 2**53
        if x >= 2.0 ** 53:
            got = None, math.inf, 0.0
        elif x > _EXACT_MAX:  # a Decimal rounds to a double without overflow
            g = prev * Decimal(x - 1.0) if isinstance(prev, Decimal) else _stirling(Decimal(x), _DIGITS)
            got = g, float(g), float(1 / g)
        else:
            if prev is not None:
                g = prev * Fraction(x - 1.0)
            elif x % 1.0 == 0.0:
                g = Fraction(math.factorial(int(x) - 1))
            else:
                g = Fraction(_stirling(Decimal(x), _DIGITS))
            got = g, _to_double(g.numerator, g.denominator), _to_double(g.denominator, g.numerator)
    _GAMMA[x] = got
    return got


def _to_double(num: int, den: int) -> float:
    """num / den for den > 0, rounded once; +-inf past the double range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


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
def _mittag_leffler(alpha: float, z: float) -> Decimal:
    """E_alpha(z) = Sum_k z^k / Gamma(alpha*k + 1) for finite real z, to ~1e-25 * max(1, |E|).

    log|term k| is concave in k (lgamma is convex), so the terms rise to one
    peak, at least term 0 = 1, and then fall for good: a term 25 digits below 1
    is past the peak and 25 digits below it.  The terms for z < 0 cancel, hence
    the working precision there; for z >= 0 they are all positive, and their
    sum is at least 1.  With alpha = p/q in lowest terms, Gamma(alpha*k + 1) is
    Gamma(alpha*(k-q) + 1) times p factors once k >= q, and Stirling's series
    before.  ValueError, before summing, past the cap.
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
    digits = _ML_DIGITS + (5 if z >= 0.0 else math.ceil(peak / math.log(10.0)))
    p, q = alpha.as_integer_ratio()
    with localcontext(_context(digits + _GUARD)):
        a, x = Decimal(alpha), Decimal(z)
        gammas, power, total = [Decimal(1)], Decimal(1), Decimal(1)
        for k in range(1, n):
            arg = a * k + 1
            if k < q:  # a term this far below the peak needs fewer digits, unless later ones build on it
                lost = 0 if q < n else int((peak - k * log_z + math.lgamma(alpha * k + 1.0)) / math.log(10.0))
                gammas.append(_stirling(arg, max(digits - lost, 0)))
            else:
                g = gammas[k - q]
                for i in range(1, p + 1):
                    g *= arg - i
                gammas.append(g)
            power *= x
            total += power / gammas[k]
        return total


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
