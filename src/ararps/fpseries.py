"""Truncated fractional power series in t^alpha with HypExpr coefficients.

A ``FracSeries`` stores c_0..c_K where c_n(x) is the n-fold sequential
Caputo derivative of the represented function at t = 0, so the function is

    y(x, t) = sum_n c_n(x) * t^(n*alpha) / Gamma(n*alpha + 1).

Storing the derivatives themselves (rather than the Taylor coefficients
a_n = c_n / Gamma(n*alpha + 1)) makes Caputo differentiation an exact index
shift and matches the transform-space coefficients h_n = (n*alpha + 1) c_n.

The engine's product ``mul_coeff`` works on Taylor coefficients, where every
pair of a Cauchy product has weight 1 (a square takes each pair (m, n-m),
m < n-m, once at weight 2).  Each output coefficient is one call of one of
two kernels in doubles, chosen by ``hypalg._lattice`` from the operands'
sizes: the sparse ``hypalg._products``, whose frequency keys are one
``math.fsum`` each, or, for large operands on a rank-1 basis g, the dense
``hypalg._laurent_products``, whose powers of z = e^(gx) are one
``math.fsum`` each.  Each sum is correctly rounded, independent of the order
of the contributions, and the same on every platform.  Only ``series_mul``,
the product of stored c_n, weighs pair (m, j) by ``conv_weight``,
Gamma((m+j)alpha+1) / (Gamma(m*alpha+1) Gamma(j*alpha+1)), the exact ratio of
``special``'s cached Gamma values rounded once; the engine shares none of its weights.

Evaluation multiplies each term by the cached 1/Gamma(n*alpha+1),
``special.rgamma``, so a deep term underflows to zero instead of
overflowing.  ``series_grid`` collapses the orders once per t onto the
series' basis functions, so a point costs one product per basis function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import Sequence

from .hypalg import HypExpr, _basis, _fsum, _laurent_products, _lattice, _products
from .special import _gamma40, _to_double, rgamma, tpow

__all__ = [
    "FracSeries",
    "series_caputo",
    "series_mul",
    "mul_coeff",
    "series_pow",
    "series_spatial_diff",
    "series_eval",
    "series_grid",
    "conv_weight",
]

@lru_cache(maxsize=None)
def conv_weight(alpha: float, m: int, j: int) -> float:
    """Gamma((m+j)a+1) / (Gamma(ma+1) Gamma(ja+1)): the exact ratio of special's cached Gamma
    values, rounded once.  It is exact where they are: at alpha = 1 the binomial C(m+j, m)
    rounded once, for m + j < 1024."""
    g = lambda k: Fraction(_gamma40(k * alpha + 1.0)[0])
    return _to_double(*(g(m + j) / (g(m) * g(j))).as_integer_ratio())


@dataclass(frozen=True)
class FracSeries:
    """Truncated series sum_n c_n(x) t^(n*alpha)/Gamma(n*alpha+1)."""

    alpha: float
    coeffs: tuple[HypExpr, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha!r}")
        if not self.coeffs:
            raise ValueError("series needs at least the order-0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def zero(alpha: float, order: int) -> "FracSeries":
        return FracSeries(alpha, (HypExpr.zero(),) * (order + 1))

    @staticmethod
    def constant(alpha: float, value: float, order: int) -> "FracSeries":
        return FracSeries(
            alpha, (HypExpr.const(value),) + (HypExpr.zero(),) * order
        )

    def truncate(self, order: int) -> "FracSeries":
        if order >= self.order:
            return self
        return FracSeries(self.alpha, self.coeffs[: order + 1])

    def __add__(self, other: "FracSeries") -> "FracSeries":
        _check_alpha(self, other)
        k = min(self.order, other.order)
        return FracSeries(
            self.alpha,
            tuple(self.coeffs[n] + other.coeffs[n] for n in range(k + 1)),
        )

    def scale(self, factor: float) -> "FracSeries":
        return FracSeries(self.alpha, tuple(c.scale(factor) for c in self.coeffs))


def _check_alpha(s1: FracSeries, s2: FracSeries) -> None:
    if s1.alpha != s2.alpha:
        raise ValueError(f"alpha mismatch: {s1.alpha!r} vs {s2.alpha!r}")


def series_caputo(s: FracSeries) -> FracSeries:
    """Sequential Caputo derivative of order alpha: an exact left shift."""
    if s.order < 1:
        raise ValueError("series_caputo: order-0 series cannot be shifted")
    return FracSeries(s.alpha, s.coeffs[1:])


def mul_coeff(a: Sequence[HypExpr], b: Sequence[HypExpr], n: int) -> HypExpr:
    """Coefficient n of the Cauchy product of the Taylor coefficient lists a and b, each pair
    at weight 1.  Reads only a[0..n] and b[0..n], so both lists may grow one entry at a time."""
    # a square takes m to the middle only, at weight 2 below it: fsum([x, x]) == fsum([2x]),
    # exact away from subnormals.  The kernel is chosen from the operands alone, so a
    # square and the product of two equal lists give the same bits.
    g = _lattice(a, b, n)
    pairs = ([(a[m], a[n - m], 2.0 if 2 * m < n else 1.0) for m in range(n // 2 + 1)] if a is b
             else [(a[m], b[n - m], 1.0) for m in range(n + 1)])
    return _products(pairs) if g is None else _laurent_products(pairs, g)


def series_mul(s1: FracSeries, s2: FracSeries) -> FracSeries:
    """Cauchy product of the stored c_n, truncated to min order: pair (m, n-m) weighs
    ``conv_weight`` of the two orders, smaller first, and every product takes the sparse kernel."""
    _check_alpha(s1, s2)
    a, b, alpha = s1.coeffs, s2.coeffs, s1.alpha
    return FracSeries(alpha, tuple(_products(
        (a[m], b[n - m], conv_weight(alpha, min(m, n - m), max(m, n - m))) for m in range(n + 1))
        for n in range(min(s1.order, s2.order) + 1)
    ))


def series_pow(s: FracSeries, p: int) -> FracSeries:
    """p-th power by repeated multiplication; order is preserved."""
    if p < 2:
        raise ValueError("series_pow: exponent must be >= 2")
    acc = s
    for _ in range(p - 1):
        acc = series_mul(acc, s)
    return acc


def series_spatial_diff(s: FracSeries, m: int = 1) -> FracSeries:
    if m < 1:
        raise ValueError("series_spatial_diff: order must be >= 1")
    return FracSeries(s.alpha, tuple(c.diff(m) for c in s.coeffs))


def series_grid(s: FracSeries, xs: Sequence[float], ts: Sequence[float]) -> list[list[float]]:
    """y(x, t) on the grid xs x ts: one row per x, one column per t.

    Per t, B_t[j] = fsum_n c_(n,j) * t^(n*alpha) * 1/Gamma(n*alpha+1), multiplied
    left to right, for each basis function phi_j (exact kind and freq) of the
    series; a point is fsum_j B_t[j] * phi_j(x), each phi_j evaluated once per x.
    A point whose value is not finite raises OverflowError naming x and t.
    """
    if not all(map(math.isfinite, chain(xs, ts))) or any(t < 0.0 for t in ts):
        raise ValueError("series_eval/series_grid: x must be finite, t finite and >= 0")
    rg = [rgamma(n * s.alpha + 1.0) for n in range(len(s.coeffs))]
    basis: dict[tuple, list[tuple[int, float]]] = {}  # (kind, freq) -> its (n, c_(n,j))
    for n, c in enumerate(s.coeffs):
        for k, f, v in c.terms:
            basis.setdefault((k, f), []).append((n, v))
    tw = [[tpow(t, n * s.alpha) for n in range(len(rg))] for t in ts]
    bt = [[_fsum(v * w[n] * rg[n] for n, v in nv) for nv in basis.values()] for w in tw]
    rows = []
    for x in xs:
        phi = [_basis(k, f, x) for k, f in basis]
        row = [_fsum(map(mul, b, phi)) for b in bt]
        if not all(map(math.isfinite, row)):  # an inf phi_j counts only where it has weight
            row = [_fsum(w * p for w, p in zip(b, phi) if w) for b in bt]
            if not all(map(math.isfinite, row)):
                t = next(t for t, v in zip(ts, row) if not math.isfinite(v))
                raise OverflowError(f"series value at x={x!r}, t={t!r} is not finite")
        rows.append(row)
    return rows


def series_eval(s: FracSeries, x: float, t: float) -> float:
    """y(x, t) at one point: the 1x1 grid."""
    return series_grid(s, [x], [t])[0][0]
