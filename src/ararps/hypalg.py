"""Closed algebra of finite combinations of 1, cosh(k*x) and sinh(k*x).

Every spatial coefficient produced by the solver lives in this basis, so
addition, multiplication (via product-to-sum identities), differentiation
and pointwise evaluation are exact up to floating-point rounding.
Expressions are kept in a canonical form: terms sorted by (kind, frequency),
contributions merged when their frequencies fall in the same cell
``round(freq * 2**30)`` (cell 0 is the constant term), and terms whose
coefficients sum to exactly zero dropped.  Nothing else is pruned.
``_product_terms`` and ``_canonical`` are the one product-to-sum kernel;
``fpseries`` products use them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator

__all__ = ["Kind", "HypExpr"]

_CELLS = 2.0 ** 30  # frequency cells per unit; one cell is 2**-30 wide


class Kind(IntEnum):
    CONST = 0
    COSH = 1
    SINH = 2


# for _canonical's loop: on CPython 3.11 each ``Kind.X`` lookup costs ~140 ns
_CONST, _SINH = Kind.CONST, Kind.SINH
# d/dx swaps cosh and sinh; a dict keeps the kinds Kind members (IntEnum sums are ints)
_SWAP = {Kind.COSH: Kind.SINH, Kind.SINH: Kind.COSH}
# k1(a) * k2(b) = 0.5 * kind(a+b) + sign * kind(a-b), with (kind, sign) = _PRODUCT[k1, k2]
_PRODUCT = {
    (Kind.COSH, Kind.COSH): (Kind.COSH, 0.5),   # (cosh(a+b) + cosh(a-b))/2
    (Kind.SINH, Kind.SINH): (Kind.COSH, -0.5),  # (cosh(a+b) - cosh(a-b))/2
    (Kind.SINH, Kind.COSH): (Kind.SINH, 0.5),   # (sinh(a+b) + sinh(a-b))/2
    (Kind.COSH, Kind.SINH): (Kind.SINH, -0.5),  # (sinh(a+b) - sinh(a-b))/2
}


def _canonical(raw: Iterable[tuple[Kind, float, float]]) -> tuple[tuple[Kind, float, float], ...]:
    """Fold signs, merge contributions by frequency cell, drop exact zeros, sort.

    Contributions merge when kind and cell ``round(freq * 2**30)`` agree, so
    the merge is transitive and independent of term order.  A bucket keeps
    the first frequency put into it; its coefficient is the ``math.fsum`` of
    its contributions, correctly rounded whatever their order.  Equal
    frequencies on either side of a cell edge stay two terms, which is
    harmless pointwise.  Only exact zeros are dropped: a small coefficient on
    a high frequency can still be large pointwise.  A bucket whose sum is not
    finite, fsum's overflow and inf - inf errors included, raises OverflowError.
    """
    buckets: dict[tuple[Kind, int], tuple[float, list]] = {}
    for kind, freq, coeff in raw:
        if coeff == 0.0:
            continue
        if freq < 0.0:
            # cosh is even, sinh is odd
            freq = -freq
            if kind is _SINH:
                coeff = -coeff
        cell = round(freq * _CELLS)
        if cell == 0:
            if kind is _SINH:
                continue  # sinh(0) == 0
            kind, freq = _CONST, 0.0
        elif kind is _CONST:
            raise ValueError("CONST term with nonzero frequency")
        bucket = buckets.get((kind, cell))
        if bucket is None:
            buckets[kind, cell] = (freq, [coeff])
        else:
            bucket[1].append(coeff)
    kept = []
    for (k, _), (f, vs) in sorted(buckets.items()):  # cells are ordered like their frequencies
        try:
            c = math.fsum(vs)
        except (OverflowError, ValueError):
            c = math.nan
        if not math.isfinite(c):
            raise OverflowError(f"coefficient of {k.name.lower()}({f:g}*x) is not finite")
        if c != 0.0:
            kept.append((k, f, c))
    return tuple(kept)


def _checked_freq(freq: float) -> float:
    """``freq``, unless it is nonzero yet in cell 0, which ``_canonical`` reads as 0."""
    if 0.0 < abs(freq) <= 2.0 ** -31:
        raise ValueError(f"frequency {freq!r} is nonzero but at most 2**-31")
    return freq


@dataclass(frozen=True)
class HypExpr:
    """Immutable canonical combination of CONST/COSH/SINH terms."""

    terms: tuple[tuple[Kind, float, float], ...] = ()

    @staticmethod
    def of(raw: Iterable[tuple[Kind, float, float]]) -> "HypExpr":
        return HypExpr(_canonical(raw))

    @staticmethod
    def zero() -> "HypExpr":
        return HypExpr()

    @staticmethod
    def const(c: float) -> "HypExpr":
        return HypExpr.of([(Kind.CONST, 0.0, float(c))])

    @staticmethod
    def cosh(freq: float, coeff: float = 1.0) -> "HypExpr":
        return HypExpr.of([(Kind.COSH, _checked_freq(float(freq)), float(coeff))])

    @staticmethod
    def sinh(freq: float, coeff: float = 1.0) -> "HypExpr":
        return HypExpr.of([(Kind.SINH, _checked_freq(float(freq)), float(coeff))])

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "HypExpr") -> "HypExpr":
        return HypExpr.of(list(self.terms) + list(other.terms))

    def __sub__(self, other: "HypExpr") -> "HypExpr":
        return self + (-other)

    def __neg__(self) -> "HypExpr":
        return HypExpr(tuple((k, f, -c) for k, f, c in self.terms))

    def scale(self, factor: float) -> "HypExpr":
        if factor == 0.0:
            return HypExpr()
        return HypExpr(tuple((k, f, c * factor) for k, f, c in self.terms))

    def __mul__(self, other: "HypExpr") -> "HypExpr":
        return HypExpr.of(_product_terms(self.terms, other.terms, 1.0))

    def diff(self, m: int = 1) -> "HypExpr":
        if m < 1:
            raise ValueError("diff order must be >= 1")
        out = []
        for kind, freq, coeff in self.terms:
            if kind is not _CONST:  # constants differentiate to zero
                for _ in range(m):
                    coeff *= freq
                out.append((_SWAP[kind] if m % 2 else kind, freq, coeff))
        return HypExpr.of(out)

    # -- queries ---------------------------------------------------------

    def __call__(self, x: float) -> float:
        vals = []
        for kind, freq, coeff in self.terms:
            if kind is Kind.CONST:
                vals.append(coeff)
            elif kind is Kind.COSH:
                vals.append(coeff * math.cosh(freq * x))
            else:
                vals.append(coeff * math.sinh(freq * x))
        return math.fsum(vals)

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_coeff(self) -> float:
        return max((abs(c) for _, _, c in self.terms), default=0.0)

    def render(self) -> str:
        """Text form like ``-0.666667 + 0.666667*cosh(0.5*x)``."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for kind, freq, coeff in self.terms:
            if kind is Kind.CONST:
                body = f"{abs(coeff):.6g}"
            else:
                name = "cosh" if kind is Kind.COSH else "sinh"
                arg = "x" if freq == 1.0 else f"{freq:.6g}*x"
                body = f"{abs(coeff):.6g}*{name}({arg})"
            if not parts:
                parts.append(body if coeff >= 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff >= 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()


def _product_terms(
    t1: Iterable[tuple[Kind, float, float]],
    t2: Iterable[tuple[Kind, float, float]],
    weight: float,
) -> Iterator[tuple[Kind, float, float]]:
    """Raw product-to-sum expansion of (t1 * t2) scaled by ``weight``.

    Each contribution is ``weight * (c1 * c2)``, so a product is bitwise commutative.
    """
    for k1, f1, c1 in t1:
        for k2, f2, c2 in t2:
            c = weight * (c1 * c2)
            if k1 is _CONST:
                yield (k2, f2, c)
            elif k2 is _CONST:
                yield (k1, f1, c)
            else:
                kind, sign = _PRODUCT[k1, k2]
                yield (kind, f1 + f2, 0.5 * c)
                yield (kind, f1 - f2, sign * c)
