"""Closed algebra of finite combinations of 1, cosh(k*x) and sinh(k*x).

Every spatial coefficient produced by the solver lives in this basis, so
addition, multiplication (via product-to-sum identities), differentiation
and pointwise evaluation are exact up to floating-point rounding.
Expressions are kept in a canonical form: terms sorted by (kind, frequency),
contributions merged when their frequencies fall in the same cell
``round(freq * 2**30)`` (cell 0 is the constant term), and terms whose
coefficients sum to exactly zero dropped.  Nothing else is pruned.

``HypExpr.of`` is the one checked entry for raw terms.  Products have two
kernels, chosen by operand size (``_lattice``).  ``_products``, the sparse
product-to-sum kernel, is the only code that buckets contributions (per kind,
by exact frequency); ``_merge`` then folds signs, maps each frequency to its
cell (naming one that has none) and fsums each cell.  ``_laurent_products``,
the dense kernel, convolves the operands' Laurent lists on one generator g
and needs no buckets: output power k is one fsum, at frequency k*g.
``_canonical`` and ``+`` are products with 1; ``diff`` keeps every frequency,
so it is canonical as it stands.
``_basis`` is the one evaluator of 1, cosh and sinh at a point (inf past the
double range), and ``_finite_sum`` the one sum that names a value that is not finite.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain, repeat
from operator import itemgetter, mul
from typing import Iterable, Sequence

__all__ = ["Kind", "HypExpr"]

_CELLS = 2.0 ** 30  # frequency cells per unit; one cell is 2**-30 wide
# ``_lattice`` runs the dense kernel where the sparse contributions reach
# _DENSE_WORK times the dense work, pairs * (2D + 1): the crossover of the two
# kernels on 271 recorded ``mul_coeff`` inputs (CPython 3.11, 2-core x86-64 VM)
_DENSE_WORK = 3.0
_DENSE_SPAN = 4  # and where 2D + 1 is at most this many times the widest operand


class Kind(IntEnum):
    CONST = 0
    COSH = 1
    SINH = 2


# module aliases: on CPython 3.11 each ``Kind.X`` lookup costs ~140 ns
_CONST, _COSH, _SINH = Kind.CONST, Kind.COSH, Kind.SINH
# d/dx swaps cosh and sinh; a dict keeps the kinds Kind members (IntEnum sums are ints)
_SWAP = {_COSH: _SINH, _SINH: _COSH}


def _products(pairs: Iterable[tuple[HypExpr, HypExpr, float]]) -> tuple[tuple[Kind, float, float], ...]:
    """Canonical sum over ``(x, y, w)`` of the product x * y scaled by w.

    Product to sum: w * c1 k1(a) * c2 k2(b) = h kind(a+b) +- h kind(a-b) with
    h = w*(c1*c2)/2, where kind is cosh when k1 == k2 and sinh otherwise,
    and the sign is + for cosh*cosh and sinh*cosh, - for sinh*sinh and
    cosh*sinh.  Each contribution is ``w * (c1 * c2)``, halved for two
    non-constant factors, so a product's coefficients are bitwise commutative; its frequencies
    are not, as a cell keeps its first float.  Nonzero contributions are bucketed per kind by
    exact frequency, in order; ``_merge`` does the rest.
    """
    cosh: defaultdict[float, list[float]] = defaultdict(list)
    sinh: defaultdict[float, list[float]] = defaultdict(list)
    for x, y, w in pairs:
        c2 = None
        cosh2, sinh2 = [], []
        for k, f, c in y.terms:
            if k is _COSH:
                cosh2.append((f, c))
            elif k is _SINH:
                sinh2.append((f, c))
            else:
                c2 = c
        for k1, f1, c1 in x.terms:
            # a constant is cosh at f1 = 0.0: its product with c2 lands in cosh[0.0]
            same, other = (sinh, cosh) if k1 is _SINH else (cosh, sinh)
            if c2 is not None and (v := w * (c1 * c2)):
                same[f1].append(v)
            if k1 is _CONST:  # unhalved: no sum and difference frequencies
                for f, c in cosh2:
                    if v := w * (c1 * c):
                        cosh[f].append(v)
                for f, c in sinh2:
                    if v := w * (c1 * c):
                        sinh[f].append(v)
                continue
            for f, c in cosh2:
                if h := 0.5 * (w * (c1 * c)):
                    same[f1 + f].append(h)
                    same[f1 - f].append(h)
            for f, c in sinh2:
                if h := 0.5 * (w * (c1 * c)):
                    other[f1 + f].append(h)
                    other[f1 - f].append(-h)
    return _merge(cosh, sinh)


def _lattice(a: Sequence[HypExpr], b: Sequence[HypExpr], n: int) -> float | None:
    """The generator g on which ``_laurent_products`` multiplies the pairs
    (a[m], b[n-m]), m = 0..n, or None where ``_products`` is cheaper or a
    frequency is off the lattice.  b is a for a square.

    g is the smallest positive frequency of the operands.  Every frequency
    must lie in the cell of a multiple k*g, and g must span two cells, so
    that the multiples keep distinct cells.  The sparse kernel pays
    per contribution, and there are sum_m |a[m]| * |b[n-m]| of them; the
    dense one pays per pair and output power, pairs * (2D + 1) for output
    degree D.  The dense one runs where the middle operands have
    ``_DENSE_WORK`` terms or more, the contributions reach ``_DENSE_WORK``
    times its work, and 2D + 1 is at most ``_DENSE_SPAN`` times the widest
    operand, so that a sparse lattice never builds lists much longer than its
    operands.  The first test costs the same at any n: examples 1-4 stop there.
    """
    h = n // 2
    if min(len(a[h].terms), len(a[n - h].terms), len(b[h].terms), len(b[n - h].terms)) < _DENSE_WORK:
        return None
    xs = a[: n + 1]
    ys = xs if b is a else b[: n + 1]
    nx = [len(x.terms) for x in xs]
    ny = nx if b is a else [len(y.terms) for y in ys]
    lo_x, hi_x = zip(*map(_span, xs))
    lo_y, hi_y = (lo_x, hi_x) if b is a else zip(*map(_span, ys))
    g = min(filter(None, chain(lo_x, lo_y)), default=0.0)
    if g < 2.0 / _CELLS:
        return None
    width = 2 * max(round(hx / g) + round(hy / g) for hx, hy in zip(hi_x, reversed(hi_y))) + 1
    if width > _DENSE_SPAN * max(max(nx), max(ny)):
        return None
    if sum(map(mul, nx, reversed(ny))) < _DENSE_WORK * len(nx) * width:
        return None
    if any(_laurent(e, g) is None for e in chain(xs, ys)):
        return None
    return g


def _span(e: HypExpr) -> tuple[float, float]:
    """The smallest and largest positive frequency of e, (0.0, 0.0) if it has none; kept on e."""
    span = e.__dict__.get("_span")
    if span is None:
        fs = [f for _, f, _ in e.terms if f]
        span = (min(fs), max(fs)) if fs else (0.0, 0.0)
        object.__setattr__(e, "_span", span)  # a cache, outside the compared fields
    return span


def _laurent(e: HypExpr, g: float) -> tuple[list[float], list[float]] | None:
    """e as the list E[-D..D] on z = e^(gx), with the list reversed; None off the lattice.

    A term is on it in the cell of its multiple k*g, as ``_merge`` tells frequencies
    apart.  E_0 is the constant and E_(+-k) = (C_k +- S_k)/2 for C_k cosh(kgx) +
    S_k sinh(kgx).  Kept on e for its last g: a solve converts each coefficient once.
    """
    memo = e.__dict__.get("_laurent")
    if memo is None or memo[0] != g:
        index = [round(f / g) for _, f, _ in e.terms]
        lists = None
        if all(round(f * _CELLS) == round(k * g * _CELLS) for (_, f, _), k in zip(e.terms, index)):
            d = max(index, default=0)
            lists = [0.0] * (2 * d + 1)
            for (kind, _, c), k in zip(e.terms, index):
                lists[d + k] += 0.5 * c if k else c
                if kind is not _CONST:
                    lists[d - k] += 0.5 * c if kind is _COSH else -0.5 * c
            lists = (lists, lists[::-1])
        memo = (g, lists)
        object.__setattr__(e, "_laurent", memo)  # a cache, outside the compared fields
    return memo[1]


def _laurent_products(
    pairs: Iterable[tuple[HypExpr, HypExpr, float]], g: float
) -> tuple[tuple[Kind, float, float], ...]:
    """Canonical sum over ``(x, y, w)`` of w * x * y, on the lattice that ``_lattice`` found.

    With z = e^(gx), cosh(kgx) and sinh(kgx) are (z^k +- z^-k)/2, so a product
    is the convolution of the Laurent lists (``_laurent``).  Each output power
    p is one fsum over the pairs and every i of the contribution
    ``w * (X_i * Y_(p-i))``, so a product is bitwise commutative, and so are
    its frequencies: C_k = E_k + E_-k and S_k = E_k - E_-k at frequency k*g.
    Only exact zeros are dropped.
    """
    lists = []
    for x, y, w in pairs:
        if x.terms and y.terms:
            (a, _), (_, rb) = _laurent(x, g), _laurent(y, g)
            lists.append((a, rb, len(a) // 2, len(rb) // 2, w))
    top = max((da + db for _, _, da, db, _ in lists), default=0)
    out = []
    for p in range(-top, top + 1):
        parts = []
        for a, rb, da, db, w in lists:
            lo, hi = max(-da, p - db), min(da, p + db) + 1  # X_i for i in [lo, hi)
            if lo < hi:
                prods = map(mul, a[lo + da : hi + da], rb[lo - p + db : hi - p + db])
                parts.append(prods if w == 1.0 else map(mul, repeat(w), prods))
        out.append(_fsum(chain.from_iterable(parts)))
    terms = [(_CONST, 0.0, out[top])]
    terms += [(_COSH, k * g, out[top + k] + out[top - k]) for k in range(1, top + 1)]
    terms += [(_SINH, k * g, out[top + k] - out[top - k]) for k in range(1, top + 1)]
    return _finite_nonzero(terms)


def _canonical(raw: Iterable[tuple[Kind, float, float]]) -> tuple[tuple[Kind, float, float], ...]:
    """Canonical form of raw terms: their product with 1, where each contribution is ``c``."""
    raw = tuple(raw)
    if any(k is _CONST and c and round(f * _CELLS) for k, f, c in raw):
        raise ValueError("CONST term with nonzero frequency")
    return _products(((HypExpr(raw), _ONE, 1.0),))  # the raw terms, wrapped unchecked


def _merge(
    cosh: dict[float, list[float]], sinh: dict[float, list[float]]
) -> tuple[tuple[Kind, float, float], ...]:
    """Fold signs, merge frequencies by cell, sum each cell once, drop exact zeros, sort.

    ``cosh`` and ``sinh`` map each exact frequency to its nonzero
    contributions, in the order the frequencies first got one.  Frequencies
    merge when kind and cell ``round(freq * 2**30)`` agree, a transitive rule
    that no term order changes; cosh in cell 0 is the constant term, at
    frequency 0.0, and sinh there is zero.  Any other cell keeps its first
    frequency, made positive, so its last bits follow the term order; its
    coefficient is the ``math.fsum`` of its contributions, correctly rounded
    whatever their order.  Equal frequencies on either side of a cell edge
    stay two terms, harmless pointwise.  Only exact zeros are dropped: a small
    coefficient on a high frequency can still be large pointwise.
    OverflowError: a frequency at 2**994 or more has no finite cell, or a
    cell's sum is not finite (fsum's overflow and inf - inf errors included).
    """
    cosh_cells: dict[int, tuple[float, list[float]]] = {}
    sinh_cells: dict[int, tuple[float, list[float]]] = {}
    for out, freqs, odd in ((cosh_cells, cosh, False), (sinh_cells, sinh, True)):
        for f, vs in freqs.items():
            try:
                cell = round(f * _CELLS)
            except OverflowError:
                raise OverflowError(f"frequency {f!r} of a product has no finite cell") from None
            if cell < 0:
                # cosh is even, sinh is odd
                cell, f = -cell, -f
                if odd:
                    vs = [-v for v in vs]
            if not cell and odd:
                continue
            got = out.get(cell)
            if got is None:
                out[cell] = (f, vs)
            else:
                got[1].extend(vs)
    buckets = []
    for kind, out in ((_COSH, cosh_cells), (_SINH, sinh_cells)):
        for cell in sorted(out):  # cells are ordered like their frequencies
            f, vs = out[cell]
            buckets.append((kind, f, vs) if cell else (_CONST, 0.0, vs))
    return _finite_nonzero((k, f, _fsum(vs)) for k, f, vs in buckets)


def _fsum(vs: Iterable[float]) -> float:
    """``math.fsum``, but NaN where fsum raises (an overflow, or inf - inf)."""
    try:
        return math.fsum(vs)
    except (OverflowError, ValueError):
        return math.nan


def _finite_sum(terms: Iterable[float], what: str) -> float:
    """``_fsum`` of the terms (an OverflowError from one included); OverflowError if not finite."""
    value = _fsum(terms)
    if not math.isfinite(value):
        raise OverflowError(f"{what} is not finite")
    return value


def _basis(kind: Kind, freq: float, x: float) -> float:
    """The basis function at x: 1, cosh(freq*x) or sinh(freq*x); inf where it leaves
    the double range, whatever the sign (callers read only whether it is finite)."""
    if kind is _CONST:
        return 1.0
    try:
        return math.cosh(freq * x) if kind is _COSH else math.sinh(freq * x)
    except OverflowError:
        return math.inf


def _finite_nonzero(terms: Iterable[tuple[Kind, float, float]]) -> tuple[tuple[Kind, float, float], ...]:
    """The terms without exact zeros; OverflowError if a coefficient is not finite."""
    kept = []
    for k, f, c in terms:
        if not math.isfinite(c):
            raise OverflowError(f"coefficient of {k.name.lower()}({f:g}*x) is not finite")
        if c:
            kept.append((k, f, c))
    return tuple(kept)


@dataclass(frozen=True)
class HypExpr:
    """Immutable canonical combination of CONST/COSH/SINH terms.

    ``HypExpr(terms)`` takes canonical terms unchecked; ``of`` is the checked gate.
    """

    terms: tuple[tuple[Kind, float, float], ...] = ()

    @staticmethod
    def of(raw: Iterable[tuple[int, float, float]]) -> "HypExpr":
        """Canonical form of raw terms; the one check of kinds and frequencies.

        A kind is read as ``Kind(k)``, so it is 0, 1, 2 or a ``Kind``.  A
        frequency nonzero but at most 2**-31 (cell 0 would read it as 0) or
        without a finite cell (2**994 or more, or NaN) raises ValueError,
        whatever the kind; ``_canonical`` then refuses a CONST term off cell 0.
        """
        terms = [(Kind(k), float(f), float(c)) for k, f, c in raw]
        for _, f, _ in terms:
            if 0.0 < abs(f) <= 2.0 ** -31:
                raise ValueError(f"frequency {f!r} is nonzero but at most 2**-31")
            if not math.isfinite(f * _CELLS):
                raise ValueError(f"frequency {f!r} has no finite cell: |freq| must be below 2**994")
        return HypExpr(_canonical(terms))

    @staticmethod
    def zero() -> "HypExpr":
        return HypExpr()

    @staticmethod
    def const(c: float) -> "HypExpr":
        return HypExpr.of([(_CONST, 0.0, c)])

    @staticmethod
    def cosh(freq: float, coeff: float = 1.0) -> "HypExpr":
        return HypExpr.of([(_COSH, freq, coeff)])

    @staticmethod
    def sinh(freq: float, coeff: float = 1.0) -> "HypExpr":
        return HypExpr.of([(_SINH, freq, coeff)])

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "HypExpr") -> "HypExpr":
        return HypExpr(_products(((self, _ONE, 1.0), (other, _ONE, 1.0))))

    def __sub__(self, other: "HypExpr") -> "HypExpr":
        return self + (-other)

    def __neg__(self) -> "HypExpr":
        return HypExpr(tuple((k, f, -c) for k, f, c in self.terms))

    def scale(self, factor: float) -> "HypExpr":
        return HypExpr(_finite_nonzero((k, f, c * factor) for k, f, c in self.terms))

    def __mul__(self, other: "HypExpr") -> "HypExpr":
        return HypExpr(_products(((self, other, 1.0),)))

    def diff(self, m: int = 1) -> "HypExpr":
        """The m-th x-derivative; it keeps every frequency, so it is canonical as it stands."""
        if m < 1:
            raise ValueError("diff order must be >= 1")
        out = []
        for kind, freq, coeff in self.terms:
            if kind is not _CONST:  # constants differentiate to zero
                for _ in range(m):
                    coeff *= freq
                out.append((_SWAP[kind] if m % 2 else kind, freq, coeff))
        out.sort(key=itemgetter(0))  # stable: an odd m swapped the cosh and sinh blocks
        return HypExpr(_finite_nonzero(out))

    # -- queries ---------------------------------------------------------

    def __call__(self, x: float) -> float:
        """The fsum of the terms at x; OverflowError naming x if it is not finite."""
        return _finite_sum((c * _basis(k, f, x) for k, f, c in self.terms), f"value at x={x!r}")

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
            if kind is _CONST:
                body = f"{abs(coeff):.6g}"
            else:
                name = "cosh" if kind is _COSH else "sinh"
                arg = "x" if freq == 1.0 else f"{freq:.6g}*x"
                body = f"{abs(coeff):.6g}*{name}({arg})"
            if not parts:
                parts.append(body if coeff >= 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff >= 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()


_ONE = HypExpr(((_CONST, 0.0, 1.0),))
