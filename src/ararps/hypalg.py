"""Closed algebra of finite combinations of 1, cosh(f*x) and sinh(f*x).

Every spatial coefficient produced by the solver lives in this basis, so
addition, multiplication (via product-to-sum identities), differentiation
and pointwise evaluation are exact up to floating-point rounding.
Frequencies are integer vectors over a Z-basis found where raw terms come in
(``zbasis.find_basis``).  A term is keyed by its packed coordinates, so a
product's key is the sum or difference of its factors' keys, the constant is
key 0 and a key's sign is its sign fold; a key's float frequency is rounded
once and kept on the basis.  Canonical form: one term per kind and key, key
> 0 but the constant's, sorted, exact zeros dropped; nothing else is pruned.
``HypExpr.terms`` shows the terms as ``(kind, freq, coeff)``.

``HypExpr.of`` is the one checked entry for raw terms.  A kernel's operands
share one basis object, checked with ``is``; operands on different bases are
first put on one (``_common``), at ingest scale.  Products have two kernels,
chosen by operand size (``_lattice``): ``_products``, the sparse
product-to-sum kernel, fsums each key's contributions once, and
``_laurent_products``, the dense kernel, convolves Laurent lists on the
generator g of a rank-1 basis, one fsum per power.  ``+`` is a product with
1; ``diff`` keeps every key, so it is canonical as it stands.  ``_basis`` is
the one evaluator of 1, cosh and sinh at a point (inf past the double range),
and ``_finite_sum`` the one sum that names a value that is not finite.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter, mul
from typing import Callable, Iterable, Sequence

from .zbasis import EMPTY as _NONE, FREQ_MAX as _FREQ_MAX, KEY_HALF as _HALF, ZBasis, find_basis, pack, unpack

__all__ = ["Kind", "HypExpr"]

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


def _common(exprs: list[HypExpr]) -> tuple[ZBasis, list[HypExpr]]:
    """One basis for exprs, and exprs on it: theirs where they agree, else one found for all their generators."""
    bases = {e.basis.gens: e.basis for e in exprs if e.basis.gens}
    if len(bases) < 2:
        return next(iter(bases.values()), _NONE), exprs
    basis, coords = find_basis(tuple(sorted(set(chain.from_iterable(bases)))))
    moved = lambda e, cols: _on(basis, [(k, [sum(map(mul, unpack(key, len(cols)), col)) for col in zip(*cols)], c)
                                        for k, key, c in e.keyed])
    return basis, [e if e.basis.gens in (basis.gens, ()) else moved(e, [coords[g] for g in e.basis.gens])
                   for e in exprs]


def _on(basis: ZBasis, raw: Iterable[tuple[Kind, Sequence[int], float]]) -> HypExpr:
    """Canonical form of raw ``(kind, coordinates, coeff)`` terms on basis: keys packed and sign
    folded (cosh is even, sinh odd; cosh at key 0 is the constant), then the product with 1."""
    keyed, reach = [], 0
    for k, v, c in raw:
        key, reach = pack(v), max(reach, max(map(abs, v), default=0))
        if key < 0:
            key, c = -key, (-c if k is _SINH else c)
        if key or k is not _SINH:
            keyed.append((k if key else _CONST, key, c))
    return _products(((HypExpr(tuple(keyed), basis, reach), _ONE, 1.0),))


def _aligned(pairs: list) -> tuple[ZBasis, list]:
    """The pairs' one basis, checked with ``is``, and the pairs; put on one by ``_common`` where they differ."""
    basis = _NONE
    for x, y, _ in pairs:
        if x.basis is not basis and x.basis is not _NONE or y.basis is not basis and y.basis is not _NONE:
            if basis is not _NONE or x.basis is not y.basis and x.basis is not _NONE and y.basis is not _NONE:
                basis, flat = _common([e for p in pairs for e in p[:2]])
                return basis, [(flat[2 * i], flat[2 * i + 1], p[2]) for i, p in enumerate(pairs)]
            basis = y.basis if x.basis is _NONE else x.basis
    return basis, pairs


def _products(pairs: Iterable[tuple[HypExpr, HypExpr, float]]) -> HypExpr:
    """Canonical sum over ``(x, y, w)`` of the product x * y scaled by w.

    Product to sum: w * c1 k1(a) * c2 k2(b) = h kind(a+b) +- h kind(a-b) with
    h = w*(c1*c2)/2, where kind is cosh when k1 == k2 and sinh otherwise,
    and the sign is + for cosh*cosh and sinh*cosh, - for sinh*sinh and
    cosh*sinh.  A contribution, ``w * (c1 * c2)``, or ``(w/2) * (c1 * c2)`` for
    two non-constant factors, goes to the bucket of its final key, a - b < 0
    read as b - a with the sign of sinh folded in.  Each bucket is one fsum, so
    a product is bitwise commutative.  ValueError, before any work, where a
    coordinate could leave the key range.
    """
    basis, pairs = _aligned(list(pairs))
    reach = 0
    if basis.rank > 1:
        reach = max((x.reach + y.reach for x, y, _ in pairs), default=0)
        if reach >= _HALF:
            raise ValueError(f"a product's frequency coordinates reach {reach}, past the key range of {_HALF - 1}")
    cosh: defaultdict[int, list[float]] = defaultdict(list)
    sinh: defaultdict[int, list[float]] = defaultdict(list)
    for x, y, w in pairs:
        (c2, cosh2, sinh2), hw = y.__dict__.get("_parts") or y._split(), 0.5 * w
        for k1, f1, c1 in x.keyed:
            # a constant is cosh at key 0: its product with c2 lands in cosh[0]
            same = sinh if k1 is _SINH else cosh
            if c2 is not None:
                same[f1].append(w * (c1 * c2))
            if k1 is _CONST:  # unhalved: no sum and difference frequencies
                for f, c in cosh2:
                    cosh[f].append(w * (c1 * c))
                for f, c in sinh2:
                    sinh[f].append(w * (c1 * c))
            elif k1 is _COSH:
                for f, c in cosh2:
                    h = hw * (c1 * c)
                    cosh[f1 + f].append(h)
                    cosh[abs(f1 - f)].append(h)
                for f, c in sinh2:
                    h = hw * (c1 * c)
                    sinh[f1 + f].append(h)
                    if f1 != f:
                        sinh[abs(f1 - f)].append(-h if f1 > f else h)
            else:
                for f, c in cosh2:
                    h = hw * (c1 * c)
                    sinh[f1 + f].append(h)
                    if f1 != f:
                        sinh[abs(f1 - f)].append(h if f1 > f else -h)
                for f, c in sinh2:
                    h = hw * (c1 * c)
                    cosh[f1 + f].append(h)
                    cosh[abs(f1 - f)].append(-h)
    const = cosh.pop(0, None)
    ck, sk = sorted(cosh), sorted(sinh)
    terms = [] if const is None else [(_CONST, 0, _fsum(const))]
    terms += [(_COSH, f, _fsum(cosh[f])) for f in ck] + [(_SINH, f, _fsum(sinh[f])) for f in sk]
    if basis.rank < 2:  # the largest key
        reach = max(ck[-1] if ck else 0, sk[-1] if sk else 0)
    return HypExpr(_finite_nonzero(terms, basis), basis, reach)


def _lattice(a: Sequence[HypExpr], b: Sequence[HypExpr], n: int) -> float | None:
    """The generator g on which ``_laurent_products`` multiplies the pairs (a[m], b[n-m]),
    m = 0..n (b is a for a square), or None where ``_products`` is cheaper or the operands
    are not on one rank-1 basis.  The sparse kernel pays per contribution, sum_m |a[m]| *
    |b[n-m]|; the dense one per pair and output power, pairs * (2D + 1), D the largest sum
    of two reaches.  The dense one runs where the middle operands have ``_DENSE_WORK``
    terms or more, the contributions reach ``_DENSE_WORK`` times its work and 2D + 1 is
    at most ``_DENSE_SPAN`` times the widest operand.  Examples 1-4 stop at the first test."""
    h = n // 2
    if min(len(a[h].keyed), len(a[n - h].keyed), len(b[h].keyed), len(b[n - h].keyed)) < _DENSE_WORK:
        return None
    basis, xs = a[h].basis, a[: n + 1]
    ys = xs if b is a else b[: n + 1]
    if basis.rank != 1 or any(e.basis is not basis and e.basis is not _NONE for e in chain(xs, ys)):
        return None
    nx = [len(x.keyed) for x in xs]
    ny = nx if b is a else [len(y.keyed) for y in ys]
    width = 2 * max(x.reach + y.reach for x, y in zip(xs, reversed(ys))) + 1
    if width > _DENSE_SPAN * max(max(nx), max(ny)) or sum(map(mul, nx, reversed(ny))) < _DENSE_WORK * len(nx) * width:
        return None
    return basis.gens[0]


def _laurent(e: HypExpr) -> tuple[list[float], list[float]]:
    """e as the list E[-D..D] on z = e^(gx), D its reach, and the list reversed: E_0 is the
    constant, E_(+-k) = (C_k +- S_k)/2 for C_k cosh(kgx) + S_k sinh(kgx).  Kept on e."""
    memo = e.__dict__.get("_laurent")
    if memo is None:
        d = e.reach
        lists = [0.0] * (2 * d + 1)
        for kind, k, c in e.keyed:
            lists[d + k] += 0.5 * c if k else c
            if kind is not _CONST:
                lists[d - k] += 0.5 * c if kind is _COSH else -0.5 * c
        memo = e.__dict__["_laurent"] = (lists, lists[::-1])  # a cache, outside the compared view
    return memo


def _laurent_products(pairs: Iterable[tuple[HypExpr, HypExpr, float]], g: float) -> HypExpr:
    """Canonical sum over ``(x, y, w)`` of w * x * y, on the rank-1 basis of generator g.

    With z = e^(gx), cosh(kgx) and sinh(kgx) are (z^k +- z^-k)/2, so a product
    is the convolution of the Laurent lists (``_laurent``).  Output power p is
    one fsum over the pairs and every i of ``w * (X_i * Y_(p-i))``, so a product
    is bitwise commutative; C_k = E_k + E_-k and S_k = E_k - E_-k at key k.
    """
    basis, pairs = _aligned(list(pairs))
    lists = []
    for x, y, w in pairs:
        if x.keyed and y.keyed:
            (a, _), (_, rb) = _laurent(x), _laurent(y)
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
    terms = [(_CONST, 0, out[top])]
    terms += [(_COSH, k, out[top + k] + out[top - k]) for k in range(1, top + 1)]
    terms += [(_SINH, k, out[top + k] - out[top - k]) for k in range(1, top + 1)]
    return HypExpr(_finite_nonzero(terms, basis), basis, top)


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


def _finite_nonzero(terms: Iterable[tuple[Kind, int, float]], basis: ZBasis) -> tuple[tuple[Kind, int, float], ...]:
    """The keyed terms without exact zeros; OverflowError, naming the term, if a coefficient is not finite."""
    kept = []
    for k, key, c in terms:
        if not math.isfinite(c):
            raise OverflowError(f"coefficient of {k.name.lower()}({abs(basis.freq(key)):g}*x) is not finite")
        if c:
            kept.append((k, key, c))
    return tuple(kept)


@dataclass(frozen=True, eq=False, init=False)
class HypExpr:
    """Immutable canonical combination of CONST/COSH/SINH terms over a Z-basis.

    ``keyed`` holds ``(kind, key, coeff)`` sorted by kind and key, and ``reach``
    bounds every coordinate's size.  ``HypExpr(keyed, basis, reach)`` takes
    canonical terms unchecked; ``of`` is the checked gate.  Expressions compare
    and hash by ``terms``.
    """

    keyed: tuple[tuple[Kind, int, float], ...] = ()
    basis: ZBasis = _NONE
    reach: int = 0

    def __init__(self, keyed: tuple = (), basis: ZBasis = _NONE, reach: int = 0):
        d = self.__dict__  # set once, here, past the frozen __setattr__
        d["keyed"], d["basis"], d["reach"] = keyed, basis, reach

    @cached_property
    def terms(self) -> tuple[tuple[Kind, float, float], ...]:
        """The terms as ``(kind, freq, coeff)``, sorted, freq > 0 but the constant's 0.0."""
        out, freqs, freq = [], self.basis.freqs, self.basis.freq
        for k, key, c in self.keyed:
            f = freqs.get(key) or freq(key)
            out.append((k, f, c) if f >= 0.0 else (k, -f, -c if k is _SINH else c))
        return tuple(out) if self.basis.rank < 2 else tuple(sorted(out, key=itemgetter(0, 1)))

    def _split(self) -> tuple[float | None, list[tuple[int, float]], list[tuple[int, float]]]:
        """The constant (None if there is none) and the cosh and sinh ``(key, coeff)`` lists; kept as ``_parts``."""
        kinds: dict[Kind, list] = {_CONST: [], _COSH: [], _SINH: []}
        for k, key, c in self.keyed:
            kinds[k].append((key, c))
        parts = self.__dict__["_parts"] = (kinds[_CONST][0][1] if kinds[_CONST] else None), kinds[_COSH], kinds[_SINH]
        return parts

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HypExpr) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    @staticmethod
    def of(raw: Iterable[tuple[int, float, float]]) -> "HypExpr":
        """Canonical form of raw terms over a basis of their frequencies; the one check of kinds
        and frequencies.  A kind is read as ``Kind(k)``, so it is 0, 1, 2 or a ``Kind``.  A
        frequency not below 2**994 in size (NaN included) raises ValueError, and so does a
        nonzero CONST term at a frequency other than 0.  Zero coefficients add no frequency."""
        terms = [(Kind(k), float(f), float(c)) for k, f, c in raw]
        for k, f, c in terms:
            if not abs(f) < _FREQ_MAX:
                raise ValueError(f"frequency {f!r} is not below 2**994 in size")
            if k is _CONST and f and c:
                raise ValueError("CONST term with nonzero frequency")
        terms = [t for t in terms if t[2]]
        basis, coords = find_basis(tuple(sorted({abs(f) for _, f, _ in terms if f})))
        zero = [0] * len(basis.gens)
        return _on(basis, [(k, [-v for v in coords[-f]] if f < 0 else coords[f] if f else zero, c)
                           for k, f, c in terms])

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

    @staticmethod
    def sum(exprs: Iterable["HypExpr"]) -> "HypExpr":
        """The sum, merged once: each key's coefficient is one fsum of all its terms."""
        return _products([(e, _ONE, 1.0) for e in exprs])

    def __add__(self, other: "HypExpr") -> "HypExpr":
        return HypExpr.sum((self, other))

    def __sub__(self, other: "HypExpr") -> "HypExpr":
        return self + (-other)

    def __neg__(self) -> "HypExpr":
        return self.scale(-1.0)

    def scale(self, factor: float) -> "HypExpr":
        keyed = _finite_nonzero(((k, key, c * factor) for k, key, c in self.keyed), self.basis)
        return HypExpr(keyed, self.basis, self.reach)

    def map_coeffs(self, fn: Callable[[float], float]) -> "HypExpr":
        """Each coefficient c as fn(c), on the same terms: exact zeros dropped, OverflowError if one is not finite."""
        return HypExpr(_finite_nonzero(((k, key, fn(c)) for k, key, c in self.keyed), self.basis), self.basis, self.reach)

    def __mul__(self, other: "HypExpr") -> "HypExpr":
        return _products(((self, other, 1.0),))

    def diff(self, m: int = 1) -> "HypExpr":
        """The m-th x-derivative; it keeps every key, so it is canonical as it stands."""
        if m < 1:
            raise ValueError("diff order must be >= 1")
        out, freqs, freq = [], self.basis.freqs, self.basis.freq
        for kind, key, coeff in self.keyed:
            if kind is not _CONST:  # constants differentiate to zero
                f = freqs.get(key) or freq(key)
                for _ in range(m):
                    coeff *= f
                out.append((_SWAP[kind] if m % 2 else kind, key, coeff))
        out.sort(key=itemgetter(0))  # stable: an odd m swapped the cosh and sinh blocks
        return HypExpr(_finite_nonzero(out, self.basis), self.basis, self.reach)

    def __call__(self, x: float) -> float:
        """The fsum of the terms at x; OverflowError naming x if it is not finite."""
        return _finite_sum((c * _basis(k, f, x) for k, f, c in self.terms), f"value at x={x!r}")

    def is_zero(self) -> bool:
        return not self.keyed

    def max_abs_coeff(self) -> float:
        return max((abs(c) for _, _, c in self.keyed), default=0.0)

    def render(self) -> str:
        """Text form like ``-0.666667 + 0.666667*cosh(0.5*x)``."""
        parts: list[str] = []
        for kind, freq, coeff in self.terms:
            body = f"{abs(coeff):.6g}"
            if kind is not _CONST:
                body += f"*{'cosh' if kind is _COSH else 'sinh'}({'x' if freq == 1.0 else f'{freq:.6g}*x'})"
            sign = "-" if coeff < 0 else "" if not parts else "+"
            parts.append(f"{sign} {body}" if parts else sign + body)
        return " ".join(parts) or "0"

    def __str__(self) -> str:
        return self.render()


_ONE = HypExpr(((_CONST, 0, 1.0),))
