"""Z-bases of frequencies: integer coordinates, packed into one int, for ``hypalg``'s keys.

``find_basis`` takes the distinct positive frequencies of some terms and
returns generators g_1..g_r with each frequency's integer coordinates over
them.  PSLQ (``_pslq``) finds the integer relations among the frequencies
(Ferguson, Bailey & Arno, Math. Comp. 68, 1999) and a Hermite normal form
turns the rational coordinates into a basis of their Z-span, so 2b and 3b
give b.  Where a relation does not give every frequency back within a few
ulps, the frequencies themselves are the basis: always right, with more
terms.  ``pack`` puts coordinates into one int as balanced base-2**16 digits,
so keys add and subtract as their coordinates do while every coordinate is
below ``KEY_HALF`` in size; ``ZBasis.freq`` is a key's frequency, rounded once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import Sequence

__all__ = ["ZBasis", "EMPTY", "FREQ_MAX", "KEY_HALF", "find_basis", "pack", "unpack"]

_BITS = 16  # a key packs each coordinate as a balanced digit of this many bits,
KEY_HALF = 1 << (_BITS - 1)  # so on rank 2 and up a coordinate stays below 2**15 in size
_ULPS = 4  # a found basis gives every frequency back within this many ulps
# raw frequencies stay below this, so that a key's frequency is finite while its
# coordinates are in the key range (up to 2**15 of them, each below 2**15) or its rank-1 key is below 1 << 30
FREQ_MAX = 2.0 ** 994
_PREC = 113  # PSLQ's fixed point: a double's 53 bits and 60 more
_TOL, _MAXCOEFF, _MAXSTEPS = 1 << (_PREC - 40), 1000, 100  # |sum c_i x_i| < 2**-40, every |c_i| < 1000


def unpack(key: int, rank: int) -> list[int]:
    """The balanced digits v_1..v_r of a key; the last takes what is left, so rank 1 has no bound."""
    out = []
    for _ in range(rank - 1):
        out.append((key + KEY_HALF) % (2 * KEY_HALF) - KEY_HALF)
        key = (key - out[-1]) >> _BITS
    return out + [key] if rank else out


def pack(coords: Sequence[int]) -> int:
    return sum(v << (_BITS * i) for i, v in enumerate(coords))


class ZBasis:
    """Positive generators g_1..g_r; ``freq(key)`` is sum v_i g_i rounded once, kept per key."""

    def __init__(self, gens: tuple[float, ...]):
        ratios = [g.as_integer_ratio() for g in gens]
        self.gens, self.rank, self._den = gens, len(gens), max((d for _, d in ratios), default=1)  # powers of two
        self._num, self.freqs = [n * (self._den // d) for n, d in ratios], {0: 0.0}

    def freq(self, key: int) -> float:
        f = self.freqs.get(key)
        if f is None:  # int / int is correctly rounded
            f = self.freqs[key] = sum(map(mul, unpack(key, self.rank), self._num)) / self._den
        return f

    def __repr__(self) -> str:
        return f"ZBasis({self.gens})"


EMPTY = ZBasis(())  # the basis of an expression without frequencies: a constant or zero


@lru_cache(maxsize=1024)
def find_basis(freqs: tuple[float, ...]) -> tuple[ZBasis, dict[float, list[int]]]:
    """A Z-basis of the sorted, distinct, positive freqs and each one's coordinates; cached,
    so the same freqs give the same basis object.

    A frequency that ``_pslq`` relates to the independent ones before it
    gets rational coordinates over them, else joins them.  The Hermite normal
    form of all the rows, over a common denominator, is a basis of their
    Z-span, each generator its exact combination rounded once.  Where a
    frequency does not come back within ``_ULPS`` ulps, or a coordinate is not
    below ``KEY_HALF`` in size, the frequencies themselves are the basis.
    """
    if not freqs:
        return EMPTY, {}
    indep: list[float] = []
    rows: list[tuple[list[int], int]] = []  # numerators over indep, and their denominator
    for f in freqs:
        rel = _pslq([v / f for v in indep] + [1.0]) if indep else None
        if rel and rel[-1]:
            d = rel.pop()
            rows.append(([-a if d > 0 else a for a in rel], abs(d)))
        else:
            rows = [(nums + [0], d) for nums, d in rows] + [([0] * len(indep) + [1], 1)]
            indep.append(f)
    den = math.lcm(*(d for _, d in rows))
    ints = [[a * (den // d) for a in nums] for nums, d in rows]
    span, on = _hnf(ints), ZBasis(tuple(indep))
    gens = [sum(map(mul, row, on._num)) / (on._den * den) for row in span]
    span = [row if g > 0 else [-a for a in row] for row, g in zip(span, gens)]
    basis, coords = ZBasis(tuple(map(abs, gens))), [_solve(span, m) for m in ints]
    if any(abs(basis.freq(pack(c)) - f) > _ULPS * math.ulp(f) or max(map(abs, c)) >= KEY_HALF
           for f, c in zip(freqs, coords)):
        basis, coords = ZBasis(freqs), [[int(i == j) for j in range(len(freqs))] for i in range(len(freqs))]
    return basis, dict(zip(freqs, coords))


def _hnf(rows: list[list[int]]) -> list[list[int]]:
    """An upper-triangular basis of the lattice that the integer rows span (of full rank)."""
    rows, out = [list(v) for v in rows], []
    for j in range(len(rows[0])):
        live = [v for v in rows if v[j]]
        while len(live) > 1:  # Euclid on column j
            p = min(live, key=lambda v: abs(v[j]))
            for v in live:
                if v is not p:
                    q = v[j] // p[j]
                    v[:] = [a - q * b for a, b in zip(v, p)]
            live = [v for v in live if v[j]]
        out.append(live[0])
        rows = [v for v in rows if v is not live[0]]
    return out


def _solve(span: list[list[int]], m: list[int]) -> list[int]:
    """The integer c with c * span == m, for span upper triangular."""
    c = []
    for j, row in enumerate(span):
        c.append(m[j] // row[j])
        m = [a - c[-1] * b for a, b in zip(m, row)]
    return c


def _pslq(xs: list[float]) -> list[int] | None:
    """Integers c, every |c_i| < 1000, with |sum c_i x_i| < 2**-40, or None: PSLQ in
    ``_PREC``-bit integer fixed point, step for step as ``mpmath.pslq`` at 53 bits
    (D. H. Bailey, "The PSLQ Integer Relation Algorithm"), with 1-based rows and columns.

    Rows of H swap whole; the reduction multipliers are integers, so t * v needs no
    shift; mpmath's matrix A, which nothing reads, is left out.
    """
    n, prec, r = len(xs), _PREC, range(1, len(xs) + 1)
    x = [0] + [(a << prec) // b for a, b in map(float.as_integer_ratio, xs)]  # floor(x * 2**prec)
    if not (smallest := min(map(abs, x[1:]))):
        raise ValueError("PSLQ requires a vector of nonzero numbers")
    if smallest < _TOL // 100:
        return None
    g = math.isqrt(((4 << prec) // 3) << prec)
    B = [[(i == j) << prec for j in range(n + 1)] for i in range(n + 1)]
    H = [[0] * (n + 1) for _ in range(n + 1)]
    s = [0] * (n + 1)
    for k in r:
        s[k] = math.isqrt(sum(x[j] ** 2 >> prec for j in range(k, n + 1)) << prec)
    y = [0] + [(v << prec) // s[1] for v in x[1:]]
    s = [0] + [(v << prec) // s[1] for v in s[1:]]
    for i in r:
        if i < n:
            H[i][i] = (s[i + 1] << prec) // s[i] if s[i] else 0
        for j in range(1, i):
            sjj1 = s[j] * s[j + 1]
            H[i][j] = ((-y[i] * y[j]) << prec) // sjj1 if sjj1 else 0

    def reduce(i: int, j: int) -> None:  # row i -= t * row j, t the nearest integer to H_ij / H_jj
        t = (((H[i][j] << prec) // H[j][j]) + (1 << (prec - 1))) >> prec
        y[j] += t * y[i]
        for k in range(1, j + 1):
            H[i][k] -= t * H[j][k]
        for row in B[1:]:
            row[j] += t * row[i]

    for i in range(2, n + 1):
        for j in range(i - 1, 0, -1):
            if H[j][j]:
                reduce(i, j)
    for _ in range(_MAXSTEPS):
        m = max(range(1, n), key=lambda i: ((g ** i * abs(H[i][i])) >> (prec * (i - 1)), -i))
        y[m], y[m + 1] = y[m + 1], y[m]
        H[m], H[m + 1] = H[m + 1], H[m]
        for row in B:
            row[m], row[m + 1] = row[m + 1], row[m]
        if m <= n - 2:
            t0 = math.isqrt(((H[m][m] ** 2 + H[m][m + 1] ** 2) >> prec) << prec)
            if not t0:  # precision exhausted
                break
            t1, t2 = (H[m][m] << prec) // t0, (H[m][m + 1] << prec) // t0
            for row in H[m:]:
                row[m], row[m + 1] = (t1 * row[m] + t2 * row[m + 1]) >> prec, (t1 * row[m + 1] - t2 * row[m]) >> prec
        for i in range(m + 1, n + 1):
            for j in range(min(i - 1, m + 1), 0, -1):
                if not H[j][j]:  # precision exhausted
                    break
                reduce(i, j)
        for i in r:
            if abs(y[i]) < _TOL:
                vec = [(row[i] + (1 << (prec - 1))) >> prec for row in B[1:]]
                if max(map(abs, vec)) < _MAXCOEFF:
                    return vec
        recnorm = max(abs(h) for row in H for h in row)
        if not recnorm or ((1 << (2 * prec)) // recnorm >> prec) // 100 >= _MAXCOEFF:
            break
    return None
