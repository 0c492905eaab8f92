"""An exact reference solve at alpha = 1: every weight is an integer binomial, so
in rationals every product, sum and derivative of the recursion is exact."""

from collections import defaultdict
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import comb, ulp

import pytest

from ararps.solver import Add, Const, Dx, Mul, PowInt, Scale, Solution, builtin_example, solve, with_alpha
from test_solver import _generic_spec

# kinds: 0 the constant, 1 cosh, 2 sinh; an expression maps (kind, frequency) to its coefficient


def _canon(raw):
    """Sum raw (kind, freq, coeff) terms at freq >= 0 (cosh is even, sinh odd); cosh at 0 is the constant."""
    out = defaultdict(Fraction)
    for k, f, c in raw:
        if f < 0:
            f, c = -f, (-c if k == 2 else c)
        if f or k != 2:
            out[k if f else 0, f] += c
    return {key: c for key, c in out.items() if c}


def _terms(e):
    return [(k, f, c) for (k, f), c in e.items()]


def _times(e1, e2, w):
    """w * e1 * e2 by product to sum: k1(a) k2(b) = (kind(a+b) +- kind(a-b))/2, minus where k2 is sinh."""
    for (k1, f1), c1 in e1.items():
        for (k2, f2), c2 in e2.items():
            if not k1 or not k2:
                yield k1 or k2, f1 + f2, w * c1 * c2
            else:
                h, kind = w * c1 * c2 / 2, 1 if k1 == k2 else 2
                yield from ((kind, f1 + f2, h), (kind, f1 - f2, -h if k2 == 2 else h))


def _prod(u, v):
    """The Cauchy product of two c_n lists at alpha = 1: pair (m, n-m) weighs C(n, m)."""
    return [_canon(chain.from_iterable(_times(u[m], v[n - m], comb(n, m)) for m in range(n + 1)))
            for n in range(len(u))]


def _apply(node, c):
    if isinstance(node, Solution):
        return c
    if isinstance(node, Const):
        return [_canon([(0, Fraction(0), Fraction(node.value))])] + [{}] * (len(c) - 1)
    if isinstance(node, Add):
        return [_canon(chain.from_iterable(map(_terms, col))) for col in zip(*(_apply(t, c) for t in node.terms))]
    if isinstance(node, Scale):
        return [_canon((k, f, v * Fraction(node.factor)) for k, f, v in _terms(e)) for e in _apply(node.child, c)]
    if isinstance(node, Mul):
        return _prod(_apply(node.left, c), _apply(node.right, c))
    if isinstance(node, PowInt):
        base = _apply(node.child, c)
        return reduce(lambda acc, _: _prod(acc, base), range(node.exponent - 1), base)
    m = node.order  # Dx: d/dx swaps cosh and sinh
    return [_canon((k if m % 2 == 0 else 3 - k, f, v * f ** m) for k, f, v in _terms(e) if k)
            for e in _apply(node.child, c)]


def _exact(terms):
    """IC terms with each frequency read as the fraction it rounds (1/3, not its double)."""
    return _canon((int(k), Fraction(f).limit_denominator(1000), Fraction(c)) for k, f, c in terms)


def exact_solve(spec, K):
    """c_0..c_K at alpha = 1, from c_(n+k) = [N(c_0..c_n)]_n."""
    c = [_exact(spec.ic_a.terms)] + ([_exact(spec.ic_b.terms)] if spec.time_order == 2 else [])
    while len(c) <= K:
        c.append(_apply(spec.rhs, c[: len(c) - spec.time_order + 1])[-1])
    return c


def ulps(got, want):
    """Largest coefficient error of ``got`` in ulps of want's largest term.

    Terms meet by 2**-30 cell, as the engine merges them: in cell 0 (a
    difference of two rounded frequencies) cosh is the constant, and sinh, at
    most 2**-30 * |x| times its coefficient, counts as zero.
    """
    cell = lambda f: round(float(f) * 2 ** 30)
    exact = defaultdict(Fraction)
    for (k, f), c in want.items():
        if cell(f) or k != 2:
            exact[k if cell(f) else 0, cell(f)] += c
    engine = {(int(k), cell(f)): Fraction(c) for k, f, c in got.terms}
    err = max((abs(engine.get(key, 0) - exact.get(key, 0)) for key in engine.keys() | exact.keys()), default=0)
    top = max(map(abs, exact.values()), default=0)
    return float(err) / ulp(float(top)) if top else float(err)


# (spec, K, bound, growth): c_n may be off by bound * growth**n ulps of its largest
# term, about 4x the largest error measured.  Example 4's products cancel (ROADMAP,
# baselines), so its c_n drift about 5x an order, 6.0e5 ulps by c_12.
EXACT_CASES = [
    pytest.param(builtin_example(1), 12, 12, 1, id="ex1"),
    pytest.param(builtin_example(2), 12, 8, 1, id="ex2"),
    pytest.param(builtin_example(3), 12, 2, 1, id="ex3"),
    pytest.param(builtin_example(4), 12, 0.03, 5, id="ex4"),
    pytest.param(with_alpha(_generic_spec(), 1.0), 4, 26, 1, id="generic"),
]


@pytest.mark.parametrize("spec,K,bound,growth", EXACT_CASES)
def test_engine_matches_exact_rationals_at_alpha_1(spec, K, bound, growth):
    got = solve(spec, K).series.coeffs
    errors = [ulps(g, w) for g, w in zip(got, exact_solve(spec, K))]
    assert all(e <= bound * growth ** n for n, e in enumerate(errors)), errors
