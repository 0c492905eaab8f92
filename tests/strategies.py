"""The test modules' random inputs, seeded or hypothesis strategies, and the term
helpers they share; ``test_acceptance.py`` keeps its own, so that it stands alone."""

import copy
import json
import math
from dataclasses import fields

from hypothesis import strategies as st

import ararps.solver
from ararps.fpseries import FracSeries
from ararps.hypalg import HypExpr, Kind
from ararps.solver import Add, Const, Dx, Mul, PdeSpec, PowInt, Scale, Solution, builtin_example, pde_spec_to_json

ALPHAS = (0.25, 0.5, 0.75, 1.0)


def term_map(e: HypExpr) -> dict:
    return {(k, round(f, 9)): c for k, f, c in e.terms}


def hex_terms(terms) -> list:
    return [(k, f.hex(), c.hex()) for k, f, c in terms]


def dx_chain_spec(depth: int) -> str:
    """Example 4's JSON with the rhs a chain of ``depth`` AST nodes (dx ... solution)."""
    rhs = '{"node": "solution"}'
    for _ in range(depth - 1):
        rhs = '{"node": "dx", "order": 1, "child": ' + rhs + "}"
    doc = json.loads(pde_spec_to_json(builtin_example(4)))
    doc["rhs"] = "RHS"  # json.dumps itself recurses, so splice the chain in as text
    return json.dumps(doc).replace('"RHS"', rhs)


def random_series(rng, alpha, K):
    """K + 1 coefficients of 0-3 terms each: frequencies 0.5, 1 and 2, coefficients in [-1, 1]."""
    coeffs = []
    for _ in range(K + 1):
        terms = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice([Kind.CONST, Kind.COSH, Kind.SINH])
            freq = 0.0 if kind is Kind.CONST else rng.choice([0.5, 1.0, 2.0])
            terms.append((kind, freq, rng.uniform(-1.0, 1.0)))
        coeffs.append(HypExpr.of(terms))
    return FracSeries(alpha, tuple(coeffs))


_hyp_coeffs = st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-6)


@st.composite
def hyp_exprs(draw):
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from([Kind.CONST, Kind.COSH, Kind.SINH]))
        freq = 0.0 if kind is Kind.CONST else draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 1.0 / 3.0]))
        terms.append((kind, freq, draw(_hyp_coeffs)))
    return HypExpr.of(terms)


@st.composite
def lattice_exprs(draw, g):
    """A canonical expression on the lattice k*g, k <= 8: a constant or not, and at
    each multiple drawn a cosh, a sinh or both, coefficients over six decades."""
    coeff = st.builds(lambda c, e: c * 10.0 ** e, _hyp_coeffs, st.integers(-3, 3))
    terms = [(Kind.CONST, 0.0, draw(coeff))] if draw(st.booleans()) else []
    for k in sorted(draw(st.sets(st.integers(1, 8), max_size=8))):
        for kind in sorted(draw(st.sets(st.sampled_from([Kind.COSH, Kind.SINH]), min_size=1))):
            terms.append((kind, k * g, draw(coeff)))
    return HypExpr.of(terms)


def full_lattice_exprs(g):
    """Every multiple k*g, k <= 8, of both kinds and a constant: 17 terms, |coefficients| in [1e-3, 2]."""
    coeff = st.builds(math.copysign, st.floats(1e-3, 2.0), st.sampled_from([1.0, -1.0]))
    return st.lists(coeff, min_size=17, max_size=17).map(lambda cs: HypExpr.of(
        [(Kind.CONST, 0.0, cs[0])]
        + [(kind, k * g, cs[2 * k - 2 + int(kind)]) for k in range(1, 9) for kind in (Kind.COSH, Kind.SINH)]))


# quarter-integer coefficients and half-integer frequencies: every product
# and every sum of frequencies is exact
_quarters = st.integers(-8, 8).map(lambda k: k / 4)
_nonzero = _quarters.filter(bool)
quarter_terms = st.one_of(
    st.builds(lambda c: (Kind.CONST, 0.0, c), _nonzero),
    st.tuples(st.sampled_from((Kind.COSH, Kind.SINH)), st.sampled_from((0.5, 1.0, 1.5)), _nonzero),
)


@st.composite
def shared_asts(draw, steps=st.integers(2, 6), max_degree=math.inf):
    """An AST over all seven node types whose children are drawn from the nodes
    built so far, so subtrees are shared; "copy" adds an equal, distinct object.
    The root adds up every node drawn, so each of them counts.  No node is a
    polynomial of degree above ``max_degree`` in y."""
    pool, degree = [Solution(), Const(draw(_quarters))], [1, 0]
    pick = lambda cap=max_degree: draw(st.sampled_from([i for i, d in enumerate(degree) if d <= cap]))
    for _ in range(draw(steps)):
        op = draw(st.sampled_from(("add", "scale", "mul", "pow", "dx", "copy")))
        if op == "add":
            kids = draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=3))
            node, d = Add(tuple(pool[i] for i in kids)), max(degree[i] for i in kids)
        elif op == "mul":
            i = pick()
            j = pick(max_degree - degree[i])
            node, d = Mul(pool[i], pool[j]), degree[i] + degree[j]
        elif op == "pow":
            p = draw(st.integers(2, 3))
            i = pick(max_degree / p)
            node, d = PowInt(p, pool[i]), p * degree[i]
        else:  # scale, dx and copy keep the degree of their child
            arg = draw(_quarters) if op == "scale" else draw(st.integers(1, 3)) if op == "dx" else None
            i = pick()
            node, d = (Scale(arg, pool[i]) if op == "scale" else Dx(arg, pool[i]) if op == "dx"
                       else copy.deepcopy(pool[i])), degree[i]
        pool.append(node)
        degree.append(d)
    return Add(tuple(pool))


@st.composite
def homogeneous_asts(draw, p):
    """A sum of one to three terms, each a Scale of an optional Dx of a product of p
    factors Dx^m(y), m <= 2, built from Mul and PowInt: homogeneous of degree p in y."""

    def product(q):
        if q > 1 and draw(st.booleans()):
            return PowInt(q, product(1))
        if q > 1:
            k = draw(st.integers(1, q - 1))
            return Mul(product(k), product(q - k))
        m = draw(st.integers(0, 2))
        return Dx(m, Solution()) if m else Solution()

    terms = []
    for _ in range(draw(st.integers(1, 3))):
        node, m = product(p), draw(st.integers(0, 2))
        terms.append(Scale(draw(_nonzero), Dx(m, node) if m else node))
    return Add(tuple(terms))


# specs() keeps every draw's sum over n of the terms of c_n at most WORK_CEILING:
# on operators of degree at most 3, a frequency of c_n sums at most m = 1 + 2n IC
# frequencies, so c_n has at most 6m + 1 terms on rank 1 (multiples k*g, k <= 3m)
# and (2m + 1)**2 on rank 2 (a*g + b*sqrt(2)*g, |a| and |b| at most m)
WORK_CEILING = 1500


def work_bound(rank, K):
    return sum(6 * (1 + 2 * n) + 1 if rank == 1 else (3 + 4 * n) ** 2 for n in range(K + 1))


def ic_rank(spec):
    """The rank of a ``specs()`` draw: 1 where twice each IC frequency over the
    smallest is an integer (they are all k*g, k <= 3), else 2."""
    fs = [f for e in (spec.ic_a, spec.ic_b) if e for _, f, _ in e.terms if f]
    return 1 if all(abs(2 * f / min(fs) - round(2 * f / min(fs))) < 1e-9 for f in fs) else 2


@st.composite
def specs(draw):
    """``(spec, K)``: rank-1 ICs on one to three of k*g, k <= 3, or rank-2 ICs on two or three
    of g, sqrt(2)*g and (1 + sqrt(2))*g, each a cosh or a sinh, and a constant or not; half the
    rank-1 draws take both kinds at every k*g, K >= 5 and a product y*y, the dense kernel's
    inputs.  A shared AST of up to five nodes and degree 3, plus y*y_x in half the draws (a
    product of unequal operands), and K <= 7 within the ceiling."""
    g, rank = draw(st.floats(0.2, 0.6)), draw(st.integers(1, 2))
    full = rank == 1 and draw(st.booleans())
    basis = [g, 2 * g, 3 * g] if rank == 1 else [g, math.sqrt(2.0) * g, (1 + math.sqrt(2.0)) * g]
    coeff = st.builds(math.copysign, st.floats(0.2, 0.6), st.sampled_from([1.0, -1.0]))

    def ic():
        if full:
            terms = [(kind, f, draw(coeff)) for f in basis for kind in (Kind.COSH, Kind.SINH)]
        else:
            freqs = draw(st.lists(st.sampled_from(basis), min_size=rank, max_size=3, unique=True))
            terms = [(draw(st.sampled_from([Kind.COSH, Kind.SINH])), f, draw(coeff)) for f in freqs]
        return HypExpr.of(terms + ([(Kind.CONST, 0.0, draw(coeff))] if draw(st.booleans()) else []))

    time_order = draw(st.integers(1, 2))
    ic_a, ic_b = ic(), ic() if time_order == 2 else None
    rhs = draw(shared_asts(st.integers(1, 3), max_degree=3))
    if draw(st.booleans()):  # y * y_x: cosh*sinh and sinh*cosh, the sign table's asymmetric entries
        rhs = Add((rhs, Mul(Solution(), Dx(1, Solution()))))
    if full:
        rhs = Add((rhs, Mul(Solution(), Solution())))
    k_max = max(k for k in range(1, 8) if work_bound(rank, k) <= WORK_CEILING)
    K = draw(st.integers(5 if full else time_order, k_max))
    return PdeSpec(time_order, draw(st.floats(0.1, 0.95)), rhs, ic_a, ic_b), K


_SPEC_KEYS = sorted({f.name for cls in ararps.solver._NODES.values() for f in fields(cls)}
                    | {"node", "kind", "freq", "coeff"})
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10 ** 400, -(10 ** 400)])
    | st.floats() | st.text(max_size=4)
    | st.sampled_from(sorted(ararps.solver._NODES) + sorted(ararps.solver._KIND_NAMES)),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(_SPEC_KEYS), kids, max_size=4),
    max_leaves=10,
)


@st.composite
def pslq_vectors(draw):
    """Vectors as ``zbasis.find_basis`` hands them to PSLQ: up to four earlier frequencies over
    the next one f, then 1.0.  In half the draws f is an integer combination of them over a
    small denominator, so a relation exists; the frequencies span six decades."""
    earlier = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
    if draw(st.booleans()):
        combo = [draw(st.integers(-12, 12)) for _ in earlier]
        f = abs(math.fsum(c * v for c, v in zip(combo, earlier))) / draw(st.integers(1, 6))
    else:
        f = draw(st.floats(1e-3, 1e3))
    return [v / f for v in earlier] + [1.0] if f else [1.0, 1.0]
