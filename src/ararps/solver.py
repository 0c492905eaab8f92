"""ARA residual power series solver for D_t^{k*alpha} y = N_x[y].

The engine runs the t-space coefficient recursion in Taylor form

    c_{n+k} = Gamma(n*alpha + 1) * [coefficient n of N_x on a_0..a_n],  a_n = c_n / Gamma(n*alpha + 1),

which is what the transform-space limit extraction lim s^{k*alpha+1} G2 Res_k = 0
isolates order by order.  On the coefficients a_n of t^(n*alpha), held at a
power-of-two time scale, every product is a plain Cauchy product, so alpha
enters only where c_n are converted in and out.  Coefficient n of every
operator node depends only on a_0..a_n, so ``solve`` runs the recursion in
one pass.  ``_coefficients`` lowers the AST once to a flat list of steps in
dependency order, one per distinct subtree, each holding the coefficients
computed so far; order n appends coefficient n to each from its children's
lists (the online, or "relaxed", Cauchy product; van der Hoeven, JSC 2002).
``apply_operator`` runs the same engine on a given series.

``residuals`` rebuilds the transform-space residual coefficient of every
order 0..K from a finished series with one ``apply_operator`` pass over it:
by the same online property, coefficient n-k of that pass is what the
order-n residual needs, whatever the series holds beyond c_n.
``residual_check`` is its order-n entry.  Both are opt-in verification APIs
and are not called by ``solve``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial
from operator import mul
from typing import Any, Callable, Sequence, Union

from .fpseries import FracSeries, mul_coeff
from .hypalg import HypExpr, Kind, _common
from .special import _context, _gamma40, _mittag_leffler, _to_double, tpow

__all__ = [
    "Solution",
    "Const",
    "Add",
    "Scale",
    "Mul",
    "PowInt",
    "Dx",
    "OperatorAst",
    "PdeSpec",
    "ExampleParams",
    "SolveResult",
    "apply_operator",
    "solve",
    "residuals",
    "residual_check",
    "builtin_example",
    "exact_solution",
    "with_alpha",
    "pde_spec_to_json",
    "pde_spec_from_json",
]


# --------------------------------------------------------------------------
# operator AST

# budget checked when a node is built: an exponent costs a chain of that many
# cached products, a derivative order as many multiplications per term; the
# built-in examples use at most 3 and 4
_MAX_EXPONENT = 64
_MAX_DX_ORDER = 64


@dataclass(frozen=True)
class Solution:
    pass


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Add:
    terms: tuple[OperatorAst, ...]

    def __post_init__(self) -> None:
        # a tuple, so that the frozen node is immutable and compares by value
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("Add needs at least one term")


@dataclass(frozen=True)
class Scale:
    factor: float
    child: OperatorAst


@dataclass(frozen=True)
class Mul:
    left: OperatorAst
    right: OperatorAst


@dataclass(frozen=True)
class PowInt:
    exponent: int
    child: OperatorAst

    def __post_init__(self) -> None:
        if not 2 <= self.exponent <= _MAX_EXPONENT:
            raise ValueError(f"PowInt exponent must be in 2..{_MAX_EXPONENT}, got {self.exponent!r}")


@dataclass(frozen=True)
class Dx:
    order: int
    child: OperatorAst

    def __post_init__(self) -> None:
        if not 1 <= self.order <= _MAX_DX_ORDER:
            raise ValueError(f"Dx order must be in 1..{_MAX_DX_ORDER}, got {self.order!r}")


OperatorAst = Union[Solution, Const, Add, Scale, Mul, PowInt, Dx]


def _times(c: HypExpr, x: float, s: int, inverse: bool) -> HypExpr:
    """c * 2**s * Gamma(x), or / Gamma(x) if ``inverse``: by special's double shifted by s where both
    are normal, else by each term's exact product with the cached Gamma value, rounded once; still canonical."""
    g40, g, rg = _gamma40(x)
    d = rg if inverse else g
    if sys.float_info.min <= d < math.inf and -1021 <= math.frexp(d)[1] + s <= 1024:
        return c.scale(math.ldexp(d, s))
    num, den = Fraction(g40).as_integer_ratio()
    num, den = (den, num) if inverse else (num, den)
    num, den = num << max(s, 0), den << max(-s, 0)
    return c.map_coeffs(lambda v: _to_double(*map(mul, v.as_integer_ratio(), (num, den))))


def _coefficients(node: OperatorAst, alpha: float, y: Sequence[HypExpr]) -> Callable[[int], HypExpr]:
    """Lower the AST once; return ``next(n)``, which reads y[0..n] and gives the root's c_n.

    A step, a list of b_n and the function of n that gives its next entry, is
    keyed by its node type, scalar fields and children's list ids, so equal
    subtrees share a step and no node is hashed; an object met twice is lowered
    once.  Power p is power p-1 times the base, in a loop, so nested powers do
    not deepen the recursion.  The root, never ``Solution`` (the callers read y
    as it is), is the last step; no step reads its list, so it keeps none.

    The lists hold b_n = a_n * 2**(n*e).  Where log2 of the leaf's largest b_n
    term, by the double lgamma, is more than 256 from 0, order n moves e by the
    nearest integer to that over n and shifts every list: exactly, so the bits
    do not depend on e while values are normal; a leaf b_n that is not raises.
    """
    # key -> (coefficient list, next entry); a dict keeps the dependency order
    steps: dict[tuple, tuple[list[HypExpr], Callable[[int], HypExpr]]] = {}
    by_id: dict[int, Sequence[HypExpr]] = {}
    e = 0

    def step(key: tuple, nxt: Callable[[int], HypExpr]) -> list[HypExpr]:
        return steps.setdefault(key, ([], nxt))[0]

    def lower(node: OperatorAst) -> Sequence[HypExpr]:
        out = by_id.get(id(node))
        if out is not None:
            return out
        if isinstance(node, Solution):
            out = step((Solution,), lambda n: _times(y[n], n * alpha + 1.0, n * e, True))
        elif isinstance(node, Const):
            v = node.value
            out = step((Const, v), lambda n, v=v: HypExpr.const(v) if n == 0 else HypExpr())
        elif isinstance(node, Add):
            ts = [lower(t) for t in node.terms]
            out = step((Add, *map(id, ts)), lambda n, ts=ts: HypExpr.sum([t[n] for t in ts]))
        elif isinstance(node, Scale):
            a, f = lower(node.child), node.factor
            out = step((Scale, f, id(a)), lambda n, a=a, f=f: a[n].scale(f))
        elif isinstance(node, Mul):
            a, b = lower(node.left), lower(node.right)
            out = step((Mul, id(a), id(b)), partial(mul_coeff, a, b))
        elif isinstance(node, PowInt):
            out = base = lower(node.child)
            for q in range(2, node.exponent + 1):
                out = step((PowInt, q, id(base)), partial(mul_coeff, out, base))
        elif isinstance(node, Dx):
            a, m = lower(node.child), node.order
            out = step((Dx, m, id(a)), lambda n, a=a, m=m: a[n].diff(m))
        else:
            raise ValueError(f"ill-formed operator AST node: {node!r}")
        by_id[id(node)] = out
        return out

    lower(node)
    del lower  # it calls itself through its closure: a cycle that would hold the steps
    leaf = steps[Solution,][0] if (Solution,) in steps else None
    *inner, (_, root) = steps.values()

    def next_coefficient(n: int) -> HypExpr:
        nonlocal e
        top = y[n].max_abs_coeff() if n and leaf is not None else 0.0
        lb = math.log2(top) + n * e - math.lgamma(n * alpha + 1.0) / math.log(2.0) if top else 0.0
        if d := -round(lb / n) if abs(lb) > 256.0 else 0:
            e += d
            try:
                for out, _ in inner:
                    out[:] = [b.map_coeffs(lambda v, s=m * d: math.ldexp(v, s)) for m, b in enumerate(out)]
            except OverflowError:  # an earlier entry leaves the doubles on the shift
                raise OverflowError(
                    f"c_{n} leaves the double range of the engine's scaled Taylor coefficients") from None
        for out, nxt in inner:
            out.append(nxt(n))
        if top and leaf[n].max_abs_coeff() < min(top, sys.float_info.min):  # not where c_n is subnormal
            raise OverflowError(f"c_{n} leaves the double range of the engine's scaled Taylor coefficients")
        return _times(root(n), n * alpha + 1.0, -n * e, False)

    return next_coefficient


def apply_operator(node: OperatorAst, y: FracSeries) -> FracSeries:
    """Evaluate the spatial operator on a truncated series."""
    if isinstance(node, Solution):
        return y
    return FracSeries(y.alpha, tuple(map(_coefficients(node, y.alpha, y.coeffs), range(y.order + 1))))


# --------------------------------------------------------------------------
# problem specification


@dataclass(frozen=True)
class PdeSpec:
    """D_t^{time_order * alpha} y = rhs[y] with hyperbolic-basis ICs."""

    time_order: int
    alpha: float
    rhs: OperatorAst
    ic_a: HypExpr
    ic_b: HypExpr | None = None

    def __post_init__(self) -> None:
        if self.time_order not in (1, 2):
            raise ValueError("time_order must be 1 or 2")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.time_order == 1 and self.ic_b is not None:
            raise ValueError("first-order-in-time specs carry no ic_b")
        if self.time_order == 2 and self.ic_b is None:
            raise ValueError("second-order-in-time specs require ic_b")


@dataclass(frozen=True)
class ExampleParams:
    """Free parameters of the built-in benchmark problems."""

    v: float = 1.0
    w: float = 1.0
    lam: float = 1.0
    gamma: float = 2.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.v, self.w, self.lam, self.gamma))):
            raise ValueError(f"example parameters must be finite: {self}")
        if self.v <= 0.0 or self.w <= 0.0:
            raise ValueError("v and w must be strictly positive")


@dataclass(frozen=True)
class SolveResult:
    series: FracSeries

    @property
    def order(self) -> int:
        return self.series.order


# --------------------------------------------------------------------------
# the engine


def solve(spec: PdeSpec, K: int = 6) -> SolveResult:
    """Build the order-K series solution by the coefficient recursion."""
    k = spec.time_order
    if K < k:
        raise ValueError(f"order K={K} must be >= time order {k}")
    _, coeffs = _common([spec.ic_a] if k == 1 else [spec.ic_a, spec.ic_b])  # one basis for the solve
    nxt = (coeffs.__getitem__ if isinstance(spec.rhs, Solution)
           else _coefficients(spec.rhs, spec.alpha, coeffs))
    for n in range(K - k + 1):
        coeffs.append(nxt(n))
    return SolveResult(FracSeries(spec.alpha, tuple(coeffs)))


def residuals(spec: PdeSpec, result: SolveResult) -> tuple[HypExpr, ...]:
    """Coefficient of s^-(n*alpha+1) in the k-th transform-space residual, for n = 0..K.

    The residual is assembled from the derivative-transform identities
    (order-two transform of D^{k alpha} y) applied to the truncated series
    minus the transformed right-hand side; the prefactor of h_n,
    (1 - k*alpha/(n*alpha+1)), is folded exactly into ((n-k)*alpha+1) * c_n
    so a correct series yields the identically zero expression at every
    order.  The right-hand side is one ``apply_operator`` pass over c_0..c_{K-k};
    its coefficient n-k reads only c_0..c_{n-k}, so entry n is the same
    expression, bit for bit, as a pass over the series truncated at n.
    """
    k, K = spec.time_order, result.order
    alpha = spec.alpha
    c = result.series.coeffs
    # orders below k hold the initial data: (1 - k*alpha) * (c_0 - a), and
    # for k = 2, (1 - alpha) * (c_1 - b)
    out = [(c[0] - spec.ic_a).scale(1.0 - k * alpha)]
    if k == 2 and K >= 1:
        out.append((c[1] - spec.ic_b).scale(1.0 - alpha))  # type: ignore[operator]
    if K >= k:
        rhs = apply_operator(spec.rhs, result.series.truncate(K - k)).coeffs
        out += [(c[n] - rhs[n - k]).scale((n - k) * alpha + 1.0) for n in range(k, K + 1)]
    return tuple(out)


def residual_check(spec: PdeSpec, result: SolveResult, n: int) -> HypExpr:
    """Coefficient of s^-(n*alpha+1) in the k-th transform-space residual.

    The order-n entry of ``residuals`` on the series truncated at n, so that
    only c_0..c_n are read; checking every order is cheaper by ``residuals``.
    """
    if n > result.order:
        raise ValueError("residual order exceeds series order")
    return residuals(spec, SolveResult(result.series.truncate(n)))[n]


# --------------------------------------------------------------------------
# built-in benchmark problems


def _wave(example_id: int, p: ExampleParams) -> tuple[float, float, float]:
    """(A, q, r) of examples 1-3, each the wave y = A*(cosh(q*x - r*t) - 1) at alpha = 1."""
    try:
        if example_id == 1:
            mu = math.sqrt(p.v / p.w)
            A, q, r = -2.0 * p.lam ** 2 / (3.0 * p.v), mu / 2.0, p.lam * mu / 2.0
        elif example_id == 2:
            A, q, r = -(p.gamma ** 2 - 1.0), 1.0, p.gamma
        elif example_id == 3:
            A, q, r = 1.0, 1.0, 1.0
        else:
            raise ValueError(f"unknown example id {example_id!r}")
        finite = math.isfinite(A * r)  # false too when A or r is not (0 * inf is NaN)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"example {example_id}: the wave's amplitude or speed overflows at {p}")
    return A, q, r


def builtin_example(example_id: int, params: ExampleParams | None = None) -> PdeSpec:
    """The four benchmark specs (alpha is set separately via dataclasses.replace
    or the ``alpha`` argument of the callers; default 1).

    1: D^{2a} y = v (y^2)_xx - w (y^2)_xxxx        (Klein-Gordon type)
    2: D^{2a} y = y_xx + (y^2)_xx - (y y_xx)_xx    (Boussinesq)
    3: D^{2a} y = -(y^2)_xx + (y y_xx)_xx
    4: D^{a}  y = (y^3)_x - (y^3)_xxx

    Examples 1-3 start from their wave (``_wave``) at t = 0.
    """
    p = params or ExampleParams()
    y = Solution()
    if example_id == 4:
        rhs: OperatorAst = Add((Dx(1, PowInt(3, y)), Scale(-1.0, Dx(3, PowInt(3, y)))))
        return PdeSpec(1, 1.0, rhs, HypExpr.sinh(1.0 / 3.0, math.sqrt(1.5)))
    A, q, r = _wave(example_id, p)
    if example_id == 1:
        rhs = Add((Scale(p.v, Dx(2, PowInt(2, y))), Scale(-p.w, Dx(4, PowInt(2, y)))))
    elif example_id == 2:
        rhs = Add((Dx(2, y), Dx(2, PowInt(2, y)), Scale(-1.0, Dx(2, Mul(y, Dx(2, y))))))
    else:
        rhs = Add((Scale(-1.0, Dx(2, PowInt(2, y))), Dx(2, Mul(y, Dx(2, y)))))
    ic_a = HypExpr.cosh(q, A) + HypExpr.const(-A)
    return PdeSpec(2, 1.0, rhs, ic_a, HypExpr.sinh(q, -A * r))


def with_alpha(spec: PdeSpec, alpha: float) -> PdeSpec:
    return replace(spec, alpha=alpha)


def exact_solution(
    example_id: int,
    params: ExampleParams | None = None,
    alpha: float = 1.0,
    x: float = 0.0,
    t: float = 0.0,
) -> float:
    """Closed-form benchmark solution.

    Examples 1-3 are the waves of ``_wave``.  Below alpha = 1, with
    z = r*t^alpha and E_alpha the Mittag-Leffler function, the wave is
    A*(e^(-qx)*E_alpha(z)/2 + e^(qx)*E_alpha(-z)/2 - 1), evaluated at 40 digits
    and rounded once; OverflowError if that is not finite, raised before the
    cancelling E_alpha(-|z|) is summed when the E_alpha(|z|) half alone
    decides it.  Example 4 is sqrt(1.5)*sinh((x - t^alpha)/3), a solution at
    alpha = 1 only: below it the series converges elsewhere (0.341346, not
    0.415851, at alpha = 0.5, x = 2, t = 1).  ValueError for alpha outside (0, 1].
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    p = params or ExampleParams()
    if example_id == 4:
        ta = tpow(t, alpha)
        return math.sqrt(1.5) * math.sinh((x - ta) / 3.0)
    A, q, r = _wave(example_id, p)
    if alpha == 1.0:
        return A * (math.cosh(q * x - r * t) - 1.0)
    z = r * tpow(t, alpha)
    with localcontext(_context(40)):
        A, qx = +Decimal(A), Decimal(q) * Decimal(x if z >= 0.0 else -x)  # A at 40 digits: y = 0 at x = z = 0
        # the E_alpha(|z|) half first: E_alpha(-|z|) is in (0, 1] (it is completely
        # monotone; Pollard 1948), so past this bound the other half cannot cancel it
        half = A * (-qx).exp() * _mittag_leffler(alpha, abs(z)) / 2
        if abs(half) > Decimal(sys.float_info.max) + abs(A) * (qx.exp() / 2 + 1):
            y = math.inf
        else:
            y = float(half + A * (qx.exp() * _mittag_leffler(alpha, -abs(z)) / 2 - 1))
    if not math.isfinite(y):
        raise OverflowError(f"exact_solution: example {example_id} at x={x!r}, t={t!r} overflows")
    return y


# --------------------------------------------------------------------------
# JSON I/O (schema documented in the README).  The JSON keys of a node, after
# its "node" tag, and of the spec are their dataclass field names, in field
# order; one table decodes each field by its annotation, and one encoder
# writes both (a None field is left out).

_NODES = {"solution": Solution, "const": Const, "add": Add, "scale": Scale,
          "mul": Mul, "pow": PowInt, "dx": Dx}
_TAGS = {cls: tag for tag, cls in _NODES.items()}
# most levels below a JSON spec, so deepest AST (decoding recurses); the examples reach 6
_MAX_AST_DEPTH = 100


def _finite(v: Any) -> float:
    """A JSON number (an int or a float, not a bool or a string) as a finite float."""
    try:
        f = float(v) if type(v) in (int, float) else math.nan
    except OverflowError:  # an integer past the double range
        f = math.inf
    if not math.isfinite(f):
        raise ValueError(f"expected a finite number, got {v!r}")
    return f


def _integral(v: Any) -> int:
    f = _finite(v)
    if not f.is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(f)


def _to_json(v: Any) -> Any:
    """A node or the spec as a JSON object, a ``HypExpr`` as its term list, a scalar as itself."""
    if isinstance(v, HypExpr):
        return [{"kind": k.name.lower(), "freq": f, "coeff": c} for k, f, c in v.terms]
    if isinstance(v, tuple):
        return [_to_json(t) for t in v]
    if not is_dataclass(v):
        return v
    doc = {"node": _TAGS[type(v)]} if type(v) in _TAGS else {}
    return doc | {f.name: _to_json(getattr(v, f.name)) for f in fields(v) if getattr(v, f.name) is not None}


def _check_depth(doc: Any) -> Any:
    """Return a JSON spec unless an object lies more than ``_MAX_AST_DEPTH`` levels below it."""
    level = [doc]
    for _ in range(_MAX_AST_DEPTH + 1):
        level = [c for o in level if isinstance(o, dict) for v in o.values()
                 for c in (v if isinstance(v, list) else [v]) if isinstance(c, dict)]
    if level:
        raise ValueError(f"JSON spec (its operator AST too) deeper than {_MAX_AST_DEPTH} levels")
    return doc


def _from_fields(cls: type, obj: dict[str, Any]) -> Any:
    """A node or the spec from its JSON object; a field with a default may be absent."""
    return cls(**{f.name: _FIELD_DECODERS[f.type](obj[f.name]) for f in fields(cls)
                  if f.default is MISSING or f.name in obj})


def _ast_from_json(obj: Any) -> OperatorAst:
    if not isinstance(obj, dict):
        raise TypeError(f"AST node must be a JSON object, got {obj!r}")
    tag = obj.get("node")
    cls = _NODES.get(tag)
    if cls is None:
        raise ValueError(f"unknown AST node tag {tag!r} (expected one of {sorted(_NODES)})")
    return _from_fields(cls, obj)


_KIND_NAMES = {"const": Kind.CONST, "cosh": Kind.COSH, "sinh": Kind.SINH}


def _hyp_from_json(items: list[dict[str, Any]]) -> HypExpr:
    return HypExpr.of(
        (_KIND_NAMES[it["kind"]], _finite(it.get("freq", 0.0)), _finite(it["coeff"]))
        for it in items
    )


# decoder per field annotation, as written in the node classes and ``PdeSpec``
# (annotations are strings under ``from __future__ import annotations``)
_FIELD_DECODERS = {
    "float": _finite,
    "int": _integral,
    "OperatorAst": _ast_from_json,
    "tuple[OperatorAst, ...]": lambda v: tuple(map(_ast_from_json, v)),
    "HypExpr": _hyp_from_json,
    "HypExpr | None": _hyp_from_json,
}


def pde_spec_to_json(spec: PdeSpec) -> str:
    return json.dumps(_to_json(spec), indent=2)


def pde_spec_from_json(text: str) -> PdeSpec:
    """Parse a spec; a malformed document (a missing key or a wrong type too) raises ValueError."""
    try:
        return _from_fields(PdeSpec, _check_depth(json.loads(text)))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except (LookupError, TypeError) as exc:
        raise ValueError(f"malformed spec: {exc!r}") from None
