"""Output checks that do not rely on the code under test.

Everything here is plain-float arithmetic on the *outputs* of ararps (table
rows, surface files, coefficient term lists, CLI text).  No function of the
ararps package is called, so a defect in the solver cannot hide itself by
also being present in its check.

The closed forms are the paper's traveling-wave solutions at alpha = 1; the
coefficient oracle re-derives c_{n+k}(x) pointwise from c_0..c_n by x-jets
(Taylor-mode differentiation with the Leibniz rule) and convolution weights
from ``math.lgamma``.
"""

from __future__ import annotations

import math
import re

# per-example table tolerances of `ararps validate`, and criterion 9's bound
# on the alpha = 1 surfaces
TABLE_TOL = {1: 1e-10, 2: 1e-8, 3: 1e-5, 4: 1e-4}
SURFACE_TOL = 1e-9
# the jet oracle's bound, relative to the sum of absolute contributions
JET_REL_TOL = 1e-9
TRANSFORM_REL_TOL = 1e-8


# --------------------------------------------------------------------------
# closed forms of the four built-in examples (default parameters v=w=lam=1)


def closed_form(example: int, gamma: float, x: float, t: float) -> float:
    """Exact solution at alpha = 1 of built-in example 1-4."""
    if example == 1:
        return (2.0 / 3.0) * (1.0 - math.cosh(x / 2.0 - t / 2.0))
    if example == 2:
        return -(gamma * gamma - 1.0) * (math.cosh(x - gamma * t) - 1.0)
    if example == 3:
        return math.cosh(x - t) - 1.0
    if example == 4:
        return math.sqrt(1.5) * math.sinh((x - t) / 3.0)
    raise ValueError(f"unknown example {example!r}")


def check_table(example: int, gamma: float, points: list[tuple[float, float, float]]) -> list[str]:
    """Failures among (x, t, numeric) table points; one message per bad point."""
    tol = TABLE_TOL[example]
    bad = []
    for x, t, numeric in points:
        err = abs(numeric - closed_form(example, gamma, x, t))
        if not err < tol:
            bad.append(f"ex{example} table ({x:g},{t:g}): |err| {err:.2e} >= {tol:.0e}")
    return bad


def check_surface(example: int, points: list[tuple[float, float, float]]) -> list[str]:
    """Failures among (x, t, y) points of an alpha = 1 surface."""
    bad = []
    for x, t, y in points:
        err = abs(y - closed_form(example, 2.0, x, t))
        if not err <= SURFACE_TOL:
            bad.append(f"ex{example} surface ({x:g},{t:g}): |err| {err:.2e} > {SURFACE_TOL:.0e}")
    return bad


def check_initial_row(example: int, points: list[tuple[float, float, float]]) -> list[str]:
    """A fractional-alpha surface must be finite and equal the IC at t = 0."""
    bad = []
    for x, t, y in points:
        if not math.isfinite(y):
            bad.append(f"ex{example} surface ({x:g},{t:g}): non-finite {y!r}")
        elif t == 0.0:
            err = abs(y - closed_form(example, 2.0, x, 0.0))
            if not err <= SURFACE_TOL:
                bad.append(f"ex{example} surface ({x:g},0): |y - ic| {err:.2e}")
    return bad


def parse_surface(text: str) -> list[tuple[float, float, float]]:
    out = []
    for line in text.splitlines():
        x, t, y = map(float, line.split())
        out.append((x, t, y))
    return out


# --------------------------------------------------------------------------
# pointwise coefficient oracle on x-jets
#
# A term is (kind, freq, coeff) with kind 0 = const, 1 = cosh, 2 = sinh; a
# jet is the list [f(x), f'(x), ..., f^(J)(x)].  The operator is the JSON
# AST of the problem spec.


def term_jet(terms, x: float, J: int) -> tuple[list[float], list[float]]:
    """(jet, magnitude jet) of sum(coeff * basis(freq*x)) up to order J."""
    jet = [0.0] * (J + 1)
    mag = [0.0] * (J + 1)
    for kind, freq, coeff in terms:
        kind = int(kind)
        if kind == 0:
            jet[0] += coeff
            mag[0] += abs(coeff)
            continue
        ch, sh = math.cosh(freq * x), math.sinh(freq * x)
        for j in range(J + 1):
            even = (j % 2 == 0) == (kind == 1)
            v = coeff * freq ** j * (ch if even else sh)
            jet[j] += v
            mag[j] += abs(coeff) * freq ** j * ch
    return jet, mag


def _jet_depth(node: dict) -> int:
    """Largest total x-derivative order below ``node``."""
    tag = node["node"]
    if tag == "dx":
        return node["order"] + _jet_depth(node["child"])
    if tag == "add":
        return max(_jet_depth(t) for t in node["terms"])
    if tag == "mul":
        return max(_jet_depth(node["left"]), _jet_depth(node["right"]))
    if tag in ("scale", "pow"):
        return _jet_depth(node["child"])
    return 0


def _weight(alpha: float, m: int, j: int) -> float:
    """Gamma((m+j)a+1) / (Gamma(ma+1) Gamma(ja+1)) from lgamma."""
    lg = math.lgamma
    return math.exp(lg((m + j) * alpha + 1.0) - lg(m * alpha + 1.0) - lg(j * alpha + 1.0))


def _leibniz(u: list[float], v: list[float]) -> list[float]:
    J = len(u) - 1
    return [sum(math.comb(j, l) * u[l] * v[j - l] for l in range(j + 1)) for j in range(J + 1)]


def _mul_series(alpha, a, b):
    """Time-order Cauchy product of two lists of (jet, magnitude jet)."""
    out = []
    for n in range(len(a)):
        jet = [0.0] * len(a[0][0])
        mag = [0.0] * len(a[0][0])
        for m in range(n + 1):
            w = _weight(alpha, m, n - m)
            pj = _leibniz(a[m][0], b[n - m][0])
            pm = _leibniz(a[m][1], b[n - m][1])
            for j in range(len(jet)):
                jet[j] += w * pj[j]
                mag[j] += w * pm[j]
        out.append((jet, mag))
    return out


def _apply(node: dict, alpha: float, y: list) -> list:
    """Jets of the operator applied to the series whose jets are ``y``."""
    tag = node["node"]
    J1 = len(y[0][0])
    if tag == "solution":
        return y
    if tag == "const":
        head = ([node["value"]] + [0.0] * (J1 - 1), [abs(node["value"])] + [0.0] * (J1 - 1))
        return [head] + [([0.0] * J1, [0.0] * J1)] * (len(y) - 1)
    if tag == "add":
        parts = [_apply(t, alpha, y) for t in node["terms"]]
        return [
            ([sum(p[n][0][j] for p in parts) for j in range(J1)],
             [sum(p[n][1][j] for p in parts) for j in range(J1)])
            for n in range(len(y))
        ]
    if tag == "scale":
        f = node["factor"]
        return [([f * v for v in jet], [abs(f) * v for v in mag]) for jet, mag in _apply(node["child"], alpha, y)]
    if tag == "mul":
        return _mul_series(alpha, _apply(node["left"], alpha, y), _apply(node["right"], alpha, y))
    if tag == "pow":
        base = _apply(node["child"], alpha, y)
        acc = base
        for _ in range(node["exponent"] - 1):
            acc = _mul_series(alpha, acc, base)
        return acc
    if tag == "dx":
        k = node["order"]
        pad = [0.0] * k
        return [(jet[k:] + pad, mag[k:] + pad) for jet, mag in _apply(node["child"], alpha, y)]
    raise ValueError(f"unknown node {tag!r}")


def check_coefficients(spec: dict, coeffs: list, xs) -> list[tuple[int, float, str | None]]:
    """Check c_{n+k}(x) = [rhs(c_0..c_n)]_n(x) for every n and x.

    ``spec`` is the JSON problem spec and ``coeffs`` the solved coefficients
    as term lists.  Returns one (n, x, failure message or None) per point.
    """
    alpha, k = spec["alpha"], spec["time_order"]
    J = _jet_depth(spec["rhs"])
    out = []
    for x in xs:
        y = [term_jet(c, x, J) for c in coeffs]
        rhs = _apply(spec["rhs"], alpha, y)
        for n in range(len(coeffs) - k):
            want, scale = rhs[n][0][0], rhs[n][1][0]
            got = math.fsum(term_jet(coeffs[n + k], x, 0)[0])
            err = abs(got - want)
            msg = None
            if not err <= JET_REL_TOL * scale + 1e-300:
                msg = f"c_{n + k}({x:g}): |got - oracle| {err:.2e} > {JET_REL_TOL:.0e} * {scale:.2e}"
            out.append((n + k, x, msg))
    return out


# --------------------------------------------------------------------------
# CLI output


def transform_closed_form(p: float, n: int, s: float) -> float:
    """G_n[t^p](s) = s * int_0^inf t^(n-1) e^(-st) t^p dt = Gamma(p+n) s^(1-n-p)."""
    return math.exp(math.lgamma(p + n) + (1.0 - n - p) * math.log(s))


def check_transform(p: float, n: int, s: float, exit_code: int, output: str) -> str | None:
    if exit_code != 0:
        return f"transform t^{p:g} n={n} s={s:g}: exit code {exit_code}"
    m = re.search(r"^numeric\s+(\S+)", output, re.MULTILINE)
    if m is None:
        return f"transform t^{p:g} n={n} s={s:g}: no numeric value in output"
    want = transform_closed_form(p, n, s)
    rel = abs(float(m.group(1)) - want) / abs(want)
    if not rel <= TRANSFORM_REL_TOL:
        return f"transform t^{p:g} n={n} s={s:g}: rel err {rel:.2e}"
    return None


def check_validate(exit_code: int, output: str) -> str | None:
    if exit_code != 0:
        return f"validate: exit code {exit_code}"
    if "all checks passed" not in output:
        return "validate: 'all checks passed' missing from output"
    return None
