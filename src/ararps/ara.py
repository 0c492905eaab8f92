"""The ARA integral transform: formal series maps plus numerical quadrature.

The order-n transform of y(t) is  G_n[y](s) = s * int_0^inf t^(n-1) e^(-st) y dt.
For the solver only the exact series-level maps matter (h_n = (n*alpha+1) c_n
between a FracSeries and its order-two image); the quadrature routines exist
to verify the transform identities independently of the formal algebra.
Quadrature runs on caputo's shared core; fractional derivatives come from the caller.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .caputo import _quad
from .fpseries import FracSeries
from .hypalg import HypExpr
from .special import gamma

__all__ = [
    "AraSeries",
    "to_ara",
    "from_ara",
    "ara_numeric",
    "ara_monomial",
    "PropertyReport",
    "verify_property",
]


@dataclass(frozen=True)
class AraSeries:
    """Order-two image sum_n h_n(x) / s^(n*alpha+1) of a fractional series."""

    alpha: float
    coeffs: tuple[HypExpr, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def eval_order2(self, x: float, s: float) -> float:
        """Numeric value of the order-two image at (x, s)."""
        a = self.alpha
        return math.fsum(
            h(x) / s ** (n * a + 1.0) for n, h in enumerate(self.coeffs)
        )


def to_ara(s: FracSeries) -> AraSeries:
    """h_n = (n*alpha + 1) c_n."""
    a = s.alpha
    return AraSeries(a, tuple(c.scale(n * a + 1.0) for n, c in enumerate(s.coeffs)))


def from_ara(a: AraSeries) -> FracSeries:
    """c_n = h_n / (n*alpha + 1); exact inverse of :func:`to_ara`."""
    al = a.alpha
    return FracSeries(
        al, tuple(h.scale(1.0 / (n * al + 1.0)) for n, h in enumerate(a.coeffs))
    )


# absolute tolerance and panel limit of ara_numeric's quadrature
_QUAD_TOL = 1e-10
_QUAD_PANELS = 300
# the two coefficients of verify_property's linearity check (property 1)
_LIN_A, _LIN_B = 2.0, 3.0


def ara_numeric(f: Callable[[float], float], n: int, s: float) -> float:
    """Adaptive quadrature of s * int_0^T t^(n-1) e^(-st) f(t) dt.

    T is a horizon where the exponential tail is negligible; a warning is
    emitted when the estimated tail bound exceeds the quadrature tolerance.
    """
    if n not in (1, 2):
        raise ValueError("ara_numeric: transform order must be 1 or 2")
    if not 0.0 < s < math.inf:
        raise ValueError(f"ara_numeric: s must be finite and positive, got {s!r}")

    def integrand(t: float) -> float:
        return t ** (n - 1) * math.exp(-s * t) * f(t)

    T = 60.0 / s
    while abs(integrand(T)) > 1e-16 and T < 1400.0 / s:
        T *= 1.5
    tail = abs(integrand(T)) / s  # crude e^(-sT)-scale bound
    if s * tail > _QUAD_TOL:
        warnings.warn(
            f"ara_numeric: tail bound {s * tail:.3e} at T={T:.3g} exceeds tol",
            stacklevel=2,
        )
    points = [1.0 / s] if 1.0 / s < T else None
    return s * _quad(integrand, 0.0, T, 0.1 * _QUAD_TOL, 1e-11, _QUAD_PANELS, points)


def ara_monomial(p: float, n: int, s: float) -> float:
    """Closed form G_n[t^p] = Gamma(p + n) / s^(p + n - 1)."""
    if p < 0.0:
        raise ValueError("ara_monomial: exponent must be >= 0")
    if n not in (1, 2):
        raise ValueError("ara_monomial: transform order must be 1 or 2")
    if not 0.0 < s < math.inf:
        raise ValueError(f"ara_monomial: s must be finite and positive, got {s!r}")
    return gamma(p + n) / s ** (p + n - 1.0)


@dataclass(frozen=True)
class PropertyReport:
    property_id: int
    discrepancies: tuple[float, ...]
    max_discrepancy: float


def _richardson_limit(values: Sequence[float], s_values: Sequence[float], alpha: float) -> float:
    """Extrapolate v(s) -> L assuming an expansion in powers of 1/s^alpha.

    Requires geometrically spaced s values; eliminates the 1/s^alpha,
    1/s^(2 alpha), ... terms successively.
    """
    if len(values) < 2:
        return values[0]
    r = s_values[1] / s_values[0]
    vals = list(values)
    for level in range(1, len(vals)):
        fac = r ** (level * alpha)
        vals = [
            (fac * vals[i + 1] - vals[i]) / (fac - 1.0)
            for i in range(len(vals) - 1)
        ]
    return vals[0]


def verify_property(
    property_id: int,
    f: Callable[[float], float],
    s_values: Sequence[float],
    alpha: float = 1.0,
    g: Callable[[float], float] | None = None,
    dalpha_f: Callable[[float], float] | None = None,
    d2alpha_f: Callable[[float], float] | None = None,
    dalpha_f0: float | None = None,
) -> PropertyReport:
    """Numerically check one of the seven transform identities on ``f``.

    Properties 3 and 5 need the closed-form Caputo derivative ``dalpha_f``;
    property 6 also needs ``d2alpha_f``, the sequential derivative of order
    2*alpha. Without them these properties raise ValueError.
    Limit-type properties (2 and 7) extrapolate over the given s values,
    which must be geometrically spaced.
    """
    f0 = f(0.0)
    if property_id in (3, 5, 6) and dalpha_f is None or property_id == 6 and d2alpha_f is None:
        raise ValueError(f"property {property_id} needs dalpha_f (and d2alpha_f for 6)")

    disc: list[float] = []
    if property_id == 1:
        if g is None:
            g = lambda t: f(t) ** 2
        for s in s_values:
            combo = ara_numeric(lambda t: _LIN_A * f(t) + _LIN_B * g(t), 2, s)
            parts = _LIN_A * ara_numeric(f, 2, s) + _LIN_B * ara_numeric(g, 2, s)
            disc.append(abs(combo - parts))
    elif property_id == 2:
        vals = [ara_numeric(f, 1, s) for s in s_values]
        disc.append(abs(_richardson_limit(vals, s_values, alpha) - f0))
    elif property_id == 3:
        for s in s_values:
            lhs = ara_numeric(dalpha_f, 1, s)
            rhs = s ** alpha * ara_numeric(f, 1, s) - s ** alpha * f0
            disc.append(abs(lhs - rhs))
    elif property_id == 4:
        for s in s_values:
            lhs = ara_numeric(lambda t: t ** alpha, 2, s)
            disc.append(abs(lhs - ara_monomial(alpha, 2, s)))
    elif property_id == 5:
        for s in s_values:
            lhs = ara_numeric(dalpha_f, 2, s)
            rhs = (
                s ** alpha * ara_numeric(f, 2, s)
                - alpha * s ** (alpha - 1.0) * ara_numeric(f, 1, s)
                + (alpha - 1.0) * s ** (alpha - 1.0) * f0
            )
            disc.append(abs(lhs - rhs))
    elif property_id == 6:
        # D^alpha f at 0+; supply dalpha_f0 when the limit is known exactly
        b0 = dalpha_f(1e-12) if dalpha_f0 is None else dalpha_f0
        for s in s_values:
            lhs = ara_numeric(d2alpha_f, 2, s)
            rhs = (
                s ** (2 * alpha) * ara_numeric(f, 2, s)
                - 2 * alpha * s ** (2 * alpha - 1.0) * ara_numeric(f, 1, s)
                + (2 * alpha - 1.0) * s ** (2 * alpha - 1.0) * f0
                + (alpha - 1.0) * s ** (alpha - 1.0) * b0
            )
            disc.append(abs(lhs - rhs))
    elif property_id == 7:
        vals = [s * ara_numeric(f, 2, s) for s in s_values]
        disc.append(abs(_richardson_limit(vals, s_values, alpha) - f0))
    else:
        raise ValueError(f"unknown property id {property_id!r}")
    return PropertyReport(property_id, tuple(disc), max(disc))
