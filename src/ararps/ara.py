"""The ARA integral transform: formal series maps plus numerical quadrature.

The order-n transform of y(t) is  G_n[y](s) = s * int_0^inf t^(n-1) e^(-st) y dt.
For the solver only the exact series-level maps matter (h_n = (n*alpha+1) c_n
between a FracSeries and its order-two image); the quadrature routines exist
to verify the transform identities independently of the formal algebra.
Quadrature runs on caputo's shared core, in the scale-free variable u = s*t;
fractional derivatives come from the caller.  A closed form takes s^(-k) as
one power: an underflow gives 0, a value past the double range OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .caputo import _quad
from .fpseries import FracSeries
from .hypalg import HypExpr, _finite_sum
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
        terms = [(h(x), n * a + 1.0) for n, h in enumerate(self.coeffs)]  # OverflowError naming x
        return _finite_sum((c * s ** -k for c, k in terms), f"eval_order2: image at s={s!r}")


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


# the two coefficients of verify_property's linearity check (property 1)
_LIN_A, _LIN_B = 2.0, 3.0


def ara_numeric(f: Callable[[float], float], n: int, s: float) -> float:
    """Adaptive quadrature of s * int_0^inf t^(n-1) e^(-st) f(t) dt.

    With u = s*t it is s^(1-n) * int_0^U u^(n-1) e^(-u) f(u/s) du, split at
    u = 1, so the integrand has the same scale at every s.  The horizon U
    starts at 60 and grows 1.5x while the integrand exceeds 1e-16, up to
    1400.  A non-finite integral, or an OverflowError from f, raises
    OverflowError naming s.
    """
    if n not in (1, 2):
        raise ValueError("ara_numeric: transform order must be 1 or 2")
    if not 0.0 < s < math.inf:
        raise ValueError(f"ara_numeric: s must be finite and positive, got {s!r}")

    def integrand(u: float) -> float:
        return u ** (n - 1) * math.exp(-u) * f(u / s)

    try:
        U = 60.0
        while abs(integrand(U)) > 1e-16 and U < 1400.0:
            U *= 1.5
        value = _quad(integrand, 0.0, U, [1.0]) / s ** (n - 1)
    except OverflowError:  # f past the double range
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"ara_numeric: transform at s={s!r} is not finite")
    return value


def ara_monomial(p: float, n: int, s: float) -> float:
    """Closed form G_n[t^p] = Gamma(p + n) * s^(1 - p - n)."""
    if p < 0.0:
        raise ValueError("ara_monomial: exponent must be >= 0")
    if n not in (1, 2):
        raise ValueError("ara_monomial: transform order must be 1 or 2")
    if not 0.0 < s < math.inf:
        raise ValueError(f"ara_monomial: s must be finite and positive, got {s!r}")
    return _finite_sum((gamma(p + n) * s ** -k for k in [p + n - 1.0]),
                       f"ara_monomial: transform at s={s!r}")


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
    vals = list(values)
    for level in range(1, len(vals)):
        fac = (s_values[1] / s_values[0]) ** (level * alpha)
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
    a = alpha
    g = g or (lambda t: f(t) ** 2)
    # D^alpha f at 0+ (property 6); supply dalpha_f0 when the limit is known exactly
    b0 = dalpha_f(1e-12) if dalpha_f0 is None and property_id == 6 else dalpha_f0
    G1 = lambda h, s: ara_numeric(h, 1, s)
    G2 = lambda h, s: ara_numeric(h, 2, s)
    identities = {  # s -> (lhs, rhs)
        1: lambda s: (G2(lambda t: _LIN_A * f(t) + _LIN_B * g(t), s),
                      _LIN_A * G2(f, s) + _LIN_B * G2(g, s)),
        3: lambda s: (G1(dalpha_f, s), s ** a * G1(f, s) - s ** a * f0),
        4: lambda s: (G2(lambda t: t ** a, s), ara_monomial(a, 2, s)),
        5: lambda s: (G2(dalpha_f, s), s ** a * G2(f, s) - a * s ** (a - 1.0) * G1(f, s)
                      + (a - 1.0) * s ** (a - 1.0) * f0),
        6: lambda s: (G2(d2alpha_f, s), s ** (2 * a) * G2(f, s)
                      - 2 * a * s ** (2 * a - 1.0) * G1(f, s)
                      + (2 * a - 1.0) * s ** (2 * a - 1.0) * f0
                      + (a - 1.0) * s ** (a - 1.0) * b0),
    }
    limits = {2: lambda s: G1(f, s), 7: lambda s: s * G2(f, s)}  # v(s) -> f(0)
    if property_id in identities:
        disc = [abs(lhs - rhs) for lhs, rhs in map(identities[property_id], s_values)]
    elif property_id in limits:
        vals = [limits[property_id](s) for s in s_values]
        disc = [abs(_richardson_limit(vals, s_values, alpha) - f0)]
    else:
        raise ValueError(f"unknown property id {property_id!r}")
    return PropertyReport(property_id, tuple(disc), max(disc))
