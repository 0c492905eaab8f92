"""Numerical Caputo derivative, Riemann-Liouville integral and the shared
quadrature core of every numeric oracle.

These quadrature-based operators are validation oracles for the exact
series machinery; they never sit on the solver path.  Every quadrature,
here and in ``ara``, is one ``_quad`` call at one relative tolerance ``_TOL``; the
Caputo derivative is further capped (about 1e-5 relative) by its
finite-difference inner derivative.  This is the only module that imports scipy.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

import scipy.integrate

from .special import rgamma

__all__ = ["ConvergenceError", "rl_integral_numeric", "caputo_numeric"]

# relative tolerance, and panel limit, of every quadrature
_TOL = 1e-11
_PANELS = 300
# relative step of caputo_numeric's finite-difference inner derivative
_STEP = 1e-5


class ConvergenceError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _quad(f: Callable[[float], float], a: float, b: float,
          points: Sequence[float] | None = None) -> float:
    """int_a^b f, adaptive to _TOL relative (no absolute floor) in at most _PANELS panels,
    split at ``points``; ConvergenceError if the error estimate exceeds 1e-6 * (1 + |value|)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, err = scipy.integrate.quad(
            f, a, b, epsabs=0.0, epsrel=_TOL, limit=_PANELS, points=points
        )
    if err > 1e-6 * (1.0 + abs(val)):
        raise ConvergenceError(f"quadrature error estimate {err:.3e} exceeds budget")
    return val


def rl_integral_numeric(f: Callable[[float], float], alpha: float, t: float) -> float:
    """J^alpha f at time t for alpha > 0.

    The substitution tau = t (1 - u^(1/alpha)) absorbs the weakly singular
    kernel (t - tau)^(alpha-1), leaving

        J^alpha f(t) = t^alpha / Gamma(alpha+1) * int_0^1 f(t(1-u^(1/alpha))) du.
    """
    if t <= 0.0:
        raise ValueError("rl_integral_numeric: t must be positive")
    if alpha <= 0.0:
        raise ValueError("rl_integral_numeric: alpha must be positive")
    inv = 1.0 / alpha

    def integrand(u: float) -> float:
        return f(t * (1.0 - u ** inv))

    return t ** alpha * rgamma(alpha + 1.0) * _quad(integrand, 0.0, 1.0)


def _derivative(f: Callable[[float], float], tau: float) -> float:
    # relative step keeps the finite difference stable near an algebraic
    # singularity of f' at tau = 0
    h = _STEP * max(abs(tau), _STEP)
    if tau - h >= 0.0:
        return (f(tau + h) - f(tau - h)) / (2.0 * h)
    return (f(tau + h) - f(tau)) / h


def caputo_numeric(f: Callable[[float], float], alpha: float, t: float) -> float:
    """Caputo derivative of order alpha in (0, 1] at time t > 0.

    Computed as J^(1-alpha) applied to a finite-difference derivative of f;
    at alpha == 1 exactly it is the plain numerical derivative.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("caputo_numeric: alpha must be in (0, 1]")
    if t <= 0.0:
        raise ValueError("caputo_numeric: t must be positive")
    if alpha == 1.0:
        return _derivative(f, t)
    return rl_integral_numeric(lambda tau: _derivative(f, tau), 1.0 - alpha, t)
