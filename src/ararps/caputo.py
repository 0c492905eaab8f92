"""Numerical Caputo derivative, Riemann-Liouville integral and the shared
quadrature core of every numeric oracle.

These quadrature-based operators are validation oracles for the exact
series machinery; they never sit on the solver path.  Every quadrature,
here and in ``ara``, is one ``_quad`` call at one relative tolerance ``_TOL``:
a tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974) in pure Python.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

from .special import rgamma

__all__ = ["ConvergenceError", "rl_integral_numeric", "caputo_numeric"]

# relative tolerance of every quadrature
_TOL = 1e-11
# two tanh-sinh levels that differ by delta leave an error of about delta^2 / |I|
# (Bailey, Jeyabalan & Li, Experimental Mathematics 14, 2005), so levels that
# agree to _AGREE relative meet _TOL with a 100x margin
_AGREE = math.sqrt(1e-2 * _TOL)
# a few ulps: levels that agree to this share of their absolute mass have
# converged, even where the integral cancels to about 0; and a term below
# this share of level 0's mass adds nothing, so nodes past it are left out
_ULPS = 8.0 * sys.float_info.epsilon
# relative steps of caputo_numeric's finite differences: the plain derivative
# at alpha == 1, and the derivative of a Riemann-Liouville integral below it
_STEP = 1e-5
_RL_STEP = 3e-5


def _node(t: float) -> tuple[float, float]:
    """The tanh-sinh node at t > 0 as (d, w): the distance d = 1 - x of
    x = tanh(u), u = pi/2 sinh t, from its end, and the weight w = dx/dt.

    Computing d as 2 / (e^(2u) + 1) keeps its digits near the end; at t = 6
    it is about 1e-275, still a normal double.
    """
    d = 2.0 / (math.exp(math.pi * math.sinh(t)) + 1.0)
    return d, math.pi / 2.0 * math.cosh(t) * d * (2.0 - d)  # sech^2 u = (1 - x)(1 + x)


# the nodes t > 0 that each level adds, in increasing t: level 0 has t = 1 .. 6
# (and the middle node t = 0, weight pi/2), level k = 1 .. 8 the odd multiples
# of its step 2^-k below 6
_LEVELS = [tuple(map(_node, range(1, 7)))] + [
    tuple(_node(j * 2.0 ** -k) for j in range(1, 6 << k, 2)) for k in range(1, 9)
]


class ConvergenceError(ArithmeticError):
    """The last two tanh-sinh levels of a quadrature did not agree to its tolerance."""


def _tanh_sinh(f: Callable[[float], float], a: float, b: float) -> float:
    """int_a^b f by tanh-sinh levels; see ``_quad``."""
    half = 0.5 * (b - a)
    sides = ((a, half), (b, -half))  # the node at distance d from an end is end + step * d
    level0 = [[w * f(end + step * d) for d, w in _LEVELS[0]] for end, step in sides]
    terms = [math.pi / 2.0 * f(a + half), *level0[0], *level0[1]]
    floor = _ULPS * sum(map(abs, terms))
    # each side's farthest node with a term above the floor, in steps of the
    # last level: past the next node out the terms decay doubly exponentially,
    # so the next level stops short of it
    last = [max((j for j, v in enumerate(side, 1) if abs(v) > floor), default=0) for side in level0]
    total, mass, prev = math.fsum(terms), sum(map(abs, terms)), math.nan
    for k, level in enumerate(_LEVELS):
        if k:
            terms = []
            for i, (end, step) in enumerate(sides):
                new = [w * f(end + step * d) for d, w in level[:last[i] + 1]]
                j = len(new)
                while j and abs(new[j - 1]) <= floor:
                    j -= 1
                last[i] = max(2 * last[i], 2 * j - 1)
                terms += new
            total += math.fsum(terms)
            mass += sum(map(abs, terms))
        scale = half * 2.0 ** -k
        val = scale * total
        if not math.isfinite(val):
            return val
        diff = abs(val - prev)
        if diff <= max(_AGREE * abs(val), _ULPS * scale * mass):
            return val
        prev = val
    raise ConvergenceError(f"quadrature on [{a!r}, {b!r}]: the last two tanh-sinh levels differ by {diff:.3e}")


def _quad(f: Callable[[float], float], a: float, b: float,
          points: Sequence[float] | None = None) -> float:
    """int_a^b f: the fsum of a tanh-sinh rule on each piece of [a, b] split at
    ``points``, which lie inside it in increasing order.

    A piece stops at the first level that agrees with the one before to
    _AGREE relative, or to a few ulps of the level's absolute mass
    h * half * sum |w f| where the integral cancels to about 0.  Both are
    relative to f, with no absolute floor, so a small f keeps its relative
    accuracy.  ConvergenceError if the last level still disagrees; a
    non-finite value is returned as it is.
    """
    cuts = [a, *(points or ()), b]
    return math.fsum(_tanh_sinh(f, lo, hi) for lo, hi in zip(cuts, cuts[1:]))


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
    # the derivative at alpha == 1; a relative step keeps it stable near tau = 0
    h = _STEP * max(abs(tau), _STEP)
    if tau - h >= 0.0:
        return (f(tau + h) - f(tau - h)) / (2.0 * h)
    return (f(tau + h) - f(tau)) / h


def caputo_numeric(f: Callable[[float], float], alpha: float, t: float) -> float:
    """Caputo derivative of order alpha in (0, 1] at time t > 0.

    Below alpha = 1 it is d/dt J^(1-alpha)[f - f(0)]: a central difference,
    step 1e-4 t, of two Riemann-Liouville quadratures, so no quadrature sees
    finite-difference noise.  At alpha == 1 exactly it is the plain
    numerical derivative.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("caputo_numeric: alpha must be in (0, 1]")
    if t <= 0.0:
        raise ValueError("caputo_numeric: t must be positive")
    if alpha == 1.0:
        return _derivative(f, t)
    f0 = f(0.0)
    g = lambda tau: f(tau) - f0
    h = _RL_STEP * t
    return (rl_integral_numeric(g, 1.0 - alpha, t + h)
            - rl_integral_numeric(g, 1.0 - alpha, t - h)) / (2.0 * h)
