import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ararps.caputo
from ararps.caputo import (
    ConvergenceError,
    _quad,
    caputo_numeric,
    rl_integral_numeric,
)
from ararps.special import gamma


class TestRlIntegral:
    def test_monomial_law(self):
        # J^alpha t^p = Gamma(p+1)/Gamma(p+alpha+1) t^(p+alpha)
        for alpha in (0.3, 0.5, 0.9):
            for p in (0.0, 0.5, 1.0, 2.0):
                for t in (0.25, 1.0):
                    ref = gamma(p + 1.0) / gamma(p + alpha + 1.0) * t ** (p + alpha)
                    got = rl_integral_numeric(lambda u: u ** p, alpha, t)
                    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e200])
    def test_scale_free(self, s):
        # the stop rule is relative only: f and s*f stop at the same level
        ref = rl_integral_numeric(math.cos, 0.5, 1.0)
        got = rl_integral_numeric(lambda t: s * math.cos(t), 0.5, 1.0) / s
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_order_one_is_plain_integral(self):
        got = rl_integral_numeric(math.cos, 1.0, 1.3)
        assert got == pytest.approx(math.sin(1.3), rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            rl_integral_numeric(math.exp, 0.5, 0.0)
        with pytest.raises(ValueError):
            rl_integral_numeric(math.exp, -0.5, 1.0)


class TestCaputo:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_monomial_law(self, alpha, k):
        # D^alpha t^(k alpha) = Gamma(k alpha + 1)/Gamma((k-1) alpha + 1) t^((k-1) alpha)
        p = k * alpha
        for t in (0.3, 0.8):
            ref = gamma(p + 1.0) / gamma(p - alpha + 1.0) * t ** (p - alpha)
            got = caputo_numeric(lambda u: u ** p, alpha, t)
            assert got == pytest.approx(ref, rel=1e-8)

    def test_annihilates_constants(self):
        assert caputo_numeric(lambda t: 3.7, 0.6, 0.5) == pytest.approx(0.0, abs=1e-8)

    def test_classical_limit_is_derivative(self):
        got = caputo_numeric(math.sin, 1.0, 0.9)
        assert got == pytest.approx(math.cos(0.9), rel=1e-8)

    def test_alpha_below_one_takes_the_quadrature(self, monkeypatch):
        # only alpha == 1 is the plain derivative; 1 - 1e-13 is J^(1e-13) of it
        calls = []
        real = ararps.caputo.rl_integral_numeric
        monkeypatch.setattr(ararps.caputo, "rl_integral_numeric",
                            lambda f, a, t: calls.append(a) or real(f, a, t))
        got = caputo_numeric(lambda t: t ** 1.5, 1.0 - 1e-13, 0.7)
        assert calls
        assert got == pytest.approx(1.5 * 0.7 ** 0.5, rel=1e-9)

    def test_left_inverse_of_rl_integral(self):
        # D^alpha J^alpha f = f for continuous f
        alpha = 0.6
        f = lambda t: math.cos(t) + t
        g = lambda t: rl_integral_numeric(f, alpha, t) if t > 0 else 0.0
        t = 0.7
        assert caputo_numeric(g, alpha, t) == pytest.approx(f(t), rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            caputo_numeric(math.exp, 1.2, 0.5)
        with pytest.raises(ValueError):
            caputo_numeric(math.exp, 0.5, 0.0)

    def test_convergence_error_surfaced(self):
        # a pathological oscillator keeps the tanh-sinh levels apart: it must raise, not return junk
        nasty = lambda t: math.sin(1.0 / (t + 1e-12))
        with pytest.raises(ConvergenceError):
            _quad(nasty, 0.0, 1.0)


class TestQuad:
    @pytest.mark.parametrize("beta", [0.2, 0.5, 1.0, 2.5])
    def test_endpoint_power(self, beta):
        # int_0^1 u^(beta-1) du = 1/beta: below beta = 1 the nodes next to 0 carry the integral
        assert _quad(lambda u: u ** (beta - 1.0), 0.0, 1.0) == pytest.approx(1.0 / beta, rel=1e-12)

    def test_integral_that_cancels_to_zero(self):
        # int_0^2 (1 - u) du = 0: the levels agree to a few ulps of their absolute mass
        assert abs(_quad(lambda u: 1.0 - u, 0.0, 2.0)) <= 1e-15


def test_no_scipy_numpy_or_mpmath():
    # no module of the package imports them, and importing it loads none of them;
    # mpmath stays the tests' independent oracle
    banned = ("scipy", "numpy", "mpmath")
    importers = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "ararps").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] in banned for n in names):
                importers.add(path.name)
    assert importers == set()
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, ararps; print(sorted({'scipy', 'numpy', 'mpmath'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(ararps.caputo.__file__).parents[1])},
    )
    assert loaded.stdout.strip() == "[]"
