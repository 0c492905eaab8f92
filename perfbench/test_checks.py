"""Fault injection for the benchmark's output checks, and its input generator.

Each check must pass on the program's real output and fail once one table
row, surface point, coefficient or CLI result is perturbed.
"""

import json
import math

import pytest
from click.testing import CliRunner

import oracles
import run
import workloads
from ararps import bench
from ararps.solver import ExampleParams, pde_spec_from_json, solve


@pytest.mark.parametrize("ex,g", workloads.TABLES)
def test_table_check_fails_on_perturbed_row(ex, g):
    points = [(r.x, r.t, r.numeric) for r in bench.make_table(ex, ExampleParams(gamma=g))]
    assert oracles.check_table(ex, g, points) == []
    x, t, y = points[7]
    points[7] = (x, t, y + 10.0 * oracles.TABLE_TOL[ex])
    assert len(oracles.check_table(ex, g, points)) == 1


def test_surface_checks_fail_on_perturbed_point(tmp_path):
    paths = bench.emit_surface(1, alphas=(0.5, 1.0), K=24, out_dir=tmp_path)
    frac, classical = (oracles.parse_surface(p.read_text()) for p in paths[:2])
    assert oracles.check_surface(1, classical) == []
    assert oracles.check_initial_row(1, frac) == []
    x, t, y = classical[100]
    classical[100] = (x, t, y + 1e-8)
    assert len(oracles.check_surface(1, classical)) == 1
    x, t, y = frac[0]
    assert t == 0.0
    frac[0] = (x, t, y + 1e-8)
    assert len(oracles.check_initial_row(1, frac)) == 1


@pytest.mark.parametrize("workload,K", [("multifreq-lattice", 4), ("multifreq-incommensurate", 2)])
def test_coefficient_oracle_fails_on_perturbed_coefficient(workload, K):
    inputs = workloads.make_inputs(workload, 11)
    spec, xs = inputs["spec"], inputs["xs"]
    res = solve(pde_spec_from_json(json.dumps(spec)), K)
    coeffs = [[(int(k), f, c) for k, f, c in e.terms] for e in res.series.coeffs]
    checked = oracles.check_coefficients(spec, coeffs, xs)
    assert len(checked) == K * len(xs)
    assert [m for _, _, m in checked if m] == []
    i = max(range(len(coeffs[K])), key=lambda i: abs(coeffs[K][i][2]))
    kind, freq, c = coeffs[K][i]
    coeffs[K][i] = (kind, freq, c * (1.0 + 1e-6))
    bad = [n for n, _, m in oracles.check_coefficients(spec, coeffs, xs) if m]
    assert bad == [K] * len(xs)


def test_validate_check_fails_on_perturbed_table_row(monkeypatch):
    ok = CliRunner().invoke(bench.cli, ["validate"])
    assert oracles.check_validate(ok.exit_code, ok.output) is None
    real = bench.make_table

    def perturbed(*args, **kwargs):
        rows = real(*args, **kwargs)
        r = rows[0]
        return [bench.TableRow(r.x, r.t, r.exact, r.numeric + 1.0)] + rows[1:]

    monkeypatch.setattr(bench, "make_table", perturbed)
    bad = CliRunner().invoke(bench.cli, ["validate"])
    assert oracles.check_validate(bad.exit_code, bad.output) is not None


def test_transform_check_fails_on_perturbed_value():
    res = CliRunner().invoke(bench.cli, ["transform", "--fn", "t^1.5", "--n", "2", "--s", "3.5"])
    assert oracles.check_transform(1.5, 2, 3.5, res.exit_code, res.output) is None
    want = oracles.transform_closed_form(1.5, 2, 3.5)
    assert want == pytest.approx(math.gamma(3.5) / 3.5 ** 2.5, rel=1e-14)
    fake = res.output.replace("numeric ", f"numeric {want * (1 + 1e-6)!r} #")
    assert oracles.check_transform(1.5, 2, 3.5, 0, fake) is not None
    assert oracles.check_transform(1.5, 2, 3.5, 2, res.output) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    assert workloads.make_inputs(workload, 5) == workloads.make_inputs(workload, 5)
    assert workloads.make_inputs(workload, 5) != workloads.make_inputs(workload, 6)


def test_overrun_counts_unfinished_operations_as_failed():
    res = run.worker(["--workload", "multifreq-lattice", "--seed", "1"], timeout=1.0)
    assert res["error"] == "timeout"
    assert res["planned"] >= 1 and res["failed"] == res["planned"]
