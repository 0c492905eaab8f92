import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import ararps.fpseries
import ararps.solver
from ararps.bench import (
    DEFAULT_TABLE_ORDER,
    REFERENCE_T,
    REFERENCE_X,
    TableRow,
    cli,
    emit_csv,
    emit_surface,
    make_table,
    parse_csv,
    run_validation,
)
from ararps.fpseries import series_eval
from ararps.solver import (
    ExampleParams,
    builtin_example,
    exact_solution,
    pde_spec_to_json,
    solve,
    with_alpha,
)
from strategies import dx_chain_spec


class TestTableRow:
    def test_abs_error_derived(self):
        r = TableRow(1.0, 0.5, 2.0, 2.5)
        assert r.abs_error == 0.5


class TestMakeTable:
    def test_reference_grid_shape_and_order(self):
        rows = make_table(3)
        assert len(rows) == 24
        # t-major blocks, x ascending within each block
        expected = [(x, t) for t in REFERENCE_T for x in REFERENCE_X]
        assert [(r.x, r.t) for r in rows] == expected

    def test_trivial_corner(self):
        rows = make_table(3, x_values=[0.0], t_values=[0.0])
        assert rows[0].exact == 0.0
        assert rows[0].numeric == pytest.approx(0.0, abs=1e-15)

    def test_unknown_example_is_value_error(self):
        with pytest.raises(ValueError, match="unknown example id 5"):
            make_table(5)

    @pytest.mark.parametrize("example_id", [1, 2, 3, 4])
    def test_numeric_is_pointwise_eval(self, example_id):
        series = solve(builtin_example(example_id), DEFAULT_TABLE_ORDER[example_id]).series
        rows = make_table(example_id)
        assert [r.numeric for r in rows] == [series_eval(series, r.x, r.t) for r in rows]

    def test_spot_values(self):
        d = {(r.x, r.t): r for r in make_table(1)}
        assert d[(10.0, 0.25)].exact == pytest.approx(-42.993929, abs=5e-6)
        assert d[(10.0, 0.25)].abs_error <= 1e-12
        d4 = {(r.x, r.t): r for r in make_table(4)}
        assert d4[(0.0, 0.25)].exact == pytest.approx(-0.102180, abs=5e-6)
        assert d4[(0.0, 0.25)].abs_error <= 7e-11


class TestCsv:
    def test_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        emit_csv([], p)
        assert p.read_text() == "x,t,exact,numeric,abs_error\n"

    def test_round_trip(self, tmp_path):
        rows = make_table(4, t_values=[0.25])
        p = tmp_path / "t.csv"
        emit_csv(rows, p)
        back = parse_csv(p)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert b.x == a.x and b.t == a.t
            assert b.exact == pytest.approx(a.exact, rel=1e-14)
            assert b.numeric == pytest.approx(a.numeric, rel=1e-14)

    def test_no_trailing_whitespace(self, tmp_path):
        p = tmp_path / "t.csv"
        emit_csv(make_table(4, t_values=[0.25]), p)
        for line in p.read_text().splitlines():
            assert line == line.rstrip()


class TestSurface:
    def test_file_count_and_format(self, tmp_path):
        paths = emit_surface(
            3,
            alphas=[1.0],
            K=6,
            x_values=[0.0],
            t_values=[0.0],
            out_dir=tmp_path,
        )
        assert len(paths) == 2  # one approximation + exact
        assert paths[0].read_text().split() == ["0", "0", "0"]

    def test_four_alphas_give_five_files(self, tmp_path):
        paths = emit_surface(
            4,
            alphas=[0.25, 0.5, 0.75, 1.0],
            K=6,
            x_values=[0.0, 0.5],
            t_values=[0.0, 0.5],
            out_dir=tmp_path,
        )
        assert len(paths) == 5
        for p in paths:
            lines = p.read_text().splitlines()
            assert len(lines) == 4
            assert all(len(line.split()) == 3 for line in lines)


    def test_bytes_match_pointwise_loop(self, tmp_path):
        path = emit_surface(1, alphas=(0.5,), K=24, out_dir=tmp_path)[0]
        series = solve(with_alpha(builtin_example(1), 0.5), 24).series
        fmt = lambda v: f"{v:.15g}"
        ref = "".join(
            f"{fmt(x)} {fmt(t)} {fmt(series_eval(series, x, t))}\n"
            for x in [-1.0 + i * 0.1 for i in range(21)]
            for t in [i * 0.05 for i in range(21)]
        )
        assert path.read_bytes() == ref.encode()

    def test_points_evaluate_the_basis_not_the_coefficients(self, tmp_path, monkeypatch):
        coeffs = solve(with_alpha(builtin_example(1), 0.5), 24).series.coeffs
        basis = {(k, f) for c in coeffs for k, f, _ in c.terms}
        evaluated = []
        raw = ararps.fpseries._basis

        def counted(k, f, x):
            evaluated.append((k, f))
            return raw(k, f, x)

        monkeypatch.setattr(ararps.fpseries, "_basis", counted)
        emit_surface(1, alphas=(0.5,), K=24, out_dir=tmp_path)
        # each basis function once per x, shared by every t: no c_n at any x
        assert set(evaluated) == basis
        assert len(evaluated) == 21 * len(basis)


class TestValidation:
    def test_one_operator_pass_per_residual_check(self, monkeypatch):
        # every residual order of the 4 examples x 4 alphas comes from one
        # apply_operator pass each, not one pass per order (84)
        calls = 0
        raw = ararps.solver.apply_operator

        def counted(*args):
            nonlocal calls
            calls += 1
            return raw(*args)

        monkeypatch.setattr(ararps.solver, "apply_operator", counted)
        assert run_validation() == []
        assert calls == 16


# (command, flag) pairs that take a float; --at-x / --at-t set one side of --at x:t
_ADVERSARIAL_FLAGS = (
    [("solve", f) for f in ("--alpha", "--gamma", "--v", "--w", "--lam", "--at-x", "--at-t")]
    + [("table", f) for f in ("--alpha", "--gamma", "--v", "--w", "--lam")]
    + [("surface", f) for f in ("--alpha", "--gamma")]
    + [("transform", "--s")]
)


class TestCli:
    def setup_method(self):
        self.runner = CliRunner()

    def test_usage_error_exit_2(self):
        assert self.runner.invoke(cli, ["solve"]).exit_code == 2
        assert self.runner.invoke(cli, ["solve", "--example", "9"]).exit_code == 2
        assert self.runner.invoke(cli, ["table", "--example", "0"]).exit_code == 2
        assert self.runner.invoke(cli, ["surface", "--example", "5"]).exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [["solve", "--example", "4", "--order", "-3"],
         ["solve", "--example", "4", "--alpha", "0"],
         ["solve", "--example", "4", "--alpha", "1.5"],
         ["solve", "--example", "4", "--at", "0:-1"],
         ["solve", "--example", "1", "--v", "-1"],
         ["solve", "--example", "1", "--v", "1e-20"],
         ["table", "--example", "1", "--order", "-2"],
         ["surface", "--example", "1", "--alpha", "0"],
         ["transform", "--fn", "t", "--n", "1", "--s", "0"],
         ["transform", "--fn", "t^200", "--n", "1", "--s", "1"],
         ["transform", "--fn", "t^2", "--n", "1", "--s", "1e-300"],
         ["transform", "--fn", "t^1.2.3", "--n", "1", "--s", "1"],
         ["table", "--example", "2", "--gamma", "1e200", "--out", "{tmp}/t.csv"],
         ["table", "--example", "1", "--lam", "1e200", "--out", "{tmp}/t.csv"],
         ["surface", "--example", "2", "--gamma", "1e200", "--out-dir", "{tmp}"],
         ["table", "--example", "1", "--out", "{tmp}/missing/x.csv"],
         ["surface", "--example", "1", "--out-dir", "{tmp}/file"],
         ["solve", "--spec", "{tmp}"],
         ["solve", "--example", "1", "--at", "1:nan"],
         ["transform", "--fn", "t^1.5", "--n", "2", "--s", "nan"],
         ["transform", "--fn", "t^1.5", "--n", "2", "--s", "inf"],
         ["solve", "--example", "1", "--lam", "nan"],
         ["table", "--example", "2", "--gamma", "inf", "--out", "{tmp}/t.csv"],
         ["solve", "--example", "1", "--at", "0:1e300"],
         ["solve", "--example", "4", "--order", "2", "--at", "2000:1e11"],
         ["transform", "--fn", "t^0.5", "--n", "1", "--s", "5e-324"],
         ["transform", "--fn", "t^2", "--n", "2", "--s", "5e-324"]],
        ids=["order", "alpha-0", "alpha-1.5", "negative-t", "v", "v-in-constant-cell",
             "table-order", "surface-alpha", "s", "transform-overflow",
             "transform-underflowing-s", "transform-bad-exponent", "table-gamma-overflow",
             "table-lam-overflow", "surface-gamma-overflow", "table-out-missing-dir",
             "surface-out-dir-is-file", "solve-spec-directory", "point-nan-t", "s-nan",
             "s-inf", "solve-lam-nan", "table-gamma-inf", "point-t-overflow",
             "point-value-overflow", "transform-integrand-past-double-range",
             "transform-closed-form-past-double-range"],
    )
    def test_bad_flag_exit_2(self, args, tmp_path):
        (tmp_path / "file").write_text("")
        res = self.runner.invoke(cli, [a.format(tmp=tmp_path) for a in args])
        assert res.exit_code == 2
        assert "Error:" in res.output
        for big in ("1e200", "1e300", "5e-324"):  # an out-of-range value is named in the message
            if any(big in a for a in args):
                assert repr(float(big)) in res.output

    @settings(max_examples=100, deadline=None)
    @given(
        command_flag=st.sampled_from(_ADVERSARIAL_FLAGS),
        example=st.integers(1, 4),
        order=st.integers(0, 30),
        value=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e300, -1e300, 1e-300]),
    )
    def test_adversarial_flag_value_exit_0_or_2(self, command_flag, example, order, value):
        # one flag set to an extreme float: a result or a usage error, never a traceback
        command, flag = command_flag
        if command == "transform":
            args = ["transform", "--fn", "t^1.5", "--n", "2", "--s=1"]
        else:
            args = [command, "--example", str(example), "--order", str(order)]
        if flag == "--at-x":
            args.append(f"--at={value!r}:1")
        elif flag == "--at-t":
            args.append(f"--at=0:{value!r}")
        else:
            args.append(f"{flag}={value!r}")
        with self.runner.isolated_filesystem():
            res = self.runner.invoke(cli, args)
        assert res.exit_code in (0, 2), (args, res.output, res.exception)
        if command in ("solve", "transform") and res.exit_code == 0:
            assert "nan" not in res.output and "inf" not in res.output, args

    def test_solve_spec_keeps_its_alpha(self, tmp_path):
        # README's spec has alpha 0.5; --alpha overrides it only when given
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        p = tmp_path / "spec.json"
        p.write_text(re.findall(r"```json\n(.*?)```", readme, re.DOTALL)[0])
        run = lambda *extra: self.runner.invoke(
            cli, ["solve", "--spec", str(p), "--order", "4", "--at", "1:0.5", *extra]
        ).output
        assert run() == run("--alpha", "0.5")
        assert run() != run("--alpha", "1")

    def test_solve_prints_coefficients_and_point(self):
        res = self.runner.invoke(
            cli, ["solve", "--example", "4", "--order", "6", "--at", "0:1"]
        )
        assert res.exit_code == 0
        assert "c[6]" in res.output
        assert "y(0, 1)" in res.output

    def test_solve_deep_order_evaluates(self):
        # 1/Gamma(n*alpha + 1) underflows past n = 170 instead of overflowing
        res = self.runner.invoke(
            cli, ["solve", "--example", "4", "--order", "200", "--at", "0:1"]
        )
        assert res.exit_code == 0
        y = float(res.output.rsplit("=", 1)[1])
        assert abs(y - exact_solution(4, x=0.0, t=1.0)) < 1e-9

    def test_solve_from_json_spec(self, tmp_path):
        spec = with_alpha(builtin_example(4), 0.5)
        p = tmp_path / "spec.json"
        p.write_text(pde_spec_to_json(spec))
        res = self.runner.invoke(cli, ["solve", "--spec", str(p), "--alpha", "0.5"])
        assert res.exit_code == 0
        assert "c[1]" in res.output

    @pytest.mark.parametrize(
        "edit",
        [lambda d: d.pop("rhs"), lambda d: d["ic_a"][0].update(coeff="nan"),
         lambda d: d["ic_a"][0].update(freq=1e300), lambda d: d["rhs"].update(terms=[]),
         lambda d: d["rhs"]["terms"][0].update(child=3),
         lambda d: d.update(json.loads(dx_chain_spec(800))), lambda d: d["ic_a"][0].update(coeff=1e308),
         lambda d: d["rhs"]["terms"][0]["child"].update(exponent=1e12),
         lambda d: d["rhs"]["terms"][0].update(order=1e12),
         lambda d: d.update(rhs={"node": "scale", "factor": 1e300, "child": {"node": "solution"}},
                            ic_a=[{"kind": "cosh", "freq": 1.0, "coeff": 1e10}]),
         lambda d: d.update(alpha="0.5"), lambda d: d["ic_a"][0].update(freq=1.5e299)],
        ids=["missing-rhs", "nan-coeff", "huge-freq", "empty-add", "non-object-node",
             "deep-ast", "overflowing-coeff", "huge-exponent", "huge-dx-order",
             "overflowing-scale", "string-alpha", "huge-product-freq"],
    )
    def test_bad_spec_exit_2(self, tmp_path, edit):
        doc = json.loads(pde_spec_to_json(builtin_example(4)))
        edit(doc)
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        res = self.runner.invoke(cli, ["solve", "--spec", str(p)])
        assert res.exit_code == 2
        assert "bad spec" in res.output

    def test_table_command(self, tmp_path):
        out = tmp_path / "t4.csv"
        res = self.runner.invoke(cli, ["table", "--example", "3", "--out", str(out)])
        assert res.exit_code == 0
        rows = parse_csv(out)
        assert len(rows) == 24
        d = {(r.x, r.t): r for r in rows}
        assert d[(10.0, 1.0)].exact == pytest.approx(4050.542025, abs=5e-6)

    def test_table_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARARPS_OUTDIR", str(tmp_path))
        res = self.runner.invoke(cli, ["table", "--example", "4"])
        assert res.exit_code == 0
        assert (tmp_path / "table_ex4.csv").exists()

    def test_transform_command(self):
        res = self.runner.invoke(cli, ["transform", "--fn", "t^1", "--n", "2", "--s", "1"])
        assert res.exit_code == 0
        lines = dict(
            line.split(None, 1) for line in res.output.strip().splitlines()
        )
        assert float(lines["exact"]) == 2.0
        assert abs(float(lines["numeric"]) - 2.0) < 1e-8

    def test_transform_underflow_prints_zero(self):
        # Gamma(4.5) * 1e300^-3.5 underflows: the closed form and the quadrature both give 0
        res = self.runner.invoke(cli, ["transform", "--fn", "t^2.5", "--n", "2", "--s", "1e300"])
        assert res.exit_code == 0, res.output
        lines = dict(line.split(None, 1) for line in res.output.strip().splitlines())
        assert float(lines["exact"]) == 0.0 and float(lines["numeric"]) == 0.0

    def test_transform_bad_fn(self):
        res = self.runner.invoke(cli, ["transform", "--fn", "sin(t)", "--n", "1", "--s", "1"])
        assert res.exit_code == 2

    def test_surface_command(self, tmp_path):
        res = self.runner.invoke(
            cli,
            ["surface", "--example", "3", "--alpha", "1.0", "--order", "6",
             "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0
        assert len(list(Path(tmp_path).glob("surface_ex3_*.dat"))) == 2

    def test_default_orders(self):
        assert DEFAULT_TABLE_ORDER == {1: 24, 2: 24, 3: 13, 4: 6}
