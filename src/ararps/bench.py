"""Benchmark table / figure-data generation and the command line interface.

Reference grids are x in {0,2,4,6,8,10} crossed with t in {0.25,0.5,0.75,1}
(t-major blocks, x ascending within a block), 24 rows per table.  All output
is plain data (CSV tables and whitespace-separated surface triples); nothing
here renders plots.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import click

from .ara import ara_monomial, ara_numeric, verify_property
from .fpseries import series_eval, series_grid
from .solver import (
    ExampleParams,
    builtin_example,
    exact_solution,
    pde_spec_from_json,
    residuals,
    solve,
    with_alpha,
)

__all__ = [
    "TableRow",
    "REFERENCE_X",
    "REFERENCE_T",
    "DEFAULT_TABLE_ORDER",
    "make_table",
    "emit_csv",
    "parse_csv",
    "emit_surface",
    "run_validation",
    "cli",
    "main",
]

REFERENCE_X = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
REFERENCE_T = (0.25, 0.5, 0.75, 1.0)

# truncation order used for each example's error table: examples 1-3 are
# effectively converged at these orders while example 4's published errors
# reflect the order-6 truncation itself
DEFAULT_TABLE_ORDER = {1: 24, 2: 24, 3: 13, 4: 6}


@dataclass(frozen=True)
class TableRow:
    x: float
    t: float
    exact: float
    numeric: float

    @property
    def abs_error(self) -> float:
        return abs(self.exact - self.numeric)


def make_table(
    example_id: int,
    params: ExampleParams | None = None,
    alpha: float = 1.0,
    K: int | None = None,
    x_values: Sequence[float] = REFERENCE_X,
    t_values: Sequence[float] = REFERENCE_T,
) -> list[TableRow]:
    """Error table for one example: t-major blocks, x ascending."""
    p = params or ExampleParams()
    spec = with_alpha(builtin_example(example_id, p), alpha)
    if K is None:
        K = DEFAULT_TABLE_ORDER[example_id]
    grid = series_grid(solve(spec, K).series, x_values, t_values)
    return [
        TableRow(x, t, exact_solution(example_id, p, alpha, x, t), grid[i][j])
        for j, t in enumerate(t_values)
        for i, x in enumerate(x_values)
    ]


def _fmt(v: float) -> str:
    return f"{v:.15g}"


def emit_csv(rows: Sequence[TableRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x", "t", "exact", "numeric", "abs_error"])
        for r in rows:
            w.writerow([_fmt(r.x), _fmt(r.t), _fmt(r.exact), _fmt(r.numeric), _fmt(r.abs_error)])


def parse_csv(path: str | Path) -> list[TableRow]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            TableRow(float(r["x"]), float(r["t"]), float(r["exact"]), float(r["numeric"]))
            for r in reader
        ]


def emit_surface(
    example_id: int,
    params: ExampleParams | None = None,
    alphas: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    K: int = 24,
    x_values: Sequence[float] | None = None,
    t_values: Sequence[float] | None = None,
    out_dir: str | Path = ".",
) -> list[Path]:
    """Write one `x t y` surface file per alpha plus the exact surface."""
    p = params or ExampleParams()
    if x_values is None:
        x_values = [-1.0 + i * 0.1 for i in range(21)]
    if t_values is None:
        t_values = [i * 0.05 for i in range(21)]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for alpha in alphas:
        spec = with_alpha(builtin_example(example_id, p), alpha)
        grid = series_grid(solve(spec, K).series, x_values, t_values)
        written.append(out / f"surface_ex{example_id}_alpha{alpha:g}.dat")
        _write_surface(written[-1], x_values, t_values, grid)
    exact = [[exact_solution(example_id, p, 1.0, x, t) for t in t_values] for x in x_values]
    written.append(out / f"surface_ex{example_id}_exact.dat")
    _write_surface(written[-1], x_values, t_values, exact)
    return written


def _write_surface(
    path: Path, x_values: Sequence[float], t_values: Sequence[float], grid: Sequence[Sequence[float]]
) -> None:
    """`x t y` lines, x-major; each x and t is formatted once, and the file written at once."""
    tx = [f"{_fmt(t)} " for t in t_values]
    path.write_text("".join(
        f"{px}{pt}{_fmt(y)}\n"
        for px, row in zip((f"{_fmt(x)} " for x in x_values), grid)
        for pt, y in zip(tx, row)
    ))


# --------------------------------------------------------------------------
# validation driver


def run_validation() -> list[str]:
    """Cross-module consistency checks, one echoed line each; returns failures."""
    failures: list[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        status = "ok" if ok else "FAIL"
        click.echo(f"  [{status}] {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            failures.append(f"{name}: {detail}")

    # transform identities on a monomial probe (extrapolation is exact there)
    s_grid = (10.0, 20.0, 40.0, 80.0)
    probe = lambda t: t
    dprobe = lambda t: 1.0
    for pid in (1, 2, 3, 4, 5, 7):
        rep = verify_property(pid, probe, s_grid, alpha=1.0, dalpha_f=dprobe)
        check(f"transform property {pid}", rep.max_discrepancy < 1e-6,
              f"max discrepancy {rep.max_discrepancy:.2e}")
    # closed-form monomial transforms
    worst = 0.0
    for p_exp in (0.0, 0.5, 1.0, 1.5, 2.0):
        for n in (1, 2):
            for s in (1.0, 3.0, 7.5):
                ref = ara_monomial(p_exp, n, s)
                got = ara_numeric(lambda t: t ** p_exp, n, s)
                worst = max(worst, abs(got - ref) / abs(ref))
    check("monomial transform oracle", worst < 1e-8, f"worst rel {worst:.2e}")
    # solver residuals across examples and orders
    for ex in (1, 2, 3, 4):
        for alpha in (0.25, 0.5, 0.75, 1.0):
            spec = with_alpha(builtin_example(ex), alpha)
            res = solve(spec, 6)
            worst = max(r.max_abs_coeff() for r in residuals(spec, res))
            check(f"example {ex} residual (alpha={alpha})", worst <= 1e-12,
                  f"max coeff {worst:.2e}")
    # tables against the closed forms
    for ex in (1, 2, 3, 4):
        rows = make_table(ex)
        worst = max(r.abs_error for r in rows)
        tol = {1: 1e-10, 2: 1e-8, 3: 1e-5, 4: 1e-4}[ex]
        check(f"example {ex} table error", worst < tol, f"max abs {worst:.2e}")
    return failures


# --------------------------------------------------------------------------
# CLI


def _out_dir(opt: str | None) -> Path:
    if opt:
        return Path(opt)
    return Path(os.environ.get("ARARPS_OUTDIR", "."))


@contextmanager
def _usage_errors(prefix: str = "") -> Iterator[None]:
    """Report what the library or the file system rejects as a usage error (exit 2).

    The library raises ValueError for bad input and ArithmeticError for a
    value outside the double range; OSError is a path given on the command line.
    """
    try:
        yield
    except (ValueError, ArithmeticError, OSError) as exc:
        raise click.UsageError(f"{prefix}{exc}") from None


_ALPHA = click.FloatRange(0.0, 1.0, min_open=True)


@click.group()
def cli() -> None:
    """Fractional power series solver for hyperbolic-wave benchmark PDEs."""


@cli.command("solve")
@click.option("--example", "example_id", type=click.IntRange(1, 4), default=None,
              help="Built-in example id (1-4).")
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON problem specification file.")
@click.option("--alpha", type=_ALPHA, help="Defaults to the spec's alpha (1 with --example).")
@click.option("--order", "K", type=int, default=6, show_default=True)
@click.option("--at", "points", multiple=True,
              help="Evaluate at x:t (repeatable), e.g. --at 0:1.")
@click.option("--gamma", type=float, default=2.0, show_default=True)
@click.option("--v", type=float, default=1.0, show_default=True)
@click.option("--w", type=float, default=1.0, show_default=True)
@click.option("--lam", "--lambda", "lam", type=float, default=1.0, show_default=True)
def cmd_solve(example_id, spec_path, alpha, K, points, gamma, v, w, lam):
    """Print series coefficients (and point values) for a problem."""
    if (example_id is None) == (spec_path is None):
        raise click.UsageError("provide exactly one of --example or --spec")
    with _usage_errors(f"bad spec {spec_path}: " if spec_path else ""):
        if spec_path is None:  # alpha 1 unless --alpha
            spec = builtin_example(example_id, ExampleParams(v=v, w=w, lam=lam, gamma=gamma))
        else:
            spec = pde_spec_from_json(Path(spec_path).read_text())
        if alpha is not None:
            spec = with_alpha(spec, alpha)
        result = solve(spec, K)
    for n, c in enumerate(result.series.coeffs):
        click.echo(f"c[{n}] = {c.render()}")
    for pt in points:
        with _usage_errors(f"bad point {pt!r} (expected x:t): "):
            xs, ts = pt.split(":")
            x, t = float(xs), float(ts)
            y = series_eval(result.series, x, t)
        click.echo(f"y({x:g}, {t:g}) = {y:.15g}")


@cli.command("table")
@click.option("--example", "example_id", type=click.IntRange(1, 4), required=True)
@click.option("--alpha", type=_ALPHA, default=1.0, show_default=True)
@click.option("--order", "K", type=int, default=None,
              help="Truncation order (defaults per example).")
@click.option("--gamma", type=float, default=2.0, show_default=True)
@click.option("--v", type=float, default=1.0, show_default=True)
@click.option("--w", type=float, default=1.0, show_default=True)
@click.option("--lam", "--lambda", "lam", type=float, default=1.0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="CSV path (defaults to table_exN[...].csv in the output dir).")
@click.option("--out-dir", type=click.Path(), default=None)
def cmd_table(example_id, alpha, K, gamma, v, w, lam, out_path, out_dir):
    """Regenerate a benchmark error table as CSV."""
    if out_path is None:
        suffix = f"_gamma{gamma:g}" if example_id == 2 else ""
        out_path = _out_dir(out_dir) / f"table_ex{example_id}{suffix}.csv"
    with _usage_errors():
        rows = make_table(example_id, ExampleParams(v=v, w=w, lam=lam, gamma=gamma), alpha, K)
        emit_csv(rows, out_path)
    click.echo(f"wrote {len(rows)} rows to {out_path}")


@cli.command("transform")
@click.option("--fn", required=True, help="Function of t; monomials like t^1.5.")
@click.option("--n", "order", type=click.Choice(["1", "2"]), required=True)
@click.option("--s", "s", type=float, required=True)
def cmd_transform(fn, order, s):
    """Numeric vs closed-form transform values for a monomial."""
    m = re.fullmatch(r"t(?:\^(\d+(?:\.\d*)?|\.\d+))?", fn.strip())
    if m is None:
        raise click.UsageError(f"cannot parse --fn {fn!r}; use forms like t, t^2, t^0.5")
    p = float(m.group(1)) if m.group(1) else 1.0
    n = int(order)
    # Gamma(p+n)/s^(p+n-1) may leave the double range
    with _usage_errors(f"transform of {fn} at s={s:g}: "):
        exact = ara_monomial(p, n, s)
        numeric = ara_numeric(lambda t: t ** p, n, s)
    click.echo(f"exact   {exact:.15g}")
    click.echo(f"numeric {numeric:.15g}")
    click.echo(f"abs err {abs(exact - numeric):.3e}")


@cli.command("validate")
def cmd_validate():
    """Run the cross-module validation suites."""
    failures = run_validation()
    if failures:
        click.echo(f"{len(failures)} check(s) failed", err=True)
        sys.exit(1)
    click.echo("all checks passed")


@cli.command("surface")
@click.option("--example", "example_id", type=click.IntRange(1, 4), required=True)
@click.option("--alpha", "alphas", type=_ALPHA, multiple=True,
              default=(0.25, 0.5, 0.75, 1.0), show_default=True)
@click.option("--order", "K", type=int, default=24, show_default=True)
@click.option("--gamma", type=float, default=2.0, show_default=True)
@click.option("--out-dir", type=click.Path(), default=None)
def cmd_surface(example_id, alphas, K, gamma, out_dir):
    """Emit `x t y` surface data files (one per alpha, plus exact)."""
    with _usage_errors():
        paths = emit_surface(example_id, ExampleParams(gamma=gamma), alphas, K,
                             out_dir=_out_dir(out_dir))
    for p in paths:
        click.echo(f"wrote {p}")


def main() -> None:
    cli(prog_name="ararps")


if __name__ == "__main__":
    main()
