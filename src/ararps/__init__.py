"""Fractional power series solver for time-fractional hyperbolic-wave PDEs.

The package solves D_t^{k*alpha} y = N_x[y] (k in {1, 2}, 0 < alpha <= 1)
by a transform-space residual power series recursion, with spatial
coefficients kept exactly in the {1, cosh, sinh} algebra.
"""

from .ara import (
    AraSeries,
    PropertyReport,
    ara_monomial,
    ara_numeric,
    from_ara,
    to_ara,
    verify_property,
)
from .bench import (
    TableRow,
    emit_csv,
    emit_surface,
    make_table,
    parse_csv,
    run_validation,
)
from .caputo import ConvergenceError, caputo_numeric, rl_integral_numeric
from .fpseries import (
    FracSeries,
    conv_weight,
    series_caputo,
    series_eval,
    series_grid,
    series_mul,
    series_pow,
    series_spatial_diff,
)
from .hypalg import HypExpr, Kind
from .solver import (
    Add,
    Const,
    Dx,
    ExampleParams,
    Mul,
    PdeSpec,
    PowInt,
    Scale,
    Solution,
    SolveResult,
    apply_operator,
    builtin_example,
    exact_solution,
    pde_spec_from_json,
    pde_spec_to_json,
    residual_check,
    residuals,
    solve,
    with_alpha,
)
from .special import frac_cosh_series, frac_sinh_series, gamma, rgamma

__version__ = "0.1.0"
