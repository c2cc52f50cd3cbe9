"""fraclamb: Lamb-Bateman integral equation solvers via fractional derivatives.

Solves int_0^inf u(x - y^2) dy = f(x) (the classic Lamb-Bateman equation)
together with its n-dimensional, m-power, and quadratic-form
generalizations, and certifies every solution by evaluating the forward
integral operator and measuring the residual.
"""

from .config import QuadratureConfig, DEFAULT_CONFIG
from .errors import (
    ConvergenceError,
    DimensionCapError,
    DomainError,
    FracLambError,
    NoDecayError,
    NotPositiveDefiniteError,
    SelectorError,
    UnsupportedOrderError,
)
from .forward_verifier import (
    ResidualReport,
    forward,
    forward_montecarlo,
    forward_power,
    forward_quadform_mc,
    forward_radial,
    verify,
)
from .fractional_ops import frac_derivative, split_order, weyl_integral
from .function_model import (
    CallableFunction,
    Exponential,
    GaussTail,
    GridFunction,
    ShiftedGaussian,
    SmoothFunction,
    effective_lower_cutoff,
    linear_combination,
    materialize,
    numeric_derivative,
    sample,
    zero_function,
)
from .lamb_solver import (
    PosDefMatrix,
    ProblemSpec,
    solve_classic,
    solve_ndim,
    solve_power,
    solve_problem,
    solve_quadform,
)
from .special_functions import beta, gamma, sphere_volume

__version__ = "0.1.0"

__all__ = [
    "QuadratureConfig",
    "DEFAULT_CONFIG",
    "FracLambError",
    "DomainError",
    "NoDecayError",
    "UnsupportedOrderError",
    "ConvergenceError",
    "NotPositiveDefiniteError",
    "DimensionCapError",
    "SelectorError",
    "SmoothFunction",
    "CallableFunction",
    "Exponential",
    "GaussTail",
    "ShiftedGaussian",
    "GridFunction",
    "numeric_derivative",
    "effective_lower_cutoff",
    "sample",
    "linear_combination",
    "materialize",
    "zero_function",
    "split_order",
    "weyl_integral",
    "frac_derivative",
    "PosDefMatrix",
    "ProblemSpec",
    "solve_classic",
    "solve_ndim",
    "solve_power",
    "solve_quadform",
    "solve_problem",
    "ResidualReport",
    "forward_radial",
    "forward_power",
    "forward_montecarlo",
    "forward_quadform_mc",
    "forward",
    "verify",
    "gamma",
    "beta",
    "sphere_volume",
    "__version__",
]
