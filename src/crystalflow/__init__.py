"""Implicit solver and verification harness for exponential surface growth.

The model is the fourth-order equation d/dt u = Laplacian sinh(-Laplacian u)
with zero-flux boundary data, discretized in time by regularized implicit
steps whose elliptic sub-problems are solved per step. Alongside the
solver, the package evaluates the discrete a-priori energy inequalities
that underpin the scheme and reports whether each run satisfies them.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, build_initial_field, config_to_text, parse_config
from .estimates import (
    EstimateReport,
    continuum_monitors,
    p_variant_energy,
    standard_reports,
)
from .exceptions import (
    ConfigError,
    CrystalflowError,
    OverflowCapError,
    SolverFailure,
    StepFailure,
)
from .experiment import compare_variants, run_experiment, sweep
from .grid import (
    Field,
    Grid,
    grad_sq_integral,
    integrate,
    laplacian_neumann,
    load_field,
    p_laplacian_1d,
    save_field,
)
from .nonlinearity import Variant, make_variant, sinh_variant
from .stepper import SchemeParams, Trajectory, init_w0, newton_step, run

__all__ = [
    "__version__",
    "ExperimentConfig",
    "parse_config",
    "config_to_text",
    "build_initial_field",
    "EstimateReport",
    "standard_reports",
    "continuum_monitors",
    "p_variant_energy",
    "CrystalflowError",
    "ConfigError",
    "OverflowCapError",
    "SolverFailure",
    "StepFailure",
    "run_experiment",
    "sweep",
    "compare_variants",
    "Grid",
    "Field",
    "laplacian_neumann",
    "p_laplacian_1d",
    "integrate",
    "grad_sq_integral",
    "save_field",
    "load_field",
    "Variant",
    "make_variant",
    "sinh_variant",
    "SchemeParams",
    "Trajectory",
    "run",
    "init_w0",
    "newton_step",
]
