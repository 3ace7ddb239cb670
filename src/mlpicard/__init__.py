"""Multilevel Picard approximation for expectation ODEs.

Solves and benchmarks the integral equation X(t) = xi + int_0^t E[F(X(r), Z)] dr:
a recursive multilevel estimator with exact cost accounting, a plain Monte
Carlo Euler baseline, theoretical error-bound and schedule evaluators, and a
reproducible RMSE-versus-cost experiment harness.
"""

__version__ = "0.1.0"

from .analysis import (
    BoundInputs,
    InsufficientDataError,
    RmseReport,
    RmseRow,
    Schedule,
    complexity_fit,
    error_bound,
    fit_power_law,
    n_epsilon,
    rmse_experiment,
    tail_bound_max,
)
from .baseline import (
    NoReferenceError,
    mc_euler,
    mc_euler_batch,
    reference_solve,
)
from .mlp import CostLedger, mlp_estimate, mlp_estimate_batch, rv_bound, rv_exact
from .problems import (
    BUILTIN_NAMES,
    ExpectationOdeProblem,
    UnknownProblemError,
    builtin,
    problem_names,
    register_problem,
)
from .rng import GAUSSIAN_ALGORITHM, RNG_ALGORITHM, SplittableStream, StreamBundle, root

__all__ = [
    "BUILTIN_NAMES",
    "BoundInputs",
    "CostLedger",
    "ExpectationOdeProblem",
    "GAUSSIAN_ALGORITHM",
    "InsufficientDataError",
    "NoReferenceError",
    "RNG_ALGORITHM",
    "RmseReport",
    "RmseRow",
    "Schedule",
    "SplittableStream",
    "StreamBundle",
    "UnknownProblemError",
    "builtin",
    "complexity_fit",
    "error_bound",
    "fit_power_law",
    "mc_euler",
    "mc_euler_batch",
    "mlp_estimate",
    "mlp_estimate_batch",
    "n_epsilon",
    "problem_names",
    "reference_solve",
    "register_problem",
    "rmse_experiment",
    "root",
    "rv_bound",
    "rv_exact",
    "tail_bound_max",
    "__version__",
]
