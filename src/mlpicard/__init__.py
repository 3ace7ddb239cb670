"""Multilevel Picard approximation for expectation ODEs.

Solves and benchmarks the integral equation X(t) = xi + int_0^t E[F(X(r), Z)] dr:
a recursive multilevel estimator with exact cost accounting, a plain Monte
Carlo Euler baseline, theoretical error-bound and schedule evaluators, and a
reproducible RMSE-versus-cost experiment harness.

Each of the modules ``analysis``, ``baseline``, ``mlp``, ``problems`` and
``rng`` lists its public names once, in its ``__all__``; the package
re-exports every such list and keeps the modules as attributes.
"""

__version__ = "0.1.0"

from . import analysis, baseline, mlp, problems, rng
from .analysis import *
from .baseline import *
from .mlp import *
from .problems import *
from .rng import *

__all__ = ["__version__", *analysis.__all__, *baseline.__all__, *mlp.__all__, *problems.__all__, *rng.__all__]
