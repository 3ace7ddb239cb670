"""Plain Monte Carlo Euler baseline and the deterministic reference solver.

``mc_euler`` is the comparator scheme for the cost/accuracy experiments:
explicit Euler on a uniform grid of ``K`` steps, the mean drift at each
node estimated from ``M`` fresh, independent draws of Z.  Its error has a
discretisation part of order 1/K and a sampling part of order
1/sqrt(K*M); balancing them at target accuracy eps with K ~ 1/eps and
M ~ 1/eps^2 (the schedule the experiments use) makes the total cost K*M
scale like eps^-3.  The scheme itself is a choice of ours; nothing in the
estimator depends on it.

Stream layout (frozen): node j (0-based) uses the child stream
``stream.spawn(j)``, and its i-th draw comes from ``spawn(j).spawn(i)``,
i = 1..M.  Fresh draws per node keep node errors independent.

``mc_euler_batch`` runs one realization per lane of a
:class:`~mlpicard.rng.StreamBundle`, and ``mc_euler`` runs its stream as a
1-lane bundle through the same K-step loop.  The node average is the
estimator's fresh-draw kernel: the batch entry sums it in fixed chunks of
4096 draws, the stream entry one draw at a time, so per lane the two agree
bit for bit up to M = 4096 and to rounding beyond.  The kernel draws each
chunk in cache-sized sub-blocks that never regroup additions, so a node's
draw temporaries stay bounded whatever M.

``reference_solve`` provides the "truth" for RMSE measurements without
statistical error: the closed form when the problem has one, otherwise
classical fixed-step RK4 on ``x' = exact_mean_drift(x)`` with a final
partial step to land on the requested time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import CostLedger, _draw_sum, _initial_state
from .problems import ExpectationOdeProblem, _as_batch
from .rng import SplittableStream, StreamBundle, _check_int, _lane_bundle

__all__ = ["BaselineParams", "NoReferenceError", "mc_euler", "mc_euler_batch", "reference_solve"]

_DRAW_CHUNK = 4096  # per-node Z draws vectorised in fixed blocks


class NoReferenceError(ValueError):
    """Raised when a problem has neither closed form nor exact mean drift."""


@dataclass(frozen=True)
class BaselineParams:
    """Euler grid size ``steps`` (K) and Z draws per grid node ``samples`` (M)."""

    steps: int
    samples: int

    def __post_init__(self):
        _check_km(self.steps, self.samples)


def _check_km(steps, samples) -> tuple[int, int]:
    """The one validation point for Euler steps ``K`` and draws per node ``M``."""
    return _check_int(steps, "steps K", 1), _check_int(samples, "samples M", 1)


def mc_euler(
    problem: ExpectationOdeProblem,
    params: BaselineParams,
    stream: SplittableStream,
    ledger: CostLedger | None = None,
) -> np.ndarray:
    """One realization of the Euler baseline at the horizon.

    Y_0 = xi;  Y_{j+1} = Y_j + (T/K) * mean_i F(Y_j, Z_{j,i});  returns Y_K.
    Records K*M Z draws and drift evaluations in the ledger.
    """
    return _euler(_as_batch(problem), params, _lane_bundle(stream), ledger, params.samples)[0]


def mc_euler_batch(
    problem: ExpectationOdeProblem,
    params: BaselineParams,
    bundle: StreamBundle,
    ledger: CostLedger | None = None,
) -> np.ndarray:
    """Independent Euler-baseline realizations for every lane of ``bundle``.

    Lane ``i`` consumes exactly the draws of :func:`mc_euler` on the scalar
    stream with the same (seed, path).  Returns shape ``(*lanes, dim)``.
    """
    if not problem.has_batch:
        raise ValueError(f"problem {problem.name!r} has no batch hooks")
    return _euler(problem, params, bundle, ledger, _DRAW_CHUNK)


def _euler(problem, params, bundle, ledger, chunk):
    """The K-step Euler loop on every lane, node sums in chunks of ``chunk``."""
    K, M = params.steps, params.samples
    h = problem.horizon / K
    ledger = CostLedger() if ledger is None else ledger
    y = _initial_state(problem, bundle.shape)
    for j in range(K):
        y = y + (h / M) * _draw_sum(problem, y, bundle.spawn(j), M, chunk, ledger)
    return y


def reference_solve(
    problem: ExpectationOdeProblem, t: float, step: float = 1e-4
) -> np.ndarray:
    """Deterministic solution value X(t).

    The closed form takes precedence when registered; otherwise classical
    4th-order Runge-Kutta with fixed step on ``x' = exact_mean_drift(x)``,
    with one final shortened step to land exactly on ``t``.
    """
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be finite and positive, got {step}")
    if not 0.0 <= t <= problem.horizon:
        raise ValueError(f"t={t} outside [0, {problem.horizon}]")
    if problem.closed_form is not None:
        return np.asarray(problem.closed_form(t), dtype=np.float64).copy()
    if problem.exact_mean_drift is None:
        raise NoReferenceError(
            f"no reference available for problem {problem.name!r}: "
            "neither closed_form nor exact_mean_drift is defined"
        )
    g = problem.exact_mean_drift
    x = problem.xi.copy()
    nfull, rem = divmod(t, step)
    for _ in range(int(nfull)):
        x = _rk4_step(g, x, step)
    if rem > 0.0:
        x = _rk4_step(g, x, rem)
    return x


def _rk4_step(g, x, h):
    k1 = g(x)
    k2 = g(x + 0.5 * h * k1)
    k3 = g(x + 0.5 * h * k2)
    k4 = g(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
