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
:class:`~mlpicard.rng.StreamBundle` for any problem; ``mc_euler`` runs its
stream as a 1-lane bundle.  Both use one K-step loop.  The node average is
the estimator's fresh-draw kernel, summed as ``mlp._chain_sum`` states: the
batch entry in fixed runs of 4096 draws when the problem has batch hooks,
and ``mc_euler`` (and the batch entry on a problem without them) one draw
at a time, so per lane the two agree bit for bit up to M = 4096 and to
rounding beyond.

``reference_solve`` provides the "truth" for RMSE measurements without
statistical error: the closed form when the problem has one, otherwise
classical fixed-step RK4 on ``x' = exact_mean_drift(x)`` with a final
partial step to land on the requested time.
"""

from __future__ import annotations

import numpy as np

from .mlp import CostLedger, _draw_sum
from .problems import ExpectationOdeProblem, _as_batch
from .rng import SplittableStream, StreamBundle, _check_int, _check_real, _lane_bundle

__all__ = ["NoReferenceError", "mc_euler", "mc_euler_batch", "reference_solve"]

_DRAW_CHUNK = 4096  # per-node Z draws summed in fixed runs
_RK4_STEP = 1e-4  # reference_solve's RK4 step


class NoReferenceError(ValueError):
    """Raised when a problem has neither closed form nor exact mean drift."""


def _check_km(steps, samples) -> tuple[int, int]:
    """The one validation point for Euler steps ``K`` and draws per node ``M``."""
    return _check_int(steps, "steps K", 1), _check_int(samples, "samples M", 1)


def mc_euler(
    problem: ExpectationOdeProblem,
    steps: int,
    samples: int,
    stream: SplittableStream,
    ledger: CostLedger,
) -> np.ndarray:
    """One realization of the Euler baseline at the horizon, with ``steps``
    (K) grid steps and ``samples`` (M) Z draws per grid node.

    Y_0 = xi;  Y_{j+1} = Y_j + (T/K) * mean_i F(Y_j, Z_{j,i});  returns Y_K.
    Records K*M Z draws and drift evaluations in the ledger.
    """
    K, M = _check_km(steps, samples)
    return _euler(_as_batch(problem), K, M, _lane_bundle(stream), ledger, M)[0]


def mc_euler_batch(
    problem: ExpectationOdeProblem,
    steps: int,
    samples: int,
    bundle: StreamBundle,
    ledger: CostLedger,
) -> np.ndarray:
    """Independent Euler-baseline realizations for every lane of ``bundle``.

    Lane ``i`` consumes exactly the draws of :func:`mc_euler` on the scalar
    stream with the same (seed, path), and records K*M draws per lane.
    A problem without batch hooks runs its scalar hooks lane by lane, and
    each node sum takes one chunk of ``M`` draws, which adds one draw at a
    time.  Returns shape ``(*lanes, dim)``.
    """
    K, M = _check_km(steps, samples)
    chunk = _DRAW_CHUNK if problem.has_batch else M
    return _euler(_as_batch(problem), K, M, bundle, ledger, chunk)


def _euler(problem, K, M, bundle, ledger, chunk):
    """The K-step Euler loop on every lane, node sums in runs of ``chunk``."""
    h = problem.horizon / K
    y = problem.xi  # the first step broadcasts it to the lanes
    for j in range(K):
        y = y + (h / M) * _draw_sum(problem, y, bundle.spawn(j), M, chunk, ledger)
    return y


def reference_solve(problem: ExpectationOdeProblem, t: float) -> np.ndarray:
    """Deterministic solution value X(t).

    The closed form takes precedence when registered; otherwise classical
    4th-order Runge-Kutta with fixed step ``_RK4_STEP`` on
    ``x' = exact_mean_drift(x)``, with one final shortened step to land
    exactly on ``t``.  Raises ``ValueError`` naming the hook unless the
    result has shape ``(dim,)``, and ``exact_mean_drift(xi)`` too, before
    any step.
    """
    t = _check_real(t, "t", 0.0, problem.horizon)
    if problem.closed_form is not None:
        hook, x = "closed_form", np.asarray(problem.closed_form(t), dtype=np.float64).copy()
    elif problem.exact_mean_drift is None:
        raise NoReferenceError(
            f"no reference available for problem {problem.name!r}: "
            "neither closed_form nor exact_mean_drift is defined"
        )
    else:
        hook, g = "exact_mean_drift", problem.exact_mean_drift
        x = np.asarray(g(problem.xi), dtype=np.float64)
        if x.shape == (problem.dim,):  # else refused below, before any step
            x = problem.xi.copy()
            nfull, rem = divmod(t, _RK4_STEP)
            for _ in range(int(nfull)):
                x = _rk4_step(g, x, _RK4_STEP)
            if rem > 0.0:
                x = _rk4_step(g, x, rem)
    if x.shape != (problem.dim,):
        raise ValueError(
            f"problem {problem.name!r}: {hook} gives a reference of shape {x.shape}, not ({problem.dim},)"
        )
    return x


def _rk4_step(g, x, h):
    k1 = g(x)
    k2 = g(x + 0.5 * h * k1)
    k3 = g(x + 0.5 * h * k2)
    k4 = g(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
