"""Expectation-ODE problem definitions and the built-in registry.

A problem is the data of the integral equation

    X(t) = xi + int_0^t E[F(X(r), Z)] dr,        t in [0, horizon],

given by the state dimension, the initial value, the horizon, a Lipschitz
constant for ``F`` in its first argument (uniform in the second), a sampler
for Z, and the drift map F itself.  ``exact_mean_drift`` (x -> E[F(x, Z)])
and ``closed_form`` (t -> X(t)) are optional analytic extras used by the
reference solver and the error harness; ``f_xi_second_moment`` is the
declared value of E[||F(xi, Z)||^2], which the bound evaluators need as a
deterministic input (the test suite cross-validates it statistically).

Problems are immutable after construction and safe to share across
workers: ``sample_z`` and ``drift`` must be pure given their inputs, with
all randomness flowing through the stream argument.

The engines draw only on :class:`~mlpicard.rng.StreamBundle` lanes, by the
batch hooks.  ``sample_z_batch`` must consume draws from its bundle in
exactly the pattern ``sample_z`` uses on a
:class:`~mlpicard.rng.SplittableStream`; ``drift_batch`` receives states
whose shape is a suffix of (*lanes, dim), such as (dim,), and the batch
Z payload of lane shape ``lanes``, and must return shape (*lanes, dim).
:func:`register_problem` checks this (see :func:`check_problem`).  Without
batch hooks, every entry (``mlp_estimate``, ``mc_euler``, their
``*_batch`` forms and so the experiment harness) still makes one engine
call per bundle, and runs the scalar hooks lane by lane,
``sample_z`` on a stream rebuilt from the lane's key at the bundle's
counter (``seed`` and ``path`` are ``None``).  Only the counter on entry
matters, as an MLP node draws ``r``, then Z, then only spawns, and a
fresh-draw leaf draws only Z: ``sample_z`` may consume any number of
counters, different on each lane, and may spawn children, which are keyed
streams too.  A problem sets both batch hooks or neither; without them,
:func:`check_problem` runs these lane-by-lane hooks at the same shapes.
Every error a hook raises there is a ``ValueError`` that names the hook.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Any, Callable

import numpy as np

from .rng import SplittableStream, StreamBundle, _check_int, _check_real, _keyed_stream

__all__ = [
    "BUILTIN_NAMES",
    "ExpectationOdeProblem",
    "UnknownProblemError",
    "builtin",
    "problem_names",
    "register_problem",
]


class UnknownProblemError(KeyError):
    """Raised when a problem name is not in the registry."""


@dataclasses.dataclass(frozen=True)
class ExpectationOdeProblem:
    """The tuple (d, xi, T, L, Z-sampler, F) plus optional analytic extras."""

    name: str
    dim: int
    xi: np.ndarray
    horizon: float
    lipschitz: float
    sample_z: Callable[[SplittableStream], Any]
    drift: Callable[[np.ndarray, Any], np.ndarray]
    f_xi_second_moment: float
    exact_mean_drift: Callable[[np.ndarray], np.ndarray] | None = None
    closed_form: Callable[[float], np.ndarray] | None = None
    sample_z_batch: Callable[[StreamBundle], Any] | None = None
    drift_batch: Callable[[np.ndarray, Any], np.ndarray] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise TypeError(f"name must be a str, got {type(self.name).__name__}")
        object.__setattr__(self, "dim", _check_int(self.dim, "dim", 1))
        if (self.sample_z_batch is None) != (self.drift_batch is None):
            missing = "sample_z_batch" if self.sample_z_batch is None else "drift_batch"
            raise ValueError(f"problem {self.name!r} sets one batch hook without the other: {missing} is missing")
        _check_bound_constants(self)
        xi = np.asarray(self.xi, dtype=np.float64)
        if xi.shape != (self.dim,):
            raise ValueError(f"xi must have shape ({self.dim},), got {xi.shape}")
        if not np.all(np.isfinite(xi)):
            raise ValueError(f"xi must be finite, got {xi.tolist()}")
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)

    @property
    def has_batch(self) -> bool:
        return self.sample_z_batch is not None  # and so drift_batch (see __post_init__)


def _check_bound_constants(obj) -> None:
    """Store ``obj.horizon``, ``obj.lipschitz`` and ``obj.f_xi_second_moment``,
    the constants every error bound takes, on ``obj`` as finite floats >= 0."""
    for name in ("horizon", "lipschitz", "f_xi_second_moment"):
        object.__setattr__(obj, name, _check_real(getattr(obj, name), name, 0.0))


_REGISTRY: dict[str, ExpectationOdeProblem] = {}


def _as_batch(problem: ExpectationOdeProblem) -> ExpectationOdeProblem:
    """``problem``, or if it has no batch hooks a copy whose batch hooks run
    its scalar hooks lane by lane (Z in an object array).  Never stored."""
    if problem.has_batch:
        return problem

    def sample_z_batch(bundle):
        z = [problem.sample_z(_keyed_stream(key, bundle.counter)) for key in bundle.keys.ravel().tolist()]
        return np.fromiter(z, object, len(z)).reshape(bundle.shape)

    def drift_batch(x, z):
        x = np.broadcast_to(x, z.shape + (problem.dim,))
        f = [problem.drift(xk, zk) for xk, zk in zip(x.reshape(-1, problem.dim), z.ravel())]
        return np.array(f, dtype=np.float64).reshape(x.shape)

    return dataclasses.replace(problem, sample_z_batch=sample_z_batch, drift_batch=drift_batch)


def check_problem(problem: ExpectationOdeProblem) -> None:
    """Check a problem's batch hooks against its scalar hooks at the shapes
    the engines use.

    ``drift_batch(x, sample_z_batch(bundle))`` must have shape
    ``(*lanes, dim)`` and equal, bit for bit, the scalar hooks run lane by
    lane: at ``x = xi`` on three lanes, at counter 0 and at counter 1 (an
    MLP node's Z follows its time draw); and on lanes of shape (2, 3), with
    states other than ``xi``, at counter 0 with states of shape (3, dim) (an
    Euler node against a block of draws) and at counter 1 with states of
    shape (2, 3, dim) (an MLP node block).  NaN equals NaN: a drift may be
    non-finite.  Raises ``ValueError`` naming the hook; the scalar hooks run
    first.  Without batch hooks both sides run the lane-by-lane hooks.
    Row 0 of the (2, 3) lanes draws the Z of the three ``xi`` lanes, so the
    same drifts, at no extra draw, can refute the declared ``lipschitz``: a
    ratio ``||F(x, z) - F(xi, z)|| / ||x - xi||`` above it by more than a
    few ulps of the drift values is a ``ValueError`` naming ``lipschitz``.
    """
    scalar = _as_batch(dataclasses.replace(problem, sample_z_batch=None, drift_batch=None))
    keys = StreamBundle.root_children(0, [[1, 2, 3], [4, 5, 6]]).keys
    states = problem.xi + np.arange(1, 7).reshape(2, 3, 1) / 8  # one exact offset per lane
    cases = ((problem.xi, keys[0], 0), (problem.xi, keys[0], 1), (states[0], keys, 0), (states, keys, 1))
    drifts = []
    for x, lanes, counter in cases:
        want = _run_hooks(scalar, ("sample_z", "drift"), x, lanes, counter)
        drifts.append(want)
        got = _run_hooks(_as_batch(problem), ("sample_z_batch", "drift_batch"), x, lanes, counter)
        if got.shape != lanes.shape + (problem.dim,):
            raise ValueError(
                f"problem {problem.name!r}: drift_batch(x, sample_z_batch(bundle)) on lanes {lanes.shape} "
                f"has shape {got.shape}, not {lanes.shape + (problem.dim,)}"
            )
        nan = np.isnan(got) & np.isnan(want)
        if not np.all(nan | ((got == want) & (np.signbit(got) == np.signbit(want)))):
            raise ValueError(
                f"problem {problem.name!r}: sample_z_batch and drift_batch on lanes {lanes.shape} at counter "
                f"{counter} give {got.tolist()}, but sample_z and drift give {want.tolist()}"
            )
    # Row 0 of cases 3 and 4 draws the Z of cases 1 and 2, at states other than xi.
    for at_xi, at_x in ((drifts[0], drifts[2][0]), (drifts[1], drifts[3][0])):
        _refute_lipschitz(problem, states[0] - problem.xi, at_xi, at_x)


def _refute_lipschitz(problem, dx, at_xi, at_x):
    """Raise a ``ValueError`` naming ``lipschitz`` if, on some lane,
    ``||F(x, z) - F(xi, z)||`` exceeds ``lipschitz * ||x - xi||`` by more than
    a few ulps of the drift values.  A NaN difference refutes nothing."""
    norm = partial(np.linalg.norm, axis=-1)
    with np.errstate(all="ignore"):  # non-finite drifts are allowed
        gap, step = norm(at_x - at_xi), norm(dx)
        bound = problem.lipschitz * step
        over = gap - bound > 8 * np.finfo(np.float64).eps * (norm(at_x) + norm(at_xi) + bound)
        ratio = gap / step
    if np.any(over):
        raise ValueError(
            f"problem {problem.name!r}: lipschitz = {problem.lipschitz} is refuted: at one Z, "
            f"||F(x, z) - F(xi, z)|| / ||x - xi|| reaches {np.max(ratio[over])}"
        )


def _run_hooks(view, labels, x, lanes, counter):
    """``view.drift_batch(x, view.sample_z_batch(StreamBundle(lanes, counter)))`` as float64,
    any error as a ``ValueError`` naming the hook that raised by its label in ``labels``."""
    label = labels[0]
    try:
        z = view.sample_z_batch(StreamBundle(lanes, counter))
        label = labels[1]
        return np.asarray(view.drift_batch(x, z), np.float64)
    except Exception as exc:
        raise ValueError(f"problem {view.name!r}: {label} on lanes {lanes.shape} raised {exc!r}") from exc


def register_problem(problem: ExpectationOdeProblem, replace: bool = False) -> None:
    """Add a problem to the registry (library API; the CLI only sees names),
    after :func:`check_problem`."""
    if problem.name in _REGISTRY and not replace:
        raise ValueError(f"problem {problem.name!r} already registered")
    check_problem(problem)
    _REGISTRY[problem.name] = problem


def builtin(name: str) -> ExpectationOdeProblem:
    """Look up a registered problem by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownProblemError(f"unknown problem {name!r} (known: {known})") from None


def problem_names() -> list[str]:
    """Registered problem names, sorted."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Built-in problems.  All are one-dimensional with xi = 0 and T = 1; each
# satisfies the standing assumptions (F Lipschitz in x uniformly in z,
# E[||F(xi, Z)||^2] finite) and has enough analytic structure to serve as a
# test oracle.
# ---------------------------------------------------------------------------

_ZERO = np.zeros(1)
_ONE = np.ones(1)


def _pure_noise() -> ExpectationOdeProblem:
    # F(x, z) = z with Z ~ N(0, 1): zero mean drift, X(t) = 0.
    return ExpectationOdeProblem(
        name="pure_noise",
        dim=1,
        xi=_ZERO,
        horizon=1.0,
        lipschitz=0.0,
        sample_z=lambda stream: stream.next_gaussian(),
        drift=lambda x, z: np.array([z]),
        f_xi_second_moment=1.0,
        exact_mean_drift=lambda x: np.zeros(1),
        closed_form=lambda t: np.zeros(1),
        sample_z_batch=lambda bundle: bundle.next_gaussian(),
        drift_batch=lambda x, z: np.asarray(z)[..., None] + 0.0,
    )


def _const_drift() -> ExpectationOdeProblem:
    # F(x, z) = 1 with degenerate Z: X(t) = t, every estimator is exact.
    return ExpectationOdeProblem(
        name="const_drift",
        dim=1,
        xi=_ZERO,
        horizon=1.0,
        lipschitz=0.0,
        sample_z=lambda stream: 0.0,
        drift=lambda x, z: np.ones(1),
        f_xi_second_moment=1.0,
        exact_mean_drift=lambda x: np.ones(1),
        closed_form=lambda t: np.array([float(t)]),
        sample_z_batch=lambda bundle: np.zeros(bundle.shape),
        drift_batch=lambda x, z: np.broadcast_to(
            _ONE, np.broadcast_shapes(np.shape(x), np.shape(z) + (1,))
        ),
    )


def _linear_meanfield() -> ExpectationOdeProblem:
    # F(x, z) = z - x with Z ~ N(1, 1): X' = 1 - X, X(t) = 1 - exp(-t),
    # E[Z^2] = 2.  The Lipschitz constant 1 is attained for every z.
    return ExpectationOdeProblem(
        name="linear_meanfield",
        dim=1,
        xi=_ZERO,
        horizon=1.0,
        lipschitz=1.0,
        sample_z=lambda stream: 1.0 + stream.next_gaussian(),
        drift=lambda x, z: z - x,
        f_xi_second_moment=2.0,
        exact_mean_drift=lambda x: 1.0 - x,
        closed_form=lambda t: np.array([-np.expm1(-float(t))]),
        sample_z_batch=lambda bundle: 1.0 + bundle.next_gaussian(),
        drift_batch=lambda x, z: np.asarray(z)[..., None] - x,
    )


def _sine_meanfield() -> ExpectationOdeProblem:
    # F(x, z) = sin(x) + z with Z ~ N(0, 1): X' = sin(X).  Starting from
    # xi = 0 the mean path is identically zero, but the estimator still has
    # to discover that through genuinely nonlinear drift evaluations; no
    # closed form is registered, so the RK4 reference solver is exercised.
    return ExpectationOdeProblem(
        name="sine_meanfield",
        dim=1,
        xi=_ZERO,
        horizon=1.0,
        lipschitz=1.0,
        sample_z=lambda stream: stream.next_gaussian(),
        drift=lambda x, z: np.sin(x) + z,
        f_xi_second_moment=1.0,
        exact_mean_drift=lambda x: np.sin(x),
        sample_z_batch=lambda bundle: bundle.next_gaussian(),
        drift_batch=lambda x, z: np.sin(x) + np.asarray(z)[..., None],
    )


for _factory in (_pure_noise, _const_drift, _linear_meanfield, _sine_meanfield):
    register_problem(_factory())
BUILTIN_NAMES = tuple(problem_names())  # the problems of the factories above, sorted
