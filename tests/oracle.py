"""Independent scalar oracles for the package engines, and the problems they run on.

``estimate_scalar`` and ``euler_scalar`` are the estimator recursion and
the Euler loop written out one draw at a time with plain sequential
accumulation, kept apart from the package so that engine tests compare two
implementations rather than one engine with itself.
"""

import math

import numpy as np

from mlpicard.problems import BUILTIN_NAMES, ExpectationOdeProblem, builtin


def estimate_scalar(problem, n, m, t, stream, ledger):
    xi = problem.xi
    if n == 0:
        return xi.copy()

    drift = problem.drift
    sample_z = problem.sample_z

    base = stream.spawn(0)
    acc = np.zeros(problem.dim)
    for k in range(1, m**n + 1):
        z = sample_z(base.spawn(k))
        acc = acc + drift(xi, z)
    count = m**n
    ledger.z_draws += count
    ledger.f_evals += count
    out = xi + (t / count) * acc

    for l in range(1, n):
        level = stream.spawn(l)
        width = m ** (n - l)
        acc = np.zeros(problem.dim)
        for k in range(1, width + 1):
            node = level.spawn(k)
            r = node.next_uniform()
            z = sample_z(node)
            s = r * t
            a = estimate_scalar(problem, l, m, s, node, ledger)
            b = estimate_scalar(problem, l - 1, m, s, level.spawn(-k), ledger)
            acc = acc + (drift(a, z) - drift(b, z))
        ledger.uniform_draws += width
        ledger.z_draws += width
        ledger.f_evals += 2 * width
        out = out + (t / width) * acc
    return out


def euler_scalar(problem, params, stream, ledger=None):
    K, M = params.steps, params.samples
    h = problem.horizon / K
    y = problem.xi.copy()
    for j in range(K):
        node = stream.spawn(j)
        acc = np.zeros(problem.dim)
        for i in range(1, M + 1):
            z = problem.sample_z(node.spawn(i))
            acc = acc + problem.drift(y, z)
        y = y + (h / M) * acc
    if ledger is not None:
        ledger.z_draws += K * M
        ledger.f_evals += K * M
    return y


def two_dim_problem():
    # Rotating linear drift with a 2-vector noise payload: exercises the
    # (lanes, dim) broadcasting paths that the scalar built-ins never hit.
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])

    def sample_z(stream):
        return np.array([stream.next_gaussian(), stream.next_gaussian()])

    def sample_z_batch(bundle):
        return np.stack([bundle.next_gaussian(), bundle.next_gaussian()], axis=-1)

    return ExpectationOdeProblem(
        name="planar_rotation",
        dim=2,
        xi=np.array([1.0, 0.0]),
        horizon=1.0,
        lipschitz=1.0,
        sample_z=sample_z,
        drift=lambda x, z: x @ rot.T + z,
        f_xi_second_moment=3.0,  # ||rot xi||^2 + E||Z||^2 = 1 + 2
        exact_mean_drift=lambda x: x @ rot.T,
        closed_form=lambda t: np.array([math.cos(t), math.sin(t)]),
        sample_z_batch=sample_z_batch,
        drift_batch=lambda x, z: x @ rot.T + z,
    )


PROBLEM_NAMES = BUILTIN_NAMES + ("planar_rotation",)


def named_problem(name):
    """A built-in problem, or the 2-D test problem for ``"planar_rotation"``."""
    return two_dim_problem() if name == "planar_rotation" else builtin(name)
