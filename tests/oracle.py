"""Independent scalar oracles for the package engines, and the problems they run on.

``estimate_scalar`` and ``euler_scalar`` are the estimator recursion and
the Euler loop written out one draw at a time with plain sequential
accumulation, kept apart from the package so that engine tests compare two
implementations rather than one engine with itself.  With ``chunk`` set,
their fresh-draw sums group the draws into runs of that many, as the batch
entries do; the tests pass the frozen chunk sizes as literals.
``mix64_np`` and ``gaussian_from_words`` are the draw transform written
with fresh arrays and the unfolded constants, the reference for the
in-place kernel.
``assert_same_bits`` is the engine tests' equality: same values and same
sign bits.
``refusing_problem`` raises from every callable, for tests that an entry
refuses its input before it runs anything.
"""

import math

import numpy as np

from mlpicard.problems import BUILTIN_NAMES, ExpectationOdeProblem, builtin

_INV_2_53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi
_SH30, _SH27, _SH31, _SH11 = (np.uint64(s) for s in (30, 27, 31, 11))
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def mix64_np(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser on uint64 arrays (wrapping arithmetic)."""
    z = (z ^ (z >> _SH30)) * _M1
    z = (z ^ (z >> _SH27)) * _M2
    return z ^ (z >> _SH31)


def gaussian_from_words(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    # u1 in (0,1] keeps the log finite; u2 in [0,1).
    u1 = ((w1 >> _SH11) + np.uint64(1)).astype(np.float64) * _INV_2_53
    u2 = (w2 >> _SH11).astype(np.float64) * _INV_2_53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)


def assert_same_bits(got, want):
    # array_equal takes -0.0 for 0.0; the sign bit must match too.
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _draw_sum(problem, x, stream, count, chunk=None):
    """Sum of drift(x, Z_k) over k = 1..count, Z_k drawn on ``stream.spawn(k)``.

    Without ``chunk``, one draw at a time from +0.0.  With it, each run of
    ``chunk`` draws is summed one draw at a time from +0.0, and the run sums
    are added in order to a +0.0 total.
    """
    total = np.zeros(problem.dim)
    for k0 in range(1, count + 1, chunk or count):
        acc = np.zeros(problem.dim)
        for k in range(k0, min(k0 + (chunk or count), count + 1)):
            acc = acc + problem.drift(x, problem.sample_z(stream.spawn(k)))
        total = acc if chunk is None else total + acc
    return total


def estimate_scalar(problem, n, m, t, stream, ledger, chunk=None):
    """One realization, fresh draws summed by ``_draw_sum`` with ``chunk``;
    the level sums add one coupled difference at a time."""
    xi = problem.xi
    if n == 0:
        return xi.copy()

    drift = problem.drift
    sample_z = problem.sample_z

    count = m**n
    acc = _draw_sum(problem, xi, stream.spawn(0), count, chunk)
    ledger.z_draws += count
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
            a = estimate_scalar(problem, l, m, s, node, ledger, chunk)
            b = estimate_scalar(problem, l - 1, m, s, level.spawn(-k), ledger, chunk)
            acc = acc + (drift(a, z) - drift(b, z))
        ledger.uniform_draws += width
        ledger.z_draws += width
        out = out + (t / width) * acc
    return out


def euler_scalar(problem, K, M, stream, ledger=None, chunk=None):
    """One Euler realization, node sums taken by ``_draw_sum`` with ``chunk``."""
    h = problem.horizon / K
    y = problem.xi.copy()
    for j in range(K):
        y = y + (h / M) * _draw_sum(problem, y, stream.spawn(j), M, chunk)
    if ledger is not None:
        ledger.z_draws += K * M
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


def refusing_problem():
    """A problem whose hooks, ``exact_mean_drift`` and ``closed_form`` all raise."""

    def refuse(*args):
        raise AssertionError("ran a problem hook before the inputs were checked")

    return ExpectationOdeProblem(
        name="refusing",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=refuse,
        drift=refuse,
        f_xi_second_moment=0.0,
        exact_mean_drift=refuse,
        closed_form=refuse,
        sample_z_batch=refuse,
        drift_batch=refuse,
    )
