"""Recursive multilevel Picard estimator with exact cost accounting.

One realization of the level-``n`` estimator at time ``t`` is built from

* a base term: the average of ``m**n`` fresh drift evaluations at the
  initial value, scaled by ``t``, and
* for each level ``l = 1..n-1``, an average of ``m**(n-l)`` coupled
  differences ``F(A, Z) - F(B, Z)``, where ``A`` and ``B`` are recursive
  level-``l`` and level-``(l-1)`` realizations evaluated at the *same*
  uniformly drawn random time ``s = r*t`` and against the *same* draw
  ``Z``, but with independent recursion randomness.

The coupling (shared ``r`` and ``Z``, independent inner streams) is what
makes the level differences small; it is realised through the stream tree:
the level-(l, k) node stream supplies ``r`` and ``Z`` and is itself handed
to the A-recursion, while the B-recursion gets the sibling stream with
index ``-k``.  Concretely, a call on stream theta touches these children::

    theta -> (0, k)   k = 1..m**n        base-term Z draws
    theta -> (l, k)   k = 1..m**(n-l)    r, Z, and the A-recursion subtree
    theta -> (l, -k)                     the B-recursion subtree

This two-integers-per-level path encoding is frozen; reproducibility of
every experiment rests on it.

Cost accounting is exact, not an estimate: ``rv_exact`` evaluates the draw
count recursion with equality, and the ledger recorded by one estimator
call matches it draw for draw.  Summation order is fixed (base term first,
then levels ascending, k ascending, each sum one carried chain, see
``_chain_sum``) so floating-point results are reproducible.

The one engine draws on :class:`~mlpicard.rng.StreamBundle` lanes.
``mlp_estimate_batch`` serves any problem: it adds fresh draws in runs of
``_BASE_CHUNK`` when the problem has batch hooks, and one at a time on
every lane when it has not.  ``mlp_estimate`` runs its stream as a 1-lane
bundle and adds one draw at a time.  A level's coupled nodes are drawn in
node blocks: one ``_spawn_block`` call gives every node of a block as a
new leading lane axis, and the A- and B-recursions run once per block on
those wider bundles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .problems import ExpectationOdeProblem, _as_batch
from .rng import SplittableStream, StreamBundle, _check_int, _check_real, _lane_bundle, _spawn_block

__all__ = [
    "CostLedger",
    "mlp_estimate",
    "mlp_estimate_batch",
    "rv_bound",
    "rv_exact",
]

# Base-term draws are summed over k in runs of this many indices.
# Fixed (never derived from batch width or thread count) so that chunk
# boundaries, and with them every rounding decision, depend only on (n, m).
_BASE_CHUNK = 512

# Element budgets of a bundle's blocks, in lane-dim elements.  A fresh-draw
# sub-block (one hook call) takes _DRAW_BLOCK: of 2^14, 2^15 and 2^16, 2^15
# was the fastest within noise on one thread and on two, and 2^16 raised
# peak RSS by 11%.  A node block keeps its whole descent alive, so on the
# main thread it takes _NODE_BLOCK (2^15 raised peak RSS by 9%).  Off it,
# each numpy call hands the GIL to a sibling, so it takes _DRAW_BLOCK (2^13
# was 13% slower on two threads; 2^16 no faster, 31% more RSS).  Blocks
# never regroup additions (see ``_chain_sum``), so unlike the chunk sizes
# these may depend on the lane width and the thread.
_DRAW_BLOCK = 1 << 15
_NODE_BLOCK = 1 << 13


@dataclass
class CostLedger:
    """Exact draw counts accumulated by estimator calls.

    ``z_draws`` counts Z realizations (one per ``sample_z`` call) and
    ``uniform_draws`` the random evaluation times r.  Every Z is consumed
    by one base evaluation or by one coupled difference (two evaluations,
    one time draw), so the drift evaluations ``f_evals`` are derived as
    ``z_draws + uniform_draws``.
    """

    z_draws: int = 0
    uniform_draws: int = 0

    @property
    def f_evals(self) -> int:
        return self.z_draws + self.uniform_draws

    def merge(self, other: "CostLedger") -> "CostLedger":
        """Componentwise sum; associative and commutative."""
        return CostLedger(self.z_draws + other.z_draws, self.uniform_draws + other.uniform_draws)


def _check_nm(n, m, n_min: int = 0) -> tuple[int, int]:
    """The one validation point for a level ``n`` and a base ``m``."""
    return _check_int(n, "level n", n_min), _check_int(m, "base m", 1)


def rv_exact(n: int, m: int) -> int:
    """Exact number of Z draws consumed by one level-``n`` realization.

    Satisfies rv(0, m) = 0 and, for n >= 1,

        rv(n, m) = m**n + sum_{l=1}^{n-1} m**(n-l) * (1 + rv(l, m) + rv(l-1, m)).

    Subtracting m * rv(k, m) from the sum for rv(k+1, m) leaves the
    recurrence the loop runs, from rv(0, m) = rv(-1, m) = 0:
    rv(k+1, m) = 2m * rv(k, m) + m * rv(k-1, m) + m.  Python's
    arbitrary-precision integers leave no overflow regime; results are
    exact for any (n, m).
    """
    n, m = _check_nm(n, m)
    rv_prev, rv = 0, 0  # rv(k-1, m) and rv(k, m), from k = 0
    for _ in range(n):
        rv_prev, rv = rv, m * (2 * rv + rv_prev + 1)
    return rv


def rv_bound(n: int, m: int) -> int:
    """Closed-form draw-count bound ``(3m)**n``; requires ``n >= 1``."""
    n, m = _check_nm(n, m, n_min=1)
    return (3 * m) ** n


def mlp_estimate(
    problem: ExpectationOdeProblem,
    n: int,
    m: int,
    t: float,
    stream: SplittableStream,
    ledger: CostLedger,
) -> np.ndarray:
    """One realization of the level-(n, m) estimator at ``t`` in [0, horizon].

    Pure function of (problem, n, m, t, stream state); the ledger is
    accumulated in place.  Returns a fresh vector of shape (dim,).
    """
    bundle = _lane_bundle(stream)
    n, m, t = _check_entry(problem, n, m, t, bundle.shape)
    return _estimate(_as_batch(problem), n, m, t, bundle, ledger, m**n)[0]


def mlp_estimate_batch(
    problem: ExpectationOdeProblem,
    n: int,
    m: int,
    t: float,
    bundle: StreamBundle,
    ledger: CostLedger,
) -> np.ndarray:
    """Independent estimator realizations for every lane of ``bundle``.

    Every lane runs at the one time ``t`` in [0, horizon].  Lane ``i`` uses
    exactly the draws that ``mlp_estimate`` would use on a scalar stream
    with the same (seed, path).  A problem without batch hooks runs its
    scalar hooks lane by lane, and each fresh-draw sum, none above ``m**n``
    draws, takes one chunk, so every lane adds one draw at a time as its
    stream would.  Returns shape ``(*lanes, dim)``.
    """
    n, m, t = _check_entry(problem, n, m, t, bundle.shape)
    chunk = _BASE_CHUNK if problem.has_batch else m**n
    return _estimate(_as_batch(problem), n, m, t, bundle, ledger, chunk)


def _check_entry(problem, n, m, t, lanes):
    """Validated ``(n, m, t)`` for an entry, before any draw, with the one
    real time ``t`` in [0, horizon] filled into a float64 array of the lane
    shape."""
    n, m = _check_nm(n, m)
    return n, m, np.full(lanes, _check_real(t, "time t", 0.0, problem.horizon))


def _estimate(problem, n, m, t, bundle, ledger, chunk):
    """One level-``n`` realization per lane of ``t``, shape ``(*lanes, dim)``,
    fresh draws summed in runs of ``chunk``.  ``bundle`` is unused at
    ``n == 0``."""
    lanes = t.shape
    if n == 0:
        return np.broadcast_to(problem.xi, lanes + (problem.dim,)).copy()
    t_col = t[..., None]  # per-lane time against (*lanes, dim)

    count = m**n
    acc = _draw_sum(problem, problem.xi, bundle.spawn(0), count, chunk, ledger)
    out = problem.xi + (t_col / count) * acc

    for l in range(1, n):
        width = m ** (n - l)
        terms = partial(_coupled_terms, problem, l, m, t, bundle.spawn(l), ledger, chunk)
        out = out + (t_col / width) * _chain_sum(terms, width, width, _node_budget(), out.shape)
    return out


def _coupled_terms(problem, l, m, t, level, ledger, chunk, ks):
    """``F(A_k, Z_k) - F(B_k, Z_k)`` for a block ``ks`` of node indices of
    the level bundle ``level``, shape ``(len(ks), *lanes, dim)``: one A- and
    one B-recursion for the whole block, one time and one Z draw per node
    and lane.  A level-1 B is ``xi`` itself, which draws nothing and which
    the drift broadcasts, as in the base term.  ``r`` and ``F(A, Z)`` are
    taken early, so a descent keeps fewer arrays alive."""
    nodes = _spawn_block(level, ks)
    ledger.uniform_draws += nodes.keys.size
    ledger.z_draws += nodes.keys.size
    s = nodes.next_uniform() * t
    z = problem.sample_z_batch(nodes)
    fa = problem.drift_batch(_estimate(problem, l, m, s, nodes, ledger, chunk), z)
    b = problem.xi if l == 1 else _estimate(problem, l - 1, m, s, _spawn_block(level, -ks), ledger, chunk)
    return fa - problem.drift_batch(b, z)


def _draw_sum(problem, x, stream, count, chunk, ledger):
    """Sum of F(x, Z_k) over k = 1..count, Z_k drawn on ``stream.spawn(k)``
    for every lane of the bundle ``stream``, in runs of ``chunk`` (one draw
    at a time if ``chunk >= count``).

    The fresh-draw kernel behind both the MLP base term and the Euler node
    average; records one draw per index and lane in ``ledger``.
    """

    def terms(ks):
        nodes = _spawn_block(stream, ks)
        ledger.z_draws += nodes.keys.size
        return problem.drift_batch(x, problem.sample_z_batch(nodes))

    return _chain_sum(terms, count, chunk, _DRAW_BLOCK, stream.shape + (problem.dim,))


def _node_budget():
    """The node-block budget: ``_NODE_BLOCK`` elements on the main thread,
    where peak RSS binds, ``_DRAW_BLOCK`` off it, where the GIL hand-off does."""
    main = threading.current_thread() is threading.main_thread()
    return _NODE_BLOCK if main else _DRAW_BLOCK


def _chain_sum(terms, count, chunk, budget, shape):
    """Sum of ``terms`` over the indices 1..count, shape ``shape``: the one
    summation rule of every engine sum.

    Each run of ``chunk`` indices is added in ascending order from a
    float64 zero row, and the run sums are added in order to a float64
    zero row.  ``terms`` maps a block of indices to one row each; a run is
    walked in blocks of as many indices as fit ``budget`` elements of
    ``shape``, and at least one, the running sum carried in as the first
    row of the next block.  So blocks never regroup additions, and any
    budget gives the same bits.
    """
    zero = np.zeros(shape)
    rows = max(1, budget // max(1, zero.size))
    total = zero
    for k0 in range(1, count + 1, chunk):
        part, k1 = zero, min(k0 + chunk, count + 1)
        for j0 in range(k0, k1, rows):
            block = terms(np.arange(j0, min(j0 + rows, k1)))
            part = _ascending_sum(np.concatenate((part[None], block)))
        total = total + part
    return total


def _ascending_sum(terms):
    """``terms`` summed over axis 0 in ascending order.

    ``np.add.reduce`` adds whole rows one after another while a row holds
    more than one element, but sums a single column pairwise, which would
    round a 1-lane chunk differently from the same lane in a wider batch.
    """
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]
