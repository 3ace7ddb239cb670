"""Estimator recursion, exact cost laws, and the scalar/batch agreement."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from mlpicard import mlp
from mlpicard.mlp import (
    CostLedger,
    mlp_estimate,
    mlp_estimate_batch,
    rv_bound,
    rv_exact,
)
from mlpicard.problems import BUILTIN_NAMES, ExpectationOdeProblem, builtin
from mlpicard.rng import StreamBundle, root
from oracle import PROBLEM_NAMES, assert_same_bits, estimate_scalar, named_problem, refusing_problem, two_dim_problem

SEED = 12345

# Hand-evaluated values of the draw-count recursion
# rv(n,m) = m^n + sum_{l=1}^{n-1} m^(n-l) (1 + rv(l,m) + rv(l-1,m)).
RV_TABLE = {
    (0, 7): 0,
    (1, 1): 1,
    (1, 4): 4,
    (2, 2): 10,
    (2, 3): 21,
    (3, 2): 46,
    (3, 3): 138,
    (4, 2): 206,
    (4, 4): 2612,
}


def test_rv_exact_hand_values():
    for (n, m), expected in RV_TABLE.items():
        assert rv_exact(n, m) == expected
    for m in range(1, 7):
        assert rv_exact(0, m) == 0
        assert rv_exact(1, m) == m


def test_rv_exact_equals_the_recursion():
    # The paper's recursion as written, every level re-summed over all the
    # lower ones (plain recursion would take 3^20 calls at n = 20); deeper
    # levels for a few bases, where the values pass 64 bits.
    depths = {m: 60 if m in (1, 2, 7, 20) else 20 for m in range(1, 21)}
    for m, depth in depths.items():
        rv = [0]
        for n in range(1, depth + 1):
            rv.append(m**n + sum(m ** (n - l) * (1 + rv[l] + rv[l - 1]) for l in range(1, n)))
        assert [rv_exact(n, m) for n in range(depth + 1)] == rv


def test_rv_bound_values_and_domination():
    assert rv_bound(1, 1) == 3
    assert rv_bound(2, 2) == 36 and rv_exact(2, 2) == 10 <= 36
    assert rv_bound(3, 2) == 216
    for n in range(1, 9):
        for m in range(1, 6):
            assert rv_exact(n, m) <= rv_bound(n, m)


def test_rv_validation():
    with pytest.raises(ValueError):
        rv_exact(-1, 2)
    with pytest.raises(ValueError):
        rv_exact(2, 0)
    with pytest.raises(ValueError):
        rv_bound(0, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda v: rv_exact(v, 2),
        lambda v: rv_exact(2, v),
        lambda v: rv_bound(v, 2),
        lambda v: mlp_estimate(refusing_problem(), v, 2, 1.0, root(1), CostLedger()),
        lambda v: mlp_estimate(refusing_problem(), 2, v, 1.0, root(1), CostLedger()),
        lambda v: mlp_estimate_batch(
            builtin("pure_noise"), v, 2, 1.0, StreamBundle.root_children(1, [1]), CostLedger()
        ),
    ],
)
@pytest.mark.parametrize("bad", [2.5, True, np.float64(2.0), "2"])
def test_levels_and_bases_must_be_integers(call, bad):
    with pytest.raises(TypeError, match="must be an integer"):
        call(bad)


def test_numpy_integer_levels_are_accepted():
    assert rv_exact(np.int64(3), np.int32(2)) == rv_exact(3, 2) == 46
    assert isinstance(rv_exact(np.int64(30), np.int64(30)), int)
    p = builtin("linear_meanfield")
    got = mlp_estimate(p, np.int64(2), np.int64(3), 1.0, root(4), CostLedger())
    assert np.array_equal(got, mlp_estimate(p, 2, 3, 1.0, root(4), CostLedger()))


@pytest.mark.parametrize("t", [-0.5, math.nan, 5.0, [0.5, 1.5], [0.5, math.nan]])
def test_batch_rejects_times_outside_horizon_before_drawing(t):
    # t is one real number, so a list of times is refused by its type.
    bundle = StreamBundle.root_children(1, [1, 2])
    ledger = CostLedger()
    with pytest.raises(ValueError if np.ndim(t) == 0 else TypeError, match="time t"):
        mlp_estimate_batch(refusing_problem(), 2, 2, t, bundle, ledger)
    assert ledger == CostLedger()


@pytest.mark.parametrize("t", [1.5, 5.0])
def test_scalar_rejects_times_beyond_horizon_before_drawing(t):
    with pytest.raises(ValueError, match="time t"):
        mlp_estimate(refusing_problem(), 2, 2, t, root(1), CostLedger())


@pytest.mark.parametrize(
    "t",
    [True, np.bool_(True), np.array(True), [True, False], np.array([True, False]), "0.5", None,
     np.array([0.5, 0.6]), np.array([0.5])],
)
def test_batch_times_must_be_real_numbers(t):
    # A bool time used to run as 1.0, and a bool array as its 0/1 values.
    # A time array that did not fit the lanes got numpy's broadcast error,
    # which names no argument, and the 1-lane entry took a (1,) array.
    ledger = CostLedger()
    with pytest.raises(TypeError, match="time t"):
        mlp_estimate_batch(refusing_problem(), 2, 2, t, StreamBundle.root_children(1, [1, 2, 3]), ledger)
    with pytest.raises(TypeError, match="time t"):
        mlp_estimate(refusing_problem(), 2, 2, t, root(1), ledger)
    assert ledger == CostLedger()


def test_rv_exact_is_bigint_safe():
    # Deep schedules need levels in the dozens; values overflow 64 bits but
    # must stay exact integers.
    v = rv_exact(34, 34)
    assert isinstance(v, int)
    assert v > 10**60
    assert v <= rv_bound(34, 34)


def test_params_validation():
    # The entry checks its indices and time itself, before any draw.
    for n, m, t in [(-1, 2, 0.5), (1, 0, 0.5), (1, 2, -0.5), (1, 2, 1.5)]:
        ledger = CostLedger()
        with pytest.raises(ValueError):
            mlp_estimate(refusing_problem(), n, m, t, root(SEED), ledger)
        assert ledger == CostLedger()


@pytest.mark.parametrize("t,error", [(True, TypeError), ("0.5", TypeError), (None, TypeError), (math.inf, ValueError)])
def test_params_time_must_be_a_finite_real(t, error):
    with pytest.raises(error, match="time t"):
        mlp_estimate(refusing_problem(), 1, 1, t, root(1), CostLedger())


def test_level_zero_returns_xi_without_draws():
    for name in BUILTIN_NAMES:
        p = builtin(name)
        ledger = CostLedger()
        out = mlp_estimate(p, 0, 3, 0.8, root(SEED), ledger)
        assert np.array_equal(out, p.xi)
        assert ledger == CostLedger()
        out[0] = 99.0  # must be a private copy
        assert builtin(name).xi[0] == 0.0


def test_const_drift_is_averaged_exactly():
    ledger = CostLedger()
    out = mlp_estimate(builtin("const_drift"), 1, 5, 0.7, root(SEED), ledger)
    assert out[0] == 0.7
    assert ledger == CostLedger(z_draws=5, uniform_draws=0)
    assert ledger.f_evals == 5


def _degenerate_constant_problem(c=2.0):
    # F(x, z) = z with Z identically c: all level differences vanish and the
    # estimator equals t*c for every n >= 1.
    return ExpectationOdeProblem(
        name="degenerate_const_z",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=lambda s: c,
        drift=lambda x, z: np.array([z]),
        f_xi_second_moment=c * c,
        sample_z_batch=lambda b: np.full(b.shape, c),
        drift_batch=lambda x, z: np.asarray(z)[..., None] + np.zeros(1),
    )


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (3, 2)])
def test_degenerate_z_gives_t_times_c(n, m):
    p = _degenerate_constant_problem(2.0)
    out = mlp_estimate(p, n, m, 0.6, root(SEED), CostLedger())
    assert out[0] == 0.6 * 2.0


def _unrolled_2_2(problem, t, stream):
    """Literal expansion of the level-2, base-2 recursion with the frozen
    stream topology; an independent oracle for the engine."""
    xi = problem.xi
    drift, sample_z = problem.drift, problem.sample_z

    base = stream.spawn(0)
    acc = np.zeros(problem.dim)
    for k in (1, 2, 3, 4):
        acc = acc + drift(xi, sample_z(base.spawn(k)))
    out = xi + (t / 4.0) * acc

    level = stream.spawn(1)
    acc = np.zeros(problem.dim)
    for k in (1, 2):
        node = level.spawn(k)
        r = node.next_uniform()
        z = sample_z(node)
        s = r * t
        inner = node.spawn(0)
        inner_acc = np.zeros(problem.dim)
        for j in (1, 2):
            inner_acc = inner_acc + drift(xi, sample_z(inner.spawn(j)))
        a = xi + (s / 2.0) * inner_acc
        b = xi
        acc = acc + (drift(a, z) - drift(b, z))
    return out + (t / 2.0) * acc


@pytest.mark.parametrize("name", ["pure_noise", "linear_meanfield", "sine_meanfield"])
def test_engine_matches_unrolled_expansion(name):
    p = builtin(name)
    got = mlp_estimate(p, 2, 2, 0.9, root(SEED).spawn(1), CostLedger())
    want = _unrolled_2_2(p, 0.9, root(SEED).spawn(1))
    assert np.array_equal(got, want)


def test_degenerate_z_matches_unrolled_expansion():
    p = _degenerate_constant_problem(2.0)
    got = mlp_estimate(p, 2, 2, 1.0, root(7), CostLedger())
    want = _unrolled_2_2(p, 1.0, root(7))
    assert np.array_equal(got, want)
    assert got[0] == 2.0


def test_time_zero_returns_xi_for_every_level():
    p = builtin("linear_meanfield")
    for n in range(4):
        out = mlp_estimate(p, n, 2, 0.0, root(3), CostLedger())
        assert np.array_equal(out, p.xi)


def test_cost_law_and_ledger_identity():
    # One estimator call records exactly rv_exact(n, m) Z draws, and every
    # Z is consumed by either a base evaluation or a coupled difference:
    # f_evals = z_draws + uniform_draws.
    p = builtin("const_drift")
    for n in range(6):
        for m in range(1, 4):
            ledger = CostLedger()
            mlp_estimate(p, n, m, 1.0, root(SEED).spawn(n * 10 + m), ledger)
            assert ledger.z_draws == rv_exact(n, m)
            assert ledger.f_evals == ledger.z_draws + ledger.uniform_draws


def test_cost_law_with_stream_consuming_sampler():
    p = builtin("pure_noise")
    for n, m in ((2, 3), (4, 2), (3, 3)):
        ledger = CostLedger()
        mlp_estimate(p, n, m, 0.5, root(8), ledger)
        assert ledger.z_draws == rv_exact(n, m)


def test_ledger_merge_is_associative_commutative():
    a = CostLedger(1, 2)
    b = CostLedger(10, 20)
    c = CostLedger(100, 200)
    assert a.merge(b) == b.merge(a)
    assert a.merge(b).merge(c) == a.merge(b.merge(c))
    assert a.merge(CostLedger()) == a


def test_determinism_bitwise():
    p = builtin("linear_meanfield")
    runs = []
    for _ in range(2):
        ledger = CostLedger()
        runs.append((mlp_estimate(p, 3, 2, 1.0, root(11), ledger), ledger))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_batch_matches_scalar_per_lane(name):
    p = builtin(name)
    ledger_b = CostLedger()
    bundle = StreamBundle.root_children(123, np.arange(1, 8))
    batch = mlp_estimate_batch(p, 3, 2, 0.9, bundle, ledger_b)
    ledger_s = CostLedger()
    base = root(123)
    scal = np.array([estimate_scalar(p, 3, 2, 0.9, base.spawn(j), ledger_s) for j in range(1, 8)])
    assert np.array_equal(batch, scal)
    assert ledger_b == ledger_s


def test_batch_lane_chunking_is_invariant():
    p = builtin("linear_meanfield")
    full = mlp_estimate_batch(
        p, 4, 2, 1.0, StreamBundle.root_children(7, np.arange(1, 10)), CostLedger()
    )
    a = mlp_estimate_batch(
        p, 4, 2, 1.0, StreamBundle.root_children(7, np.arange(1, 4)), CostLedger()
    )
    b = mlp_estimate_batch(
        p, 4, 2, 1.0, StreamBundle.root_children(7, np.arange(4, 10)), CostLedger()
    )
    assert np.array_equal(full, np.concatenate([a, b]))


def _sample(nlanes):
    # Every lane of a narrow batch, about 40 spread over a wide one.
    return range(0, nlanes, max(1, nlanes // 40))


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("n,m", [(3, 3), (4, 2), (2, 23), (1, 600)])
def test_scalar_entry_matches_oracle(name, n, m):
    # (2, 23) and (1, 600) put more than one 512-draw chunk in the base term.
    p = named_problem(name)
    for t in (1.0, 0.37):
        ledger, want_ledger = CostLedger(), CostLedger()
        got = mlp_estimate(p, n, m, t, root(SEED).spawn(3), ledger)
        want = estimate_scalar(p, n, m, t, root(SEED).spawn(3), want_ledger)
        assert np.array_equal(got, want)
        assert ledger == want_ledger


@pytest.mark.parametrize("n,m", [(1, 600), (3, 3)])
def test_float32_drift_is_summed_in_float64(n, m):
    # Every carried sum starts at a float64 zero row, so float32 drift values
    # are added in float64, one at a time, as the oracle adds them.
    p = dataclasses.replace(
        builtin("linear_meanfield"),
        drift=lambda x, z: (z - x).astype(np.float32),
        drift_batch=lambda x, z: (np.asarray(z)[..., None] - x).astype(np.float32),
    )
    ledger, want_ledger = CostLedger(), CostLedger()
    got = mlp_estimate(p, n, m, 1.0, root(SEED).spawn(3), ledger)
    want = estimate_scalar(p, n, m, 1.0, root(SEED).spawn(3), want_ledger)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    assert ledger == want_ledger


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("n,m", [(2, 5), (3, 3), (1, 500), (2, 30), (1, 600), (3, 6)])
def test_one_lane_matches_lane_in_batch(name, n, m):
    # A 1-lane bundle must add its base-term chunk in the same order as a
    # wide one, whatever numpy does with one column.  At 300 lanes a 512-draw
    # chunk spans several sub-blocks, and the levels of (2, 30) and (3, 6)
    # are wider than a node block (27 rows, 13 in 2-D), while one lane draws
    # each level in one block; (2, 30) and (1, 600) cross a chunk boundary
    # too.  A lane also matches the oracle summed in 512-draw chunks; beyond
    # one chunk, where the oracle is slow, every 8th sampled lane does.
    p = named_problem(name)
    step = 1 if m**n <= 512 else 8
    for nlanes in (40, 300):
        lanes = np.arange(1, nlanes + 1)
        wide = mlp_estimate_batch(p, n, m, 0.8, StreamBundle.root_children(SEED, lanes), CostLedger())
        for s, i in enumerate(_sample(nlanes)):
            j = int(lanes[i])
            one = mlp_estimate_batch(p, n, m, 0.8, StreamBundle.root_children(SEED, [j]), CostLedger())
            assert_same_bits(one[0], wide[i])
            if s % step == 0:
                want = estimate_scalar(p, n, m, 0.8, root(SEED).spawn(j), CostLedger(), chunk=512)
                assert_same_bits(one[0], want)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_worker_thread_gives_the_same_bits(name):
    # Off the main thread a bundle draws larger node blocks: at 300 lanes the
    # main thread splits the levels of (2, 30) and (3, 6) into node blocks,
    # a worker does not.  Fresh-draw sub-blocks have one budget on every
    # thread, so (1, 600) checks that budget in a worker.  Every 8th
    # sampled lane matches the oracle summed in 512-draw chunks.
    # The ledger, counted block by block, must total the same over the
    # worker's blocks as over the main thread's.
    p = named_problem(name)
    for n, m, nlanes in ((1, 600, 200), (2, 30, 300), (3, 6, 300)):
        lanes = np.arange(1, nlanes + 1)

        def run():
            ledger = CostLedger()
            out = mlp_estimate_batch(p, n, m, 0.8, StreamBundle.root_children(SEED, lanes), ledger)
            return out, ledger

        with ThreadPoolExecutor(max_workers=1) as pool:
            in_worker, worker_ledger = pool.submit(run).result(timeout=60)
        in_main, main_ledger = run()
        assert_same_bits(in_worker, in_main)
        assert worker_ledger == main_ledger
        for i in _sample(nlanes)[::8]:
            want = estimate_scalar(p, n, m, 0.8, root(SEED).spawn(int(lanes[i])), CostLedger(), chunk=512)
            assert_same_bits(in_worker[i], want)


@pytest.mark.parametrize("budget", [1, 7, 64])
@pytest.mark.parametrize("name", ["linear_meanfield", "planar_rotation"])
def test_block_budgets_never_change_bits(monkeypatch, name, budget):
    # Budgets of a few elements split every base-term chunk and every level
    # into many blocks (at 1 lane and at 5, in 1-D and 2-D), so the carried
    # chain runs at every block boundary; (1, 600) crosses a 512-draw chunk
    # boundary, where at budget 7 on one lane a block is cut short (512 =
    # 73*7 + 1).  Any budget must give the oracle's bits and draw counts.
    for constant in ("_DRAW_BLOCK", "_NODE_BLOCK"):
        monkeypatch.setattr(mlp, constant, budget)
    p = named_problem(name)
    lanes = np.arange(1, 6)
    for n, m in ((1, 500), (1, 600), (3, 4)):
        wide_ledger, want_ledger = CostLedger(), CostLedger()
        wide = mlp_estimate_batch(p, n, m, 0.8, StreamBundle.root_children(SEED, lanes), wide_ledger)
        for i, j in enumerate(lanes):
            one = mlp_estimate_batch(p, n, m, 0.8, StreamBundle.root_children(SEED, [j]), CostLedger())
            assert_same_bits(one[0], wide[i])
            want = estimate_scalar(p, n, m, 0.8, root(SEED).spawn(int(j)), want_ledger, chunk=512)
            assert_same_bits(wide[i], want)
        assert wide_ledger == want_ledger


def test_pure_noise_keeps_its_gaussians_across_nested_draws():
    # pure_noise's batch sampler returns the Gaussian itself as Z, and a
    # coupled term holds that Z across the nested recursions, which draw
    # more Gaussians on the same thread.
    p = builtin("pure_noise")
    lanes = np.arange(1, 301)
    out = mlp_estimate_batch(p, 3, 3, 1.0, StreamBundle.root_children(SEED, lanes), CostLedger())
    for i, j in enumerate(lanes):
        assert_same_bits(out[i], estimate_scalar(p, 3, 3, 1.0, root(SEED).spawn(int(j)), CostLedger()))


def test_threads_drawing_at_once_give_the_same_bits():
    # Four pool threads switching every 10 microseconds must give the bits
    # of one thread drawing alone.
    jobs = [(name, n, m, SEED + k) for k, (n, m) in enumerate(((1, 600), (2, 30), (3, 6), (4, 3)))
            for name in ("linear_meanfield", "planar_rotation")]

    def run(job):
        name, n, m, seed = job
        return mlp_estimate_batch(
            named_problem(name), n, m, 0.8, StreamBundle.root_children(seed, np.arange(1, 301)), CostLedger()
        )

    alone = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, job) for job in jobs]
            together = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(together, alone):
        assert_same_bits(got, want)


_FAULT_PROBE = """
import resource
from mlpicard import builtin, rmse_experiment

problem = builtin("linear_meanfield")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rmse_experiment(problem, "mc_euler", [(10, 1600)], 1000, 12345)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_a_fresh_process_draws_without_heap_churn():
    # The heap-churn guard.  In a fresh process glibc's mmap and trim
    # thresholds start low, so without the heap warm-up in mlpicard.rng
    # every freed draw temporary goes back to the OS and is faulted in
    # again: about 109,000 minor faults on this row, against about 360
    # with it, over several heap layouts.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5000


_RSS_PROBE = """
import re
from mlpicard import builtin, rmse_experiment


def peak_kib():
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))


problem = builtin("linear_meanfield")
before = peak_kib()
rmse_experiment(problem, "mlp", [(5, 5)], 1000, 12345, threads=2)
print((peak_kib() - before) // 1024)
"""


def test_two_threads_draw_in_bounded_node_blocks():
    # The memory guard for worker threads.  A node block keeps its whole
    # descent alive, so its budget bounds the peak: at the fresh-draw budget
    # this row's peak RSS grows by about 12 MiB, and at a 2^16 worker budget
    # by about 28 MiB.  The probe reads VmHWM, the peak of its own address
    # space: ru_maxrss would start at the peak of the process that ran it.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _RSS_PROBE], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 20


# SHA-256 of the little-endian estimates before MLP levels were drawn in
# node blocks; at 1000 lanes a width-36 or width-27 level splits into blocks
# of 8 nodes.  The CSV pin in test_analysis sees only the RMSE, which a
# last-bit change in some lanes does not move; these bytes do.
ESTIMATES_SHA256 = "1740dc3241252a905c2b6a593639ad8183d561692e1f0b4a73a4ddaf8b540a9b"


def test_node_blocked_estimates_are_pinned():
    digest = hashlib.sha256()
    for n, m in ((3, 6), (4, 3)):
        bundle = StreamBundle.root_children(SEED, np.arange(1, 1001))
        est = mlp_estimate_batch(builtin("linear_meanfield"), n, m, 1.0, bundle, CostLedger())
        digest.update(est.astype("<f8").tobytes())
    assert digest.hexdigest() == ESTIMATES_SHA256


def test_realizations_are_exchangeable_across_root_indices():
    # Estimates from root(seed).spawn(j) are identically distributed;
    # two-sample KS between the first and second halves at the 5% level.
    bundle = StreamBundle.root_children(SEED, np.arange(1, 4001))
    est = mlp_estimate_batch(builtin("pure_noise"), 2, 2, 1.0, bundle, CostLedger())[:, 0]
    stat = scipy.stats.ks_2samp(est[:2000], est[2000:])
    assert stat.pvalue > 0.05


def test_unbiased_mean_statistical():
    # E[estimate] = xi + t E[Z] = 0 for pure noise; 5-sigma band on the mean.
    n, m, reps = 2, 2, 10**4
    bundle = StreamBundle.root_children(SEED, np.arange(1, reps + 1))
    est = mlp_estimate_batch(builtin("pure_noise"), n, m, 1.0, bundle, CostLedger())[:, 0]
    sigma = math.sqrt(1.0 / m**n)
    assert abs(est.mean()) <= 5.0 * sigma / math.sqrt(reps)


def test_pure_noise_variance_at_an_inner_time():
    # At t = 0.5 the pure-noise estimator has variance t^2/m^n = 1/16; the
    # mean square over R lanes sits in a 5-sigma chi-square band.
    reps = 10**4
    bundle = StreamBundle.root_children(SEED, np.arange(1, reps + 1))
    est = mlp_estimate_batch(builtin("pure_noise"), 1, 4, 0.5, bundle, CostLedger())[:, 0]
    target = 0.25 * 0.25
    assert abs(np.mean(est**2) - target) <= 5.0 * target * math.sqrt(2.0 / reps)


def _linear_rmse_by_quadrature(n, m, grid=2001):
    """Deterministic second-moment recursion for the estimator on
    F(x, z) = z - x with Z ~ N(1, 1), xi = 0.

    For this drift the coupled difference is F(A,Z) - F(B,Z) = B - A with
    A, B independent level-l / level-(l-1) realizations sharing the random
    time s = r*t, so the variance obeys

        v_n(t) = t^2/m^n + sum_{l<n} t^2/m^(n-l) * Var(B_l - A_l),
        Var(B-A) = E_r[v_l(rt) + v_{l-1}(rt) + d_l(rt)^2] - E_r[d_l(rt)]^2,
        d_l(s) = mu_l(s) - mu_{l-1}(s) = (-1)^(l+1) s^l / l!,

    with mu_n the noise-free fixed-point iterates.  An oracle for the
    whole engine: any change to the coupling moves these numbers.
    """
    s = np.linspace(0.0, 1.0, grid)
    ds = s[1] - s[0]

    def time_average(values):
        # E_r[f(r*t)] = (1/t) int_0^t f, per grid point t (trapezoid)
        cum = np.concatenate(([0.0], np.cumsum((values[1:] + values[:-1]) * 0.5 * ds)))
        out = np.empty_like(values)
        out[0] = values[0]
        out[1:] = cum[1:] / s[1:]
        return out

    v = {0: np.zeros(grid)}
    for level in range(1, n + 1):
        total = s**2 / m**level
        for l in range(1, level):
            d = (-1.0) ** (l + 1) * s**l / math.factorial(l)
            var_diff = time_average(v[l] + v[l - 1] + d * d) - time_average(d) ** 2
            total = total + s**2 / m ** (level - l) * var_diff
        v[level] = total

    mu_n = sum((-1.0) ** (j + 1) / math.factorial(j) for j in range(1, n + 1))
    bias = mu_n - (1.0 - math.exp(-1.0))
    return math.sqrt(v[n][-1] + bias * bias)


def test_linear_meanfield_rmse_matches_quadrature_oracle():
    n, m, reps = 3, 3, 4000
    bundle = StreamBundle.root_children(SEED, np.arange(1, reps + 1))
    est = mlp_estimate_batch(builtin("linear_meanfield"), n, m, 1.0, bundle, CostLedger())[:, 0]
    ref = builtin("linear_meanfield").closed_form(1.0)[0]
    rmse = math.sqrt(np.mean((est - ref) ** 2))
    exact = _linear_rmse_by_quadrature(n, m)
    # 5-sigma band on the rmse estimate itself (~1/sqrt(2R) relative)
    assert abs(rmse / exact - 1.0) <= 5.0 / math.sqrt(2 * reps)


def test_two_dimensional_problem_end_to_end():
    p = two_dim_problem()
    ledger = CostLedger()
    out = mlp_estimate(p, 3, 2, 1.0, root(SEED), ledger)
    assert out.shape == (2,)
    assert ledger.z_draws == rv_exact(3, 2)

    bundle = StreamBundle.root_children(SEED, np.arange(1, 6))
    batch = mlp_estimate_batch(p, 3, 2, 1.0, bundle, CostLedger())
    scal = np.array(
        [estimate_scalar(p, 3, 2, 1.0, root(SEED).spawn(j), CostLedger()) for j in range(1, 6)]
    )
    assert batch.shape == (5, 2)
    assert np.array_equal(batch, scal)

    # with many replications the estimate approaches X(1) = (cos 1, sin 1)
    reps = 3000
    big = StreamBundle.root_children(SEED, np.arange(1, reps + 1))
    mean = mlp_estimate_batch(p, 4, 3, 1.0, big, CostLedger()).mean(axis=0)
    assert np.linalg.norm(mean - p.closed_form(1.0)) < 0.1


def test_zero_horizon_problem_is_degenerate_not_an_error():
    p = ExpectationOdeProblem(
        name="frozen",
        dim=1,
        xi=np.array([2.5]),
        horizon=0.0,
        lipschitz=0.0,
        sample_z=lambda s: s.next_gaussian(),
        drift=lambda x, z: np.array([z]),
        f_xi_second_moment=1.0,
        exact_mean_drift=lambda x: np.zeros(1),
        closed_form=lambda t: np.array([2.5]),
    )
    for n in (0, 1, 3):
        out = mlp_estimate(p, n, 2, 0.0, root(1), CostLedger())
        assert np.array_equal(out, p.xi)

    from mlpicard.baseline import mc_euler, reference_solve

    assert np.array_equal(mc_euler(p, 3, 2, root(1), CostLedger()), p.xi)
    assert np.array_equal(reference_solve(p, 0.0), p.xi)
