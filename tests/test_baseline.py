"""Euler baseline exactness, stream accounting, and the RK4 reference."""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mlpicard import baseline, mlp
from mlpicard.analysis import rmse_experiment
from mlpicard.baseline import (
    NoReferenceError,
    mc_euler,
    mc_euler_batch,
    reference_solve,
)
from mlpicard.mlp import CostLedger
from mlpicard.problems import ExpectationOdeProblem, builtin
from mlpicard.rng import StreamBundle, root
from oracle import PROBLEM_NAMES, euler_scalar, named_problem, refusing_problem

X_INF = 1.0 - math.exp(-1.0)
SEED = 12345


# Both entries, on a 1-lane stream and on a 2-lane bundle.
ENTRIES = [
    lambda p, K, M, ledger: mc_euler(p, K, M, root(1), ledger),
    lambda p, K, M, ledger: mc_euler_batch(p, K, M, StreamBundle.root_children(1, [1, 2]), ledger),
]


def test_params_validation():
    # Each entry checks K and M itself, before any draw.
    p = builtin("linear_meanfield")
    for entry in ENTRIES:
        for K, M in [(0, 1), (1, 0)]:
            ledger = CostLedger()
            with pytest.raises(ValueError):
                entry(refusing_problem(), K, M, ledger)
            assert ledger == CostLedger()
        want = entry(p, 3, 2, CostLedger())
        assert np.array_equal(entry(p, np.int64(3), np.int32(2), CostLedger()), want)


@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0), "3"])
def test_params_must_be_integers(bad):
    for entry in ENTRIES:
        with pytest.raises(TypeError, match="must be an integer"):
            entry(refusing_problem(), bad, 3, CostLedger())
        with pytest.raises(TypeError, match="must be an integer"):
            entry(refusing_problem(), 3, bad, CostLedger())


def test_const_drift_euler_is_exact():
    out = mc_euler(builtin("const_drift"), 4, 1, root(0), CostLedger())
    assert out[0] == 1.0


def test_zero_drift_stays_at_origin():
    p = ExpectationOdeProblem(
        name="zero",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=lambda s: 0.0,
        drift=lambda x, z: np.zeros(1),
        f_xi_second_moment=0.0,
    )
    for K, M in ((1, 1), (7, 3)):
        assert mc_euler(p, K, M, root(2), CostLedger())[0] == 0.0


def test_ledger_counts_k_times_m():
    ledger = CostLedger()
    mc_euler(builtin("pure_noise"), 5, 3, root(1), ledger)
    assert ledger.z_draws == 15
    assert ledger.f_evals == 15
    assert ledger.uniform_draws == 0


def test_batch_matches_scalar():
    p = builtin("linear_meanfield")
    scal = euler_scalar(p, 6, 3, root(3).spawn(5))
    batch = mc_euler_batch(p, 6, 3, StreamBundle.root_children(3, [5]), CostLedger())
    assert np.array_equal(scal, batch[0])


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("K,M", [(6, 3), (3, 100), (1, 4100)])
def test_scalar_entry_matches_oracle(name, K, M):
    # (1, 4100) puts more than one 4096-draw chunk in a node average.
    p = named_problem(name)
    ledger, want_ledger = CostLedger(), CostLedger()
    got = mc_euler(p, K, M, root(9).spawn(2), ledger)
    want = euler_scalar(p, K, M, root(9).spawn(2), want_ledger)
    assert np.array_equal(got, want)
    assert ledger == want_ledger


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_one_lane_matches_lane_in_batch(name):
    # M = 100 draws per node: a single column would be summed pairwise by
    # numpy; the engine must keep ascending order at every lane count.  At
    # 40 lanes a node's chunk spans several sub-blocks (M = 4100 and 5000),
    # and M > 4096 crosses a chunk boundary too.  A lane also matches the
    # oracle summed in 4096-draw chunks; beyond one chunk, where the oracle
    # is slow, every 8th lane does.
    p = named_problem(name)
    lanes = np.arange(1, 41)
    for K, M in [(3, 100), (2, 300), (1, 4100), (1, 5000)]:
        wide = mc_euler_batch(p, K, M, StreamBundle.root_children(SEED, lanes), CostLedger())
        for i, j in enumerate(lanes):
            one = mc_euler_batch(p, K, M, StreamBundle.root_children(SEED, [j]), CostLedger())
            assert np.array_equal(one[0], wide[i])
            if M <= 4096 or i % 8 == 0:
                want = euler_scalar(p, K, M, root(SEED).spawn(j), chunk=4096)
                assert np.array_equal(one[0], want) and np.array_equal(np.signbit(one[0]), np.signbit(want))


@pytest.mark.parametrize("budget", [1, 7, 64])
@pytest.mark.parametrize("name", ["linear_meanfield", "planar_rotation"])
def test_draw_budget_never_changes_bits(monkeypatch, name, budget):
    # Budgets of a few elements split every node's draws into many
    # sub-blocks (at 1 lane and at 5, in 1-D and 2-D), and M = 4100 crosses
    # a 4096-draw chunk boundary; any budget must give the oracle's bits and
    # draw counts.
    monkeypatch.setattr(mlp, "_DRAW_BLOCK", budget)
    p = named_problem(name)
    lanes = np.arange(1, 6)
    for K, M in ((2, 300), (1, 4100)):
        wide_ledger, want_ledger = CostLedger(), CostLedger()
        wide = mc_euler_batch(p, K, M, StreamBundle.root_children(SEED, lanes), wide_ledger)
        for i, j in enumerate(lanes):
            one = mc_euler_batch(p, K, M, StreamBundle.root_children(SEED, [j]), CostLedger())
            want = euler_scalar(p, K, M, root(SEED).spawn(int(j)), want_ledger, chunk=4096)
            for got in (one[0], wide[i]):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        assert wide_ledger == want_ledger


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_worker_thread_gives_the_same_bits(name):
    # A pool worker gives the main thread's bits and ledger; at 40 lanes a
    # 4096-draw chunk spans several sub-blocks and M = 5000 crosses a chunk
    # boundary.
    p = named_problem(name)

    def run():
        ledger = CostLedger()
        return mc_euler_batch(p, 2, 5000, StreamBundle.root_children(SEED, np.arange(1, 41)), ledger), ledger

    with ThreadPoolExecutor(max_workers=1) as pool:
        in_worker, worker_ledger = pool.submit(run).result(timeout=60)
    in_main, main_ledger = run()
    assert np.array_equal(in_worker, in_main)
    assert worker_ledger == main_ledger


def test_batch_ledger_scales_with_lanes():
    ledger = CostLedger()
    mc_euler_batch(builtin("pure_noise"), 4, 2, StreamBundle.root_children(1, [1, 2, 3]), ledger)
    assert ledger.z_draws == 4 * 2 * 3


def test_large_run_converges_to_closed_form():
    # One realization with a 1e4-step grid and 1e4 draws per node lands well
    # within 2e-2 of X(1); here the discretisation bias is ~5e-5 and the
    # noise is ~7e-5, so the tolerance has orders of magnitude of slack.
    p = builtin("linear_meanfield")
    v = mc_euler_batch(p, 10**4, 10**4, StreamBundle.root_children(1, [1]), CostLedger())
    assert abs(v[0, 0] - X_INF) <= 2e-2


def test_rmse_decreases_along_ramping_schedule():
    # K and M grow together (M = K^2); both error sources shrink, so the
    # measured RMSE trend must be monotone.
    p = builtin("linear_meanfield")
    grid = [(K, K * K) for K in (10, 20, 40)]
    rep = rmse_experiment(p, "mc_euler", grid, 200, 12345)
    rmses = [r.rmse for r in rep.rows]
    assert rmses[0] > rmses[1] > rmses[2]


def test_reference_closed_form_precedence():
    p = builtin("linear_meanfield")
    assert reference_solve(p, 1.0)[0] == p.closed_form(1.0)[0]
    assert reference_solve(p, 0.0)[0] == 0.0


def test_reference_rk4_accuracy():
    rk_only = dataclasses.replace(builtin("linear_meanfield"), closed_form=None)
    assert abs(reference_solve(rk_only, 1.0)[0] - X_INF) <= 1e-10
    assert np.array_equal(reference_solve(rk_only, 0.0), np.zeros(1))


def test_reference_rk4_order_at_least_three(monkeypatch):
    # Halving the step must cut the error by at least 8x (observed ~16x).
    rk_only = dataclasses.replace(builtin("linear_meanfield"), closed_form=None)
    errors = []
    for step in (0.1, 0.05):
        monkeypatch.setattr(baseline, "_RK4_STEP", step)
        errors.append(abs(reference_solve(rk_only, 1.0)[0] - X_INF))
    assert errors[0] / errors[1] >= 8.0


def test_reference_partial_final_step_lands_on_t(monkeypatch):
    monkeypatch.setattr(baseline, "_RK4_STEP", 1e-3)
    rk_only = dataclasses.replace(builtin("linear_meanfield"), closed_form=None)
    # 0.55 is not a multiple of the step; the final shortened step must land
    # exactly on t rather than overshooting.
    got = reference_solve(rk_only, 0.55)[0]
    assert abs(got - (1.0 - math.exp(-0.55))) <= 1e-10


def test_reference_self_consistency_on_sine(monkeypatch):
    p = builtin("sine_meanfield")
    b = reference_solve(p, 1.0)
    monkeypatch.setattr(baseline, "_RK4_STEP", 1e-3)
    a = reference_solve(p, 1.0)
    assert abs(a[0] - b[0]) <= 1e-9


def test_reference_requires_some_reference():
    p = ExpectationOdeProblem(
        name="no_ref",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=lambda s: 0.0,
        drift=lambda x, z: np.zeros(1),
        f_xi_second_moment=0.0,
    )
    with pytest.raises(NoReferenceError, match="no reference available"):
        reference_solve(p, 1.0)


@pytest.mark.parametrize("hook", ["closed_form", "exact_mean_drift"])
def test_reference_of_the_wrong_shape_is_refused_before_any_draw(hook):
    # dim 1, but the hook gives two values: the RMSE would broadcast the
    # estimates against both and report a valid row.
    wrong = {"closed_form": None, hook: lambda arg: np.ones(2)}
    message = rf"{hook} gives a reference of shape \(2,\), not \(1,\)"
    with pytest.raises(ValueError, match=message):
        reference_solve(dataclasses.replace(builtin("linear_meanfield"), **wrong), 1.0)
    with pytest.raises(ValueError, match=message):
        rmse_experiment(dataclasses.replace(refusing_problem(), **wrong), "mlp", [(1, 1)], 2, SEED)


@pytest.mark.parametrize("dim,drift_dim", [(3, 1), (1, 3), (3, 2)])
def test_mean_drift_of_the_wrong_shape_is_refused_before_any_step(dim, drift_dim):
    # A (1,) drift on a 3-D problem broadcasts into a wrong reference, a
    # (3,) one on a 1-D problem would run every RK4 step first, and a (2,)
    # one on a 3-D problem does not broadcast at all.  Each is refused at
    # its first call, naming the hook.
    calls = []

    def drift(x):
        calls.append(x)
        return np.ones(drift_dim)

    p = dataclasses.replace(
        builtin("linear_meanfield"), dim=dim, xi=np.zeros(dim), closed_form=None, exact_mean_drift=drift
    )
    with pytest.raises(ValueError, match=rf"exact_mean_drift gives a reference of shape \({drift_dim},\), not \({dim},\)"):
        reference_solve(p, 1.0)
    assert len(calls) == 1


def test_reference_time_validation():
    p = builtin("linear_meanfield")
    with pytest.raises(ValueError):
        reference_solve(p, -0.1)
    with pytest.raises(ValueError):
        reference_solve(p, 1.1)


@pytest.mark.parametrize("args", [(True,), ("1.0",)])
def test_reference_time_must_be_a_real_number(args):
    with pytest.raises(TypeError, match="t must"):
        reference_solve(builtin("sine_meanfield"), *args)


def test_a_priori_bound_on_reference_trajectories(monkeypatch):
    monkeypatch.setattr(baseline, "_RK4_STEP", 1e-3)
    for name in ("pure_noise", "const_drift", "linear_meanfield", "sine_meanfield"):
        p = builtin(name)
        cap = p.horizon * math.sqrt(p.f_xi_second_moment) * math.exp(p.lipschitz * p.horizon)
        for t in np.linspace(0.0, p.horizon, 21):
            x = reference_solve(p, float(t))
            assert np.linalg.norm(x - p.xi) <= cap + 1e-12
