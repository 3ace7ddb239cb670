"""Euler baseline exactness, stream accounting, and the RK4 reference."""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mlpicard import mlp
from mlpicard.analysis import rmse_experiment
from mlpicard.baseline import (
    BaselineParams,
    NoReferenceError,
    mc_euler,
    mc_euler_batch,
    reference_solve,
)
from mlpicard.mlp import CostLedger
from mlpicard.problems import ExpectationOdeProblem, builtin
from mlpicard.rng import StreamBundle, root
from oracle import PROBLEM_NAMES, euler_scalar, named_problem

X_INF = 1.0 - math.exp(-1.0)
SEED = 12345


def test_params_validation():
    with pytest.raises(ValueError):
        BaselineParams(0, 1)
    with pytest.raises(ValueError):
        BaselineParams(1, 0)
    assert BaselineParams(np.int64(3), np.int32(2)) == BaselineParams(3, 2)


@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0), "3"])
def test_params_must_be_integers(bad):
    with pytest.raises(TypeError, match="must be an integer"):
        BaselineParams(bad, 3)
    with pytest.raises(TypeError, match="must be an integer"):
        BaselineParams(3, bad)


def test_const_drift_euler_is_exact():
    out = mc_euler(builtin("const_drift"), BaselineParams(4, 1), root(0))
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
        assert mc_euler(p, BaselineParams(K, M), root(2))[0] == 0.0


def test_ledger_counts_k_times_m():
    ledger = CostLedger()
    mc_euler(builtin("pure_noise"), BaselineParams(5, 3), root(1), ledger)
    assert ledger.z_draws == 15
    assert ledger.f_evals == 15
    assert ledger.uniform_draws == 0


def test_batch_matches_scalar():
    p = builtin("linear_meanfield")
    params = BaselineParams(6, 3)
    scal = euler_scalar(p, params, root(3).spawn(5))
    batch = mc_euler_batch(p, params, StreamBundle.root_children(3, [5]))
    assert np.array_equal(scal, batch[0])


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("K,M", [(6, 3), (3, 100), (1, 4100)])
def test_scalar_entry_matches_oracle(name, K, M):
    # (1, 4100) puts more than one 4096-draw chunk in a node average.
    p = named_problem(name)
    ledger, want_ledger = CostLedger(), CostLedger()
    got = mc_euler(p, BaselineParams(K, M), root(9).spawn(2), ledger)
    want = euler_scalar(p, BaselineParams(K, M), root(9).spawn(2), want_ledger)
    assert np.array_equal(got, want)
    assert ledger == want_ledger


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_one_lane_matches_lane_in_batch(name):
    # M = 100 draws per node: a single column would be summed pairwise by
    # numpy; the engine must keep ascending order at every lane count.  At
    # 40 lanes a node's chunk spans several sub-blocks (M = 4100 and 5000),
    # and M > 4096 crosses a chunk boundary too.  Up to one chunk a
    # lane also matches the oracle.
    p = named_problem(name)
    lanes = np.arange(1, 41)
    for K, M in [(3, 100), (2, 300), (1, 4100), (1, 5000)]:
        params = BaselineParams(K, M)
        wide = mc_euler_batch(p, params, StreamBundle.root_children(SEED, lanes))
        for i, j in enumerate(lanes):
            one = mc_euler_batch(p, params, StreamBundle.root_children(SEED, [j]))
            assert np.array_equal(one[0], wide[i])
            if M <= 4096:
                assert np.array_equal(one[0], euler_scalar(p, params, root(SEED).spawn(j)))


@pytest.mark.parametrize("budget", [1, 7, 64])
@pytest.mark.parametrize("name", ["linear_meanfield", "planar_rotation"])
def test_draw_budget_never_changes_bits(monkeypatch, name, budget):
    # Budgets of a few elements split every node's draws into many
    # sub-blocks (at 1 lane and at 5, in 1-D and 2-D); any budget must give
    # the oracle's bits.
    monkeypatch.setattr(mlp, "_DRAW_BLOCK", budget)
    p = named_problem(name)
    params = BaselineParams(2, 300)
    lanes = np.arange(1, 6)
    wide = mc_euler_batch(p, params, StreamBundle.root_children(SEED, lanes))
    for i, j in enumerate(lanes):
        one = mc_euler_batch(p, params, StreamBundle.root_children(SEED, [j]))
        want = euler_scalar(p, params, root(SEED).spawn(int(j)))
        for got in (one[0], wide[i]):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_worker_thread_gives_the_same_bits(name):
    # A pool worker draws on its own scratch; at 40 lanes a 4096-draw chunk
    # spans several sub-blocks and M = 5000 crosses a chunk boundary.
    p = named_problem(name)

    def run():
        return mc_euler_batch(p, BaselineParams(2, 5000), StreamBundle.root_children(SEED, np.arange(1, 41)))

    with ThreadPoolExecutor(max_workers=1) as pool:
        assert np.array_equal(pool.submit(run).result(timeout=60), run())


def test_batch_requires_batch_hooks():
    p = builtin("pure_noise")
    bare = ExpectationOdeProblem(
        name="euler_nobatch",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=p.sample_z,
        drift=p.drift,
        f_xi_second_moment=1.0,
    )
    with pytest.raises(ValueError, match="batch"):
        mc_euler_batch(bare, BaselineParams(2, 2), StreamBundle.root_children(1, [1]))


def test_batch_ledger_scales_with_lanes():
    ledger = CostLedger()
    mc_euler_batch(
        builtin("pure_noise"),
        BaselineParams(4, 2),
        StreamBundle.root_children(1, [1, 2, 3]),
        ledger,
    )
    assert ledger.z_draws == 4 * 2 * 3


def test_large_run_converges_to_closed_form():
    # One realization with a 1e4-step grid and 1e4 draws per node lands well
    # within 2e-2 of X(1); here the discretisation bias is ~5e-5 and the
    # noise is ~7e-5, so the tolerance has orders of magnitude of slack.
    p = builtin("linear_meanfield")
    v = mc_euler_batch(p, BaselineParams(10**4, 10**4), StreamBundle.root_children(1, [1]))
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
    assert abs(reference_solve(rk_only, 1.0, 1e-4)[0] - X_INF) <= 1e-10
    assert np.array_equal(reference_solve(rk_only, 0.0, 1e-4), np.zeros(1))


def test_reference_rk4_order_at_least_three():
    # Halving the step must cut the error by at least 8x (observed ~16x).
    rk_only = dataclasses.replace(builtin("linear_meanfield"), closed_form=None)
    e1 = abs(reference_solve(rk_only, 1.0, 0.1)[0] - X_INF)
    e2 = abs(reference_solve(rk_only, 1.0, 0.05)[0] - X_INF)
    assert e1 / e2 >= 8.0


def test_reference_partial_final_step_lands_on_t():
    rk_only = dataclasses.replace(builtin("linear_meanfield"), closed_form=None)
    # 0.55 is not a multiple of the step; the final shortened step must land
    # exactly on t rather than overshooting.
    got = reference_solve(rk_only, 0.55, 1e-3)[0]
    assert abs(got - (1.0 - math.exp(-0.55))) <= 1e-10


def test_reference_self_consistency_on_sine():
    p = builtin("sine_meanfield")
    a = reference_solve(p, 1.0, 1e-3)
    b = reference_solve(p, 1.0, 1e-4)
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


def test_reference_time_validation():
    p = builtin("linear_meanfield")
    with pytest.raises(ValueError):
        reference_solve(p, -0.1)
    with pytest.raises(ValueError):
        reference_solve(p, 1.1)
    # the step is checked first, on the closed-form path and the RK4 path
    for name in ("linear_meanfield", "sine_meanfield"):
        for step in (math.nan, math.inf, 0.0, -1e-4):
            with pytest.raises(ValueError, match="step"):
                reference_solve(builtin(name), 1.0, step)


def test_a_priori_bound_on_reference_trajectories():
    for name in ("pure_noise", "const_drift", "linear_meanfield", "sine_meanfield"):
        p = builtin(name)
        cap = p.horizon * math.sqrt(p.f_xi_second_moment) * math.exp(p.lipschitz * p.horizon)
        for t in np.linspace(0.0, p.horizon, 21):
            x = reference_solve(p, float(t), 1e-3)
            assert np.linalg.norm(x - p.xi) <= cap + 1e-12
