"""Bound evaluators, schedules, the RMSE harness, and the complexity fit."""

import dataclasses
import hashlib
import json
import math
import os
import stat

import numpy as np
import pytest

from mlpicard import analysis
from mlpicard.analysis import (
    BoundInputs,
    CSV_HEADER,
    InsufficientDataError,
    RmseReport,
    RmseRow,
    complexity_fit,
    error_bound,
    fit_power_law,
    n_epsilon,
    rmse_experiment,
    tail_bound_max,
)
from mlpicard.baseline import NoReferenceError
from mlpicard.cli import ExperimentConfig
from mlpicard.mlp import CostLedger, rv_exact
from mlpicard.problems import ExpectationOdeProblem, builtin

SEED = 12345
UNIT = BoundInputs(horizon=1.0, lipschitz=0.0, f_xi_second_moment=1.0)


def test_bound_inputs_from_problem():
    b = BoundInputs.from_problem(builtin("linear_meanfield"))
    assert (b.horizon, b.lipschitz, b.f_xi_second_moment) == (1.0, 1.0, 2.0)
    assert b.big_c == pytest.approx(math.sqrt(2.0) * math.e, rel=1e-15)
    with pytest.raises(ValueError):
        BoundInputs(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BoundInputs(1.0, math.inf, 1.0)


@pytest.mark.parametrize("name", ["horizon", "lipschitz", "f_xi_second_moment"])
def test_bound_constants_must_be_real_numbers(name):
    constants = {"horizon": 1.0, "lipschitz": 0.0, "f_xi_second_moment": 1.0, name: True}
    with pytest.raises(TypeError, match=name):
        BoundInputs(**constants)
    with pytest.raises(TypeError, match=name):
        dataclasses.replace(builtin("pure_noise"), **{name: True})


def test_error_bound_values():
    assert error_bound(UNIT, 1, 1) == pytest.approx(math.exp(0.5), rel=1e-14)
    # n = 0: the estimator is the constant xi, bound T sqrt(M2) e^{LT} e^{m/2}.
    assert error_bound(UNIT, 0, 1) == pytest.approx(math.exp(0.5), rel=1e-14)
    assert error_bound(UNIT, 0, 4) == pytest.approx(math.exp(2.0), rel=1e-14)
    zero_t = BoundInputs(0.0, 3.0, 5.0)
    for n in range(4):
        for m in range(1, 4):
            assert error_bound(zero_t, n, m) == 0.0


def test_error_bound_monotonicity_ratio():
    # For fixed m the bound scales by exactly (1+2LT)/sqrt(m) per level.
    inputs = BoundInputs(1.0, 1.0, 2.0)
    for m in (25, 36, 100):
        expected = 3.0 / math.sqrt(m)
        for n in range(0, 8):
            ratio = error_bound(inputs, n + 1, m) / error_bound(inputs, n, m)
            assert ratio == pytest.approx(expected, rel=1e-12)


def test_error_bound_overflows_to_inf():
    big = BoundInputs(50.0, 50.0, 4.0)
    assert error_bound(big, 10**6, 1) == math.inf


@pytest.mark.parametrize(
    "lipschitz",
    [
        1e160,  # (1 + 2LT)^2 passes the largest float
        1e153,  # the peak k ~ 4e306 is a float, but k log(1+2LT) and k log(k) / 2 are not
    ],
)
def test_tail_bound_overflows_to_inf(lipschitz):
    # The bound at the peak is C e^{(1+2LT)^2 / 2}, and C > 0 here.
    assert tail_bound_max(BoundInputs(1.0, lipschitz, 1.0), 1) == math.inf
    assert tail_bound_max(BoundInputs(1.0, lipschitz, 0.0), 1) == 0.0  # C = 0


@pytest.mark.parametrize(
    "n,m,want",
    [
        (10**400, 10**400, 0.0),  # (3/sqrt(m))^n e^{m/2}: the n terms win
        (1, 10**400, math.inf),  # e^{m/2}
        (10**400, 1, math.inf),  # 3^n
        (10**400, 10**300, 0.0),
    ],
    ids=["1e400-1e400", "1-1e400", "1e400-1", "1e400-1e300"],
)
def test_error_bound_at_indices_past_the_largest_float(n, m, want):
    assert error_bound(BoundInputs(1.0, 1.0, 1.0), n, m) == want


def test_error_bound_at_a_huge_level_where_the_n_terms_cancel():
    # L = 0 and m = 1: (1 + 2LT)^n / m^(n/2) = 1 at every n.
    inputs = BoundInputs(1.0, 0.0, 1.0)
    assert error_bound(inputs, 10**400, 1) == error_bound(inputs, 1, 1) == math.exp(0.5)


def test_tail_bound_at_an_index_past_the_largest_float():
    assert tail_bound_max(BoundInputs(1.0, 1.0, 1.0), 10**400) == 0.0


def test_error_bound_difference_of_overflowing_logs():
    # At n = m = 1e308 > (1 + 2e153)^2 e both log terms overflow, but the
    # bound, C e^{n/2} ((1+2LT) / sqrt(n))^n, underflows to 0.
    assert error_bound(BoundInputs(1.0, 1e153, 1.0), 10**308, 10**308) == 0.0


def test_big_c_overflows_to_inf():
    assert BoundInputs(1.0, 800.0, 1.0).big_c == math.inf
    assert BoundInputs(1.0, 800.0, 0.0).big_c == 0.0  # T sqrt(M2) = 0
    for inputs in (UNIT, BoundInputs(2.0, 3.0, 5.0), BoundInputs(0.5, 700.0, 1e-3)):
        want = inputs.horizon * math.sqrt(inputs.f_xi_second_moment) * math.exp(inputs.lipschitz * inputs.horizon)
        assert inputs.big_c == want


def test_error_bound_validation():
    with pytest.raises(ValueError):
        error_bound(UNIT, -1, 1)
    with pytest.raises(ValueError):
        error_bound(UNIT, 1, 0)
    with pytest.raises(ValueError):
        tail_bound_max(UNIT, 0)
    for n in (True, 1.5, np.float64(2.0)):
        with pytest.raises(TypeError):
            tail_bound_max(UNIT, n)


def test_tail_bound_is_exact_supremum():
    # Brute-force comparison over a long scan window, which holds the peak
    # at (1 + 2L)^2 = 9 or 121.
    for lipschitz in (1.0, 5.0):
        inputs = BoundInputs(1.0, lipschitz, 2.0)
        c, a = inputs.big_c, 1.0 + 2.0 * lipschitz
        for n in (1, 5, 9, 20, 40, 121, 130):
            brute = max(
                c * math.exp(0.5 * m + m * math.log(a) - 0.5 * m * math.log(m))
                for m in range(n, n + 400)
            )
            assert tail_bound_max(inputs, n) == pytest.approx(brute, rel=1e-12)


def test_n_epsilon_small_constant():
    # C = 0.1, L = 0: the m = 1 term is 0.1 e^{0.5} ~ 0.165 <= 0.5 and the
    # tail only decreases, so one level suffices.
    inputs = BoundInputs(1.0, 0.0, 0.01)
    sched = n_epsilon(inputs, 0.5)
    assert sched.n_epsilon == 1
    assert sched.tail_bound == pytest.approx(0.1 * math.exp(0.5), rel=1e-12)
    assert sched.total_cost == rv_exact(1, 1) == 1


def test_n_epsilon_zero_constant():
    sched = n_epsilon(BoundInputs(1.0, 0.0, 0.0), 1.0)
    assert sched.n_epsilon == 1
    assert sched.tail_bound == 0.0


def test_n_epsilon_monotone_and_consistent():
    inputs = BoundInputs.from_problem(builtin("linear_meanfield"))
    expected_n = {1: 29, 2: 30, 3: 31, 4: 32, 5: 33, 6: 34}
    prev = 0
    for k in range(1, 7):
        eps = 2.0**-k
        sched = n_epsilon(inputs, eps)
        assert sched.n_epsilon == expected_n[k]
        assert sched.tail_bound <= eps
        # the diagonal bound at N is dominated by the tail supremum
        assert error_bound(inputs, sched.n_epsilon, sched.n_epsilon) <= eps
        assert sched.n_epsilon >= prev
        prev = sched.n_epsilon
    assert n_epsilon(inputs, 0.01).n_epsilon >= n_epsilon(inputs, 0.1).n_epsilon


def test_n_epsilon_total_cost_and_offset():
    inputs = BoundInputs(1.0, 0.0, 1.0)  # pure-noise constants, C = 1
    sched = n_epsilon(inputs, 0.5)
    assert sched.n_epsilon == 4
    assert sched.total_cost == sum(rv_exact(j, j) for j in range(1, 5))
    shifted = n_epsilon(inputs, 0.5, mathfrak_n=2)
    assert shifted.n_epsilon == 4
    assert shifted.total_cost == sum(rv_exact(j, j) for j in range(1, 7))


def test_n_epsilon_at_a_large_lipschitz_constant():
    # L T = 5 puts the tail's peak at m = 121 and n_eps in the hundreds.
    assert n_epsilon(BoundInputs(1.0, 5.0, 1.0), 0.5).n_epsilon == 341


# SHA-256 of str(total_cost), a 4,133-digit sum of 1,220 rv_exact(j, j), as
# the forward pass over the levels with a running tail sum computed it.
TOTAL_COST_SHA256_AT_L10 = "bbe33d395c55d571ac911c42eb9bef5edb73a9c773ac8d39a1deed1c4f75c02e"


def test_n_epsilon_total_cost_is_pinned_at_a_deep_schedule():
    sched = n_epsilon(BoundInputs(1.0, 10.0, 1.0), 0.5)
    assert sched.n_epsilon == 1220
    assert hashlib.sha256(str(sched.total_cost).encode()).hexdigest() == TOTAL_COST_SHA256_AT_L10


def test_n_epsilon_validation():
    with pytest.raises(ValueError):
        n_epsilon(UNIT, 0.0)
    with pytest.raises(ValueError):
        n_epsilon(UNIT, 1.5)
    with pytest.raises(ValueError):
        n_epsilon(UNIT, 0.5, mathfrak_n=-1)
    for epsilon in (True, "0.5", None):
        with pytest.raises(TypeError):
            n_epsilon(UNIT, epsilon)
    for mathfrak_n in (True, 1.5):
        with pytest.raises(TypeError):
            n_epsilon(UNIT, 0.5, mathfrak_n)
    with pytest.raises(ValueError):
        n_epsilon(UNIT, math.nan)
    assert n_epsilon(UNIT, 1).epsilon == n_epsilon(UNIT, np.float64(1.0)).epsilon == 1.0


def test_fit_power_law_exact():
    rmses = [0.5, 0.25, 0.125, 0.0625]
    slope, _ = fit_power_law([r**-2 for r in rmses], rmses)
    assert abs(slope - 2.0) <= 1e-12
    slope, _ = fit_power_law([r**-3 for r in rmses], rmses)
    assert abs(slope - 3.0) <= 1e-9


def test_fit_power_law_validation():
    with pytest.raises(InsufficientDataError):
        fit_power_law([1.0, 2.0], [0.5, 0.25])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [0.5, 0.25])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 0.0], [0.5, 0.25, 0.125])


@pytest.mark.parametrize(
    "costs,rmses",
    [
        ([1, 2, 3], [0.0, 1.0, 2.0]),
        ([1, -2, 3], [0.1, 0.2, 0.3]),
        ([1, 2, 3], [0.1, math.nan, 0.3]),
        ([1, 2, math.inf], [0.1, 0.2, 0.3]),
    ],
)
def test_fit_power_law_checks_every_input_before_any_log(costs, rmses):
    with pytest.raises(ValueError, match="positive and finite"):
        fit_power_law(costs, rmses)


def _synthetic_report(rmses, costs, valid=None):
    rep = RmseReport("synthetic", "mlp", 0, 1.0)
    for i, (r, c) in enumerate(zip(rmses, costs)):
        rep.rows.append(
            RmseRow(
                scheme="mlp",
                n=i + 1,
                m=i + 1,
                replications=10,
                rmse=r,
                bound=None,
                rv=c,
                rv_bound=None,
                cum_z_draws=c,
                wall_ms=0.0,
                valid=True if valid is None else valid[i],
            )
        )
    return rep


def test_complexity_fit_on_synthetic_rows():
    rmses = [0.5, 0.25, 0.125, 0.0625]
    slope, _ = complexity_fit(_synthetic_report(rmses, [r**-2 for r in rmses]))
    assert abs(slope - 2.0) <= 1e-12


def test_complexity_fit_skips_invalid_rows():
    rmses = [0.5, 0.25, math.nan, 0.125, 0.0625]
    costs = [4.0, 16.0, 1.0, 64.0, 256.0]
    rep = _synthetic_report(rmses, costs, valid=[True, True, False, True, True])
    slope, _ = complexity_fit(rep)
    assert abs(slope - 2.0) <= 1e-12
    with pytest.raises(InsufficientDataError, match="insufficient data"):
        complexity_fit(_synthetic_report([0.5, 0.25], [4.0, 16.0]))


def test_rmse_experiment_pure_noise_matches_exact_variance():
    # The estimator is exactly Gaussian with variance t^2/m^n here, so the
    # mean squared error over R draws sits in a 5-sigma chi-square band.
    reps = 10**4
    rep = rmse_experiment(builtin("pure_noise"), "mlp", [(1, 4)], reps, SEED)
    msq = rep.rows[0].rmse ** 2
    target = 0.25
    assert abs(msq - target) <= 5.0 * target * math.sqrt(2.0 / reps)


def test_rmse_experiment_const_drift_is_exact():
    rep = rmse_experiment(builtin("const_drift"), "mlp", [(1, 1), (2, 2)], 2, SEED)
    for row in rep.rows:
        assert row.rmse == 0.0
        assert row.valid


def test_rmse_experiment_is_bound_dominated():
    rep = rmse_experiment(builtin("linear_meanfield"), "mlp", [(3, 3)], 1000, SEED)
    row = rep.rows[0]
    assert row.rmse <= row.bound * 1.1
    assert row.rv == rv_exact(3, 3)
    assert row.cum_z_draws == rv_exact(3, 3)


def test_rmse_experiment_validation():
    p = builtin("linear_meanfield")
    with pytest.raises(ValueError):
        rmse_experiment(p, "bogus", [(1, 1)], 10, SEED)
    with pytest.raises(ValueError):
        rmse_experiment(p, "mlp", [(1, 1)], 1, SEED)
    with pytest.raises(ValueError):
        rmse_experiment(p, "mlp", [], 10, SEED)
    no_ref = ExpectationOdeProblem(
        name="no_ref2",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=lambda s: 0.0,
        drift=lambda x, z: np.zeros(1),
        f_xi_second_moment=0.0,
    )
    with pytest.raises(NoReferenceError):
        rmse_experiment(no_ref, "mlp", [(1, 1)], 10, SEED)


def test_rmse_experiment_flags_nan_rows():
    bad = ExpectationOdeProblem(
        name="nan_drift",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=lambda s: s.next_uniform(),
        drift=lambda x, z: np.array([math.nan]),
        f_xi_second_moment=0.0,
        exact_mean_drift=lambda x: np.zeros(1),
    )
    rep = rmse_experiment(bad, "mlp", [(1, 2), (0, 2)], 5, SEED)
    assert len(rep.rows) == 2  # flagged, not dropped
    assert not rep.rows[0].valid and math.isnan(rep.rows[0].rmse)
    assert rep.rows[1].valid and rep.rows[1].rmse == 0.0  # level 0 never draws


def test_rmse_experiment_scalar_fallback_matches_batch():
    p = builtin("linear_meanfield")
    bare = ExpectationOdeProblem(
        name="linear_scalar_only",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=1.0,
        sample_z=p.sample_z,
        drift=p.drift,
        f_xi_second_moment=2.0,
        exact_mean_drift=p.exact_mean_drift,
        closed_form=p.closed_form,
    )
    fast = rmse_experiment(p, "mlp", [(3, 2)], 50, SEED)
    slow = rmse_experiment(bare, "mlp", [(3, 2)], 50, SEED)
    assert fast.rows[0].rmse == slow.rows[0].rmse


def test_rmse_experiment_thread_count_does_not_change_results():
    p = builtin("linear_meanfield")
    one = rmse_experiment(p, "mlp", [(2, 2), (3, 3)], 200, SEED, threads=1)
    many = rmse_experiment(p, "mlp", [(2, 2), (3, 3)], 200, SEED, threads=8)
    assert [r.rmse for r in one.rows] == [r.rmse for r in many.rows]
    assert one.csv_text() == many.csv_text()


@pytest.mark.parametrize("scheme,engine", [("mlp", "mlp_estimate_batch"), ("mc_euler", "mc_euler_batch")])
def test_the_thread_pool_has_no_more_workers_than_cpus(monkeypatch, scheme, engine):
    # Eight lane chunks on two CPUs: two workers run the eight engine calls,
    # and the chunks, so the bytes, are those of eight threads.
    calls, pools = [], []
    batch, pool_class = getattr(analysis, engine), analysis.ThreadPoolExecutor

    def counted(*args):
        calls.append(args[-2].shape[0])
        return batch(*args)

    def recorded(max_workers):
        pools.append(max_workers)
        return pool_class(max_workers=max_workers)

    p = builtin("linear_meanfield")
    one = rmse_experiment(p, scheme, [(2, 3)], 8, SEED, threads=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(analysis, engine, counted)
    monkeypatch.setattr(analysis, "ThreadPoolExecutor", recorded)
    eight = rmse_experiment(p, scheme, [(2, 3)], 8, SEED, threads=8)
    assert pools == [2]
    assert calls == [1] * 8
    assert eight.csv_text() == one.csv_text()


@pytest.mark.parametrize("scheme,point", [("mlp", (2, 5)), ("mlp", (3, 3)), ("mc_euler", (3, 100))])
def test_two_replications_give_the_same_bytes_on_one_and_two_threads(scheme, point):
    # With R = 2 and two threads every chunk holds one lane; its sums must
    # round exactly as they do inside the 2-lane batch.
    p = builtin("linear_meanfield")
    one = rmse_experiment(p, scheme, [point], 2, SEED, threads=1)
    two = rmse_experiment(p, scheme, [point], 2, SEED, threads=2)
    assert one.csv_text() == two.csv_text()


def _refusing_problem():
    def refuse(*args):
        raise AssertionError("computed a row before the grid was checked")

    return ExpectationOdeProblem(
        name="refusing",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=refuse,
        drift=refuse,
        f_xi_second_moment=0.0,
        closed_form=refuse,
    )


@pytest.mark.parametrize("scheme,grid", [("mlp", [(2, 2), (2.5, 2)]), ("mc_euler", [(2, 2), (True, 2)])])
def test_rmse_experiment_checks_the_whole_grid_first(scheme, grid):
    with pytest.raises(TypeError, match="must be an integer"):
        rmse_experiment(_refusing_problem(), scheme, grid, 2, SEED)


@pytest.mark.parametrize(
    "bad,error",
    [
        ({"replications": 2.5}, TypeError),
        ({"replications": True}, TypeError),
        ({"replications": 1}, ValueError),
        ({"threads": 2.5}, TypeError),
        ({"threads": 0}, ValueError),
        ({"seed": 1.5}, TypeError),
        ({"seed": -1}, ValueError),
        ({"seed": 2**64}, ValueError),
        ({"seed": True}, TypeError),
        ({"eval_time": 0.5}, TypeError),
        ({"reference_step": 1e-3}, TypeError),
    ],
)
@pytest.mark.parametrize("scheme", ["mlp", "mc_euler"])
def test_rmse_experiment_checks_its_arguments_before_computing(scheme, bad, error):
    # RMSE is measured at the horizon with the default reference step, so
    # neither takes a keyword.
    args = {"replications": 2, "seed": SEED, "threads": 1} | bad
    with pytest.raises(error):
        rmse_experiment(_refusing_problem(), scheme, [(2, 2)], args.pop("replications"), args.pop("seed"), **args)


# SHA-256 of the CSV bytes as the one-call-per-chunk draw kernel wrote them,
# before sub-blocks.  At 40 lanes each 4096-draw Euler chunk spans several
# sub-blocks.
CSV_SHA256 = {
    ("mc_euler", ((3, 5000),)): "f9b47d70bb27acd19c978dc03bc898c71e6959db8764b15fcf75a2b806cbc951",
    ("mlp", ((2, 30), (3, 3))): "4fe23ee5cf298295574e9acdb93426a361eb7be94276dffbe3c52904af62a9f9",
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scheme,grid", list(CSV_SHA256))
def test_csv_bytes_are_pinned(scheme, grid, threads):
    rep = rmse_experiment(builtin("linear_meanfield"), scheme, list(grid), 40, SEED, threads=threads)
    digest = hashlib.sha256(rep.csv_text().encode()).hexdigest()
    assert digest == CSV_SHA256[scheme, grid]


# SHA-256 of the CSV bytes before MLP levels were drawn in node blocks.  At
# 1000 lanes the main thread draws 8 nodes per block, so the width-36 level
# of (3, 6) splits into 5 blocks; a worker's 500 lanes take it in one.  The
# CSV holds only the RMSE, which a last-bit change in some lanes need not
# move; test_mlp pins the estimates themselves.
NODE_BLOCK_CSV_SHA256 = "a492eddeae888f27aed8da779373584a28735178e137ab6dcffab881baec6afe"


@pytest.mark.parametrize("threads", [1, 2])
def test_node_blocked_csv_bytes_are_pinned(threads):
    rep = rmse_experiment(builtin("linear_meanfield"), "mlp", [(3, 6), (4, 3)], 1000, SEED, threads=threads)
    assert hashlib.sha256(rep.csv_text().encode()).hexdigest() == NODE_BLOCK_CSV_SHA256


# SHA-256 of the CSV bytes of sine_meanfield without batch hooks, as the
# per-draw stream engine wrote them before problems without batch hooks ran
# as 1-lane bundles.  Each replication is one call that adds its fresh draws
# one at a time, beyond one 512-draw MLP chunk and one 4096-draw Euler chunk.
SCALAR_ONLY_CSV_SHA256 = {
    ("mlp", (2, 30)): "d88869e4d62149abab14dc3685a99978ca4975aa080b0d3231abfceeaba3a821",
    ("mc_euler", (2, 5000)): "3a6f5fa297056ed72d02012920a94ff4001b2dbd48c8cbf548bc453a26490d7e",
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scheme,point", list(SCALAR_ONLY_CSV_SHA256))
def test_scalar_only_csv_bytes_are_pinned(scheme, point, threads):
    sine = builtin("sine_meanfield")
    bare = dataclasses.replace(sine, name="sine_scalar_only", sample_z_batch=None, drift_batch=None)
    rep = rmse_experiment(bare, scheme, [point], 3, SEED, threads=threads)
    assert hashlib.sha256(rep.csv_text().encode()).hexdigest() == SCALAR_ONLY_CSV_SHA256[scheme, point]


@pytest.mark.parametrize("threads,widths", [(1, [7]), (2, [3, 4])])
@pytest.mark.parametrize("scheme,engine", [("mlp", "mlp_estimate_batch"), ("mc_euler", "mc_euler_batch")])
def test_problems_without_batch_hooks_run_one_engine_call_per_lane_chunk(monkeypatch, scheme, engine, threads, widths):
    calls = []
    batch = getattr(analysis, engine)

    def counted(*args):
        calls.append(args[-2].shape[0])  # the bundle of the lane chunk
        return batch(*args)

    monkeypatch.setattr(analysis, engine, counted)
    bare = dataclasses.replace(builtin("sine_meanfield"), name="sine_scalar_only", sample_z_batch=None, drift_batch=None)
    rmse_experiment(bare, scheme, [(2, 3)], 7, SEED, threads=threads)
    assert sorted(calls) == widths


@pytest.mark.parametrize("scheme,engine", [("mlp", "mlp_estimate_batch"), ("mc_euler", "mc_euler_batch")])
def test_short_ledger_violates_the_cost_law(monkeypatch, scheme, engine):
    # An engine that records its draws in another ledger than the one it is
    # handed breaks the exact cost law, for either scheme.
    batch = getattr(analysis, engine)
    monkeypatch.setattr(analysis, engine, lambda *args: batch(*args[:-1], CostLedger()))
    with pytest.raises(RuntimeError, match="cost accounting violated"):
        rmse_experiment(builtin("linear_meanfield"), scheme, [(2, 3)], 4, SEED)


def test_mc_euler_rows_carry_grid_and_cost():
    rep = rmse_experiment(builtin("linear_meanfield"), "mc_euler", [(5, 4), (10, 8)], 20, SEED)
    assert (rep.rows[0].n, rep.rows[0].m) == (5, 4)
    assert rep.rows[0].rv == 20 and rep.rows[1].rv == 80
    assert rep.rows[1].cum_z_draws == 100
    assert rep.rows[0].bound is None and rep.rows[0].rv_bound is None


def test_report_serialization(tmp_path):
    rep = rmse_experiment(builtin("const_drift"), "mlp", [(1, 1)], 2, SEED)
    rep.config = {"problem": "const_drift"}

    csv_path = tmp_path / "out.csv"
    rep.write(str(csv_path), "csv")
    text = csv_path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert text.splitlines()[1] == f"mlp,1,1,2,0.0,{error_bound(UNIT, 1, 1)!r},1,3,,{SEED}"

    json_path = tmp_path / "out.json"
    rep.write(str(json_path), "json")
    doc = json.loads(json_path.read_text())
    assert doc["seed"] == SEED
    assert doc["config"] == {"problem": "const_drift"}
    assert doc["rows"][0]["rmse"] == 0.0
    assert doc["rows"][0]["wall_ms"] is None
    assert doc["rng"]["gaussian"] == "box-muller-cosine"

    # rewriting produces identical bytes, and no temp files are left behind
    before = csv_path.read_bytes()
    rep.write(str(csv_path), "csv")
    assert csv_path.read_bytes() == before
    assert [f for f in os.listdir(tmp_path) if f.endswith(".part")] == []

    with pytest.raises(ValueError):
        rep.write(str(tmp_path / "x"), "xml")


def test_numpy_scalar_cells_serialize_as_python_numbers():
    rep = rmse_experiment(builtin("linear_meanfield"), "mlp", [(1, 2), (2, 2)], 3, SEED)
    rep.config = {"problem": "linear_meanfield", "seed": SEED}
    rep.rows.append(dataclasses.replace(rep.rows[-1], rmse=0.25, bound=None, rv_bound=None))
    cast = {"n": np.int64, "m": np.int64, "replications": np.int64, "rmse": np.float64, "bound": np.float64,
            "rv": np.int64, "rv_bound": np.int64, "cum_z_draws": np.int64, "valid": np.bool_}
    numpy_rows = [
        dataclasses.replace(r, **{k: f(getattr(r, k)) for k, f in cast.items() if getattr(r, k) is not None})
        for r in rep.rows
    ]
    numpy_rep = dataclasses.replace(rep, rows=numpy_rows, seed=np.int64(SEED))
    assert numpy_rep.csv_text() == rep.csv_text()
    assert numpy_rep.json_text() == rep.json_text()
    with pytest.raises(TypeError, match="not JSON serializable"):
        dataclasses.replace(rep, config={"x": object()}).json_text()


# SHA-256 of the JSON bytes with the config block as `run` fills it, as
# written before every CSV and JSON cell went through one rule.
JSON_SHA256 = {
    ("mlp", ((2, 3), (3, 2))): "67e9290db22120b8a9d174a4796acb3e07c27ec32c1b503d6d2ec5c9cd138140",
    ("mc_euler", ((3, 5), (6, 10))): "d7caa088e729d00a60d7640853f97fb681c10108804fa27ff1e5e63854ce50f2",
}


@pytest.mark.parametrize("scheme,grid", list(JSON_SHA256))
def test_json_bytes_are_pinned(scheme, grid):
    raw = {"problem": "linear_meanfield", "seed": SEED, "scheme": scheme, "grid": [list(p) for p in grid],
           "replications": 4, "output_path": "out.json", "format": "json"}
    rep = rmse_experiment(builtin("linear_meanfield"), scheme, list(grid), 4, SEED)
    rep.config = ExperimentConfig.from_dict(raw).to_dict()
    assert hashlib.sha256(rep.json_text().encode()).hexdigest() == JSON_SHA256[scheme, grid]


def test_artifacts_get_the_mode_of_a_plain_create(tmp_path):
    rep = rmse_experiment(builtin("const_drift"), "mlp", [(1, 1)], 2, SEED)
    rep.write(str(tmp_path / "out.csv"), "csv")
    with open(tmp_path / "plain.csv", "w") as fh:
        fh.write(rep.csv_text())
    mode = lambda name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
    assert mode("out.csv") == mode("plain.csv")
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "plain.csv"]


def test_json_is_standard_json_when_a_bound_overflows():
    # error_bound overflows to inf for m beyond about 1420; JSON has no
    # Infinity token, so the bound is written as null.  CSV keeps "inf".
    rep = rmse_experiment(builtin("linear_meanfield"), "mlp", [(1, 2000)], 2, 1)
    assert rep.rows[0].bound == math.inf

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(rep.json_text(), parse_constant=refuse)
    assert doc["rows"][0]["bound"] is None
    assert rep.csv_text().splitlines()[1].split(",")[5] == "inf"


def test_wall_time_is_measured_but_not_serialized():
    rep = rmse_experiment(builtin("const_drift"), "mlp", [(1, 1)], 2, SEED)
    assert rep.rows[0].wall_ms >= 0.0
    assert ",,12345" in rep.csv_text().splitlines()[1]
