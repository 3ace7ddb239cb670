"""End-to-end acceptance checks.

One test per numbered criterion; each prints a PASS/FAIL line (run with
``pytest -s``).  All statistical checks run at fixed seed 12345 with
5-sigma bands derived from the exact sampling distributions.
"""

import json
import math
import time

import numpy as np
import pytest

from mlpicard.analysis import (
    BoundInputs,
    complexity_fit,
    error_bound,
    n_epsilon,
    rmse_experiment,
)
from mlpicard.cli import main
from mlpicard.mlp import CostLedger, mlp_estimate, mlp_estimate_batch, rv_bound, rv_exact
from mlpicard.problems import BUILTIN_NAMES, builtin
from mlpicard.rng import StreamBundle, root

SEED = 12345


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_exact_cost_law():
    # One estimator call records exactly rv_exact(n, m) Z draws for every
    # n <= 6, m <= 4, and rv_exact never exceeds (3m)^n.
    t0 = time.perf_counter()
    problem = builtin("const_drift")
    ok = True
    for n in range(0, 7):
        for m in range(1, 5):
            ledger = CostLedger()
            mlp_estimate(problem, n, m, 1.0, root(SEED).spawn(100 * n + m), ledger)
            ok &= ledger.z_draws == rv_exact(n, m)
            ok &= ledger.f_evals == ledger.z_draws + ledger.uniform_draws
            if n >= 1:
                ok &= rv_exact(n, m) <= rv_bound(n, m)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(1, ok, f"z_draws == rv_exact over n<=6, m<=4 in {elapsed:.1f}s")
    assert ok


def test_criterion_2_exact_variance_law():
    # For pure noise the estimator is exactly Gaussian with variance
    # t^2/m^n; the sample variance over R = 1e4 replications must sit in
    # the 5-sigma chi-square band 5 * sigma^2 * sqrt(2/(R-1)).
    t0 = time.perf_counter()
    problem = builtin("pure_noise")
    reps = 10**4
    ok = True
    details = []
    for n, m in ((1, 2), (2, 2), (2, 3)):
        bundle = StreamBundle.root_children(SEED, np.arange(1, reps + 1))
        est = mlp_estimate_batch(problem, n, m, 1.0, bundle, CostLedger())[:, 0]
        s2 = est.var(ddof=1)
        target = 1.0 / m**n
        band = 5.0 * target * math.sqrt(2.0 / (reps - 1))
        ok &= abs(s2 - target) <= band
        details.append(f"({n},{m}): |{s2:.4f}-{target:.4f}|<={band:.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(2, ok, "; ".join(details) + f" in {elapsed:.1f}s")
    assert ok


def test_criterion_3_bound_dominance():
    # Empirical RMSE against the closed form stays below the theoretical
    # bound with multiplicative slack 1 + 5/sqrt(R).
    t0 = time.perf_counter()
    problem = builtin("linear_meanfield")
    reps = 10**3
    report = rmse_experiment(problem, "mlp", [(n, n) for n in range(1, 6)], reps, SEED)
    slack = 1.0 + 5.0 / math.sqrt(reps)
    ok = all(r.valid and r.rmse <= r.bound * slack for r in report.rows)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    worst = max(r.rmse / r.bound for r in report.rows)
    _report(3, ok, f"max rmse/bound = {worst:.3g} (slack {slack:.3f}) in {elapsed:.1f}s")
    assert ok


@pytest.mark.slow
def test_criterion_4_complexity_slopes():
    # Cost exponents from the fitted power law cost ~ (1/rmse)^slope.
    t0 = time.perf_counter()
    problem = builtin("linear_meanfield")
    reps = 10**3

    mlp_report = rmse_experiment(problem, "mlp", [(n, n) for n in range(2, 7)], reps, SEED)
    mlp_slope, _ = complexity_fit(mlp_report)

    # Baseline schedule couples M = K^2 (bias ~ 1/K needs K ~ 1/eps, noise
    # ~ 1/sqrt(KM) needs M ~ 1/eps^2), the coupling that exhibits the
    # cubic cost scaling of the plain scheme.
    euler_grid = [(K, K * K) for K in (10, 20, 40, 80)]
    euler_report = rmse_experiment(problem, "mc_euler", euler_grid, reps, SEED)
    euler_slope, _ = complexity_fit(euler_report)

    elapsed = time.perf_counter() - t0
    ok_mlp = mlp_slope <= 2.6
    ok_euler = euler_slope >= 2.5
    ok_time = elapsed < 600.0
    _report(
        4,
        ok_mlp and ok_euler and ok_time,
        f"mlp slope {mlp_slope:.3f} (<= 2.6: {'yes' if ok_mlp else 'NO'}), "
        f"mc_euler slope {euler_slope:.3f} (>= 2.5: {'yes' if ok_euler else 'NO'}) "
        f"in {elapsed:.0f}s",
    )
    assert ok_euler, f"baseline slope {euler_slope:.3f} below 2.5"
    assert ok_time, f"runtime {elapsed:.0f}s over budget"
    # Known-red assertion.  The 2.6 threshold is not reachable by this
    # estimator on this problem and range: the exact draw-count law of
    # criterion 1 forces the two sides of every coupled difference to use
    # independent inner recursions, so the difference variance at level l
    # carries the full variance of both inner estimators.  Per level that
    # variance is amplified by roughly (1 + 4 L^2 T^2) / m, which for this
    # problem (L = T = 1) is 5/m >= 5/6 over the whole grid n = m in
    # {2..6}; the measured RMSE therefore decays only ~2.3x per level
    # while the cost grows ~30x, giving a slope near 3.9.  (Verified
    # against the hand-computed exact variance Var = 3 t^2 / 8 at
    # n = m = 2, so this is the estimator's true behaviour, not an
    # implementation artifact.)  Sharing inner draws between the two sides
    # would reach the threshold but changes the draw-count recursion and
    # the estimator itself.  The assertion is kept as stated.
    assert ok_mlp, (
        f"mlp slope {mlp_slope:.3f} exceeds 2.6: independent inner recursions "
        "(required by the exact cost law) dominate the level-difference "
        "variance at L*T = 1 for every m <= 6"
    )


def test_criterion_5_schedule_correctness():
    # Finite N for every epsilon in {2^-1..2^-6} on the linear problem's
    # constants, tail bound <= epsilon, N nondecreasing as epsilon shrinks.
    t0 = time.perf_counter()
    inputs = BoundInputs.from_problem(builtin("linear_meanfield"))
    ok = True
    prev = 0
    ns = []
    for k in range(1, 7):
        eps = 2.0**-k
        sched = n_epsilon(inputs, eps)
        ok &= math.isfinite(sched.tail_bound) and sched.n_epsilon < 10**6
        ok &= sched.tail_bound <= eps
        ok &= sched.n_epsilon >= prev
        prev = sched.n_epsilon
        ns.append(sched.n_epsilon)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(5, ok, f"N over eps 2^-1..2^-6 = {ns} in {elapsed * 1e3:.0f}ms")
    assert ok


def test_criterion_6_unbiasedness():
    # Sample mean of the pure-noise estimator within 5 sigma / sqrt(R) of 0.
    t0 = time.perf_counter()
    problem = builtin("pure_noise")
    reps, m = 10**4, 2
    ok = True
    details = []
    for n in (1, 2, 3):
        bundle = StreamBundle.root_children(SEED, np.arange(1, reps + 1))
        est = mlp_estimate_batch(problem, n, m, 1.0, bundle, CostLedger())[:, 0]
        sigma = math.sqrt(1.0 / m**n)
        band = 5.0 * sigma / math.sqrt(reps)
        ok &= abs(est.mean()) <= band
        details.append(f"n={n}: |{est.mean():+.4f}|<={band:.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(6, ok, "; ".join(details) + f" in {elapsed:.1f}s")
    assert ok


def test_criterion_7_reproducibility(tmp_path):
    # Identical config -> byte-identical CSV, also across thread counts.
    t0 = time.perf_counter()
    out = tmp_path / "out.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "problem": "linear_meanfield",
                "scheme": "mlp",
                "grid": [[2, 2], [3, 2]],
                "replications": 200,
                "seed": SEED,
                "output_path": str(out),
                "format": "csv",
            }
        )
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    first = out.read_bytes()
    assert main(["run", "--config", str(cfg_path)]) == 0
    second = out.read_bytes()
    assert main(["run", "--config", str(cfg_path), "--threads", "8"]) == 0
    threaded = out.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = first == second == threaded and elapsed < 60.0
    _report(7, ok, f"three runs byte-identical ({len(first)} bytes) in {elapsed:.1f}s")
    assert ok


def test_criterion_8_degenerate_exactness():
    t0 = time.perf_counter()
    # const_drift: RMSE exactly zero for every level >= 1
    report = rmse_experiment(
        builtin("const_drift"), "mlp", [(n, 2) for n in range(1, 5)], 2, SEED
    )
    ok = all(r.rmse == 0.0 and r.valid for r in report.rows)
    # level 0 returns xi with zero draws for every problem
    for name in BUILTIN_NAMES:
        problem = builtin(name)
        ledger = CostLedger()
        out = mlp_estimate(problem, 0, 3, problem.horizon, root(SEED), ledger)
        ok &= np.array_equal(out, problem.xi)
        ok &= ledger == CostLedger()
    elapsed = time.perf_counter() - t0
    _report(8, ok, f"const_drift rmse == 0, level 0 draw-free, in {elapsed * 1e3:.0f}ms")
    assert ok
