"""Benchmark of the mlpicard package: one workload per invocation.

    python3 perfbench/run.py --workload mlp_deep [--seed 12345] [--seconds 35] [--trace 0|1]

Load model: a closed loop with one client.  This process runs one
``mlpicard.cli.main(["run", ...])`` call at a time, in-process, and starts
the next only when the previous one has returned; the only threads are the
package's own (``--threads 2`` on ``mlp_threads2``).

``--trace 0`` measures the end-to-end metrics with nothing traced: set-up
time in fresh interpreters, then repeated calls until ``--seconds`` have
passed (at least two), reporting medians and this process's peak RSS.
The host's CPU speed drifts by up to 2x over tens of seconds on a shared
VM, so a fixed numpy kernel (``speed_probe``) runs between calls and each
call's time, and each set-up time, is scaled by ``PROBE_REFERENCE_S`` over
the mean time of the probes either side of it (see ``README.md``); raw
times are printed too.
``--trace 1`` is the separate traced run that gives the per-layer metrics
(see ``spans.py`` and ``rngbench.py``).

Every call is a row, and every row is checked: the call returns 0, the
CSV artifact is a valid row set, the engines' ledgers add up to the exact
draw count, the bytes equal those of the run's first row (repeats,
``--threads`` and tracing must not change them) and, at the default seed,
the recorded SHA-256.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` (rows) and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import rngbench
import workloads as wl
from spans import Tracer

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
EXPECTED_SHA256 = json.loads((HERE / "expected_sha256.json").read_text())

SETUP_PROBES = 9
PROBE_LANES = 1 << 20
PROBE_ROUNDS = 12
# Median speed_probe() time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4).
PROBE_REFERENCE_S = 0.34
MIN_CALLS = 2
REFERENCE_REPEATS = 5

END_TO_END = {
    "wall_s": "s",
    "zdraws_per_s": "draws/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "rng.gaussian_ns.w1k": "ns/elem",
    "rng.gaussian_ns.w1m": "ns/elem",
    "rng.spawn_ns.w1k": "ns/elem",
    "rng.spawn_ns.w1m": "ns/elem",
    "rng.uniform_ns.w1k": "ns/elem",
    "rng.scalar_spawn_ns": "ns/elem",
    "rng.scalar_gaussian_ns": "ns/elem",
    "problems.sample_z.s": "s",
    "problems.sample_z.calls": "count",
    "problems.sample_z.elems_per_call": "elems",
    "problems.drift.s": "s",
    "problems.drift.calls": "count",
    "problems.drift.elems_per_call": "elems",
    "mlp.self_s": "s",
    "mlp.zdraws": "draws",
    "baseline.self_s": "s",
    "baseline.reference_solve_s": "s",
    "analysis.overhead_s": "s",
    "analysis.threads2_speedup": "ratio",
    "cli.overhead_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "src.lines": "lines",
}

# Engines as ``analysis`` calls them, with the layer each belongs to.  Their
# ledgers are read in every run; in the traced run they are also spans.
ENGINES = (
    ("mlp", "mlp_estimate_batch"),
    ("mlp", "_estimate_scalar"),
    ("baseline", "mc_euler_batch"),
    ("baseline", "mc_euler"),
)
HOOKS = {
    "sample_z": "sample_z",
    "sample_z_batch": "sample_z",
    "drift": "drift",
    "drift_batch": "drift",
}


@contextlib.contextmanager
def patched(targets):
    """Replace ``owner.attr`` with ``make(original)`` for each target that exists."""
    saved = []
    try:
        for owner, attr, make in targets:
            if hasattr(owner, attr):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@dataclasses.dataclass
class Row:
    wall_s: float
    artifact: bytes
    errors: list[str]


class Runner:
    """Runs the workload's config through ``cli.main`` and checks each row."""

    def __init__(self, mlpicard, workload: wl.Workload, seed: int, workdir: Path):
        self.mlpicard = mlpicard
        self.workload = workload
        self.seed = seed
        self.output = workdir / "artifact.csv"
        self.config = wl.write_config(workload, seed, workdir / "config.json", self.output)
        self.expected_sha = EXPECTED_SHA256["artifacts"][workload.name] if seed == EXPECTED_SHA256["seed"] else None
        self.rows: list[Row] = []
        self.draws: list[tuple[str, int]] = []

    def ledger_probe(self, layer: str):
        """Wrapper factory recording each engine call's change to its ledger."""

        def make(fn):
            def probed(*args, **kwargs):
                ledger = next((a for a in (*args, *kwargs.values()) if hasattr(a, "z_draws")), None)
                before = ledger.z_draws if ledger is not None else 0
                out = fn(*args, **kwargs)
                if ledger is not None:
                    self.draws.append((layer, ledger.z_draws - before))
                return out

            return probed

        return make

    def warm_up(self, workdir: Path) -> None:
        """One call on a level-1 grid, so lazy set-up is not timed."""
        config = wl.write_config(self.workload, self.seed, workdir / "warm.json", workdir / "warm.csv", grid=((1, 1),))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            self.mlpicard.cli.main(["run", "--config", str(config), "--threads", str(self.workload.threads)])

    def call(self, threads: int, main=None) -> Row:
        main = main or self.mlpicard.cli.main
        self.output.unlink(missing_ok=True)
        self.draws.clear()
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["run", "--config", str(self.config), "--threads", str(threads)])
        except Exception as exc:  # a raising call is a failed row, not a crashed benchmark
            rc = f"raised {exc!r}"
        wall = time.perf_counter() - t0

        artifact = self.output.read_bytes() if self.output.exists() else b""
        errors = [] if rc == 0 else [f"exit {rc}: {err.getvalue().strip()}"]
        errors += wl.check_artifact(artifact, self.workload, self.seed)
        drawn = sum(d for _, d in self.draws)
        if drawn != wl.total_draws(self.workload):
            errors.append(f"ledgers record {drawn} Z draws, cost law says {wl.total_draws(self.workload)}")
        if self.rows and artifact != self.rows[0].artifact:
            errors.append("artifact bytes differ from the run's first row")
        if self.expected_sha and wl.sha256(artifact) != self.expected_sha:
            errors.append(f"artifact sha256 {wl.sha256(artifact)} != recorded {self.expected_sha}")
        row = Row(wall, artifact, errors)
        self.rows.append(row)
        status = "ok" if not errors else "FAILED: " + "; ".join(errors)
        print(f"row {len(self.rows)}: threads={threads} wall {wall:.4f} s  {status}", flush=True)
        return row


def setup_probe(workload: wl.Workload, seed: int, workdir: Path):
    """A callable giving the wall time of a fresh interpreter that imports
    the package, registers the workload's problem and loads the config."""
    config = wl.write_config(workload, seed, workdir / "setup.json", workdir / "setup.csv")
    cmd = [sys.executable, str(HERE / "workloads.py"), workload.name, str(config)]

    def probe() -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        return time.perf_counter() - t0

    return probe


def speed_probe() -> float:
    """Seconds for a fixed Box-Muller kernel that uses no mlpicard code.

    It allocates and streams 8 MiB arrays through ``log``, ``sqrt`` and
    ``cos``, as the package's Gaussian transform does, so it slows down
    with the host as the workloads do.
    """
    u = np.linspace(1e-9, 1.0 - 1e-9, PROBE_LANES)
    t0 = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * u)
    return time.perf_counter() - t0


def scaled_times(op, more, label: str) -> list[float]:
    """Call ``op()``, which returns a wall time, while ``more(calls so far)``
    holds, with a speed probe before the first call and after each.  Returns
    each time scaled to the reference host speed by the mean of the two
    probes either side of it."""
    probes, times = [speed_probe()], []
    while more(len(times)):
        times.append(op())
        probes.append(speed_probe())
    scaled = [t * PROBE_REFERENCE_S / ((a + b) / 2) for t, a, b in zip(times, probes, probes[1:])]
    print(f"{label}: {len(times)}, raw quartiles {_quartiles(times)} s, scaled {_quartiles(scaled)} s")
    print(f"  speed probes: {len(probes)}, quartiles {_quartiles(probes)} s, reference {PROBE_REFERENCE_S} s")
    return scaled


def timed_run(mlpicard, runner: Runner, seconds: float, workdir: Path) -> dict[str, float]:
    workload = runner.workload
    with patched([(mlpicard.analysis, name, runner.ledger_probe(layer)) for layer, name in ENGINES]):
        runner.warm_up(workdir)
        runner.call(workload.threads)
        # Every call is alike, so this untimed one has reached the peak;
        # reading it here keeps the speed probe's arrays out of it.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        setup = setup_probe(workload, runner.seed, workdir)
        setup()  # unmeasured: fills the bytecode and file caches
        setup_s = scaled_times(setup, lambda n: n < SETUP_PROBES, "set-up probes")

        start = time.perf_counter()
        walls = scaled_times(
            lambda: runner.call(workload.threads).wall_s,
            lambda n: n < MIN_CALLS or time.perf_counter() - start < seconds,
            "timed calls",
        )
        if workload.threads != 1:
            runner.call(1)  # its bytes must equal the multi-threaded rows'
    wall_s = statistics.median(walls)
    return {
        "wall_s": wall_s,
        "zdraws_per_s": wl.total_draws(workload) / wall_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }


def traced_run(mlpicard, runner: Runner, workdir: Path) -> dict[str, float]:
    workload = runner.workload
    problem = mlpicard.problems.builtin(workload.problem)
    tracer = Tracer()
    engines = [(mlpicard.analysis, name, lambda fn, n=f"{layer}.{name}": tracer.wrap(n, fn)) for layer, name in ENGINES]
    probes = [(mlpicard.analysis, name, runner.ledger_probe(layer)) for layer, name in ENGINES]
    boundaries = [
        (mlpicard.cli, "rmse_experiment", lambda fn: tracer.wrap("analysis.rmse_experiment", fn)),
        (mlpicard.analysis, "reference_solve", lambda fn: tracer.wrap("baseline.reference_solve", fn)),
        (mlpicard.mlp.CostLedger, "merge", lambda fn: tracer.wrap("mlp.CostLedger.merge", fn)),
    ]
    hooks = {
        attr: tracer.wrap(f"problems.{name}", getattr(problem, attr), work=np.size)
        for attr, name in HOOKS.items()
        if getattr(problem, attr) is not None
    }

    with patched(probes):
        runner.warm_up(workdir)
        untraced = {threads: runner.call(threads).wall_s for threads in (1, 2)}
        with patched(engines + boundaries):
            mlpicard.problems.register_problem(dataclasses.replace(problem, **hooks), replace=True)
            try:
                tracer.start()
                traced = runner.call(workload.threads, main=tracer.wrap("cli.main", mlpicard.cli.main))
            finally:
                tracer.stop()
                mlpicard.problems.register_problem(problem, replace=True)
        mlp_draws = sum(d for layer, d in runner.draws if layer == "mlp")

    stats = tracer.summary()
    print(f"spans recorded: {sum(s['calls'] for s in stats.values())}")
    for name, s in sorted(stats.items()):
        print(f"  span {name}: calls={s['calls']} total={s['total_s']:.6f} s self={s['self_s']:.6f} s work={s['work']}")

    def layer_self(layer):
        return sum(s["self_s"] for name, s in stats.items() if name.split(".")[0] == layer)

    def hook(name):
        s = stats.get(f"problems.{name}", {"calls": 0, "total_s": 0.0, "work": 0})
        return {
            f"problems.{name}.s": s["total_s"],
            f"problems.{name}.calls": s["calls"],
            f"problems.{name}.elems_per_call": s["work"] / s["calls"] if s["calls"] else 0.0,
        }

    reference = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        mlpicard.baseline.reference_solve(problem, problem.horizon)
        reference.append(time.perf_counter() - t0)

    metrics = rngbench.run(runner.seed)
    print(f"rng bytes moved per element: {rngbench.COMPUTED_BYTES} B (computed: key in + value out)")
    metrics.update(hook("sample_z"))
    metrics.update(hook("drift"))
    metrics.update(
        {
            "mlp.self_s": layer_self("mlp"),
            "mlp.zdraws": mlp_draws,
            "baseline.self_s": layer_self("baseline"),
            "baseline.reference_solve_s": statistics.median(reference),
            "analysis.overhead_s": layer_self("analysis"),
            "analysis.threads2_speedup": untraced[1] / untraced[2],
            "cli.overhead_s": layer_self("cli"),
            "cli.artifact_bytes": len(traced.artifact),
            "trace.overhead_frac": traced.wall_s / untraced[workload.threads] - 1.0,
            "src.lines": src_lines(),
        }
    )
    return metrics


def _quartiles(values) -> str:
    q = statistics.quantiles(values, n=4)
    return f"[{q[0]:.4f}, {q[1]:.4f}, {q[2]:.4f}]"


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (wl.SRC / "mlpicard").rglob("*.py"))


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "seed": seed,
        "src.lines": src_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")

    mlpicard = wl.import_mlpicard()

    workload = wl.WORKLOADS[args.workload]
    wl.register(workload)
    print(f"perfbench: workload={workload.name} seed={args.seed} trace={args.trace} seconds={args.seconds}")
    print(f"env: {json.dumps(environment(args.seed))}", flush=True)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(mlpicard, workload, args.seed, workdir)
        if args.trace:
            metrics, units = traced_run(mlpicard, runner, workdir), PER_LAYER
        else:
            metrics, units = timed_run(mlpicard, runner, args.seconds, workdir), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in runner.rows if r.errors)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"fail_frac = {failed / len(runner.rows)!r} ({failed} of {len(runner.rows)} rows)")
    result = {
        "correct": failed == 0,
        "attempted": len(runner.rows),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
