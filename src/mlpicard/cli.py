"""Command-line entry points: ``run``, ``schedule``, ``list-problems``.

Configuration is a single JSON file; seeds are mandatory so every artifact
is reproducible.  ``run`` also accepts a JSON *output* document from an
earlier run (the embedded ``config`` block is extracted), so results can
be regenerated directly from a result file.

Exit codes: 0 success, 1 runtime failure (missing reference, NaN rows;
partial results are still written), 2 configuration/parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

from .analysis import (
    BoundInputs,
    RmseReport,
    _atomic_write_text,
    _check_epsilon,
    _check_format,
    _check_grid,
    _check_mathfrak_n,
    _check_replications,
    _check_scheme,
    error_bound,
    n_epsilon,
    rmse_experiment,
)
from .baseline import NoReferenceError
from .problems import UnknownProblemError, builtin, problem_names
from .rng import _check_seed

SCHEDULE_HEADER = "epsilon,n_epsilon,n_total,total_cost,error_bound"


class ConfigError(ValueError):
    """Configuration file is syntactically or semantically invalid."""


@dataclass
class ExperimentConfig:
    problem: str | None = None
    seed: int | None = None
    scheme: str | None = None
    grid: list[tuple[int, int]] | None = None
    replications: int | None = None
    mathfrak_n: int = 0
    epsilon_list: list[float] | None = None
    output_path: str | None = None
    format: str = "csv"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config of a JSON object; a null field counts as absent.  The
        JSON shape is checked here, every value by the library's own rule."""
        raw = {k: v for k, v in raw.items() if v is not None}
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
        for name in ("problem", "output_path"):
            if not isinstance(raw.get(name, ""), str):
                raise ConfigError(f"field {name!r} must be a string")
        epsilon_list = raw.get("epsilon_list", [1.0])
        if not (isinstance(epsilon_list, list) and epsilon_list):
            raise ConfigError("field 'epsilon_list' must be a nonempty list")

        checks = {
            "seed": _check_seed,
            "scheme": _check_scheme,
            "grid": lambda grid: _check_grid(grid, raw.get("scheme")),
            "replications": _check_replications,
            "mathfrak_n": _check_mathfrak_n,
            "epsilon_list": lambda eps: [_check_epsilon(e) for e in eps],
            "format": _check_format,
        }
        for name, check in checks.items():
            if name in raw:
                try:
                    raw[name] = check(raw[name])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"field {name!r}: {exc}") from None
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path: str) -> ExperimentConfig:
    """Parse a config file, or pull the config block out of a result file, and check its output path."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "rows" in raw and isinstance(raw.get("config"), dict):
        raw = raw["config"]
    config = ExperimentConfig.from_dict(raw)
    if config.output_path is not None:
        _check_output_dir(config.output_path)
    return config


def _check_output_dir(path: str) -> None:
    """Fail before any compute when ``path`` cannot be written as a file."""
    if not os.path.basename(path) or os.path.isdir(path):
        raise ConfigError(f"output path {path!r} names an output directory or nothing, not a file")
    directory = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)):
        raise ConfigError(f"output directory {directory} does not exist or is not writable")


def _require(config: ExperimentConfig, command: str, *names: str) -> None:
    """Fail before any compute on the first of ``names`` that ``config`` lacks."""
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"{command!r} requires config field {name!r}")


def _fmt(x: float | None) -> str:
    return f"{'-':>12}" if x is None else f"{x:>12.6g}"


def cmd_run(config_path: str, threads: int = 1) -> int:
    config = load_config(config_path)
    _require(config, "run", "problem", "seed", "scheme", "grid", "replications", "output_path")
    problem = builtin(config.problem)

    error = None
    try:
        report = rmse_experiment(
            problem,
            config.scheme,
            config.grid,
            config.replications,
            config.seed,
            threads=threads,
        )
    except NoReferenceError as exc:
        report = RmseReport(problem.name, config.scheme, config.seed, problem.horizon)
        error = exc
    report.config = config.to_dict()
    report.write(config.output_path, config.format)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1

    print(f"problem={config.problem} scheme={config.scheme} seed={config.seed} R={config.replications}")
    print(f"{'n':>6} {'m':>6} {'rmse':>12} {'bound':>12} {'rv_exact':>12} {'wall_ms':>10}")
    for r in report.rows:
        print(
            f"{r.n:>6} {r.m:>6} {_fmt(r.rmse)} {_fmt(r.bound)} {r.rv:>12} {r.wall_ms:>10.1f}"
            + ("" if r.valid else "   INVALID")
        )
    print(f"wrote {config.output_path} ({config.format})")

    if not all(r.valid for r in report.rows):
        print("error: some rows contain non-finite realizations", file=sys.stderr)
        return 1
    return 0


def cmd_schedule(config_path: str) -> int:
    config = load_config(config_path)
    _require(config, "schedule", "problem", "seed", "epsilon_list")
    if config.format != "csv":
        raise ConfigError(f"field 'format': 'schedule' writes CSV only, got {config.format!r}")
    problem = builtin(config.problem)
    inputs = BoundInputs.from_problem(problem)

    lines = [SCHEDULE_HEADER]
    print(f"problem={config.problem} C={inputs.big_c!r} mathfrak_n={config.mathfrak_n}")
    print(f"{'epsilon':>12} {'N':>6} {'N+offset':>9} {'total_cost':>24} {'bound(N,N)':>14}")
    for eps in config.epsilon_list:
        sched = n_epsilon(inputs, eps, config.mathfrak_n)
        diag = error_bound(inputs, sched.n_epsilon, sched.n_epsilon)
        n_total = sched.n_epsilon + sched.mathfrak_n
        cost = sched.total_cost
        print(f"{eps:>12.6g} {sched.n_epsilon:>6} {n_total:>9} {cost:>24} {diag:>14.6g}")
        lines.append(f"{eps!r},{sched.n_epsilon},{n_total},{cost},{diag!r}")
    if config.output_path is not None:
        _atomic_write_text(config.output_path, "\n".join(lines) + "\n")
        print(f"wrote {config.output_path}")
    return 0


def cmd_list_problems() -> int:
    print(f"{'name':<20} {'dim':>4} {'T':>8} {'L':>8} {'closed_form':>12} {'mean_drift':>11}")
    for name in problem_names():
        p = builtin(name)
        print(
            f"{p.name:<20} {p.dim:>4} {p.horizon:>8.3g} {p.lipschitz:>8.3g} "
            f"{'yes' if p.closed_form else 'no':>12} "
            f"{'yes' if p.exact_mean_drift else 'no':>11}"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpicard",
        description="Multilevel Picard experiments for expectation ODEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an RMSE-versus-cost experiment")
    p_run.add_argument("--config", required=True, help="JSON config (or a previous JSON result)")
    p_run.add_argument("--threads", type=int, default=1, metavar="N", help="min(N, R, os.cpu_count()) workers, "
                       "each on one contiguous lane chunk; one worker is the calling thread (default 1)")

    p_sched = sub.add_parser("schedule", help="evaluate iteration schedules for target accuracies")
    p_sched.add_argument("--config", required=True, help="JSON config with epsilon_list")

    sub.add_parser("list-problems", help="list registered problems")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, threads=args.threads)
        if args.command == "schedule":
            return cmd_schedule(args.config)
        return cmd_list_problems()
    except (ConfigError, UnknownProblemError, ValueError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
