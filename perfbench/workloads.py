"""Workload definitions, the package import, and the artifact checks.

Every workload is one ``mlpicard run`` config executed in-process through
``mlpicard.cli.main``; ``README.md`` in this directory says why each one
exists.  The checks here are the benchmark's own oracles and do not reuse
the code they check: the exact draw count is recomputed from the cost law
and the CSV layout is the one the package README documents.

Run as a script, this file is the set-up probe that ``run.py`` times in a
fresh interpreter: it imports the package, registers the workload's problem
and loads the config, and computes nothing::

    python3 perfbench/workloads.py <workload> <config.json>
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 12345
SCALAR_PROBLEM = "perfbench_sine_scalar"
CSV_HEADER = "scheme,n,m,R,rmse,bound,rv_exact,rv_bound,wall_ms,seed"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    scheme: str
    grid: tuple[tuple[int, int], ...]
    replications: int
    threads: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mlp_deep", "linear_meanfield", "mlp", ((5, 5),), 1000, 1),
        Workload("euler_wide", "linear_meanfield", "mc_euler", ((40, 1600),), 1000, 1),
        Workload("mlp_threads2", "linear_meanfield", "mlp", ((5, 5),), 1000, 2),
        Workload("scalar_hooks", SCALAR_PROBLEM, "mlp", ((4, 4),), 150, 1),
    )
}


def import_mlpicard():
    """Import the package from this checkout's ``src/``, never an installed copy."""
    package = SRC / "mlpicard"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found at {package}")
    sys.path.insert(0, str(SRC))
    import mlpicard
    import mlpicard.cli

    if Path(mlpicard.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported mlpicard from {mlpicard.__file__}, not {package}")
    return mlpicard


def register(workload: Workload):
    """Make the workload's problem available by name and return it.

    ``scalar_hooks`` takes the README's custom-problem route: the built-in
    sine problem re-registered under its own name without the batch hooks,
    so the scalar engine and ``SplittableStream`` do the work.
    """
    from mlpicard import problems

    if workload.problem == SCALAR_PROBLEM:
        sine = problems.builtin("sine_meanfield")
        problems.register_problem(
            dataclasses.replace(sine, name=SCALAR_PROBLEM, sample_z_batch=None, drift_batch=None),
            replace=True,
        )
    return problems.builtin(workload.problem)


def write_config(workload: Workload, seed: int, path: Path, output: Path, grid=None) -> Path:
    config = {
        "problem": workload.problem,
        "scheme": workload.scheme,
        "grid": [list(p) for p in (grid or workload.grid)],
        "replications": workload.replications,
        "seed": seed,
        "output_path": str(output),
        "format": "csv",
    }
    path.write_text(json.dumps(config))
    return path


def rv_exact(n: int, m: int) -> int:
    """Z draws of one level-(n, m) realization, from the cost law itself."""
    if n == 0:
        return 0
    return m**n + sum(m ** (n - l) * (1 + rv_exact(l, m) + rv_exact(l - 1, m)) for l in range(1, n))


def draws_per_realization(workload: Workload, a: int, b: int) -> int:
    return rv_exact(a, b) if workload.scheme == "mlp" else a * b


def total_draws(workload: Workload) -> int:
    """Exact Z draws of one run: rv_exact(n, m)*R for mlp, K*M*R for Euler."""
    return sum(draws_per_realization(workload, a, b) for a, b in workload.grid) * workload.replications


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_artifact(data: bytes, workload: Workload, seed: int) -> list[str]:
    """Problems with one written CSV artifact; empty when it is a valid result."""
    lines = data.decode("utf-8", "replace").split("\n")
    if lines[-1] != "" or lines[0] != CSV_HEADER:
        return ["artifact is not the documented CSV layout"]
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != len(workload.grid) or any(len(r) != 10 for r in rows):
        return [f"expected {len(workload.grid)} rows of 10 fields"]
    errors = []
    for (a, b), row in zip(workload.grid, rows):
        scheme, n, m, reps, rmse, bound, rv, rvb, wall_ms, row_seed = row
        expect = (workload.scheme, str(a), str(b), str(workload.replications), "", str(seed))
        if (scheme, n, m, reps, wall_ms, row_seed) != expect:
            errors.append(f"row ({a}, {b}): identifying fields {row}")
            continue
        try:
            value = float(rmse)
            if not (math.isfinite(value) and value > 0.0):
                errors.append(f"row ({a}, {b}): rmse {rmse}")
            if int(rv) != draws_per_realization(workload, a, b):
                errors.append(f"row ({a}, {b}): rv_exact {rv} != cost law")
            if workload.scheme == "mlp":
                if int(rvb) != (3 * b) ** a or not float(bound) >= value:
                    errors.append(f"row ({a}, {b}): bound {bound} / rv_bound {rvb}")
            elif (bound, rvb) != ("", ""):
                errors.append(f"row ({a}, {b}): Euler row carries a bound")
        except ValueError:
            errors.append(f"row ({a}, {b}): unparsable fields {row}")
    return errors


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        raise SystemExit(f"usage: {sys.argv[0]} <{'|'.join(WORKLOADS)}> <config.json>")
    mlpicard = import_mlpicard()
    register(WORKLOADS[sys.argv[1]])
    mlpicard.cli.load_config(sys.argv[2])
