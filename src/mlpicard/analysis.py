"""Theoretical bound evaluators, iteration schedules, and the RMSE-vs-cost
experiment harness.

The error bound implemented here is, for level n, base m, on a problem
with horizon T, Lipschitz constant L and second moment M2 = E[||F(xi,Z)||^2],

    bound(n, m) = T * sqrt(M2) * (1 + 2LT)^n * exp(LT + m/2) / m^(n/2),

valid for the root-mean-square error of the level-(n, m) estimator at the
horizon.  With the two indices coupled (m = n) the bound eventually decays
faster than any polynomial, which is what drives the iteration schedule:
``n_epsilon`` returns the smallest n whose whole coupled tail
sup_{m >= n} C e^{m/2} (1+2LT)^m m^{-m/2} sits below a target eps, where
C = T sqrt(M2) e^{LT}.  The tail supremum is computed exactly: the log of
the summand is concave in m (d/dm log = log(1+2LT) - log(m)/2 decreases),
so its peak is at (1+2LT)^2 and the supremum over m >= n is the summand at
one of the two integers nearest that peak, or at n past it.

``rmse_experiment`` measures empirical root-mean-square errors at the
horizon against the deterministic reference solution, so the only
statistical noise in a row is the estimator's own.  Replication j always
runs on the stream ``root(seed).spawn(j)``; results are therefore
reproducible bit for bit for a fixed seed, independent of how
replications are chunked across worker threads.  Wall-clock times are
kept on the in-memory report but never written to the CSV/JSON artifacts,
which must be byte-identical across reruns.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Sequence

import numpy as np

from . import __version__
from .baseline import _check_km, mc_euler_batch, reference_solve
from .mlp import CostLedger, _check_nm, mlp_estimate_batch, rv_bound, rv_exact
from .problems import ExpectationOdeProblem, _check_bound_constants
from .rng import GAUSSIAN_ALGORITHM, RNG_ALGORITHM, StreamBundle, _check_int, _check_real, _check_seed

__all__ = [
    "BoundInputs",
    "InsufficientDataError",
    "RmseReport",
    "RmseRow",
    "Schedule",
    "complexity_fit",
    "error_bound",
    "fit_power_law",
    "n_epsilon",
    "rmse_experiment",
    "tail_bound_max",
]

CSV_HEADER = "scheme,n,m,R,rmse,bound,rv_exact,rv_bound,wall_ms,seed"

# The argument rules shared by the entries here and the CLI's config fields.
_check_replications = partial(_check_int, name="replications", low=2)
_check_mathfrak_n = partial(_check_int, name="mathfrak_n", low=0)


def _check_choice(value, name: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r} (expected one of {', '.join(choices)})")
    return value


_check_scheme = partial(_check_choice, name="scheme", choices=("mlp", "mc_euler"))
_check_format = partial(_check_choice, name="format", choices=("csv", "json"))


_check_epsilon = partial(_check_real, name="epsilon", low=0.0, high=1.0, open_low=True)


def _check_grid(grid, scheme: str) -> list[tuple[int, int]]:
    """``grid`` as a nonempty list of int pairs, every pair checked by the
    rule of ``scheme``: Euler ``(K, M)`` for ``mc_euler``, else MLP ``(n, m)``."""
    check = _check_km if scheme == "mc_euler" else _check_nm
    grid = list(grid)
    if not (grid and all(isinstance(p, (tuple, list, np.ndarray)) and len(p) == 2 for p in grid)):
        raise ValueError(f"grid must be a nonempty list of (int, int) pairs, got {grid!r}")
    return [check(a, b) for a, b in grid]


class InsufficientDataError(ValueError):
    """Raised when a fit is requested on fewer than three usable rows."""


@dataclass(frozen=True)
class BoundInputs:
    """The constants (T, L, M2) every bound evaluator needs."""

    horizon: float
    lipschitz: float
    f_xi_second_moment: float

    def __post_init__(self):
        _check_bound_constants(self)

    @classmethod
    def from_problem(cls, problem: ExpectationOdeProblem) -> "BoundInputs":
        return cls(problem.horizon, problem.lipschitz, problem.f_xi_second_moment)

    @property
    def big_c(self) -> float:
        """C = T sqrt(M2) e^{LT}, the leading constant of every bound: 0 when
        T sqrt(M2) is, and +inf where e^{LT} overflows."""
        lead = self.horizon * math.sqrt(self.f_xi_second_moment)
        if lead == 0.0:
            return 0.0
        try:
            return lead * math.exp(self.lipschitz * self.horizon)
        except OverflowError:
            return math.inf


def error_bound(inputs: BoundInputs, n: int, m: int) -> float:
    """Root-mean-square error bound for the level-(n, m) estimator at T.

    Evaluated in log space so huge (n, L, T) overflow cleanly to +inf
    instead of raising.  An index past the largest float leaves the
    exponent q*s + O(1), with q = max(n, m) and s = n/q * (log(1+2LT) -
    log(m)/2) + m/(2q), so the sign of s gives the limit, 0 or +inf.
    """
    n, m = _check_nm(n, m)
    lead = inputs.horizon * math.sqrt(inputs.f_xi_second_moment)
    if lead == 0.0:
        return 0.0
    log_growth = math.log1p(2.0 * inputs.lipschitz * inputs.horizon)
    log_ratio = log_growth - 0.5 * math.log(m)
    try:
        logv = (
            math.log(lead)
            + n * log_growth
            + inputs.lipschitz * inputs.horizon
            + 0.5 * m
            - 0.5 * n * math.log(m)
        )
    except OverflowError:  # n or m does not convert to a float
        if log_ratio == 0.0:  # the n terms cancel at every n
            return error_bound(inputs, 0, m)
        q = max(n, m)
        return math.inf if n / q * log_ratio + 0.5 * (m / q) > 0.0 else 0.0
    if math.isnan(logv):  # inf - inf: both n terms overflow, but not their difference
        logv = math.log(lead) + inputs.lipschitz * inputs.horizon + 0.5 * m + n * log_ratio
    try:
        return math.exp(logv)
    except OverflowError:
        return math.inf


def tail_bound_max(inputs: BoundInputs, n: int) -> float:
    """sup over integer m >= n of the coupled bound ``error_bound(inputs, m, m)``.

    Exact by concavity: the log of the coupled bound is concave in m with
    its peak at (1+2LT)^2, so the supremum is the larger of the bounds at
    max(n, floor((1+2LT)^2)) and max(n, ceil((1+2LT)^2)).  A peak past the
    largest float gives +inf, the bound there, C e^{(1+2LT)^2/2}, or 0 if C is.
    """
    n = _check_int(n, "n", 1)
    try:
        peak = (1.0 + 2.0 * inputs.lipschitz * inputs.horizon) ** 2
        ks = (max(n, math.floor(peak)), max(n, math.ceil(peak)))
    except OverflowError:
        return math.inf if inputs.big_c > 0.0 else 0.0
    return max(error_bound(inputs, k, k) for k in ks)


@dataclass(frozen=True)
class Schedule:
    """Iteration count and total cost prescribed for a target accuracy.

    ``total_cost`` is the exact number of Z draws needed to run every
    coupled estimator up to level ``n_epsilon + mathfrak_n`` once,
    i.e. sum_{n=1}^{N+offset} rv_exact(n, n); ``tail_bound`` is the
    computed tail supremum at ``n_epsilon`` (always <= epsilon).
    """

    epsilon: float
    n_epsilon: int
    mathfrak_n: int
    total_cost: int
    tail_bound: float


def n_epsilon(inputs: BoundInputs, epsilon: float, mathfrak_n: int = 0) -> Schedule:
    """Smallest n whose coupled tail bound is below ``epsilon``.

    Finite for every epsilon in (0, 1] because the coupled bound decays to
    zero; monotonically nondecreasing as epsilon shrinks.
    """
    epsilon, mathfrak_n = _check_epsilon(epsilon), _check_mathfrak_n(mathfrak_n)
    n = 1
    while True:
        tail = tail_bound_max(inputs, n)
        if tail <= epsilon:
            break
        n += 1
    total = sum(rv_exact(j, j) for j in range(1, n + mathfrak_n + 1))
    return Schedule(epsilon, n, mathfrak_n, total, tail)


@dataclass
class RmseRow:
    """One grid point of an experiment.

    For the ``mlp`` scheme (n, m) are the estimator indices; for
    ``mc_euler`` they carry (K, M).  ``rv`` is the exact Z-draw count of
    one realization, ``cum_z_draws`` the running total down the report.
    ``wall_ms`` is measured but excluded from the serialized artifacts.
    """

    scheme: str
    n: int
    m: int
    replications: int
    rmse: float
    bound: float | None
    rv: int
    rv_bound: int | None
    cum_z_draws: int
    wall_ms: float
    valid: bool


@dataclass
class RmseReport:
    """Rows plus the metadata needed to reproduce them."""

    problem: str
    scheme: str
    seed: int
    eval_time: float
    rows: list[RmseRow] = field(default_factory=list)
    config: dict | None = None

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            # wall_ms is measured, but artifacts stay deterministic: its cell is empty.
            cells = (r.scheme, r.n, r.m, r.replications, r.rmse, r.bound, r.rv, r.rv_bound, None, self.seed)
            lines.append(",".join("" if v is None else str(v) for v in cells))
        return "\n".join(lines) + "\n"

    def json_doc(self) -> dict:
        rows = [
            {
                "scheme": r.scheme,
                "n": r.n,
                "m": r.m,
                "R": r.replications,
                "rmse": _finite_or_none(r.rmse),
                "bound": _finite_or_none(r.bound),
                "rv_exact": r.rv,
                "rv_bound": r.rv_bound,
                "cum_z_draws": r.cum_z_draws,
                "wall_ms": None,
                "valid": r.valid,
            }
            for r in self.rows
        ]
        return {
            "config": self.config,
            "rows": rows,
            "version": __version__,
            "seed": self.seed,
            "problem": self.problem,
            "scheme": self.scheme,
            "eval_time": self.eval_time,
            "rng": {"algorithm": RNG_ALGORITHM, "gaussian": GAUSSIAN_ALGORITHM},
        }

    def json_text(self) -> str:
        return json.dumps(self.json_doc(), indent=2, allow_nan=False, default=_json_scalar) + "\n"

    def write(self, path: str, fmt: str = "csv") -> None:
        _check_format(fmt)
        _atomic_write_text(path, self.json_text() if fmt == "json" else self.csv_text())


def _json_scalar(value):
    """A numpy scalar as the Python number it holds; nothing else is JSON."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _finite_or_none(value: float | None) -> float | None:
    """``value``, or ``None`` (JSON null) where standard JSON has no number."""
    return value if value is not None and math.isfinite(value) else None


def _atomic_write_text(path: str, text: str) -> None:
    """Write via temp file + rename so no partial file is ever visible.

    The temp file, named by 64 random bits and never opened if it exists,
    gets mode 0666 less the umask, as a plain ``open(path, "w")`` would
    (``tempfile.mkstemp`` gives 0600), and ``os.replace`` keeps it."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def rmse_experiment(
    problem: ExpectationOdeProblem,
    scheme: str,
    grid: Sequence[tuple[int, int]],
    replications: int,
    seed: int,
    *,
    threads: int = 1,
) -> RmseReport:
    """Empirical RMSE, theoretical bound, and exact cost per grid point.

    Each grid point runs ``replications`` independent realizations on the
    streams ``root(seed).spawn(j)``, j = 1..R, and measures the RMSE at
    the horizon, where :func:`error_bound` holds and the Euler baseline
    ends, against the deterministic reference solution there.  A
    realization containing NaN/inf marks its row invalid (rmse = nan)
    rather than being dropped.
    """
    grid = _check_grid(grid, _check_scheme(scheme))
    replications, seed = _check_replications(replications), _check_seed(seed)
    threads = _check_int(threads, "threads", 1)
    t = problem.horizon

    ref = reference_solve(problem, t)
    inputs = BoundInputs.from_problem(problem)
    # One contiguous chunk of the lanes 1..R per worker; chunking never moves a lane's bits.
    chunks = np.array_split(np.arange(1, replications + 1), min(threads, replications, os.cpu_count() or 1))
    report = RmseReport(problem.name, scheme, seed, t)

    cum = 0
    for a, b in grid:
        t0 = time.perf_counter()
        if scheme == "mlp":
            engine, args = mlp_estimate_batch, (a, b, t)
            per_real = rv_exact(a, b)
            bound = error_bound(inputs, a, b)
            bound_rv = rv_bound(a, b) if a >= 1 else None
        else:
            engine, args = mc_euler_batch, (a, b)
            per_real = a * b
            bound = None
            bound_rv = None

        def run(lanes):
            # One engine call on the bundle of ``root(seed).spawn(j)``, j in lanes.
            ledger = CostLedger()
            return engine(problem, *args, StreamBundle.root_children(seed, lanes), ledger), ledger

        if len(chunks) == 1:
            parts = [run(chunks[0])]
        else:
            with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
                parts = list(pool.map(run, chunks))
        estimates = np.concatenate([p[0] for p in parts], axis=0)
        ledger = reduce(CostLedger.merge, [p[1] for p in parts])
        if ledger.z_draws != per_real * replications:
            raise RuntimeError(
                "cost accounting violated: "
                f"{ledger.z_draws} z draws != {per_real} * {replications}"
            )

        wall_ms = (time.perf_counter() - t0) * 1e3
        finite = bool(np.isfinite(estimates).all())
        if finite:
            sq = np.add.reduce((estimates - ref) ** 2, axis=-1)
            rmse = math.sqrt(float(np.add.reduce(sq, axis=0)) / replications)
        else:
            rmse = math.nan
        cum += per_real
        report.rows.append(
            RmseRow(
                scheme=scheme,
                n=a,
                m=b,
                replications=replications,
                rmse=rmse,
                bound=bound,
                rv=per_real,
                rv_bound=bound_rv,
                cum_z_draws=cum,
                wall_ms=wall_ms,
                valid=finite,
            )
        )
    return report


def fit_power_law(costs: Sequence, rmses: Sequence[float]) -> tuple[float, float]:
    """OLS of log(cost) on log(1/rmse); returns (slope, intercept).

    On rows following cost = rmse^-p exactly the slope is p to rounding.
    """
    if len(costs) != len(rmses):
        raise ValueError("costs and rmses must have equal length")
    if len(costs) < 3:
        raise InsufficientDataError("insufficient data: need at least 3 rows")
    if not all(0.0 < v < math.inf for v in (*costs, *rmses)):
        raise ValueError("costs and rmses must be positive and finite")
    x = np.array([-math.log(r) for r in rmses])
    if x.min() == x.max():
        raise ValueError("rmses must not all be equal")
    y = np.array([math.log(c) for c in costs])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def complexity_fit(report: RmseReport) -> tuple[float, float]:
    """Cost exponent from a report: OLS of log(cumulative z draws) against
    log(1 / empirical rmse) over the valid rows with positive rmse."""
    rows = [
        r
        for r in report.rows
        if r.valid and math.isfinite(r.rmse) and r.rmse > 0.0 and r.cum_z_draws > 0
    ]
    if len(rows) < 3:
        raise InsufficientDataError(
            "insufficient data: need >= 3 valid rows with positive rmse"
        )
    return fit_power_law([r.cum_z_draws for r in rows], [r.rmse for r in rows])
