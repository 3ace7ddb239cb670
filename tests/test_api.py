"""The public API: the names the package exports, the estimator entries'
one signature and the RMSE harness's parameters."""

import inspect

import pytest

import mlpicard
from mlpicard import analysis, baseline, mlp, problems, rng
from mlpicard import (
    StreamBundle,
    builtin,
    mc_euler,
    mc_euler_batch,
    mlp_estimate,
    mlp_estimate_batch,
    rmse_experiment,
    root,
)

# Adding or removing a public name is a deliberate edit of this list.
PUBLIC_NAMES = [
    "BUILTIN_NAMES",
    "BoundInputs",
    "CostLedger",
    "ExpectationOdeProblem",
    "GAUSSIAN_ALGORITHM",
    "InsufficientDataError",
    "NoReferenceError",
    "RNG_ALGORITHM",
    "RmseReport",
    "RmseRow",
    "Schedule",
    "SplittableStream",
    "StreamBundle",
    "UnknownProblemError",
    "__version__",
    "builtin",
    "complexity_fit",
    "error_bound",
    "fit_power_law",
    "mc_euler",
    "mc_euler_batch",
    "mlp_estimate",
    "mlp_estimate_batch",
    "n_epsilon",
    "problem_names",
    "reference_solve",
    "register_problem",
    "rmse_experiment",
    "root",
    "rv_bound",
    "rv_exact",
    "tail_bound_max",
]

# The paper's indices as plain values, then the stream, then the ledger.
ENTRY_PARAMETERS = {
    mlp_estimate: ["problem", "n", "m", "t", "stream", "ledger"],
    mlp_estimate_batch: ["problem", "n", "m", "t", "bundle", "ledger"],
    mc_euler: ["problem", "steps", "samples", "stream", "ledger"],
    mc_euler_batch: ["problem", "steps", "samples", "bundle", "ledger"],
}

# RMSE is measured at the horizon; only the thread count has a default.
RMSE_EXPERIMENT_PARAMETERS = ["problem", "scheme", "grid", "replications", "seed", "threads"]


def test_public_names_are_pinned():
    assert sorted(mlpicard.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(mlpicard, name), name


def test_public_names_are_the_module_lists():
    modules = (analysis, baseline, mlp, problems, rng)
    assert mlpicard.__all__ == ["__version__", *(name for module in modules for name in module.__all__)]
    assert len(set(mlpicard.__all__)) == len(mlpicard.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(mlpicard, name) is getattr(module, name), name


@pytest.mark.parametrize("entry", list(ENTRY_PARAMETERS), ids=lambda f: f.__name__)
def test_entries_share_one_signature(entry):
    parameters = inspect.signature(entry).parameters.values()
    assert [p.name for p in parameters] == ENTRY_PARAMETERS[entry]
    assert all(p.default is inspect.Parameter.empty for p in parameters)


def test_rmse_experiment_parameters_are_pinned():
    parameters = inspect.signature(rmse_experiment).parameters
    assert list(parameters) == RMSE_EXPERIMENT_PARAMETERS
    assert {n: p.default for n, p in parameters.items() if p.default is not inspect.Parameter.empty} == {"threads": 1}
    assert parameters["threads"].kind is inspect.Parameter.KEYWORD_ONLY


@pytest.mark.parametrize(
    "call",
    [
        lambda p: mlp_estimate(p, 2, 2, 1.0, root(1)),
        lambda p: mlp_estimate_batch(p, 2, 2, 1.0, StreamBundle.root_children(1, [1])),
        lambda p: mc_euler(p, 2, 2, root(1)),
        lambda p: mc_euler_batch(p, 2, 2, StreamBundle.root_children(1, [1])),
    ],
)
def test_entries_require_a_ledger(call):
    with pytest.raises(TypeError, match="ledger"):
        call(builtin("linear_meanfield"))
