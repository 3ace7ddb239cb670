"""CLI behaviour: exit codes, diagnostics, reproducible artifacts."""

import hashlib
import json

import pytest

from mlpicard.cli import main

SEED = 12345


def _write_config(path, **overrides):
    config = {
        "problem": "const_drift",
        "scheme": "mlp",
        "grid": [[1, 1]],
        "replications": 2,
        "seed": SEED,
        "output_path": str(path.parent / "out.csv"),
        "format": "csv",
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


def test_run_const_drift_writes_zero_rmse(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    assert main(["run", "--config", str(cfg)]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "scheme,n,m,R,rmse,bound,rv_exact,rv_bound,wall_ms,seed"
    fields = lines[1].split(",")
    assert fields[0] == "mlp" and fields[4] == "0.0"
    out = capsys.readouterr().out
    assert "wrote" in out


def test_run_twice_is_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(
        cfg,
        problem="linear_meanfield",
        grid=[[2, 2], [3, 2]],
        replications=100,
    )
    assert main(["run", "--config", str(cfg)]) == 0
    first = (tmp_path / "out.csv").read_bytes()
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first


def test_thread_count_does_not_change_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(
        cfg,
        problem="linear_meanfield",
        grid=[[2, 2], [3, 3]],
        replications=64,
    )
    assert main(["run", "--config", str(cfg), "--threads", "1"]) == 0
    one = (tmp_path / "out.csv").read_bytes()
    assert main(["run", "--config", str(cfg), "--threads", "8"]) == 0
    assert (tmp_path / "out.csv").read_bytes() == one


def test_mc_euler_scheme_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, problem="linear_meanfield", scheme="mc_euler", grid=[[4, 2]])
    assert main(["run", "--config", str(cfg)]) == 0
    assert "mc_euler,4,2," in (tmp_path / "out.csv").read_text()


def test_unknown_problem_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, problem="foo")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown problem" in capsys.readouterr().err


def test_json_parse_error_exits_2_with_location(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"problem": "const_drift",')
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_field_exits_2_naming_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "const_drift"}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"problem": "const_drift", "seed": SEED}]))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["scheme", "grid", "replications", "output_path"])
def test_run_without_a_run_field_exits_2_naming_it(tmp_path, capsys, field):
    cfg = tmp_path / "cfg.json"
    config = _write_config(cfg)
    del config[field]
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"'run' requires config field {field!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_unknown_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, typo_field=1)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "typo_field" in capsys.readouterr().err


def test_invalid_grid_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, grid=[])
    assert main(["run", "--config", str(cfg)]) == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,field,value",
    [
        ("run", "seed", True),
        ("run", "seed", 2**64),
        ("run", "replications", 1),
        ("run", "replications", 2.5),
        ("run", "scheme", "euler"),
        ("run", "format", "xml"),
        ("run", "grid", [[1, True]]),
        ("run", "grid", [[1]]),
        ("run", "grid", 5),
        ("run", "grid", "ab"),
        ("run", "grid", {"a": [1, 2]}),
        ("run", "grid", [[1, 2, 3]]),
        ("run", "problem", 3),
        ("schedule", "mathfrak_n", True),
        ("schedule", "mathfrak_n", 1.5),
        ("schedule", "mathfrak_n", -1),
        ("schedule", "epsilon_list", [True]),
        ("schedule", "epsilon_list", [0.5, 0.0]),
        ("schedule", "epsilon_list", []),
        ("schedule", "format", "json"),
    ],
)
def test_bad_field_value_exits_2_naming_the_field_before_computing(tmp_path, capsys, command, field, value):
    # The config takes each value by the rule of the library entry it feeds.
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, **{"epsilon_list": [0.5], field: value})
    assert main([command, "--config", str(cfg)]) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_missing_seed_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    raw = _write_config(cfg)
    del raw["seed"]
    cfg.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err


def test_json_roundtrip_reproduces_results(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(
        cfg,
        problem="linear_meanfield",
        grid=[[2, 2]],
        replications=50,
        output_path=str(tmp_path / "out.json"),
        format="json",
    )
    assert main(["run", "--config", str(cfg)]) == 0
    doc = (tmp_path / "out.json").read_bytes()
    parsed = json.loads(doc)
    assert parsed["config"]["problem"] == "linear_meanfield"
    # feed the result document itself back in; the embedded config block is
    # extracted and must regenerate identical bytes
    fed = tmp_path / "fed.json"
    fed.write_bytes(doc)
    assert main(["run", "--config", str(fed)]) == 0
    assert (tmp_path / "out.json").read_bytes() == doc


def test_schedule_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(
        cfg,
        problem="linear_meanfield",
        epsilon_list=[1.0, 0.5, 0.25],
        output_path=str(tmp_path / "sched.csv"),
    )
    assert main(["schedule", "--config", str(cfg)]) == 0
    lines = (tmp_path / "sched.csv").read_text().splitlines()
    assert lines[0] == "epsilon,n_epsilon,n_total,total_cost,error_bound"
    rows = [line.split(",") for line in lines[1:]]
    ns = [int(r[1]) for r in rows]
    assert ns == sorted(ns)  # epsilon descending -> N nondecreasing
    for r in rows:
        assert float(r[4]) <= float(r[0])  # bound at N dominated by epsilon
    out = capsys.readouterr().out
    assert "N" in out


def test_schedule_requires_epsilon_list(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    assert main(["schedule", "--config", str(cfg)]) == 2
    assert "epsilon_list" in capsys.readouterr().err


def test_schedule_epsilon_validation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, epsilon_list=[2.0])
    assert main(["schedule", "--config", str(cfg)]) == 2
    assert "epsilon_list" in capsys.readouterr().err


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in out[1:] if line.strip()]
    assert names == ["const_drift", "linear_meanfield", "pure_noise", "sine_meanfield"]
    assert names == sorted(names)


def test_no_reference_exits_1_with_partial_output(tmp_path, capsys):
    import numpy as np

    from mlpicard.problems import ExpectationOdeProblem, register_problem, _REGISTRY

    p = ExpectationOdeProblem(
        name="cli_no_ref",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=lambda s: 0.0,
        drift=lambda x, z: np.zeros(1),
        f_xi_second_moment=0.0,
    )
    register_problem(p)
    try:
        cfg = tmp_path / "cfg.json"
        _write_config(cfg, problem="cli_no_ref")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "no reference available" in capsys.readouterr().err
        # header-only CSV still written atomically
        assert (tmp_path / "out.csv").read_text().startswith("scheme,")
    finally:
        _REGISTRY.pop("cli_no_ref", None)


def test_nan_rows_exit_1_but_write_flagged_output(tmp_path, capsys):
    import math

    import numpy as np

    from mlpicard.problems import ExpectationOdeProblem, register_problem, _REGISTRY

    p = ExpectationOdeProblem(
        name="cli_nan",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=lambda s: 0.0,
        drift=lambda x, z: np.array([math.nan]),
        f_xi_second_moment=0.0,
        exact_mean_drift=lambda x: np.zeros(1),
    )
    register_problem(p)
    try:
        cfg = tmp_path / "cfg.json"
        _write_config(cfg, problem="cli_nan")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert ",nan," in (tmp_path / "out.csv").read_text()
    finally:
        _REGISTRY.pop("cli_nan", None)


def test_bad_threads_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    assert main(["run", "--config", str(cfg), "--threads", "0"]) == 2
    assert "threads" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "schedule"])
def test_missing_output_directory_exits_2_before_computing(tmp_path, capsys, command):
    # A file in a missing directory, an empty path, and an existing directory.
    cfg = tmp_path / "cfg.json"
    for output in (str(tmp_path / "missing" / "out.csv"), "", str(tmp_path)):
        _write_config(
            cfg,
            problem="linear_meanfield",
            grid=[[6, 6]],  # minutes of work if it ran
            replications=1000,
            epsilon_list=[0.5],
            output_path=output,
        )
        assert main([command, "--config", str(cfg)]) == 2
        assert "output directory" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# SHA-256 of the schedule CSV of linear_meanfield by mathfrak_n, as the
# parent of the one-write-path `run` wrote it; nothing else pins these bytes.
SCHEDULE_SHA256 = {
    0: "875667b77235dc6bb57a428f35166b96ddb67c17fad4cb5f3537eb75d809a571",
    2: "5e4e71c7086d7ed797d37eb86cc106bbafb4123be7b1190e17efa0c6b56dbcd8",
}


@pytest.mark.parametrize("mathfrak_n", list(SCHEDULE_SHA256))
def test_schedule_csv_bytes_are_pinned(tmp_path, mathfrak_n):
    cfg = tmp_path / "cfg.json"
    _write_config(
        cfg,
        problem="linear_meanfield",
        epsilon_list=[1.0, 0.5, 0.25, 1e-3],
        mathfrak_n=mathfrak_n,
        output_path=str(tmp_path / "sched.csv"),
    )
    assert main(["schedule", "--config", str(cfg)]) == 0
    assert hashlib.sha256((tmp_path / "sched.csv").read_bytes()).hexdigest() == SCHEDULE_SHA256[mathfrak_n]


# SHA-256 of the missing-reference `run` artifact (a header, and in JSON the
# config block with output path "out.<format>"), as written when that branch
# wrote the artifact on a path of its own.
NO_REFERENCE_SHA256 = {
    "csv": "a4c9465a10ff69e4ac6bae3bed4cd3325c1c6899789daea2e709032614f35d1b",
    "json": "1534a818bfd224d4f7c1e6ce311b3906015d4c78a52595758431428345e26fc5",
}


@pytest.mark.parametrize("fmt", list(NO_REFERENCE_SHA256))
def test_no_reference_artifact_bytes_are_pinned(tmp_path, monkeypatch, capsys, fmt):
    import numpy as np

    from mlpicard.problems import ExpectationOdeProblem, register_problem, _REGISTRY

    p = ExpectationOdeProblem(
        name="cli_no_ref",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=lambda s: 0.0,
        drift=lambda x, z: np.zeros(1),
        f_xi_second_moment=0.0,
    )
    monkeypatch.chdir(tmp_path)  # the JSON config block holds the output path
    register_problem(p)
    try:
        _write_config(tmp_path / "cfg.json", problem="cli_no_ref", output_path=f"out.{fmt}", format=fmt)
        assert main(["run", "--config", "cfg.json"]) == 1
        assert "no reference available" in capsys.readouterr().err
        assert hashlib.sha256((tmp_path / f"out.{fmt}").read_bytes()).hexdigest() == NO_REFERENCE_SHA256[fmt]
    finally:
        _REGISTRY.pop("cli_no_ref", None)
