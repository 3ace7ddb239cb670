"""Registry contents and the analytic invariants of the built-in problems."""

import dataclasses
import math

import numpy as np
import pytest

from mlpicard import baseline
from mlpicard.baseline import mc_euler, mc_euler_batch, reference_solve
from mlpicard.mlp import CostLedger, mlp_estimate, mlp_estimate_batch
from mlpicard.problems import (
    BUILTIN_NAMES,
    ExpectationOdeProblem,
    UnknownProblemError,
    builtin,
    check_problem,
    problem_names,
    register_problem,
)
from mlpicard.rng import StreamBundle, root
from oracle import PROBLEM_NAMES, assert_same_bits, estimate_scalar, euler_scalar, named_problem


def test_builtin_names_are_pinned():
    assert BUILTIN_NAMES == ("const_drift", "linear_meanfield", "pure_noise", "sine_meanfield")


def test_registry_contents():
    assert tuple(problem_names()) == BUILTIN_NAMES
    for name in BUILTIN_NAMES:
        p = builtin(name)
        assert p.name == name
        assert p.dim == 1 and p.horizon == 1.0
        assert np.array_equal(p.xi, np.zeros(1))
        assert p.has_batch


def test_unknown_problem_message():
    with pytest.raises(UnknownProblemError, match="unknown problem"):
        builtin("foo")


def test_closed_forms():
    assert builtin("const_drift").closed_form(1.0)[0] == 1.0
    assert builtin("const_drift").closed_form(0.25)[0] == 0.25
    lin = builtin("linear_meanfield").closed_form(1.0)[0]
    assert lin == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert builtin("pure_noise").closed_form(0.7)[0] == 0.0
    assert builtin("sine_meanfield").closed_form is None


def test_linear_closed_form_against_rk4_oracle():
    # Independent check: integrate x' = 1 - x with RK4 instead of using
    # the registered closed form.
    lin = builtin("linear_meanfield")
    rk_only = dataclasses.replace(lin, closed_form=None)
    for t in (0.3, 0.75, 1.0):
        assert abs(reference_solve(rk_only, t)[0] - lin.closed_form(t)[0]) <= 1e-10


def test_exact_mean_drifts():
    assert builtin("pure_noise").exact_mean_drift(np.array([17.3]))[0] == 0.0
    assert builtin("const_drift").exact_mean_drift(np.array([-4.0]))[0] == 1.0
    assert builtin("linear_meanfield").exact_mean_drift(np.array([0.25]))[0] == 0.75
    x = np.array([0.6])
    assert builtin("sine_meanfield").exact_mean_drift(x)[0] == np.sin(0.6)


def test_lipschitz_spot_check():
    rng = np.random.default_rng(0)
    for name in BUILTIN_NAMES:
        p = builtin(name)
        stream = root(5).spawn(1)
        for _ in range(200):
            x = rng.normal(size=p.dim) * 3.0
            y = rng.normal(size=p.dim) * 3.0
            z = p.sample_z(stream)
            gap = np.linalg.norm(p.drift(x, z) - p.drift(y, z))
            assert gap <= p.lipschitz * np.linalg.norm(x - y) * (1.0 + 1e-12)


def test_linear_lipschitz_constant_is_tight():
    p = builtin("linear_meanfield")
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.normal(size=1)
        y = x + rng.normal(size=1)
        if np.array_equal(x, y):
            continue
        # z = 0 keeps the subtraction exact in floating point; the ratio is
        # then exactly the declared constant.
        ratio = np.linalg.norm(p.drift(x, 0.0) - p.drift(y, 0.0)) / np.linalg.norm(x - y)
        assert ratio == 1.0
        # for generic z the same ratio holds up to one rounding of z - x
        z = float(rng.normal())
        ratio = np.linalg.norm(p.drift(x, z) - p.drift(y, z)) / np.linalg.norm(x - y)
        assert ratio == pytest.approx(1.0, rel=1e-12)


def test_declared_second_moment_within_mc_band():
    # 1e5 draws; the declared E[||F(xi,Z)||^2] must sit inside the sample's
    # own 5-sigma confidence band.
    n = 10**5
    for name in BUILTIN_NAMES:
        p = builtin(name)
        stream = root(808).spawn(3)
        w = np.empty(n)
        for i in range(n):
            z = p.sample_z(stream)
            w[i] = float(np.sum(p.drift(p.xi, z) ** 2))
        band = 5.0 * w.std(ddof=1) / math.sqrt(n)
        assert abs(w.mean() - p.f_xi_second_moment) <= band + 1e-12, name


def _simpson(f, a, b, panels):
    # Composite Simpson needs an even number of subintervals.
    xs = np.linspace(a, b, panels + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / panels
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


@pytest.mark.parametrize("name", ["pure_noise", "const_drift", "linear_meanfield"])
def test_closed_form_satisfies_integral_equation(name):
    p = builtin(name)
    f = lambda r: p.exact_mean_drift(p.closed_form(r))[0]
    for t in np.linspace(0.0, p.horizon, 100):
        integral = 0.0 if t == 0.0 else _simpson(f, 0.0, t, 10**4)
        assert abs(p.closed_form(t)[0] - p.xi[0] - integral) <= 1e-8


def test_a_priori_bound_on_closed_forms(monkeypatch):
    # ||X(t) - xi|| <= T * sqrt(E||F(xi,Z)||^2) * exp(L*T) along the solution.
    monkeypatch.setattr(baseline, "_RK4_STEP", 1e-3)
    for name in BUILTIN_NAMES:
        p = builtin(name)
        cap = p.horizon * math.sqrt(p.f_xi_second_moment) * math.exp(p.lipschitz * p.horizon)
        for t in np.linspace(0.0, p.horizon, 50):
            x = reference_solve(p, float(t))
            assert np.linalg.norm(x - p.xi) <= cap + 1e-12


def test_validation_errors():
    ok = dict(
        name="tmp",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=lambda s: 0.0,
        drift=lambda x, z: np.zeros(1),
        f_xi_second_moment=0.0,
    )
    with pytest.raises(ValueError):
        ExpectationOdeProblem(**{**ok, "dim": 0})
    with pytest.raises(ValueError):
        ExpectationOdeProblem(**{**ok, "horizon": -1.0})
    with pytest.raises(ValueError):
        ExpectationOdeProblem(**{**ok, "lipschitz": -0.5})
    with pytest.raises(ValueError):
        ExpectationOdeProblem(**{**ok, "xi": np.zeros(3)})
    with pytest.raises(ValueError):
        ExpectationOdeProblem(**{**ok, "f_xi_second_moment": -1.0})
    # dim follows the integer rule, the bound constants the rule of BoundInputs
    for dim in (1.0, True):
        with pytest.raises(TypeError):
            ExpectationOdeProblem(**{**ok, "dim": dim})
    for name, value in [("lipschitz", math.inf), ("horizon", math.nan), ("f_xi_second_moment", math.inf)]:
        with pytest.raises(ValueError, match=name):
            ExpectationOdeProblem(**{**ok, name: value})


def test_register_problem_guards():
    p = ExpectationOdeProblem(
        name="degenerate_zero",
        dim=1,
        xi=np.zeros(1),
        horizon=1.0,
        lipschitz=0.0,
        sample_z=lambda s: 0.0,
        drift=lambda x, z: np.zeros(1),
        f_xi_second_moment=0.0,
        exact_mean_drift=lambda x: np.zeros(1),
        closed_form=lambda t: np.zeros(1),
    )
    register_problem(p)
    try:
        assert builtin("degenerate_zero") is p
        with pytest.raises(ValueError):
            register_problem(p)
        register_problem(p, replace=True)
    finally:
        from mlpicard.problems import _REGISTRY

        _REGISTRY.pop("degenerate_zero", None)


@pytest.mark.parametrize(
    "changes,error,field",
    [({"name": 5}, TypeError, "name"), ({"xi": [math.inf]}, ValueError, "xi"), ({"xi": [math.nan]}, ValueError, "xi")],
    ids=["name-int", "xi-inf", "xi-nan"],
)
def test_problem_refuses_a_name_that_is_not_a_string_and_an_xi_that_is_not_finite(changes, error, field):
    # An int name breaks the sorted registry; a non-finite xi runs a whole
    # row to nan.  Both are refused when the problem is built.
    from mlpicard.problems import _REGISTRY

    names = problem_names()
    try:
        with pytest.raises(error, match=field):
            register_problem(dataclasses.replace(builtin("linear_meanfield"), **{"name": "refused", **changes}))
        assert problem_names() == names
    finally:
        for key in set(_REGISTRY) - set(names):
            _REGISTRY.pop(key)


def test_xi_is_immutable():
    p = builtin("pure_noise")
    with pytest.raises(ValueError):
        p.xi[0] = 1.0


def _scalar_only(problem, **changes):
    return dataclasses.replace(problem, sample_z_batch=None, drift_batch=None, **changes)


def _rejection_sample_z(stream):
    # Uniforms until one lies below 1/2, then a Gaussian: the number of
    # counters consumed differs from lane to lane.
    while stream.next_uniform() >= 0.5:
        pass
    return 1.0 + stream.next_gaussian()


@pytest.mark.parametrize("n,m", [(3, 3), (2, 30)])
def test_scalar_sampler_may_consume_any_number_of_counters(n, m):
    # The engines run scalar hooks lane by lane from the counter on entry;
    # a sampler's lane-dependent counter use must not reach other draws.
    # (2, 30) sums 900 base-term draws, beyond one 512-draw chunk.
    p = _scalar_only(builtin("linear_meanfield"), name="rejection", sample_z=_rejection_sample_z)
    for j in range(1, 6):
        ledger, want_ledger = CostLedger(), CostLedger()
        got = mlp_estimate(p, n, m, 0.8, root(12345).spawn(j), ledger)
        want = estimate_scalar(p, n, m, 0.8, root(12345).spawn(j), want_ledger)
        assert_same_bits(got, want)
        assert ledger == want_ledger
    # The same five lanes as one bundle: every lane keeps its own counters.
    ledger, want_ledger = CostLedger(), CostLedger()
    got = mlp_estimate_batch(p, n, m, 0.8, StreamBundle.root_children(12345, np.arange(1, 6)), ledger)
    for j in range(1, 6):
        want = estimate_scalar(p, n, m, 0.8, root(12345).spawn(j), want_ledger)
        assert_same_bits(got[j - 1], want)
    assert ledger == want_ledger


def test_scalar_sampler_may_spawn():
    # A sampler may draw Z from a child of its stream; without batch hooks
    # that stream is rebuilt from the lane's key, and so is its child.
    p = _scalar_only(builtin("linear_meanfield"), name="spawning", sample_z=lambda s: s.spawn(7).next_gaussian())
    ledger, want_ledger = CostLedger(), CostLedger()
    got = mlp_estimate_batch(p, 2, 3, 0.8, StreamBundle.root_children(12345, np.arange(1, 4)), ledger)
    for j in range(1, 4):
        want = estimate_scalar(p, 2, 3, 0.8, root(12345).spawn(j), want_ledger)
        assert_same_bits(got[j - 1], want)
    assert ledger == want_ledger


@pytest.mark.parametrize("K,M", [(3, 100), (2, 5000)])
def test_scalar_sampler_counter_rule_holds_for_euler(K, M):
    p = _scalar_only(builtin("linear_meanfield"), name="rejection", sample_z=_rejection_sample_z)
    for j in range(1, 4):
        got = mc_euler(p, K, M, root(12345).spawn(j), CostLedger())
        want = euler_scalar(p, K, M, root(12345).spawn(j))
        assert_same_bits(got, want)
    got = mc_euler_batch(p, K, M, StreamBundle.root_children(12345, np.arange(1, 6)), CostLedger())
    for j in range(1, 6):
        want = euler_scalar(p, K, M, root(12345).spawn(j))
        assert_same_bits(got[j - 1], want)


@pytest.mark.parametrize("scheme", ["mlp", "mc_euler"])
def test_batch_entries_serve_problems_without_batch_hooks(scheme):
    # The public batch entries take each fresh-draw sum of a problem without
    # batch hooks as one chunk: 900 base-term draws, 5000 draws per node.
    p = _scalar_only(builtin("linear_meanfield"), name="rejection", sample_z=_rejection_sample_z)
    bundle = StreamBundle.root_children(12345, np.arange(1, 6))
    ledger, want_ledger = CostLedger(), CostLedger()
    if scheme == "mlp":
        got = mlp_estimate_batch(p, 2, 30, 0.8, bundle, ledger)
        run = lambda stream: estimate_scalar(p, 2, 30, 0.8, stream, want_ledger)
    else:
        got = mc_euler_batch(p, 2, 5000, bundle, ledger)
        run = lambda stream: euler_scalar(p, 2, 5000, stream, want_ledger)
    for j in range(1, 6):
        want = run(root(12345).spawn(j))
        assert_same_bits(got[j - 1], want)
    assert ledger == want_ledger


@pytest.mark.parametrize("missing", ["sample_z_batch", "drift_batch"])
def test_batch_hooks_come_both_or_neither(missing):
    # One hook alone would leave the engines on the lane-by-lane path and
    # check_problem with nothing to check, so the problem is refused.
    with pytest.raises(ValueError, match=f"{missing} is missing"):
        dataclasses.replace(builtin("linear_meanfield"), **{missing: None})


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_check_problem_accepts_consistent_hooks(name):
    check_problem(named_problem(name))
    check_problem(_scalar_only(named_problem(name)))  # no batch hooks: the scalar hooks run at every shape


def test_check_problem_allows_non_finite_drifts():
    lin = builtin("linear_meanfield")
    check_problem(
        dataclasses.replace(
            lin,
            drift=lambda x, z: np.array([math.nan]),
            drift_batch=lambda x, z: np.full(np.shape(z) + (1,), math.nan),
        )
    )


def test_check_problem_refutes_a_lipschitz_constant_too_small():
    # F = z - x moves by exactly |x - xi| against one Z, twice the declared
    # 0.5; the built-ins and planar_rotation, which attain their constant up
    # to the rounding of z - x, pass (test_check_problem_accepts_consistent_hooks).
    p = dataclasses.replace(builtin("linear_meanfield"), name="lipschitz_too_small", lipschitz=0.5)
    for problem in (p, _scalar_only(p)):
        with pytest.raises(ValueError, match=r"lipschitz = 0.5 is refuted.* reaches 1\.0"):
            check_problem(problem)
    with pytest.raises(ValueError, match="lipschitz"):
        register_problem(p)
    assert "lipschitz_too_small" not in problem_names()


def test_a_nan_drift_difference_refutes_no_lipschitz_constant():
    lin = builtin("linear_meanfield")
    nan_off_xi = _scalar_only(
        lin,
        lipschitz=0.0,
        drift=lambda x, z: lin.drift(x, z) if np.array_equal(x, lin.xi) else np.array([math.nan]),
    )
    check_problem(nan_off_xi)


@pytest.mark.parametrize(
    "changes,hook",
    [
        # a sampler that shifts its draws
        ({"sample_z_batch": lambda bundle: 2.0 + bundle.next_gaussian()}, "sample_z_batch"),
        # a sampler that ignores the counter on entry: right at counter 0 only
        ({"sample_z_batch": lambda bundle: 1.0 + StreamBundle(bundle.keys).next_gaussian()}, "counter 1"),
        # a drift that drops the dim axis
        ({"drift_batch": lambda x, z: np.asarray(z) - x[0]}, r"drift_batch.*shape \(3,\)"),
        # a drift right at xi on one lane axis, but misaligned on two
        ({"drift_batch": lambda x, z: np.asarray(z)[:, None] - x}, r"drift_batch.*lanes \(2, 3\).*shape \(2, 3, 3\)"),
        # a drift that raises on two lane axes
        ({"drift_batch": lambda x, z: np.asarray(z).reshape(-1, 1) - x}, r"drift_batch on lanes \(2, 3\) raised"),
        # a drift that is right at xi only
        ({"drift_batch": lambda x, z: np.asarray(z)[..., None] - 2 * x}, "sample_z_batch and drift_batch on lanes"),
    ],
)
def test_register_problem_rejects_inconsistent_batch_hooks(changes, hook):
    p = dataclasses.replace(builtin("linear_meanfield"), name="inconsistent", **changes)
    with pytest.raises(ValueError, match=hook):
        register_problem(p)
    assert "inconsistent" not in problem_names()


def _raise(error):
    def hook(*args):
        raise error

    return hook


@pytest.mark.parametrize(
    "changes,hook",
    [
        # without batch hooks, a drift that returns two values for dim = 1
        ({"sample_z_batch": None, "drift_batch": None, "drift": lambda x, z: np.array([z, z]) - x},
         r": drift on lanes \(3,\) raised ValueError\('cannot reshape"),
        # without batch hooks, a sampler that raises
        ({"sample_z_batch": None, "drift_batch": None, "sample_z": _raise(ZeroDivisionError("broken sampler"))},
         r": sample_z on lanes \(3,\) raised ZeroDivisionError"),
        # with batch hooks, a scalar drift that raises
        ({"drift": _raise(TypeError("broken drift"))}, r": drift on lanes \(3,\) raised TypeError"),
        # with batch hooks, a scalar drift of the wrong shape
        ({"drift": lambda x, z: np.array([z, z])}, r": drift on lanes \(3,\) raised ValueError\('cannot reshape"),
    ],
    ids=["hookless-drift-shape", "hookless-sample_z-raises", "drift-raises", "drift-shape"],
)
def test_register_problem_names_the_scalar_hook_that_raises(changes, hook):
    # The scalar hooks run through the same error wrapper as the batch hooks,
    # and a problem without batch hooks is checked like any other.
    p = dataclasses.replace(builtin("linear_meanfield"), name="refused", **changes)
    with pytest.raises(ValueError, match=hook):
        register_problem(p)
    assert "refused" not in problem_names()
