import math
import re
import warnings

import numpy as np
import pytest

from motrbench import bench
from motrbench.bench import (
    DIVERGENCE_LIMIT,
    AggregationError,
    ConfigError,
    ExperimentConfig,
    RunRecord,
    build_bundle,
    load_records,
    normalize_scores,
    regret_curve,
    run_episode,
    run_grid,
    stable_seed,
    write_outputs,
)
from motrbench.controllers import GpcController, LinearFeedback, hinf_bisection, lqr_controller, solve_dare
from motrbench.generators import HinfGenerator, RandomDirectionGenerator, sinusoid_generator
from motrbench.lds import CostWeights, random_system


class ZeroGenerator:
    name = "zero"

    def emit(self, x):
        return np.zeros(2)

    def observe(self, u):
        pass


class BlowupController:
    name = "blowup"

    def act(self, x):
        return np.full(2, 1e8)


class ColumnController:
    """Returns u as a (d_u, 1) column instead of a (d_u,) vector."""

    name = "column"

    def act(self, x):
        return np.zeros((2, 1))


class ShortGenerator(ZeroGenerator):
    name = "short"

    def emit(self, x):
        return np.zeros(3)


class NanController:
    name = "nan"

    def act(self, x):
        return np.full(2, np.nan)


def record(si, sj, ctrl, gen, cost, diverged=False):
    return RunRecord(
        system_index=si, seed_index=sj, controller=ctrl, generator=gen, T=10,
        cumulative_average_cost=cost, stage_costs=[cost] * 10,
        max_control_norm=1.0, max_state_norm=1.0, diverged=diverged,
        regret_hindsight=None, regret_achieved=None, rng_fingerprint="",
    )


def random_records(rng, n_systems, n_seeds, controllers, generators, p_diverged):
    """Every cell of the grid once, with costs spread over decades and a
    share of the runs diverged."""
    return [
        record(si, sj, c, g, float(10.0 ** rng.uniform(-2, 2)), bool(rng.random() < p_diverged))
        for si in range(n_systems)
        for sj in range(n_seeds)
        for c in controllers
        for g in generators
    ]


def small_config(**kw):
    base = dict(
        n_systems=2,
        n_seeds=2,
        T=30,
        controllers=["lqr"],
        generators=["random", "hinf"],
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_episode_quiescent_zero_cost():
    sys = random_system(4, 2, 2, seed=0)
    cw = CostWeights(np.eye(4), np.eye(2))
    rec = run_episode(sys, cw, lqr_controller(sys, cw), ZeroGenerator(), 25, np.zeros(4))
    assert rec.cumulative_average_cost == 0.0
    assert not rec.diverged
    assert len(rec.stage_costs) == 25


def test_run_episode_deterministic_and_recomputable():
    sys = random_system(4, 2, 2, seed=1)
    cw = CostWeights(np.eye(4), np.eye(2))
    x0 = np.random.default_rng(3).standard_normal(4)

    def once():
        gen = RandomDirectionGenerator(2, 1.0, seed=5)
        return run_episode(sys, cw, lqr_controller(sys, cw), gen, 40, x0)

    a, b = once(), once()
    assert a.to_json_line() == b.to_json_line()
    assert a.cumulative_average_cost == pytest.approx(sum(a.stage_costs) / a.T, rel=1e-9)
    assert a.max_control_norm > 0.0 and a.max_state_norm > 0.0


def test_run_episode_stage_costs_match_resimulation():
    # Re-simulate the episode with plain numpy: the controller and the
    # generator are deterministic, so replaying them yields the same
    # trajectory, and every recorded stage cost is x'Qx + u'Ru on it.
    sys = random_system(4, 2, 2, seed=4)
    cw = CostWeights(np.diag([1.0, 2.0, 0.5, 3.0]), np.diag([2.0, 0.5]))
    x0 = np.random.default_rng(8).standard_normal(4)
    T = 40
    rec = run_episode(
        sys, cw, lqr_controller(sys, cw), RandomDirectionGenerator(2, 1.0, seed=6), T, x0
    )
    ctrl, gen = lqr_controller(sys, cw), RandomDirectionGenerator(2, 1.0, seed=6)
    x, expected = x0.copy(), []
    for _ in range(T):
        u = ctrl.act(x)
        w = gen.emit(x)
        expected.append(x @ cw.Q @ x + u @ cw.R @ u)
        x = sys.A @ x + sys.B @ u + sys.C @ w
        gen.observe(u)
    assert len(rec.stage_costs) == T
    np.testing.assert_allclose(rec.stage_costs, expected, rtol=1e-12, atol=0.0)


def test_run_episode_divergence_flagged_not_raised():
    sys = random_system(2, 2, 2, seed=2, target_radius=1.5)
    cw = CostWeights(np.eye(2), np.eye(2))
    gen = RandomDirectionGenerator(2, 1.0, seed=0)
    rec = run_episode(sys, cw, BlowupController(), gen, 50, np.ones(2))
    assert rec.diverged
    assert len(rec.stage_costs) < 50


def test_run_episode_rejects_wrong_shapes_at_the_boundary():
    # step would broadcast a (d_u, 1) control into a (d_x, d_x) "state"
    # without complaint, so the harness checks what the pluggable
    # controller and generator return.
    sys = random_system(4, 2, 2, seed=0)
    cw = CostWeights(np.eye(4), np.eye(2))
    with pytest.raises(ValueError, match=r"controller 'column' returned u of shape \(2, 1\)"):
        run_episode(sys, cw, ColumnController(), ZeroGenerator(), 5, np.ones(4))
    with pytest.raises(ValueError, match=r"generator 'short' returned w of shape \(3,\)"):
        run_episode(sys, cw, lqr_controller(sys, cw), ShortGenerator(), 5, np.ones(4))


def test_run_episode_non_finite_control_diverges():
    sys = random_system(4, 2, 2, seed=0)
    cw = CostWeights(np.eye(4), np.eye(2))
    rec = run_episode(sys, cw, NanController(), ZeroGenerator(), 10, np.ones(4))
    assert rec.diverged
    assert rec.max_state_norm == np.inf
    assert len(rec.stage_costs) == 1


class FaultyController:
    """Plays u = -K x, and the value `fault` at round `at`."""

    name = "faulty"

    def __init__(self, K, at, fault):
        self.K, self.at, self.fault, self.t = K, at, fault, 0

    def act(self, x):
        self.t += 1
        return np.full(self.K.shape[0], self.fault) if self.t - 1 == self.at else -self.K @ x


def per_round_episode(sys, cw, controller, generator, T, x0):
    """(stage costs, max ||u||, max ||x||, diverged) of an episode, each
    computed round by round with plain formulas: x'Qx + u'Ru, Python's max
    of math.sqrt(u @ u), and of math.sqrt(x @ x) from x_0 on."""
    x = np.array(x0, dtype=float)
    costs, max_u, max_x = [], 0.0, math.sqrt(x @ x)
    for _ in range(T):
        u = controller.act(x)
        w = generator.emit(x)
        costs.append(float(x @ cw.Q @ x + u @ cw.R @ u))
        max_u = max(max_u, math.sqrt(u @ u))
        x = sys.A @ x + sys.B @ u + sys.C @ w
        generator.observe(u)
        x_norm = math.sqrt(x @ x)
        if not math.isfinite(x_norm):
            return costs, max_u, math.inf, True
        max_x = max(max_x, x_norm)
        if x_norm > DIVERGENCE_LIMIT:
            return costs, max_u, max_x, True
    return costs, max_u, max_x, False


@pytest.mark.parametrize("case", ["lqr-random", "gpc-hinf", "blowup", "nan-control", "inf-control"])
def test_run_episode_matches_per_round_arithmetic(case):
    # The harness computes the costs and norms once per episode from the
    # stacked trajectory; they must equal the per-round formulas exactly.
    rng = np.random.default_rng(5)
    sys = random_system(4, 2, 2, seed=6, target_radius=1.5 if case == "blowup" else 0.9)
    Mq, Mr = rng.standard_normal((4, 4)), rng.standard_normal((2, 2))
    cw = CostWeights(Mq @ Mq.T + 0.5 * np.eye(4), Mr @ Mr.T + 0.5 * np.eye(2))
    x0 = rng.standard_normal(4)
    T = 60
    _, K = solve_dare(sys, cw)
    hinf = hinf_bisection(sys, cw) if case == "gpc-hinf" else None

    def pair():
        """A fresh (controller, generator) of the case."""
        if case == "lqr-random":
            return LinearFeedback(K, "lqr"), RandomDirectionGenerator(2, 1.0, seed=3)
        if case == "gpc-hinf":
            return GpcController(sys, cw, K), HinfGenerator(hinf, 1.0)
        if case == "blowup":
            return BlowupController(), RandomDirectionGenerator(2, 1.0, seed=3)
        fault = np.nan if case == "nan-control" else np.inf
        return FaultyController(K, 7, fault), RandomDirectionGenerator(2, 1.0, seed=3)

    with np.errstate(invalid="ignore"):  # inf - inf in the plant step of inf-control
        rec = run_episode(sys, cw, *pair(), T, x0)
        costs, max_u, max_x, diverged = per_round_episode(sys, cw, *pair(), T, x0)
    assert len(rec.stage_costs) == len(costs)
    np.testing.assert_array_equal(rec.stage_costs, costs)  # exact; NaN only where the formula gives NaN
    assert rec.max_control_norm == max_u
    assert rec.max_state_norm == max_x
    assert rec.diverged == diverged
    if case == "blowup":
        assert diverged and math.isfinite(max_x) and max_x > DIVERGENCE_LIMIT and len(costs) < T
    elif case.endswith("control"):
        assert diverged and max_x == math.inf and len(costs) == 8
    else:
        assert not diverged and len(costs) == T
        assert rec.cumulative_average_cost == sum(costs) / T


def test_run_record_json_round_trip_excludes_wall_time():
    sys = random_system(4, 2, 2, seed=1)
    cw = CostWeights(np.eye(4), np.eye(2))
    gen = RandomDirectionGenerator(2, 1.0, seed=5)
    rec = run_episode(sys, cw, lqr_controller(sys, cw), gen, 10, np.zeros(4))
    line = rec.to_json_line()
    assert "wall_time" not in line
    back = RunRecord.from_json_line(line)
    assert back.to_json_line() == line


def test_config_takes_known_names_and_rejects_the_rest():
    cfg = ExperimentConfig()
    assert cfg.controllers == ["lqr", "gpc", "hinf"] == list(bench.CONTROLLERS)
    assert cfg.generators == ["motr", "oga", "hinf", "random", "sine", "gaussian"] == list(bench.GENERATORS)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"bogus": 1})
    for fields in ({"eps": 0.1}, {"eta": None}, {"eta": 0.5}):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_dict(fields)
    # A controller or generator is a name; a spec object, with or without
    # fields, is malformed like an unknown name, and the message names it.
    for fields, named in (
        ({"controllers": ["nope"]}, "'nope'"),
        ({"controllers": [{"name": "lqr"}]}, "{'name': 'lqr'}"),
        ({"controllers": ["lqr", {"name": "gpc", "h": 5}]}, "{'name': 'gpc', 'h': 5}"),
        ({"generators": [{"name": "motr"}]}, "{'name': 'motr'}"),
        ({"generators": [{"name": "oga", "lr": None}]}, "{'name': 'oga', 'lr': None}"),
        ({"generators": ["random", ["motr"]]}, "['motr']"),
        ({"generators": ["gpc"]}, "'gpc'"),
        ({"controllers": [None]}, "None"),
    ):
        with pytest.raises(ConfigError, match="must be names from") as err:
            ExperimentConfig(**fields)
        assert str(err.value).endswith(f"got {named}"), err.value
    for fields in ({"controllers": ["lqr", "lqr"]}, {"generators": ["sine", "motr", "sine"]}):
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig(**fields)
    # Every value is range-checked at load, before any episode runs.
    for fields in (
        {"D_M": -1},
        {"H": 2.5},
        {"T": "200"},
        {"d_w": 0},
        {"controllers": 5},
        {"controllers": []},
        {"generators": []},
        {"generators": "motr"},
        {"output_dir": 5},
        {"output_dir": ""},
    ):
        with pytest.raises(ConfigError, match="must be"):
            ExperimentConfig(**fields)


def test_config_json_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        ExperimentConfig.from_json_file(str(path))


def test_stable_seed_deterministic():
    assert stable_seed(0, "x", 1) == stable_seed(0, "x", 1)
    assert stable_seed(0, "x", 1) != stable_seed(0, "x", 2)


def test_run_grid_deterministic_and_parallel_equivalent(tmp_path):
    cfg = small_config()
    rec_a, fail_a = run_grid(cfg, jobs=1)
    rec_b, fail_b = run_grid(cfg, jobs=1)
    assert not fail_a and not fail_b
    lines_a = [r.to_json_line() for r in rec_a]
    lines_b = [r.to_json_line() for r in rec_b]
    assert lines_a == lines_b
    rec_p, fail_p = run_grid(cfg, jobs=2)
    assert not fail_p
    assert sorted(r.to_json_line() for r in rec_p) == sorted(lines_a)

    path = write_outputs(rec_a, cfg, str(tmp_path / "out"))
    again = [r.to_json_line() for r in load_records(path)]
    assert again == lines_a


# The generators that draw random numbers.  Every other component is
# deterministic, so run_grid builds it once per system and plays copies.
SEEDED_GENERATORS = ("motr", "oga", "random", "gaussian")


@pytest.mark.parametrize("kind, name", [pytest.param("controller", c, id=f"controller-{c}") for c in bench.CONTROLLERS]
                         + [pytest.param("generator", g, id=f"generator-{g}") for g in bench.GENERATORS])
def test_run_grid_builds_each_deterministic_component_once_per_system(monkeypatch, kind, name):
    if kind == "controller":
        cfg = small_config(controllers=[name], generators=["hinf", "random"])
    else:
        cfg = small_config(controllers=["lqr", "gpc"], generators=[name])
    build_controller, build_generator = bench._build_controller, bench._build_generator
    builds = []
    real = getattr(bench, f"_build_{kind}")
    monkeypatch.setattr(bench, f"_build_{kind}", lambda n, *args: builds.append(n) or real(n, *args))
    records, failures = run_grid(cfg, jobs=1)
    assert not failures and len(records) == 8  # 2 systems x 2 seeds x 2 partners
    per_run = len(records) if name in SEEDED_GENERATORS else cfg.n_systems
    assert builds == [name] * per_run

    # Each record equals that of an episode with components of its own, and
    # its rng_fingerprint is the hash its seed comes from.
    bundles = [build_bundle(cfg, index) for index in range(cfg.n_systems)]
    for rec in records:
        bundle = bundles[rec.system_index]
        seed = stable_seed(cfg.base_seed, rec.system_index, rec.seed_index, rec.controller, rec.generator)
        assert seed == int(rec.rng_fingerprint, 16) >> 1 and len(rec.rng_fingerprint) == 16
        x0 = np.random.default_rng(stable_seed(cfg.base_seed, "x0", rec.system_index, rec.seed_index))
        own = run_episode(
            bundle.system, bundle.cw, build_controller(rec.controller, bundle),
            build_generator(rec.generator, bundle, cfg, cfg.T, seed), cfg.T,
            x0.standard_normal(cfg.d_x), rec.system_index, rec.seed_index, rec.rng_fingerprint,
        )
        assert own.to_json_line() == rec.to_json_line()


def test_run_grid_sine_build_error_fails_only_the_sine_episodes(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(bench, "sinusoid_generator", broken)
    cfg = small_config(generators=["sine", "random"])
    records, failures = run_grid(cfg, jobs=1)
    assert [r.generator for r in records] == ["random"] * 4
    assert len(failures) == 4
    for task, error in failures:
        assert "generator=sine" in task
        assert error == "LinAlgError: Eigenvalues did not converge"


def test_run_grid_synthesis_error_fails_only_that_systems_episodes(fail_synthesis):
    cfg = small_config(n_systems=3, generators=["sine", "random"])
    clean, failures = run_grid(cfg, jobs=1)
    assert not failures
    fail_synthesis(cfg, 1)
    records, failures = run_grid(cfg, jobs=1)
    assert [r.to_json_line() for r in records] == [r.to_json_line() for r in clean if r.system_index != 1]
    assert [task for task, _ in failures] == [
        f"system=1 seed={seed} controller=lqr generator={gen}" for seed in (0, 1) for gen in ("sine", "random")
    ]
    assert {error for _, error in failures} == {"SynthesisError: Riccati iteration did not converge in 500 steps"}


def test_run_grid_gpc_build_error_fails_only_that_systems_gpc_episodes(monkeypatch):
    # GPC is built once per system; a build that raises fails exactly that
    # system's GPC episodes, with the error an episode's own build gives.
    cfg = small_config(n_systems=3, controllers=["lqr", "gpc"], generators=["random", "hinf"])
    clean, failures = run_grid(cfg, jobs=1)
    assert not failures and len(clean) == 24
    target = build_bundle(cfg, 1)
    unstable = np.full_like(target.lqr_K, 1e3)
    with pytest.raises(ValueError) as expected:
        GpcController(target.system, target.cw, unstable)

    builds = []

    def build(sys, cw, K_base):
        builds.append(sys)
        if np.array_equal(sys.A, target.system.A):
            K_base = unstable
        return GpcController(sys, cw, K_base)

    monkeypatch.setattr(bench, "GpcController", build)
    records, failures = run_grid(cfg, jobs=1)
    assert len(builds) == 3  # one per system, not one per episode
    assert [r.to_json_line() for r in records] == [
        r.to_json_line() for r in clean if not (r.system_index == 1 and r.controller == "gpc")
    ]
    assert [task for task, _ in failures] == [
        f"system=1 seed={seed} controller=gpc generator={gen}" for seed in (0, 1) for gen in ("random", "hinf")
    ]
    assert {error for _, error in failures} == {f"ValueError: {expected.value}"}


def test_run_grid_records_a_generators_failed_round(request):
    # The motr episode's 5th rollout quadratic raises: that episode fails,
    # named with its round, and the hinf episode's record is unchanged.
    cfg = small_config(n_systems=1, n_seeds=1, generators=["motr", "hinf"])
    clean, failures = run_grid(cfg, jobs=1)
    assert not failures
    request.getfixturevalue("fail_fifth_rollout_quadratic")
    records, failures = run_grid(cfg, jobs=1)
    assert failures == [(
        "system=0 seed=0 controller=lqr generator=motr",
        "GeneratorError: round 4: rollout quadratic is not finite",
    )]
    assert [r.to_json_line() for r in records] == [r.to_json_line() for r in clean if r.generator == "hinf"]


def test_normalize_scores_singleton_and_two_point():
    single = [record(0, 0, "lqr", "only", 3.0)]
    table = normalize_scores(single)
    assert table.ratio["lqr"]["only"][0] == pytest.approx(1.0)

    recs = []
    for si in range(3):
        for sj in range(2):
            recs.append(record(si, sj, "lqr", "strong", 2.0))
            recs.append(record(si, sj, "lqr", "weak", 1.0))
    table = normalize_scores(recs)
    assert table.ratio["lqr"]["strong"][0] == pytest.approx(1.0)
    assert table.ratio["lqr"]["weak"][0] == pytest.approx(0.5)
    assert table.minmax["lqr"]["strong"][0] == pytest.approx(1.0)
    assert table.minmax["lqr"]["weak"][0] == pytest.approx(0.0)

    shuffled = list(reversed(recs))
    table2 = normalize_scores(shuffled)
    assert table2.ratio["lqr"]["weak"] == table.ratio["lqr"]["weak"]

    with pytest.raises(AggregationError, match=re.escape("missing cells: [(2, 1, 'lqr', 'weak')]")):
        normalize_scores(recs[:-1])
    with pytest.raises(AggregationError, match=re.escape("duplicate record for (0, 0, 'lqr', 'strong')")):
        normalize_scores(recs + [recs[0]])
    # Missing cells are listed in (system, seed, controller, generator) order.
    with pytest.raises(AggregationError, match=re.escape("[(0, 1, 'lqr', 'weak'), (1, 0, 'lqr', 'strong')]")):
        normalize_scores([r for r in recs if (r.system_index, r.seed_index, r.generator) not in
                          ((1, 0, "strong"), (0, 1, "weak"))])


def test_normalize_scores_diverged_takes_worst_cost():
    def rec(si, sj, gen, cost, diverged=False):
        return record(si, sj, "lqr", gen, cost, diverged)

    recs = [
        rec(0, 0, "a", 5.0),
        rec(0, 0, "b", 0.1, diverged=True),  # scored as the cell's worst: 5.0
        rec(0, 0, "c", 1.0),
    ]
    table = normalize_scores(recs)
    assert table.n_diverged == 1
    assert table.ratio["lqr"]["b"][0] == pytest.approx(1.0)
    assert table.ratio["lqr"]["a"][0] == pytest.approx(1.0)
    assert table.ratio["lqr"]["c"][0] == pytest.approx(0.2)


def test_normalize_scores_group_with_every_run_diverged():
    # Every run of (system 0, lqr) diverged: each scores as the group's
    # largest cost, 3.0, so both generators read 1 on that system.
    recs = [
        record(0, 0, "lqr", "a", 3.0, diverged=True),
        record(0, 1, "lqr", "a", 1.0, diverged=True),
        record(0, 0, "lqr", "b", 2.0, diverged=True),
        record(0, 1, "lqr", "b", 2.0, diverged=True),
    ]
    recs += [record(1, sj, "lqr", g, cost) for sj in range(2) for g, cost in (("a", 4.0), ("b", 1.0))]
    table = normalize_scores(recs)
    assert table.n_diverged == 4
    assert table.ratio["lqr"]["a"] == (1.0, 0.0)
    assert table.ratio["lqr"]["b"] == (0.625, float(np.std([1.0, 0.25], ddof=1)))
    assert table.minmax["lqr"]["b"] == (0.5, float(np.std([1.0, 0.0], ddof=1)))


def test_normalize_scores_all_zero_costs_and_single_system():
    # A controller whose every seed-mean cost is 0 reads 1.0 in both
    # columns; with a single system the std across systems is 0.
    recs = [record(0, sj, c, g, 0.0 if c == "quiet" else cost)
            for sj in range(3) for c in ("quiet", "lqr") for g, cost in (("a", 2.0), ("b", 1.0))]
    table = normalize_scores(recs)
    assert table.n_systems == 1
    for kind in (table.ratio, table.minmax):
        assert kind["quiet"] == {"a": (1.0, 0.0), "b": (1.0, 0.0)}
    assert table.ratio["lqr"] == {"a": (1.0, 0.0), "b": (0.5, 0.0)}
    assert table.minmax["lqr"] == {"a": (1.0, 0.0), "b": (0.0, 0.0)}

    # On two systems the zero group still reads 1.0 on its own system.
    recs += [record(1, sj, c, g, cost)
             for sj in range(3) for c in ("quiet", "lqr") for g, cost in (("a", 2.0), ("b", 1.0))]
    table = normalize_scores(recs)
    assert table.ratio["quiet"]["b"][0] == 0.75
    assert table.minmax["quiet"]["b"][0] == 0.5


def test_normalize_scores_independent_of_record_order():
    rng = np.random.default_rng(3)
    recs = random_records(rng, 4, 5, ("lqr", "gpc", "hinf"), ("motr", "oga", "hinf", "random"), 0.3)
    table = normalize_scores(recs)
    assert table.n_diverged > 0
    for _ in range(5):
        other = normalize_scores([recs[i] for i in rng.permutation(len(recs))])
        assert other.n_diverged == table.n_diverged
        for kind in ("ratio", "minmax"):
            mine, theirs = getattr(table, kind), getattr(other, kind)
            assert {c: {g: repr(v) for g, v in row.items()} for c, row in mine.items()} == \
                {c: {g: repr(v) for g, v in row.items()} for c, row in theirs.items()}


def test_normalize_scores_non_finite_diverged_cost_takes_worst_finite():
    # A diverged run whose cost is NaN or inf (a pluggable controller that
    # returned a non-finite u) scores as its group's worst finite cost, in
    # any record order.
    recs = [
        record(0, 0, "lqr", "a", 1.0),
        record(0, 0, "lqr", "b", 2.5, diverged=True),
        record(0, 1, "lqr", "a", float("nan"), diverged=True),
        record(0, 1, "lqr", "b", 2.5),
        record(1, 0, "lqr", "a", float("inf"), diverged=True),
        record(1, 0, "lqr", "b", 2.5, diverged=True),
        record(1, 1, "lqr", "a", 2.5, diverged=True),
        record(1, 1, "lqr", "b", 2.5),
    ]
    # System 0 scores as a = [1.0, 2.5], b = [2.5, 2.5]; system 1 as 2.5 throughout.
    forward, backward = normalize_scores(recs), normalize_scores(recs[::-1])
    for table in (forward, backward):
        assert table.ratio["lqr"]["a"] == pytest.approx((0.85, np.std([0.7, 1.0], ddof=1)))
        assert table.ratio["lqr"]["b"] == (1.0, 0.0)
        cells = [v for kind in (table.ratio, table.minmax) for row in kind.values() for v in row.values()]
        assert np.isfinite(cells).all()
    assert forward.minmax == backward.minmax


def test_normalize_scores_ratio_matches_the_benchmark_oracle(perfbench):
    import checks

    rng = np.random.default_rng(11)
    recs = random_records(rng, 3, 10, ("lqr", "gpc", "hinf"), ("motr", "oga", "hinf", "random", "sine"), 0.0)
    table = normalize_scores(recs)
    oracle = checks.ratio_table(recs)
    for c, row in oracle.items():
        for g, value in row.items():
            assert abs(table.ratio[c][g][0] - value) <= 1e-12 * abs(value)


def test_aggregate_csv_shape(tmp_path):
    cfg = small_config(n_systems=2, n_seeds=1)
    records, failures = run_grid(cfg, jobs=1)
    assert not failures
    table = normalize_scores(records)
    lines = table.csv_lines("ratio")
    assert lines[0] == "controller,generator,score,std"
    assert len(lines) == 1 + len(table.controllers) * len(table.generators)
    text = table.format_text()
    assert "lqr" in text and "random" in text


def test_regret_curve_sublinear_on_default_system():
    # Surrogate regret of the adaptive generator against the best fixed
    # policy in hindsight: per-round regret shrinks with the horizon.
    cfg = ExperimentConfig(n_systems=1, n_seeds=1)
    rows, slope = regret_curve(cfg, 0, "lqr", [250, 500, 1000, 2000], 3)
    per_round = [r[2] for r in rows]
    assert all(b < a for a, b in zip(per_round, per_round[1:]))
    assert slope <= 0.65


def test_regret_curve_runs_and_validates():
    cfg = ExperimentConfig(n_systems=1, n_seeds=1, H=2)
    rows, slope = regret_curve(cfg, 0, "lqr", [50, 100], 2)
    assert [r[0] for r in rows] == [50, 100]
    for T, reg, per in rows:
        assert per == pytest.approx(reg / T)
    with pytest.raises(ValueError):
        regret_curve(cfg, 0, "lqr", [100, 50], 1)
    with pytest.raises(ConfigError, match="not in config"):
        regret_curve(cfg, 0, "nope", [50], 1)
    for index in (1, 7, -3):
        with pytest.raises(ConfigError, match="system_index"):
            regret_curve(cfg, index, "lqr", [50], 1)


@pytest.mark.parametrize("T_grid, n_seeds, field", [
    ([100.5], 1, "T"),
    ([True, 50], 1, "T"),
    ([50], 1.5, "n_seeds"),
    ([50], True, "n_seeds"),
])
def test_regret_curve_takes_only_integer_counts(T_grid, n_seeds, field):
    # Each horizon and n_seeds must be an integer >= 1, as the config's T
    # and n_seeds are: a float or a bool is refused before any episode runs.
    cfg = ExperimentConfig(n_systems=1, n_seeds=1, H=2)
    with pytest.raises(ConfigError, match=f"^{field} must be an integer >= 1"):
        regret_curve(cfg, 0, "lqr", T_grid, n_seeds)


def test_regret_curve_fits_no_slope_to_one_horizon():
    # One horizon fixes no log-log slope: nan, and no polyfit (whose
    # RankWarning the filter would turn into an error).
    cfg = ExperimentConfig(n_systems=1, n_seeds=1, H=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, slope = regret_curve(cfg, 0, "lqr", [40], 1)
    assert len(rows) == 1 and rows[0][1] > 0
    assert math.isnan(slope)
