"""Experiment harness: (system x controller x generator x seed) episodes,
cumulative-average costs, normalized aggregate tables, and regret curves.

A config names its controllers and generators, from CONTROLLERS and
GENERATORS.  A name is all there is to set: each is built from its
system's bundle and the config's top-level fields, and every other value
is a constant of its constructor.

Everything downstream of the config is deterministic: one hash of
(base_seed, system_index, seed_index, controller, generator) gives an
episode's seed and its rng_fingerprint, initial states depend only on
(base_seed, system_index, seed_index), and aggregation is a pure function
of the run records.
"""

import copy
import functools
import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .controllers import GpcController, HinfSolution, LinearFeedback, hinf_bisection, solve_dare
from .generators import (
    AdaptiveCdgGenerator,
    GaussianGenerator,
    HinfGenerator,
    RandomDirectionGenerator,
    sinusoid_generator,
)
from .lds import CostWeights, LinearSystem, random_system, stage_cost, step

__all__ = [
    "ConfigError",
    "AggregationError",
    "ExperimentConfig",
    "RunRecord",
    "AggregateTable",
    "SystemBundle",
    "stable_seed",
    "build_bundle",
    "run_episode",
    "run_grid",
    "write_outputs",
    "load_records",
    "normalize_scores",
    "regret_curve",
]

DIVERGENCE_LIMIT = 1e12

# The names a config can list, in the default config's order.
CONTROLLERS = ("lqr", "gpc", "hinf")
GENERATORS = ("motr", "oga", "hinf", "random", "sine", "gaussian")


class ConfigError(ValueError):
    """Malformed experiment config; message names the offending field."""


class AggregationError(RuntimeError):
    """Aggregation over an incomplete or inconsistent record grid."""


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_positive(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and 0.0 < v < math.inf


# The valid values of the fields that are not positive numbers.
_INT_AT_LEAST_1 = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_FIELD_RANGES = {
    **dict.fromkeys(("H", "d_x", "d_u", "d_w", "T", "n_systems", "n_seeds"), _INT_AT_LEAST_1),
    "base_seed": ("an integer", _is_int),
    **dict.fromkeys(("controllers", "generators"), ("a non-empty list", lambda v: isinstance(v, list) and v != [])),
    "output_dir": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
}


def _check_field(key: str, value) -> None:
    expected, valid = _FIELD_RANGES.get(key, ("a positive number", _is_positive))
    if not valid(value):
        raise ConfigError(f"{key} must be {expected}, got {value!r}")


def _check_names(key: str, names: list, known: tuple) -> None:
    for name in names:
        if not (isinstance(name, str) and name in known):
            raise ConfigError(f"{key} must be names from {list(known)}, got {name!r}")
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate {key} names")


def _seed_and_fingerprint(*parts):
    """The first 8 bytes of the SHA-256 of the parts' string forms, as a
    63-bit seed (shifted right by 1) and in hex."""
    head = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()[:8]
    return int.from_bytes(head, "big") >> 1, head.hex()


def stable_seed(*parts) -> int:
    """Deterministic 63-bit seed from the string forms of the parts."""
    return _seed_and_fingerprint(*parts)[0]


@dataclass
class ExperimentConfig:
    """Benchmark definition; every field has an explicit value after load,
    and every value is range-checked then (ConfigError).  controllers and
    generators are non-empty lists of distinct names from CONTROLLERS and
    GENERATORS.

    H and D_M are the memory length and policy ball of both adaptive
    generators; MOTR calibrates its perturbation rate eta at runtime, on
    the largest coefficient of the first min(2H + 2, T) observed quadratics.
    """

    d_x: int = 4
    d_u: int = 2
    d_w: int = 2
    T: int = 200
    n_systems: int = 11
    n_seeds: int = 10
    base_seed: int = 0
    target_radius: float = 0.9
    W_max: float = 1.0
    D_M: float = 0.3
    H: int = 3
    controllers: list = field(default_factory=lambda: list(CONTROLLERS))
    generators: list = field(default_factory=lambda: list(GENERATORS))
    output_dir: str = "out"

    def __post_init__(self):
        for f in fields(self):
            _check_field(f.name, getattr(self, f.name))
        _check_names("controllers", self.controllers, CONTROLLERS)
        _check_names("generators", self.generators, GENERATORS)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        return cls.from_dict(obj)


@dataclass
class RunRecord:
    """One (system, seed, controller, generator) episode."""

    system_index: int
    seed_index: int
    controller: str
    generator: str
    T: int
    cumulative_average_cost: float
    stage_costs: list
    max_control_norm: float
    max_state_norm: float
    diverged: bool
    regret_hindsight: Optional[float]
    regret_achieved: Optional[float]
    rng_fingerprint: str
    wall_time: float = 0.0

    def to_json_line(self) -> str:
        return json.dumps({k: getattr(self, k) for k in _JSON_FIELDS})

    @classmethod
    def from_json_line(cls, line: str) -> "RunRecord":
        """The record of one runs.jsonl line.  KeyError names a missing
        field; ValueError says the line is not JSON, not an object, or
        holds a field of the wrong type."""
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        values = {k: obj[k] for k in _JSON_FIELDS}
        for f in fields(cls):
            if f.name in values and not _json_type_ok(f.type, values[f.name]):
                raise ValueError(f"{f.name} has the wrong type: {values[f.name]!r}")
        return cls(wall_time=0.0, **values)


# Every field but wall_time, in declaration order: reruns must be byte-identical.
_JSON_FIELDS = tuple(f.name for f in fields(RunRecord) if f.name != "wall_time")


def _json_type_ok(kind, value) -> bool:
    """Whether a value parsed from JSON fits a RunRecord field's annotation.
    JSON gives exact types, so a float field takes an int or a float, an int
    field no bool, and the one list field (stage_costs) holds numbers."""
    if kind == Optional[float]:
        return value is None or type(value) in (int, float)
    if kind is float:
        return type(value) in (int, float)
    if kind is list:
        return type(value) is list and set(map(type, value)) <= {int, float}
    return type(value) is kind


@dataclass(frozen=True)
class SystemBundle:
    """A benchmark system with its synthesized gains."""

    system: LinearSystem
    cw: CostWeights
    lqr_K: np.ndarray
    hinf: HinfSolution


def build_bundle(config: ExperimentConfig, index: int) -> SystemBundle:
    sys = random_system(
        config.d_x,
        config.d_u,
        config.d_w,
        seed=stable_seed(config.base_seed, "system", index),
        target_radius=config.target_radius,
    )
    cw = CostWeights(np.eye(config.d_x), np.eye(config.d_u))
    _, K = solve_dare(sys, cw)
    hinf = hinf_bisection(sys, cw)
    return SystemBundle(system=sys, cw=cw, lqr_K=K, hinf=hinf)


def _build_controller(name: str, bundle: SystemBundle):
    """The controller named name (one of CONTROLLERS)."""
    if name == "gpc":
        return GpcController(bundle.system, bundle.cw, bundle.lqr_K)
    return LinearFeedback(bundle.lqr_K if name == "lqr" else bundle.hinf.K, name)


def _build_generator(name: str, bundle: SystemBundle, config: ExperimentConfig, T: int, seed: int):
    """The generator named name (one of GENERATORS), for episodes of T rounds."""
    W_max = config.W_max
    if name in ("motr", "oga"):
        return AdaptiveCdgGenerator(
            bundle.system, bundle.cw, bundle.hinf, update=name, T=T, H=config.H, D_M=config.D_M,
            W_max=W_max, seed=seed,
        )
    if name == "hinf":
        return HinfGenerator(bundle.hinf, W_max)
    if name == "sine":
        return sinusoid_generator(bundle.system, bundle.cw, W_max, T)
    if name == "gaussian":
        return GaussianGenerator(bundle.system.d_w, W_max, seed)
    return RandomDirectionGenerator(bundle.system.d_w, W_max, seed)


def run_episode(
    sys: LinearSystem,
    cw: CostWeights,
    controller,
    generator,
    T: int,
    x0: np.ndarray,
    system_index: int = 0,
    seed_index: int = 0,
    rng_fingerprint: str = "",
) -> RunRecord:
    """Execute T rounds: the controller sees x_t and commits u_t, the
    generator (never shown u_t beforehand) commits w_t, the state steps, and
    both sides observe the realized quantities.

    What enters from outside is checked here, at the boundary: x0 becomes a
    float vector and must have shape (d_x,), and the controller's u and the
    generator's w, which come from pluggable code, become float arrays whose
    shapes are checked every round; a wrong shape raises ValueError.  The
    controller, the generator and the plant step therefore see float
    vectors and convert nothing.  A round is act, emit, step, observe and
    one x.dot(x) for the divergence test (act, emit and observe are bound
    once per episode); x_t and u_t go into preallocated
    arrays, and the stage costs, the largest ||u_t|| and the largest ||x_t||
    (x_0 and every state reached) are computed from them once, after the
    loop, with the same bits as per-round arithmetic.  State blowup past
    DIVERGENCE_LIMIT, or a non-finite state, ends the episode early with
    the diverged flag set instead of raising.
    """
    t0 = time.perf_counter()
    x = np.array(x0, dtype=float)
    if x.shape != (sys.d_x,):
        raise ValueError(f"x0 must have shape ({sys.d_x},), got {x.shape}")
    u_shape, w_shape = (sys.d_u,), (sys.d_w,)
    X, U = np.empty((T, sys.d_x)), np.empty((T, sys.d_u))
    sq_norms = np.empty(T + 1)  # ||x||^2 of x_0 and of each state reached
    sq_norms[0] = x.dot(x)
    rounds, diverged = T, False
    act, emit, observe = controller.act, generator.emit, generator.observe
    for t in range(T):
        u = np.asarray(act(x), dtype=float)
        w = np.asarray(emit(x), dtype=float)
        if u.shape != u_shape:
            raise ValueError(f"controller {controller.name!r} returned u of shape {u.shape}, expected {u_shape}")
        if w.shape != w_shape:
            raise ValueError(f"generator {generator.name!r} returned w of shape {w.shape}, expected {w_shape}")
        X[t], U[t] = x, u
        x = step(sys, x, u, w)
        observe(u)
        sq_norms[t + 1] = sq = x.dot(x)
        # ||x|| as np.linalg.norm computes it; NaN once x is not finite.
        if not math.sqrt(sq) <= DIVERGENCE_LIMIT:
            rounds, diverged = t + 1, True
            break
    X, U = X[:rounds], U[:rounds]
    costs = stage_cost(cw, X, U).tolist()
    # sqrt is monotone, so the square root of the largest squared norm is
    # the largest norm.  A NaN control norm is skipped, as Python's max
    # skips it; a non-finite state makes the state norm inf.
    max_u = math.sqrt(np.fmax.reduce((U[:, None] @ U[:, :, None]).ravel(), initial=0.0))
    largest = float(sq_norms[: rounds + 1].max())
    max_x = math.sqrt(largest) if math.isfinite(largest) else math.inf
    pair = generator.regret_pair() if hasattr(generator, "regret_pair") else None
    return RunRecord(
        system_index=system_index,
        seed_index=seed_index,
        controller=controller.name,
        generator=generator.name,
        T=T,
        cumulative_average_cost=sum(costs) / T,
        stage_costs=costs,
        max_control_norm=max_u,
        max_state_norm=max_x,
        diverged=diverged,
        regret_hindsight=None if pair is None else pair[0],
        regret_achieved=None if pair is None else pair[1],
        rng_fingerprint=rng_fingerprint,
        wall_time=time.perf_counter() - t0,
    )


def _built(build, *args):
    """build(*args), or the error it raised.  A build that serves many
    episodes (a system's bundle, or a component built once per system)
    returns its error instead of raising it, so that the error fails those
    episodes and no other."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 - raised again by each episode that needs it
        return exc


def _copy_of(prototype):
    """A copy of a per-system prototype, or the error its build raised.
    A prototype never plays, so its copy starts at round 0."""
    if isinstance(prototype, Exception):
        raise prototype.with_traceback(None)
    return copy.copy(prototype)


# The generators that draw random numbers; each episode builds its own
# from its seed.  Every other component is built once per system.
_SEEDED_GENERATORS = ("motr", "oga", "random", "gaussian")


def _episode_task(args):
    """The record of one episode, played by copies of its per-system
    prototypes; a seeded generator comes by name and is built with its seed."""
    config, index, seed_index, bundle, x0, controller, generator, seed, fingerprint = args
    controller = _copy_of(controller)
    generator = (_build_generator(generator, bundle, config, config.T, seed) if isinstance(generator, str)
                 else _copy_of(generator))
    return run_episode(bundle.system, bundle.cw, controller, generator, config.T, x0,
                       system_index=index, seed_index=seed_index, rng_fingerprint=fingerprint)


def run_grid(config: ExperimentConfig, jobs: int = 1, log=None):
    """All episodes of the config grid, in deterministic order.

    Returns (records, failures); failures are (task description, error
    string) pairs for episodes that raised.  Per system, each listed
    component that draws no random numbers is built once, and its episodes
    play copies.  A build that fails, the system's synthesis included,
    fails the episodes that play it; the others still run.
    """
    tasks = []
    for index in range(config.n_systems):
        bundle = _built(build_bundle, config, index)
        if isinstance(bundle, Exception):
            controllers = dict.fromkeys(config.controllers, bundle)
            generators = dict.fromkeys(config.generators, bundle)
        else:
            controllers = {name: _built(_build_controller, name, bundle) for name in config.controllers}
            generators = {name: name if name in _SEEDED_GENERATORS
                          else _built(_build_generator, name, bundle, config, config.T, None)
                          for name in config.generators}
        for seed_index in range(config.n_seeds):
            x0_rng = np.random.default_rng(stable_seed(config.base_seed, "x0", index, seed_index))
            x0 = x0_rng.standard_normal(config.d_x)
            for ctrl_name in config.controllers:
                for gen_name in config.generators:
                    describe = f"system={index} seed={seed_index} controller={ctrl_name} generator={gen_name}"
                    seed, fingerprint = _seed_and_fingerprint(config.base_seed, index, seed_index, ctrl_name, gen_name)
                    # A task carries only the prototypes it plays: a pool
                    # pickles each task, and a GPC pickles to about 13 KB.
                    tasks.append((describe, (config, index, seed_index, bundle, x0, controllers[ctrl_name],
                                             generators[gen_name], seed, fingerprint)))
    records, failures = [], []

    def collect(results):
        # One zero-argument call per task, in task order, giving its record.
        for (describe, _), result in zip(tasks, results):
            try:
                records.append(result())
            except Exception as exc:  # noqa: BLE001 - harness must keep going
                failures.append((describe, f"{type(exc).__name__}: {exc}"))
            if log:
                log(f"{describe}: done ({len(records)}/{len(tasks)})")

    if jobs <= 1:
        collect(functools.partial(_episode_task, args) for _, args in tasks)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            collect([pool.submit(_episode_task, args).result for _, args in tasks])
    return records, failures


def write_outputs(records, config: ExperimentConfig, out_dir: str, failures=()):
    os.makedirs(out_dir, exist_ok=True)
    runs_path = os.path.join(out_dir, "runs.jsonl")
    with open(runs_path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json_line() + "\n")
    with open(os.path.join(out_dir, "config.snapshot.json"), "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "timings.csv"), "w") as fh:
        fh.write("system_index,seed_index,controller,generator,wall_time\n")
        for rec in records:
            fh.write(
                f"{rec.system_index},{rec.seed_index},{rec.controller},{rec.generator},{rec.wall_time:.6f}\n"
            )
    manifest = os.path.join(out_dir, "incomplete.manifest.json")
    if failures:
        with open(manifest, "w") as fh:
            json.dump([{"task": t, "error": e} for t, e in failures], fh, indent=2)
            fh.write("\n")
    elif os.path.exists(manifest):
        os.remove(manifest)  # left by an earlier, partial run into the same directory
    return runs_path


def load_records(path: str):
    """The records of a runs.jsonl; a line that is not a record (not JSON,
    a missing field or a field of the wrong type) raises ValueError naming
    the line."""
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    records.append(RunRecord.from_json_line(line))
                except (KeyError, TypeError, ValueError) as exc:
                    what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                    raise ValueError(f"{path} line {number}: not a run record: {what}") from None
    return records


@dataclass
class AggregateTable:
    """Normalized scores per (controller, generator).

    ratio: per system, seed-mean costs divided by the best generator's cost
    for that (system, controller); minmax: the same costs min-max rescaled
    to [0, 1].  Both columns are averaged across systems (std across
    systems of the per-system values, ddof=1) and finally rescaled so the
    best generator's mean is exactly 1.000.
    """

    controllers: list
    generators: list
    ratio: dict
    minmax: dict
    n_systems: int
    n_seeds: int
    n_diverged: int

    def csv_lines(self, kind: str):
        table = {"ratio": self.ratio, "minmax": self.minmax}[kind]
        lines = ["controller,generator,score,std"]
        for ctrl in self.controllers:
            for gen in self.generators:
                mean, std = table[ctrl][gen]
                lines.append(f"{ctrl},{gen},{mean:.6f},{std:.6f}")
        return lines

    def format_text(self) -> str:
        """The ratio table as aligned text, mean ± std per cell."""
        table = self.ratio
        width = max(len(g) for g in self.generators) + 2
        header = " " * width + "".join(f"{c:>20}" for c in self.controllers)
        lines = [header]
        for gen in self.generators:
            cells = "".join(
                f"{table[ctrl][gen][0]:>12.3f} ± {table[ctrl][gen][1]:<5.3f}" for ctrl in self.controllers
            )
            lines.append(f"{gen:<{width}}" + cells)
        return "\n".join(lines)


def normalize_scores(records) -> AggregateTable:
    """Aggregate run records into the two normalized score tables, as
    arithmetic on one cost[controller, system, generator, seed] array."""
    if not records:
        raise AggregationError("no records to aggregate")
    controllers = list(dict.fromkeys(r.controller for r in records))
    generators = list(dict.fromkeys(r.generator for r in records))
    systems, seeds = sorted({r.system_index for r in records}), sorted({r.seed_index for r in records})
    index = [{v: i for i, v in enumerate(axis)} for axis in (controllers, systems, generators, seeds)]
    cost = np.zeros((len(controllers), len(systems), len(generators), len(seeds)))
    diverged, filled = np.zeros(cost.shape, bool), np.zeros(cost.shape, bool)
    for r in records:
        at = tuple(ix[v] for ix, v in zip(index, (r.controller, r.system_index, r.generator, r.seed_index)))
        if filled[at]:
            raise AggregationError(f"duplicate record for {(r.system_index, r.seed_index, r.controller, r.generator)}")
        filled[at], cost[at], diverged[at] = True, r.cumulative_average_cost, r.diverged
    missing = [(systems[s], seeds[k], controllers[c], generators[g])
               for s, k, c, g in np.argwhere(~filled.transpose(1, 3, 0, 2))]
    if missing:
        raise AggregationError(f"incomplete grid; missing cells: {missing[:20]}" + ("..." if len(missing) > 20 else ""))

    # A diverged run means the adversary destabilized the loop: it scores as
    # its (system, controller) group's largest cost over the non-diverged
    # runs, or over all runs when all diverged.  A non-finite diverged cost
    # is set to NaN, which fmax skips, so record order does not matter.
    cost[diverged & ~np.isfinite(cost)] = np.nan
    counted = ~diverged | diverged.all(axis=(2, 3), keepdims=True)
    worst = np.fmax.reduce(np.where(counted, cost, np.nan), axis=(2, 3), keepdims=True)
    cost = np.where(diverged, np.fmax(worst, cost), cost)

    def table(per_system):
        """{controller: {generator: (mean, std)}} of per_system[c, s, g]
        across systems, rescaled so that the best generator reads 1."""
        per_system = per_system.transpose(0, 2, 1).copy()  # systems last and contiguous, like the seeds
        mean = per_system.mean(axis=2)
        std = per_system.std(axis=2, ddof=1) if len(systems) > 1 else np.zeros_like(mean)
        anchor = mean.max(axis=1, keepdims=True)
        mean, std = np.where(anchor > 0, mean / anchor, 1.0), np.where(anchor > 0, std / anchor, 0.0)
        return {c: {g: (float(mean[i, j]), float(std[i, j])) for j, g in enumerate(generators)}
                for i, c in enumerate(controllers)}

    # The seed axis is last and contiguous, so each mean sums in np.mean's order for a list.
    with np.errstate(divide="ignore", invalid="ignore"):
        seed_mean = cost.mean(axis=3)
        best, least = seed_mean.max(axis=2, keepdims=True), seed_mean.min(axis=2, keepdims=True)
        ratio = table(np.where(best > 0, seed_mean / best, 1.0))
        minmax = table(np.where(best - least > 0, (seed_mean - least) / (best - least), 1.0))
    return AggregateTable(controllers=controllers, generators=generators, ratio=ratio, minmax=minmax,
                          n_systems=len(systems), n_seeds=len(seeds), n_diverged=int(diverged.sum()))


def _check_regret_args(config: ExperimentConfig, system_index: int, controller: str, T_grid, n_seeds: int):
    """ConfigError unless regret_curve takes these arguments (T_grid a list);
    n_seeds and each horizon obey the rules of the config's n_seeds and T."""
    _check_field("n_seeds", n_seeds)
    for T in T_grid:
        _check_field("T", T)
    if not T_grid or any(b <= a for a, b in zip(T_grid, T_grid[1:])):
        raise ConfigError(f"T_grid must be a non-empty, strictly increasing list, got {T_grid!r}")
    if not (_is_int(system_index) and 0 <= system_index < config.n_systems):
        raise ConfigError(f"system_index must be in [0, {config.n_systems}), got {system_index!r}")
    if controller not in config.controllers:
        raise ConfigError(f"controller {controller!r} not in config")


def regret_curve(config: ExperimentConfig, system_index: int, controller: str, T_grid, n_seeds: int):
    """Mean surrogate regret of MOTR against the named controller of the
    config on its system system_index, at each horizon.

    MOTR is built as run_grid builds it, from the config's H, D_M and
    W_max, whether or not the config's generators list it.  An unknown
    controller, a system_index outside [0, n_systems), a T_grid that is
    not a strictly increasing list of integers >= 1, or an n_seeds that is
    not an integer >= 1 raises ConfigError; a system whose synthesis fails
    raises SynthesisError.
    Returns (rows, slope): rows of (T, regret, regret/T) averaged over
    seeds, and the fitted log-log slope of regret versus T (nan when
    T_grid has one horizon, which fixes no slope, or when any mean regret
    is non-positive).
    """
    T_grid = list(T_grid)
    _check_regret_args(config, system_index, controller, T_grid, n_seeds)
    bundle = build_bundle(config, system_index)
    prototype = _build_controller(controller, bundle)
    rows = []
    for T in T_grid:
        regs = []
        for s in range(n_seeds):
            gen = _build_generator("motr", bundle, config, T, stable_seed(config.base_seed, "regret", T, s))
            x0_rng = np.random.default_rng(stable_seed(config.base_seed, "regret-x0", s))
            x0 = x0_rng.standard_normal(bundle.system.d_x)
            run_episode(bundle.system, bundle.cw, copy.copy(prototype), gen, T, x0)
            hind, ach = gen.regret_pair()
            regs.append(hind - ach)
        mean = float(np.mean(regs))
        rows.append((T, mean, mean / T))
    fits = len(rows) > 1 and all(r[1] > 0 for r in rows)
    slope = float(np.polyfit(np.log(T_grid), np.log([r[1] for r in rows]), 1)[0]) if fits else math.nan
    return rows, slope
