"""Experiment harness: (system x controller x generator x seed) episodes,
cumulative-average costs, normalized aggregate tables, and regret curves.

Everything downstream of the config is deterministic: per-episode seeds are
stable hashes of (base_seed, system_index, seed_index, controller,
generator), initial states depend only on (base_seed, system_index,
seed_index), and aggregation is a pure function of the run records.
"""

import functools
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .controllers import (
    HinfSolution,
    LinearFeedback,
    gpc_controller,
    hinf_bisection,
    hinf_controller,
    solve_dare,
)
from .generators import (
    AdaptiveCdgGenerator,
    GaussianGenerator,
    HinfGenerator,
    MotrConfig,
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

CONTROLLER_DEFAULTS = {
    "lqr": {},
    "hinf": {},
    "gpc": {"h": 5, "lr": None, "ball_radius": None},
}

GENERATOR_DEFAULTS = {
    "motr": {"H": None, "D_M": None, "eta": None, "eps": None, "residual_bias": True},
    "oga": {"H": None, "D_M": None, "eta": None, "eps": None, "residual_bias": True, "lr": None},
    "hinf": {},
    "sine": {"n_random_directions": 8},
    "gaussian": {},
    "random": {},
}


class ConfigError(ValueError):
    """Malformed experiment config; message names the offending field."""


class AggregationError(RuntimeError):
    """Aggregation over an incomplete or inconsistent record grid."""


def _materialize(spec, defaults, kind):
    """A controller or generator spec (a name, or an object with a 'name'
    field) merged over the defaults for that name; an unknown name or field
    raises ConfigError."""
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"{kind} spec must be a name or an object with a 'name' field: {spec!r}")
    name = spec["name"]
    if name not in defaults:
        raise ConfigError(f"unknown {kind} {name!r}; expected one of {sorted(defaults)}")
    out = dict(defaults[name])
    for key, value in spec.items():
        if key != "name" and key not in out:
            raise ConfigError(f"unknown field {key!r} in {kind} spec {name!r}")
        out[key] = value
    out["name"] = name
    return out


def stable_seed(*parts) -> int:
    """Deterministic 63-bit seed from the string forms of the parts."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _fingerprint(*parts) -> str:
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()[:16]


@dataclass
class ExperimentConfig:
    """Benchmark definition; every field has an explicit value after load.

    The adaptive generator specs inherit H, D_M, eta, eps from the top
    level whenever the spec itself leaves them null; eta/eps remaining null
    selects the documented runtime default (eta calibrated on the first
    full window of observed quadratics, eps = 1/T).
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
    eta: Optional[float] = None
    eps: Optional[float] = None
    controllers: list = field(
        default_factory=lambda: [{"name": "lqr"}, {"name": "gpc"}, {"name": "hinf"}]
    )
    generators: list = field(
        default_factory=lambda: [
            {"name": "motr"},
            {"name": "oga"},
            {"name": "hinf"},
            {"name": "random"},
            {"name": "sine"},
            {"name": "gaussian"},
        ]
    )
    output_dir: str = "out"

    def __post_init__(self):
        if min(self.d_x, self.d_u, self.d_w) < 1:
            raise ConfigError("dimensions d_x, d_u, d_w must be >= 1")
        if self.T < 1 or self.n_systems < 1 or self.n_seeds < 1:
            raise ConfigError("T, n_systems and n_seeds must be >= 1")
        if not (self.target_radius > 0.0):
            raise ConfigError("target_radius must be positive")
        if not (self.W_max > 0.0 and self.D_M > 0.0 and self.H >= 1):
            raise ConfigError("W_max, D_M must be positive and H >= 1")
        self.controllers = [_materialize(s, CONTROLLER_DEFAULTS, "controller") for s in self.controllers]
        self.generators = [_materialize(s, GENERATOR_DEFAULTS, "generator") for s in self.generators]
        # Top-level values fill per-spec nulls for the adaptive generators.
        for spec in self.generators:
            if spec["name"] in ("motr", "oga"):
                for key in ("H", "D_M", "eta", "eps"):
                    if spec[key] is None:
                        spec[key] = getattr(self, key)
        names = [s["name"] for s in self.controllers]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate controller names")
        names = [s["name"] for s in self.generators]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate generator names")

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

    _JSON_FIELDS = (
        "system_index",
        "seed_index",
        "controller",
        "generator",
        "T",
        "cumulative_average_cost",
        "stage_costs",
        "max_control_norm",
        "max_state_norm",
        "diverged",
        "regret_hindsight",
        "regret_achieved",
        "rng_fingerprint",
    )

    def to_json_line(self) -> str:
        # wall_time deliberately excluded: reruns must be byte-identical.
        return json.dumps({k: getattr(self, k) for k in self._JSON_FIELDS})

    @classmethod
    def from_json_line(cls, line: str) -> "RunRecord":
        obj = json.loads(line)
        return cls(wall_time=0.0, **{k: obj[k] for k in cls._JSON_FIELDS})


@dataclass(frozen=True)
class SystemBundle:
    """A benchmark system with its synthesized gains."""

    index: int
    system: LinearSystem
    cw: CostWeights
    lqr_P: np.ndarray
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
    P, K = solve_dare(sys, cw)
    hinf = hinf_bisection(sys, cw)
    return SystemBundle(index=index, system=sys, cw=cw, lqr_P=P, lqr_K=K, hinf=hinf)


def _build_controller(spec: dict, bundle: SystemBundle):
    """The controller of a spec already checked and merged over its defaults."""
    name = spec["name"]
    if name == "lqr":
        return LinearFeedback(bundle.lqr_K, "lqr")
    if name == "hinf":
        return hinf_controller(bundle.hinf)
    return gpc_controller(
        bundle.system,
        bundle.cw,
        bundle.lqr_K,
        h=spec["h"],
        lr=spec["lr"],
        ball_radius=spec["ball_radius"],
    )


def _build_generator(spec: dict, bundle: SystemBundle, config: ExperimentConfig, seed: int):
    """The generator of a spec of config.generators (checked and merged)."""
    name = spec["name"]
    if name in ("motr", "oga"):
        cfg = MotrConfig(
            T=config.T,
            H=spec["H"],
            D_M=spec["D_M"],
            eta=spec["eta"],
            eps=spec["eps"],
            W_max=config.W_max,
            residual_bias=spec["residual_bias"],
            seed=seed,
        )
        return AdaptiveCdgGenerator(
            bundle.system, bundle.cw, bundle.hinf, cfg, update=name, lr=spec.get("lr")
        )
    if name == "hinf":
        return HinfGenerator(bundle.hinf, config.W_max)
    if name == "sine":
        return sinusoid_generator(
            bundle.system,
            bundle.cw,
            config.W_max,
            config.T,
            seed=seed,
            n_random_directions=spec["n_random_directions"],
        )
    if name == "gaussian":
        return GaussianGenerator(config.d_w, config.W_max, seed)
    return RandomDirectionGenerator(config.d_w, config.W_max, seed)


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

    The controller's u and the generator's w are the values this harness
    takes from pluggable code, so their shapes are checked here, once per
    round; a wrong shape raises ValueError.  The plant step and the stage
    cost below it are plain arithmetic.  State blowup past
    DIVERGENCE_LIMIT, or a non-finite state, ends the episode early with
    the diverged flag set instead of raising.
    """
    t0 = time.perf_counter()
    x = np.array(x0, dtype=float)
    if x.shape != (sys.d_x,):
        raise ValueError(f"x0 must have shape ({sys.d_x},), got {x.shape}")
    u_shape, w_shape = (sys.d_u,), (sys.d_w,)
    costs = []
    max_u = 0.0
    max_x = float(np.linalg.norm(x))
    diverged = False
    for _ in range(T):
        u = np.asarray(controller.act(x), dtype=float)
        w = np.asarray(generator.emit(x), dtype=float)
        if u.shape != u_shape:
            raise ValueError(f"controller {controller.name!r} returned u of shape {u.shape}, expected {u_shape}")
        if w.shape != w_shape:
            raise ValueError(f"generator {generator.name!r} returned w of shape {w.shape}, expected {w_shape}")
        costs.append(stage_cost(cw, x, u))
        max_u = max(max_u, math.sqrt(u @ u))
        x = step(sys, x, u, w)
        generator.observe(u)
        # ||x||, as np.linalg.norm computes it; NaN or inf once x is not finite.
        x_norm = math.sqrt(x @ x)
        if not math.isfinite(x_norm):
            max_x = math.inf
            diverged = True
            break
        max_x = max(max_x, x_norm)
        if x_norm > DIVERGENCE_LIMIT:
            diverged = True
            break
    pair = generator.regret_pair() if hasattr(generator, "regret_pair") else None
    return RunRecord(
        system_index=system_index,
        seed_index=seed_index,
        controller=controller.name,
        generator=generator.name,
        T=T,
        cumulative_average_cost=float(sum(costs)) / T,
        stage_costs=[float(c) for c in costs],
        max_control_norm=max_u,
        max_state_norm=max_x,
        diverged=diverged,
        regret_hindsight=None if pair is None else pair[0],
        regret_achieved=None if pair is None else pair[1],
        rng_fingerprint=rng_fingerprint,
        wall_time=time.perf_counter() - t0,
    )


def _episode_task(args):
    config, bundle, ctrl_spec, gen_spec, seed_index = args
    episode_seed = stable_seed(
        config.base_seed, bundle.index, seed_index, ctrl_spec["name"], gen_spec["name"]
    )
    x0_rng = np.random.default_rng(stable_seed(config.base_seed, "x0", bundle.index, seed_index))
    x0 = x0_rng.standard_normal(config.d_x)
    controller = _build_controller(ctrl_spec, bundle)
    generator = _build_generator(gen_spec, bundle, config, episode_seed)
    return run_episode(
        bundle.system,
        bundle.cw,
        controller,
        generator,
        config.T,
        x0,
        system_index=bundle.index,
        seed_index=seed_index,
        rng_fingerprint=_fingerprint(
            config.base_seed, bundle.index, seed_index, ctrl_spec["name"], gen_spec["name"]
        ),
    )


def run_grid(config: ExperimentConfig, jobs: int = 1, log=None):
    """All episodes of the config grid, in deterministic order.

    Returns (records, failures); failures are (task description, error
    string) pairs for episodes that raised.
    """
    bundles = [build_bundle(config, i) for i in range(config.n_systems)]
    tasks = []
    for bundle in bundles:
        for seed_index in range(config.n_seeds):
            for ctrl_spec in config.controllers:
                for gen_spec in config.generators:
                    tasks.append((config, bundle, ctrl_spec, gen_spec, seed_index))
    records, failures = [], []

    def collect(results):
        # One zero-argument call per task, in task order, giving its record.
        for task, result in zip(tasks, results):
            _, bundle, ctrl_spec, gen_spec, seed_index = task
            describe = (
                f"system={bundle.index} seed={seed_index} "
                f"controller={ctrl_spec['name']} generator={gen_spec['name']}"
            )
            try:
                records.append(result())
            except Exception as exc:  # noqa: BLE001 - harness must keep going
                failures.append((describe, f"{type(exc).__name__}: {exc}"))
            if log:
                log(f"{describe}: done ({len(records)}/{len(tasks)})")

    if jobs <= 1:
        collect(functools.partial(_episode_task, task) for task in tasks)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            collect([pool.submit(_episode_task, task).result for task in tasks])
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
    if failures:
        with open(os.path.join(out_dir, "incomplete.manifest.json"), "w") as fh:
            json.dump([{"task": t, "error": e} for t, e in failures], fh, indent=2)
            fh.write("\n")
    return runs_path


def load_records(path: str):
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(RunRecord.from_json_line(line))
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

    def format_text(self, kind: str = "ratio") -> str:
        table = {"ratio": self.ratio, "minmax": self.minmax}[kind]
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
    """Aggregate run records into the two normalized score tables."""
    if not records:
        raise AggregationError("no records to aggregate")
    systems = sorted({r.system_index for r in records})
    seeds = sorted({r.seed_index for r in records})
    controllers, generators = [], []
    for r in records:
        if r.controller not in controllers:
            controllers.append(r.controller)
        if r.generator not in generators:
            generators.append(r.generator)
    by_key = {}
    for r in records:
        key = (r.system_index, r.seed_index, r.controller, r.generator)
        if key in by_key:
            raise AggregationError(f"duplicate record for {key}")
        by_key[key] = r
    missing = [
        (si, sj, c, g)
        for si in systems
        for sj in seeds
        for c in controllers
        for g in generators
        if (si, sj, c, g) not in by_key
    ]
    if missing:
        raise AggregationError(f"incomplete grid; missing cells: {missing[:20]}" + ("..." if len(missing) > 20 else ""))

    n_diverged = sum(1 for r in records if r.diverged)
    # A diverged run means the adversary destabilized the loop: score it as
    # the worst cost observed in its (system, controller) group.
    costs = {}
    for (si, sj, c, g), r in by_key.items():
        costs[(si, sj, c, g)] = r.cumulative_average_cost
    for si in systems:
        for c in controllers:
            group = [
                by_key[(si, sj, c, g)]
                for sj in seeds
                for g in generators
            ]
            finite = [r.cumulative_average_cost for r in group if not r.diverged]
            worst = max(finite) if finite else max(r.cumulative_average_cost for r in group)
            for r in group:
                if r.diverged:
                    key = (si, r.seed_index, c, r.generator)
                    costs[key] = max(worst, costs[key])

    ratio = {c: {} for c in controllers}
    minmax = {c: {} for c in controllers}
    for c in controllers:
        per_system = {g: [] for g in generators}
        for si in systems:
            seed_means = {
                g: float(np.mean([costs[(si, sj, c, g)] for sj in seeds])) for g in generators
            }
            best = max(seed_means.values())
            worst = min(seed_means.values())
            spread = best - worst
            for g in generators:
                r_val = seed_means[g] / best if best > 0 else 1.0
                m_val = (seed_means[g] - worst) / spread if spread > 0 else 1.0
                per_system[g].append((r_val, m_val))
        for kind_idx, table in ((0, ratio), (1, minmax)):
            means = {
                g: float(np.mean([vals[kind_idx] for vals in per_system[g]])) for g in generators
            }
            stds = {
                g: float(np.std([vals[kind_idx] for vals in per_system[g]], ddof=1))
                if len(systems) > 1
                else 0.0
                for g in generators
            }
            anchor = max(means.values())
            for g in generators:
                if anchor > 0:
                    table[c][g] = (means[g] / anchor, stds[g] / anchor)
                else:
                    table[c][g] = (1.0, 0.0)
    return AggregateTable(
        controllers=controllers,
        generators=generators,
        ratio=ratio,
        minmax=minmax,
        n_systems=len(systems),
        n_seeds=len(seeds),
        n_diverged=n_diverged,
    )


def regret_curve(bundle: SystemBundle, controller_spec: dict, cfg: MotrConfig, T_grid, n_seeds: int):
    """Mean surrogate regret of the adaptive generator at each horizon.

    Returns (rows, slope): rows of (T, regret, regret/T) averaged over
    seeds, and the fitted log-log slope of regret versus T (nan when any
    mean regret is non-positive).
    """
    T_grid = list(T_grid)
    if any(b <= a for a, b in zip(T_grid, T_grid[1:])):
        raise ValueError("T_grid must be strictly increasing")
    controller_spec = _materialize(controller_spec, CONTROLLER_DEFAULTS, "controller")
    rows = []
    for T in T_grid:
        regs = []
        for s in range(n_seeds):
            cfg_T = replace(cfg, T=T, seed=stable_seed(cfg.seed, "regret", T, s))
            gen = AdaptiveCdgGenerator(bundle.system, bundle.cw, bundle.hinf, cfg_T, update="motr")
            controller = _build_controller(controller_spec, bundle)
            x0 = np.random.default_rng(stable_seed(cfg.seed, "regret-x0", s)).standard_normal(
                bundle.system.d_x
            )
            run_episode(bundle.system, bundle.cw, controller, gen, T, x0)
            hind, ach = gen.regret_pair()
            regs.append(hind - ach)
        mean = float(np.mean(regs))
        rows.append((T, mean, mean / T))
    if all(r[1] > 0 for r in rows):
        slope = float(
            np.polyfit(np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1)[0]
        )
    else:
        slope = float("nan")
    return rows, slope
