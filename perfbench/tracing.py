"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of each motrbench layer from
outside the package and records one span per call: name, parent span,
start, end, self time and episode.  Spans are kept in memory (compact
arrays) and written out when the run ends.  A layer's self time is its
span's duration minus the time covered by its child spans.

A wrapper is installed at every place its target is looked up (the
trust-region solve, for instance, is bound as ``tr_solve`` in both
``online`` and ``generators``), and a target that no longer exists raises
TraceError rather than quietly measuring nothing.  The few waste probes,
which watch code that a planned simplification deletes, read 0 once that
code is gone.

Checks that run on captured calls (the plant-step recomputation and the
trust-region certificate) run on a stopped clock: their time appears in no
span and not in the traced wall time.
"""

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

import checks

# (span name, module, attribute).  One span name may cover several
# functions; "Class.method" patches the method on that class.
LAYERS = (
    ("controllers.gpc_act", "motrbench.controllers", "GpcController.act"),
    ("controllers.synth", "motrbench.controllers", "solve_dare"),
    ("controllers.synth", "motrbench.controllers", "hinf_bisection"),
    ("cdg.affine_state_map", "motrbench.cdg", "affine_state_map"),
    ("cdg.rollout_cost_quadratic", "motrbench.cdg", "rollout_cost_quadratic"),
    ("cdg.project", "motrbench.cdg", "project_frobenius"),
    ("cdg.project", "motrbench.cdg", "CdgPolicy.from_vec"),
    ("trust_region.solve", "motrbench.trust_region", "solve"),
    ("online.update", "motrbench.online", "OtrState.update"),
    ("online.observe", "motrbench.online", "OtrState.observe"),
    ("generators.emit", "motrbench.generators", "DisturbanceGenerator.emit"),
    ("generators.observe", "motrbench.generators", "DisturbanceGenerator.observe"),
    ("generators.sine_init", "motrbench.generators", "sinusoid_generator"),
    ("lds.step", "motrbench.lds", "step"),
    ("lds.stage_cost", "motrbench.lds", "stage_cost"),
    ("bench.episode", "motrbench.bench", "run_episode"),
    ("bench.outputs", "motrbench.bench", "write_outputs"),
    ("bench.outputs", "motrbench.bench", "normalize_scores"),
)
# Waste probes: numpy calls timed wherever the program makes them, and the
# per-episode re-check of the trajectory's stage costs.
PROBES = (
    ("numpy.kron", "numpy", "kron"),
    ("numpy.eigvals", "numpy.linalg", "eigvals"),
    ("lds.check_costs", "motrbench.lds", "TrajectoryLog.check_costs"),
)
OPTIONAL = {"lds.check_costs"}

ADAPTIVE = ("motr", "oga")
CONTROLLERS = ("lqr", "gpc", "hinf")
GENERATORS = ("motr", "oga", "hinf", "random", "sine", "gaussian")

# Per-layer metric -> unit.  ".us"/".ms" are self time per call unless the
# README says otherwise; ".calls" count calls in one workload pass.
METRICS = {
    "controllers.gpc_act.us": "us",
    "controllers.gpc_act.calls": "count",
    "controllers.synth.ms": "ms",
    "cdg.affine_state_map.us": "us",
    "cdg.affine_state_map.calls": "count",
    "cdg.rollout_cost_quadratic.us": "us",
    "cdg.rollout_cost_quadratic.calls": "count",
    "cdg.project.us": "us",
    "cdg.project.calls": "count",
    "trust_region.solve.us": "us",
    "trust_region.solve.calls": "count",
    "trust_region.hard_cases": "count",
    "online.update.us": "us",
    "online.observe.us": "us",
    "generators.emit.us": "us",
    "generators.observe.us": "us",
    "generators.decision.us_p50": "us",
    "generators.decision.us_p99": "us",
    "generators.sine_init.ms": "ms",
    "generators.sine_init.calls": "count",
    "lds.step.us": "us",
    "lds.stage_cost.us": "us",
    "bench.episode_loop.us_per_round": "us/round",
    "bench.outputs.ms": "ms",
    "controllers.gpc_kron.us_per_round": "us/round",
    "cdg.rollout_eigvals.us_per_round": "us/round",
    "lds.check_costs.us_per_round": "us/round",
    **{f"pair.{c}-{g}.round_us": "us" for c in CONTROLLERS for g in GENERATORS},
    "bench.trace_overhead.ratio": "ratio",
}


class TraceError(RuntimeError):
    """A wrapper target is missing or cannot be wrapped completely."""


def _resolve(module_name, path):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    try:
        owner = inspect.getattr_static(module, owner_name) if owner_name else module
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        raise TraceError(f"{module_name}.{path} does not exist") from None
    return owner, attr, raw


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Span recorder with hooks that capture what the checks need."""

    def __init__(self, W_max):
        self.W_max = W_max
        self.names = []
        self._code = {}
        self._cols = {k: array("q") for k in ("id", "parent", "name", "episode", "start", "end", "self")}
        self._stack = []  # [span id, child time, start]
        self._next_id = 0
        self._stopped_ns = 0
        self.episodes = []  # per episode: system, weights, x0, rounds, record
        self._in_episode = False
        self._emit_ns = {}
        self.decisions = []  # emit + observe of an adaptive generator, ns
        self.hard_cases = 0
        self.solves = 0
        self.worst_residual = 0.0
        self.problems = []

    def now(self):
        """Clock in ns that stands still while checks run."""
        return time.perf_counter_ns() - self._stopped_ns

    def install(self):
        hooks = {
            "bench.episode": (self._episode_start, self._episode_end),
            "lds.step": (None, self._capture_step),
            "generators.emit": (None, self._emitted),
            "generators.observe": (None, self._observed),
            "trust_region.solve": (None, self._certify),
        }
        for name, module_name, path in LAYERS + PROBES:
            try:
                owner, attr, raw = _resolve(module_name, path)
            except TraceError:
                if name in OPTIONAL:
                    continue
                raise
            before, after = hooks.get(name, (None, None))
            self._patch(name, owner, attr, raw, before, after)

    def _patch(self, name, owner, attr, raw, before, after):
        if inspect.isclass(owner):
            for sub in _subclasses(owner):
                if attr in vars(sub):
                    raise TraceError(f"{sub.__qualname__} overrides {owner.__qualname__}.{attr}")
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, before, after)))
            else:
                setattr(owner, attr, self._wrap(name, raw, before, after))
            return
        wrapped = self._wrap(name, raw, before, after)
        for module_name, module in list(sys.modules.items()):
            if module_name == "motrbench" or module_name.startswith("motrbench.") or module is owner:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)

    def _wrap(self, name, fn, before, after):
        if name not in self._code:
            self._code[name] = len(self.names)
            self.names.append(name)
        code = self._code[name]
        cols = self._cols
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._stopped(before, fn, args, kwargs)
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0, self.now()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.now()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][1] += duration
                cols["id"].append(span)
                cols["parent"].append(parent)
                cols["name"].append(code)
                cols["episode"].append(len(self.episodes) - 1 if self._in_episode else -1)
                cols["start"].append(frame[2])
                cols["end"].append(end)
                cols["self"].append(duration - frame[1])
            if after is not None:
                self._stopped(after, args, result, duration)
            return result

        return traced

    def _stopped(self, hook, *args):
        t0 = time.perf_counter_ns()
        hook(*args)
        self._stopped_ns += time.perf_counter_ns() - t0

    # Hooks.

    def _episode_start(self, fn, args, kwargs):
        call = inspect.signature(fn).bind(*args, **kwargs)
        a = call.arguments
        self.episodes.append({
            "sys": a["sys"],
            "cw": a["cw"],
            "x0": np.array(a["x0"], dtype=float),
            "controller": a["controller"].name,
            "generator": a["generator"].name,
            "rounds": [],
        })
        self._in_episode = True

    def _episode_end(self, args, record, duration):
        self.episodes[-1]["record"] = record
        self._in_episode = False

    def _capture_step(self, args, x_next, duration):
        if self._in_episode:
            x, u, w = args[1:4]
            self.episodes[-1]["rounds"].append(
                (np.array(x, dtype=float), np.array(u, dtype=float), np.array(w, dtype=float),
                 np.array(x_next, dtype=float))
            )

    def _emitted(self, args, w, duration):
        if args[0].name in ADAPTIVE:
            self._emit_ns[id(args[0])] = duration

    def _observed(self, args, result, duration):
        if args[0].name in ADAPTIVE:
            self.decisions.append(self._emit_ns.pop(id(args[0])) + duration)

    def _certify(self, args, sol, duration):
        prob = args[0]
        self.solves += 1
        self.hard_cases += bool(sol.hard_case)
        problem, residual = checks.certificate(prob.P, prob.p, prob.D, sol.z, sol.multiplier)
        self.worst_residual = max(self.worst_residual, residual)
        if problem is not None and len(self.problems) < 20:
            self.problems.append(f"trust-region solve {self.solves}: {problem}")

    # Results.

    def check_rounds(self):
        problems = list(self.problems)
        for episode in self.episodes:
            problems += checks.check_rounds(episode, self.W_max)
        return problems

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,episode,start_ns,end_ns,self_ns\n")
            cols = [self._cols[k] for k in ("id", "parent", "name", "episode", "start", "end", "self")]
            for span, parent, code, episode, start, end, own in zip(*cols):
                fh.write(f"{span},{parent},{self.names[code]},{episode},{start},{end},{own}\n")

    def metrics(self, n_systems):
        """Per-layer metrics of this pass (all but the tracing overhead)."""
        col = {k: np.frombuffer(v, dtype=np.int64) for k, v in self._cols.items()}
        duration = col["end"] - col["start"]
        code_of = np.full(max(self._next_id, 1), -1)
        code_of[col["id"]] = col["name"]
        parent_code = np.where(col["parent"] >= 0, code_of[col["parent"]], -1)

        def mask(name):
            return col["name"] == self._code.get(name, -1)

        def calls(name):
            return int(np.count_nonzero(mask(name)))

        def self_us(name, selected=None):
            selected = mask(name) if selected is None else selected
            n = int(np.count_nonzero(selected))
            return float(col["self"][selected].sum()) / n / 1e3 if n else 0.0

        rounds = np.array([len(e["rounds"]) for e in self.episodes])
        ctrl = np.array([e["controller"] for e in self.episodes])
        gen = np.array([e["generator"] for e in self.episodes])

        def per_round(selected, episodes, times=col["self"]):
            n = int(rounds[episodes].sum())
            return float(times[selected].sum()) / n / 1e3 if n else 0.0

        every = np.ones(len(self.episodes), dtype=bool)
        decisions = np.array(self.decisions, dtype=float) / 1e3
        out = {
            "controllers.gpc_act.us": self_us("controllers.gpc_act"),
            "controllers.gpc_act.calls": calls("controllers.gpc_act"),
            "controllers.synth.ms": float(col["self"][mask("controllers.synth")].sum()) / n_systems / 1e6,
            "cdg.affine_state_map.us": self_us("cdg.affine_state_map"),
            "cdg.affine_state_map.calls": calls("cdg.affine_state_map"),
            "cdg.rollout_cost_quadratic.us": self_us("cdg.rollout_cost_quadratic"),
            "cdg.rollout_cost_quadratic.calls": calls("cdg.rollout_cost_quadratic"),
            "cdg.project.us": self_us("cdg.project"),
            "cdg.project.calls": calls("cdg.project"),
            "trust_region.solve.us": self_us("trust_region.solve"),
            "trust_region.solve.calls": calls("trust_region.solve"),
            "trust_region.hard_cases": self.hard_cases,
            "online.update.us": self_us("online.update"),
            "online.observe.us": self_us("online.observe"),
            "generators.emit.us": self_us("generators.emit"),
            "generators.observe.us": self_us("generators.observe"),
            "generators.decision.us_p50": float(np.percentile(decisions, 50)) if decisions.size else 0.0,
            "generators.decision.us_p99": float(np.percentile(decisions, 99)) if decisions.size else 0.0,
            "generators.sine_init.ms": self_us("generators.sine_init") / 1e3,
            "generators.sine_init.calls": calls("generators.sine_init"),
            "lds.step.us": self_us("lds.step"),
            # The episode loop's calls only, not check_costs' recomputations.
            "lds.stage_cost.us": self_us(
                "lds.stage_cost",
                mask("lds.stage_cost") & (parent_code != self._code.get("lds.check_costs", -2)),
            ),
            "bench.episode_loop.us_per_round": per_round(mask("bench.episode"), every),
            "bench.outputs.ms": float(col["self"][mask("bench.outputs")].sum()) / 1e6,
            "controllers.gpc_kron.us_per_round": per_round(mask("numpy.kron"), ctrl == "gpc"),
            "cdg.rollout_eigvals.us_per_round": per_round(
                mask("numpy.eigvals") & (parent_code == self._code["cdg.rollout_cost_quadratic"]),
                np.isin(gen, ADAPTIVE),
            ),
            # Whole span: the stage_cost calls it makes are part of the waste.
            "lds.check_costs.us_per_round": per_round(mask("lds.check_costs"), every, duration),
        }
        # Pairs absent from the workload read 0.
        episode_spans = mask("bench.episode")
        for c in CONTROLLERS:
            for g in GENERATORS:
                index = np.flatnonzero((ctrl == c) & (gen == g))
                selected = episode_spans & np.isin(col["episode"], index)
                n = int(rounds[index].sum())
                out[f"pair.{c}-{g}.round_us"] = float(duration[selected].sum()) / n / 1e3 if n else 0.0
        return out
