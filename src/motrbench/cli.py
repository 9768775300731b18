"""Command-line interface.

Subcommands: run (execute a config grid), table (aggregate runs.jsonl into
the normalized score tables), regret (regret curve for the adaptive
generator), solve-tr (trust-region debug solve), synth (print LQR and
H-infinity gains for a system).  Exit codes: 0 success, 1 partial run or
aggregation failure, 2 malformed config or input, or input a solver
rejects.
"""

import argparse
import json
import os
import sys as _sys

import numpy as np

from .bench import (
    AggregationError,
    ConfigError,
    ExperimentConfig,
    load_records,
    normalize_scores,
    regret_curve,
    run_grid,
    write_outputs,
)
from .controllers import SynthesisError, hinf_bisection, solve_dare
from .lds import CostWeights, LinearSystem
from .trust_region import TrustRegionError, TrustRegionProblem, objective, solve as tr_solve


def _cmd_run(args) -> int:
    try:
        config = (
            ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()
        )
        if args.seed is not None:
            config.base_seed = args.seed
        if args.out:
            config.output_dir = args.out
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"bad --jobs: {args.jobs}; it must be at least 1", file=_sys.stderr)
        return 2
    log = (lambda msg: print(msg, file=_sys.stderr)) if args.verbose else None
    records, failures = run_grid(config, jobs=args.jobs, log=log)
    runs_path = write_outputs(records, config, config.output_dir, failures)
    print(f"wrote {len(records)} records to {runs_path}")
    if failures:
        print(f"{len(failures)} episodes failed; see incomplete.manifest.json", file=_sys.stderr)
        return 1
    return 0


def _cmd_table(args) -> int:
    try:
        records = load_records(args.runs)
    except (OSError, ValueError) as exc:
        print(f"bad runs input: {exc}", file=_sys.stderr)
        return 2
    try:
        table = normalize_scores(records)
    except AggregationError as exc:
        print(f"aggregation error: {exc}", file=_sys.stderr)
        return 1
    out_dir = args.out or os.path.dirname(os.path.abspath(args.runs))
    os.makedirs(out_dir, exist_ok=True)
    for kind in ("ratio", "minmax"):
        path = os.path.join(out_dir, f"table_{kind}.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(table.csv_lines(kind)) + "\n")
    print(table.format_text())
    print(f"\n({table.n_systems} systems, {table.n_seeds} seeds, {table.n_diverged} diverged runs;"
          " scores are ratios to the best generator, std across systems)")
    return 0


def _cmd_regret(args) -> int:
    try:
        config = (
            ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()
        )
        rows, slope = regret_curve(config, args.system_index, args.controller, args.T_grid, args.seeds)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except SynthesisError as exc:
        print(f"synthesis error: {exc}", file=_sys.stderr)
        return 2
    out_dir = args.out or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "regret.csv")
    with open(path, "w") as fh:
        fh.write("T,regret,regret_per_round,loglog_slope\n")
        for T, reg, per in rows:
            fh.write(f"{T},{reg:.9g},{per:.9g},{slope:.6f}\n")
    for T, reg, per in rows:
        print(f"T={T:6d}  regret={reg:12.4f}  regret/T={per:.6f}")
    print(f"fitted log-log slope: {slope:.3f}")
    print(f"wrote {path}")
    return 0


def _json_numbers(value) -> bool:
    """Whether a value parsed from JSON is a number or nested lists of them."""
    return type(value) in (int, float) or (type(value) is list and all(map(_json_numbers, value)))


def _read_json_arg(path: str) -> dict:
    """The JSON object at path (- for stdin); ValueError if it is not one
    or if a field holds anything but numbers (no bool, no string)."""
    if path == "-":
        obj = json.load(_sys.stdin)
    else:
        with open(path) as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    for name, value in obj.items():
        if not _json_numbers(value):
            raise ValueError(f"{name} must hold JSON numbers only")
    return obj


def _cmd_solve_tr(args) -> int:
    try:
        obj = _read_json_arg(args.problem)
        unknown = sorted(set(obj) - {"P", "p", "D"})
        if unknown:
            raise ValueError(f"unknown fields {unknown}; expected P, p and D")
        prob = TrustRegionProblem(
            np.array(obj["P"], dtype=float), np.array(obj["p"], dtype=float), float(obj["D"])
        )
        # An overflow ends in the solver's one-line error below, not in
        # numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            sol = tr_solve(prob)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"bad problem input: {exc}", file=_sys.stderr)
        return 2
    except TrustRegionError as exc:
        print(f"solver error: {exc}", file=_sys.stderr)
        return 2
    print(json.dumps({
        "z": sol.z.tolist(),
        "value": objective(prob, sol.z),
        "multiplier": sol.multiplier,
        "on_boundary": sol.on_boundary,
        "hard_case": sol.hard_case,
    }))
    return 0


def _cmd_synth(args) -> int:
    try:
        system = LinearSystem.from_json(_read_json_arg(args.system))
        if args.cost:
            cw = CostWeights.from_json(_read_json_arg(args.cost))
            if (cw.d_x, cw.d_u) != (system.d_x, system.d_u):
                raise ValueError(f"the cost's (d_x, d_u) {(cw.d_x, cw.d_u)} are not the system's "
                                 f"{(system.d_x, system.d_u)}")
        else:
            cw = CostWeights(np.eye(system.d_x), np.eye(system.d_u))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"bad system input: {exc}", file=_sys.stderr)
        return 2
    try:
        # An overflow ends in the solvers' one-line error below, not in
        # numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            P, K = solve_dare(system, cw)
            hinf = hinf_bisection(system, cw)
    except ValueError as exc:  # input the solvers reject, say a singular R
        print(f"bad system input: {exc}", file=_sys.stderr)
        return 2
    except SynthesisError as exc:
        print(f"synthesis error: {exc}", file=_sys.stderr)
        return 2
    print(json.dumps({
        "lqr": {"P": P.tolist(), "K": K.tolist()},
        "hinf": hinf.to_json(),
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="motrbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark config")
    p_run.add_argument("--config", help="config JSON path (defaults built in)")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel episodes")
    p_run.add_argument("--seed", type=int, default=None, help="override base_seed")
    p_run.add_argument("--verbose", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_table = sub.add_parser("table", help="aggregate runs.jsonl into score tables")
    p_table.add_argument("--runs", required=True, help="path to runs.jsonl")
    p_table.add_argument("--out", help="directory for the CSV tables")
    p_table.set_defaults(func=_cmd_table)

    p_regret = sub.add_parser("regret", help="regret curve of MOTR against a controller of the config")
    p_regret.add_argument("--config", help="config JSON path")
    p_regret.add_argument("--controller", default="lqr")
    p_regret.add_argument("--system-index", type=int, default=0)
    p_regret.add_argument("--T-grid", dest="T_grid", type=lambda s: [int(x) for x in s.split(",")],
                          default=[250, 500, 1000, 2000])
    p_regret.add_argument("--seeds", type=int, default=3)
    p_regret.add_argument("--out", help="output directory")
    p_regret.set_defaults(func=_cmd_regret)

    p_tr = sub.add_parser("solve-tr", help="solve a trust-region problem from JSON")
    p_tr.add_argument("--problem", required=True, help="JSON path or - for stdin")
    p_tr.set_defaults(func=_cmd_solve_tr)

    p_synth = sub.add_parser("synth", help="print LQR and H-infinity gains for a system JSON")
    p_synth.add_argument("--system", required=True, help="system JSON path or - for stdin")
    p_synth.add_argument("--cost", help="cost-weight JSON path (identity weights if omitted)")
    p_synth.set_defaults(func=_cmd_synth)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
