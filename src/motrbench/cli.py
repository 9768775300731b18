"""Command-line interface.

Subcommands: run (execute a config grid), table (aggregate runs.jsonl into
the normalized score tables), regret (regret curve for the adaptive
generator).  Exit codes: 0 success, 1 partial run or aggregation failure,
2 malformed config or input, a system that cannot be generated or
synthesized for the regret curve, or an output directory that cannot be
made.
"""

import argparse
import os
import sys as _sys

from .bench import (
    AggregationError,
    _check_regret_args,
    ConfigError,
    ExperimentConfig,
    load_records,
    normalize_scores,
    regret_curve,
    run_grid,
    write_outputs,
)
from .controllers import SynthesisError
from .lds import GenerationError


def _fail(what: str, detail, code: int = 2) -> int:
    """Print one `what: detail` line to stderr and return the exit code."""
    print(f"{what}: {detail}", file=_sys.stderr)
    return code


def _bad_output_dir(path: str) -> bool:
    """Make the output directory path if it is missing; True, after one line
    saying why, when it cannot be made (say path is a regular file)."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        _fail("bad output directory", exc)
        return True
    return False


def _cmd_run(args) -> int:
    try:
        config = ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            config.base_seed = args.seed
        if args.out:
            config.output_dir = args.out
    except ConfigError as exc:
        return _fail("config error", exc)
    if args.jobs < 1:
        return _fail("bad --jobs", f"{args.jobs}; it must be at least 1")
    if _bad_output_dir(config.output_dir):
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
        return _fail("bad runs input", exc)
    out_dir = args.out or os.path.dirname(os.path.abspath(args.runs))
    if _bad_output_dir(out_dir):
        return 2
    try:
        table = normalize_scores(records)
    except AggregationError as exc:
        return _fail("aggregation error", exc, 1)
    for kind in ("ratio", "minmax"):
        with open(os.path.join(out_dir, f"table_{kind}.csv"), "w") as fh:
            fh.write("\n".join(table.csv_lines(kind)) + "\n")
    print(table.format_text())
    print(f"\n({table.n_systems} systems, {table.n_seeds} seeds, {table.n_diverged} diverged runs;"
          " scores are ratios to the best generator, std across systems)")
    return 0


def _cmd_regret(args) -> int:
    try:
        config = ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()
        _check_regret_args(config, args.system_index, args.controller, args.T_grid, args.seeds)
        out_dir = args.out or config.output_dir
        if _bad_output_dir(out_dir):
            return 2
        rows, slope = regret_curve(config, args.system_index, args.controller, args.T_grid, args.seeds)
    except ConfigError as exc:
        return _fail("config error", exc)
    except GenerationError as exc:
        return _fail("generation error", exc)
    except SynthesisError as exc:
        return _fail("synthesis error", exc)
    path = os.path.join(out_dir, "regret.csv")
    with open(path, "w") as fh:
        fh.write("T,regret,regret_per_round,loglog_slope\n")
        for T, reg, per in rows:
            fh.write(f"{T},{reg:.9g},{per:.9g},{slope:.6f}\n")
            print(f"T={T:6d}  regret={reg:12.4f}  regret/T={per:.6f}")
    print(f"fitted log-log slope: {slope:.3f}")
    print(f"wrote {path}")
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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
