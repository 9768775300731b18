"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload grid [--seed 0] [--seconds 40] [--trace 0]

Run from the root of a checkout; motrbench is imported from its src/.
Every pass of the workload is a fresh process (perfbench/worker.py) with
BLAS limited to one thread, running run_grid(config, jobs=1) ->
write_outputs -> normalize_scores and checking the outputs.

--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh processes), and the wall time and peak RSS of the workload (medians
over as many passes as fit in --seconds).  Set-up and wall time are
rescaled to one fixed machine speed, measured while they run (speed.py);
every pass line also gives the raw seconds and the speed factor.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics, their medians over the traced passes, and the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed (episodes) and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0

ENV = dict(os.environ, PYTHONPATH=SRC)
# The program is single-process with matrices of at most 64 x 64; a second
# BLAS thread could only compete with it for the machine's cores.
ENV.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, mode, out_dir, deadline):
    """One worker process; returns its result with setup_s, elapsed_s and,
    for an untraced pass, wall_s."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, out_dir]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=ENV, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass did not finish before the run's time limit") from None
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if os.path.realpath(result["motrbench"]) != os.path.realpath(os.path.join(SRC, "motrbench")):
        raise BenchError(f"motrbench was imported from {result['motrbench']}, not from {SRC}")
    result["setup_raw_s"] = result["t_setup"] - t0 - result["setup_spent"]
    result["setup_s"] = result["setup_raw_s"] / result["setup_speed"]
    if result.get("wall_speed"):
        result["wall_s"] = result["wall_raw_s"] / result["wall_speed"]
    result["elapsed_s"] = elapsed
    return result


def passes(run_one, budget_end, deadline):
    """Call run_one until the next call would overrun the budget (at least
    once); returns the list of results."""
    results = []
    while True:
        t0 = time.monotonic()
        results.append(run_one())
        typical = time.monotonic() - t0
        if time.monotonic() + typical > min(budget_end, deadline):
            return results


def report(label, rows):
    for i, row in enumerate(rows):
        if row["wall_speed"]:
            wall = f"wall_s {row['wall_s']:.4f} (raw {row['wall_raw_s']:.4f}, speed {row['wall_speed']:.3f})"
        else:
            wall = f"wall {row['wall_raw_s']:.4f} s raw (traced, not rescaled)"
        print(
            f"{label} pass {i}: {wall} "
            f"setup_s {row['setup_s']:.4f} (raw {row['setup_raw_s']:.4f}, speed {row['setup_speed']:.3f}) "
            f"peak_rss_mb {row['peak_rss_mb']:.1f} runs.jsonl sha256 {row['sha256']}"
        )
        for note in row["notes"]:
            print(f"  note: {note}")
        for problem in row["problems"]:
            print(f"  PROBLEM: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="base_seed of the workload's config")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "motrbench", "__init__.py")):
        print(f"error: no motrbench package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    out = os.path.join(HERE, "out", args.workload)

    def run_pass(mode):
        return spawn(args.workload, args.seed, mode, os.path.join(out, mode), deadline)

    try:
        run_pass("setup")  # warm-up: compiles the bytecode; not measured
        budget_end = time.monotonic() + args.seconds
        if args.trace:
            pairs = passes(lambda: (run_pass("run"), run_pass("trace")), budget_end, deadline)
            rows = [p for pair in pairs for p in pair]
            plain, traced = [p[0] for p in pairs], [p[1] for p in pairs]
        else:
            setups = [run_pass("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
            rows = plain = passes(lambda: run_pass("run"), budget_end, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report("untraced", plain)
    shas = {row["sha256"] for row in rows}
    correct = len(shas) == 1 and not any(row["problems"] for row in rows)
    if len(shas) != 1:
        print(f"PROBLEM: runs.jsonl differs between passes of the same seed: {sorted(shas)}")
    if args.trace:
        report("traced", traced)
        for row in traced:
            print(f"  {row['solves_certified']} trust-region solves certified, "
                  f"worst KKT residual {row['worst_kkt_residual']:.3g}")
        import tracing

        values = {name: statistics.median(row["per_layer"][name] for row in traced)
                  for name in traced[0]["per_layer"]}
        values["bench.trace_overhead.ratio"] = (
            statistics.median(row["wall_raw_s"] for row in traced)
            / statistics.median(row["wall_raw_s"] for row in plain)
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.METRICS.items()}
        with open(os.path.join(out, "per_layer.json"), "w") as fh:
            json.dump(metrics, fh, indent=1)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [r["setup_s"] for r in plain]), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    attempted = sum(row["attempted"] for row in rows)
    failed = sum(row["failed"] for row in rows)
    print(f"{args.workload} seed {args.seed}: {len(rows)} passes, {attempted} episodes attempted, "
          f"{failed} failed, correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
