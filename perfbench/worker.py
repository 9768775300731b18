"""One fresh benchmark process (started by run.py; not a user command).

    python3 perfbench/worker.py WORKLOAD BASE_SEED MODE OUT_DIR

MODE is "setup" (import motrbench, build the workload's config and stop),
"run" (also run the workload through the public motrbench.bench API and
check its outputs) or "trace" (the same with the per-layer tracer
installed).  The last line of standard output is one JSON object.  The
set-up timestamp is CLOCK_MONOTONIC, which run.py compares with the time it
started this process.

The speed sampler (speed.py) runs from the first line through the timed
sequence of an untraced pass; its time is taken out of both windows, and
each window comes with the machine's speed over it.  Traced passes stop it
before the tracer is installed.
"""

import sys
import time

import speed


def main():
    sampler = speed.Sampler()
    sampler.start()
    workload, seed, mode, out_dir = sys.argv[1:5]
    import motrbench.bench as bench
    from workloads import WORKLOADS

    config = bench.ExperimentConfig(base_seed=int(seed), **WORKLOADS[workload])
    t_setup = time.monotonic()
    setup_spent, setup_speed = sampler.spent, sampler.speed(0)

    import hashlib
    import json
    import os
    import resource

    import checks

    result = {
        "t_setup": t_setup,
        "setup_spent": setup_spent,
        "setup_speed": setup_speed,
        "motrbench": os.path.dirname(bench.__file__),
    }
    if mode == "setup":
        sampler.stop()
        print(json.dumps(result))
        return
    tracer = None
    # Seconds, standing still while the sampler or the tracer's checks run.
    clock = lambda: time.perf_counter() - sampler.spent  # noqa: E731
    if mode == "trace":
        import tracing

        sampler.stop()
        tracer = tracing.Tracer(config.W_max)
        tracer.install()
        clock = lambda: tracer.now() / 1e9  # noqa: E731

    # The timed sequence of `motrbench run` followed by `motrbench table`.
    mark = sampler.mark()
    t0 = clock()
    records, failures = bench.run_grid(config, jobs=1)
    runs_path = bench.write_outputs(records, config, out_dir, failures)
    try:
        table, aggregation = bench.normalize_scores(records), []
    except bench.AggregationError as exc:
        table, aggregation = None, [f"score table: {exc}"]
    wall_raw_s = clock() - t0
    sampler.stop()
    wall_speed = None if tracer else sampler.speed(mark)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = config.n_systems * config.n_seeds * len(config.controllers) * len(config.generators)
    problems = checks.check_records(records, failures, expected) + aggregation
    notes = []
    if workload == "grid" and table is not None:
        more, notes = checks.check_grid_table(records, table, config.base_seed)
        problems += more
    if workload == "adversary-n64":
        problems += checks.check_equilibrium_tie(records)
    with open(runs_path, "rb") as fh:
        sha256 = hashlib.sha256(fh.read()).hexdigest()
    result.update(
        wall_raw_s=wall_raw_s,
        wall_speed=wall_speed,
        peak_rss_mb=peak_rss_mb,
        attempted=expected,
        failed=len(failures),
        sha256=sha256,
        notes=notes,
    )
    if tracer is not None:
        problems += tracer.check_rounds()
        result["per_layer"] = tracer.metrics(config.n_systems)
        result["solves_certified"] = tracer.solves
        result["worst_kkt_residual"] = tracer.worst_residual
        tracer.write_spans(os.path.join(out_dir, "spans.csv.gz"))
    result["problems"] = problems
    print(json.dumps(result))


if __name__ == "__main__":
    main()
