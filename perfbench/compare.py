"""Steadiness check: two sets of runs of the same code, compared against
the bounds in BENCHMARK.json.

    python3 perfbench/compare.py

Both sets run every workload on seeds 0-9, each run a fresh
`perfbench/run.py` with the run length in BENCHMARK.json.  The sets are
interleaved: for each workload and seed, a run of set 1 and a run of set 2
are made back to back, and which goes first alternates from seed to seed,
so that the machine's drift over minutes falls on both sets alike.  For
each workload and end-to-end metric it prints both sets' medians,
quartiles and spreads (interquartile range over median), and checks that
every spread stays within the metric's bound, that the second set's median
is no worse than the first's by more than the bound, that the share of
failed episodes is identical, and that every run of one seed wrote the
same runs.jsonl.  Writes perfbench/out/compare.json; exits 1 if a check
fails.
"""

import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def one_run(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["sha256"] = sorted(set(re.findall(r"sha256 ([0-9a-f]{64})", proc.stdout)))
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(SEEDS)

    sets = [{w: [] for w in workloads} for _ in range(2)]
    for workload in workloads:
        for seed in seeds:
            order = (0, 1) if seed % 2 == 0 else (1, 0)
            for k in order:
                result = one_run(spec, workload, seed)
                sets[k][workload].append(result)
                values = " ".join(f"{m} {v['value']:.4f}" for m, v in result["metrics"].items())
                print(f"set {k + 1} {workload} seed {seed}: {values} correct {result['correct']}",
                      flush=True)

    ok = True
    summary = {}
    print("\n| workload | metric | bound | " + " | ".join(
        f"set {k + 1} median [q1, q3] (spread)" for k in range(2)) + " | change |")
    print("|---|---|---|" + "---|" * 2 + "---|")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians = [], []
            for k, runs in enumerate(sets):
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs[workload]])
                spread = (q3 - q1) / med
                medians.append(med)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({spread:.1%})")
                summary.setdefault(workload, {}).setdefault(name, []).append(
                    {"median": med, "q1": q1, "q3": q3, "spread": spread})
                if spread > bound:
                    ok = False
                    print(f"FAIL {workload} {name}: set {k + 1} spread {spread:.1%} > bound {bound:.0%}")
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (medians[1] - medians[0]) / medians[0]
            if change > bound:
                ok = False
                print(f"FAIL {workload} {name}: set 2 worse than set 1 by {change:.1%}")
            print(f"| {workload} | {name} | {bound:.0%} | " + " | ".join(cells) + f" | {change:+.1%} |")
        shares = {sum(r["failed"] for r in runs[workload]) / sum(r["attempted"] for r in runs[workload])
                  for runs in sets}
        shas = [{tuple(runs[workload][i]["sha256"]) for runs in sets} for i in range(len(seeds))]
        correct = all(r["correct"] for runs in sets for r in runs[workload])
        if len(shares) != 1 or any(len(s) != 1 for s in shas) or not correct:
            ok = False
            print(f"FAIL {workload}: failed shares {sorted(shares)}, "
                  f"seeds with differing runs.jsonl {[s for s, h in zip(seeds, shas) if len(h) != 1]}, "
                  f"all correct {correct}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "compare.json"), "w") as fh:
        json.dump({"seeds": list(seeds), "summary": summary, "sets": sets}, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
