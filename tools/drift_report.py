"""Compare two runs.jsonl files record by record, per (controller, generator).

    python3 tools/drift_report.py RUNS_A RUNS_B

Records are matched on (system_index, seed_index, controller, generator).
For each (controller, generator) pair the report prints how many of its
records are byte-identical lines in both files, and the worst relative
change |b - a| / |a| from A to B in cumulative_average_cost, in any entry
of stage_costs, and in the regret_* fields ("-" when they are null in
every record of the pair).  A change from or to 0, or between a number
and null, reads inf.  Records present in one file only are counted on
the last line.  The exit status is 0 whether or not the
files differ; 2 when a file cannot be read or a line is not a record.
"""

import json
import math
import sys

KEY = ("system_index", "seed_index", "controller", "generator")
REGRET = ("regret_hindsight", "regret_achieved")


def load(path):
    """{key: (line, record)} of one runs.jsonl file."""
    runs = {}
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                rec = json.loads(line)
                key = tuple(rec[k] for k in KEY)
            except (ValueError, TypeError, KeyError) as exc:
                raise ValueError(f"{path}:{number}: not a run record ({exc!r})") from None
            runs[key] = (line, rec)
    return runs


def rel_change(a, b):
    if a == b:
        return 0.0
    if a is None or b is None or a == 0:
        return math.inf
    return abs(b - a) / abs(a)


def drift(runs_a, runs_b):
    """{(controller, generator): {"records", "identical", field: worst}} over
    the records in both (regret None when no record has a regret field), and
    the number of records in one file only."""
    pairs = {}
    for key in sorted(runs_a.keys() & runs_b.keys()):
        (line_a, a), (line_b, b) = runs_a[key], runs_b[key]
        row = pairs.setdefault(key[2:], {
            "records": 0, "identical": 0, "cumulative_average_cost": 0.0, "stage_costs": 0.0, "regret": None,
        })
        row["records"] += 1
        row["identical"] += line_a == line_b
        changes = {
            "cumulative_average_cost": rel_change(a["cumulative_average_cost"], b["cumulative_average_cost"]),
            "stage_costs": max(
                (rel_change(x, y) for x, y in zip(a["stage_costs"], b["stage_costs"])), default=0.0
            ) if len(a["stage_costs"]) == len(b["stage_costs"]) else math.inf,
        }
        regret = [rel_change(a.get(f), b.get(f)) for f in REGRET if (a.get(f), b.get(f)) != (None, None)]
        if regret:
            changes["regret"] = max(regret)
        for field, change in changes.items():
            row[field] = change if row[field] is None else max(row[field], change)
    return pairs, len(runs_a.keys() ^ runs_b.keys())


def format_report(pairs, unmatched):
    header = ("controller", "generator", "identical", "cum_avg_cost", "stage_costs", "regret_*")
    lines = ["{:<10} {:<9} {:>9} {:>12} {:>11} {:>9}".format(*header)]
    for (ctrl, gen), row in sorted(pairs.items()):
        lines.append(
            f"{ctrl:<10} {gen:<9} {row['identical']:>4}/{row['records']:<4} "
            f"{row['cumulative_average_cost']:>12.2g} {row['stage_costs']:>11.2g} "
            + ("-".rjust(9) if row["regret"] is None else f"{row['regret']:>9.2g}")
        )
    lines.append(f"records in one file only: {unmatched}")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        runs_a, runs_b = load(argv[0]), load(argv[1])
    except (OSError, ValueError) as exc:
        print(f"bad runs input: {exc}", file=sys.stderr)
        return 2
    print(format_report(*drift(runs_a, runs_b)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
