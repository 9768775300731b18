"""tools/drift_report.py: per-pair byte identity and worst relative change
between two runs.jsonl files."""

import json
import math
import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture(scope="module")
def drift_report():
    sys.path.insert(0, TOOLS)
    try:
        import drift_report

        yield drift_report
    finally:
        sys.path.remove(TOOLS)


def record(ctrl, gen, seed, cost, stages, regret=(None, None)):
    return {
        "system_index": 0, "seed_index": seed, "controller": ctrl, "generator": gen, "T": len(stages),
        "cumulative_average_cost": cost, "stage_costs": stages, "max_control_norm": 1.0,
        "max_state_norm": 1.0, "diverged": False, "regret_hindsight": regret[0],
        "regret_achieved": regret[1], "rng_fingerprint": "f",
    }


def write_runs(path, records):
    with open(path, "w") as fh:
        fh.write("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_drift_per_pair(tmp_path, drift_report, capsys):
    a = [
        record("lqr", "motr", 0, 2.0, [1.0, 3.0], (4.0, 2.0)),
        record("gpc", "hinf", 0, 2.0, [1.0, 3.0]),
        record("gpc", "hinf", 1, 4.0, [2.0, 6.0]),
        record("gpc", "oga", 0, 1.0, [1.0, 1.0], (1.0, 0.0)),
        record("hinf", "sine", 0, 1.0, [1.0, 1.0]),
    ]
    b = [dict(r) for r in a[:4]]
    b[2] = record("gpc", "hinf", 1, 5.0, [2.0, 9.0])  # cost +25%, a stage +50%
    b[3] = record("gpc", "oga", 0, 1.0, [1.0, 1.0], (1.5, 0.0))
    b.append(record("hinf", "sine", 1, 1.0, [1.0, 1.0]))  # unmatched on both sides
    path_a, path_b = write_runs(tmp_path / "a.jsonl", a), write_runs(tmp_path / "b.jsonl", b)

    pairs, unmatched = drift_report.drift(drift_report.load(path_a), drift_report.load(path_b))
    assert unmatched == 2
    assert pairs[("lqr", "motr")] == {
        "records": 1, "identical": 1, "cumulative_average_cost": 0.0, "stage_costs": 0.0, "regret": 0.0,
    }
    hinf = pairs[("gpc", "hinf")]
    assert (hinf["records"], hinf["identical"]) == (2, 1)
    assert hinf["cumulative_average_cost"] == pytest.approx(0.25)
    assert hinf["stage_costs"] == pytest.approx(0.5)
    assert hinf["regret"] is None
    assert pairs[("gpc", "oga")]["regret"] == pytest.approx(0.5)
    assert ("hinf", "sine") not in pairs

    assert drift_report.main([path_a, path_b]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "records in one file only: 2"
    assert out[1].split() == ["gpc", "hinf", "1/2", "0.25", "0.5", "-"]


def test_rel_change_edges(drift_report):
    assert drift_report.rel_change(3.0, 3.0) == 0.0
    assert drift_report.rel_change(None, None) == 0.0
    assert math.isinf(drift_report.rel_change(0.0, 1e-300))
    assert math.isinf(drift_report.rel_change(1.0, None))


def test_bad_input_exits_2(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"x": 1}\n')
    for argv in ([str(bad), str(bad)], [str(tmp_path / "missing.jsonl"), str(bad)], [str(bad)]):
        proc = subprocess.run([sys.executable, os.path.join(TOOLS, "drift_report.py"), *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
