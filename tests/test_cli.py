import dataclasses
import json
import os
import re
import warnings

import numpy as np
import pytest

from motrbench.bench import CONTROLLERS, GENERATORS, ExperimentConfig, RunRecord
from motrbench.cli import main
from motrbench.lds import random_system


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_record_line():
    return RunRecord(
        system_index=0, seed_index=0, controller="lqr", generator="hinf", T=2,
        cumulative_average_cost=1.5, stage_costs=[1.0, 2.0], max_control_norm=0.5,
        max_state_norm=1.0, diverged=False, regret_hindsight=None, regret_achieved=None,
        rng_fingerprint="ab",
    ).to_json_line()


def small_config_dict():
    return {
        "n_systems": 2,
        "n_seeds": 2,
        "T": 25,
        "controllers": ["lqr"],
        "generators": ["random", "hinf"],
    }


def test_run_and_table_round_trip(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", small_config_dict())
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "runs.jsonl"))
    assert os.path.exists(os.path.join(out_dir, "config.snapshot.json"))
    # The snapshot holds every value, names included, and reloads to the
    # config that ran.
    snapshot = json.load(open(os.path.join(out_dir, "config.snapshot.json")))
    assert snapshot["T"] == 25 and snapshot["generators"] == ["random", "hinf"]
    reloaded = ExperimentConfig.from_json_file(os.path.join(out_dir, "config.snapshot.json"))
    assert reloaded == ExperimentConfig.from_dict({**small_config_dict(), "output_dir": out_dir})

    assert main(["table", "--runs", os.path.join(out_dir, "runs.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "hinf" in out and "random" in out
    for kind in ("ratio", "minmax"):
        path = os.path.join(out_dir, f"table_{kind}.csv")
        assert os.path.exists(path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "controller,generator,score,std"
        assert len(lines) == 3

    # Re-running the aggregation never changes its outputs.
    before = open(os.path.join(out_dir, "table_ratio.csv")).read()
    assert main(["table", "--runs", os.path.join(out_dir, "runs.jsonl")]) == 0
    assert open(os.path.join(out_dir, "table_ratio.csv")).read() == before


def test_table_bad_input_exit_code(tmp_path, capsys):
    # A missing file, a line that is not JSON, a JSON line that is not a
    # record and a record with a field of the wrong type each end in one
    # line on stderr and exit code 2.
    not_json = tmp_path / "not_json.jsonl"
    not_json.write_text('{"system_index": 0\n')
    keyless = tmp_path / "keyless.jsonl"
    keyless.write_text('{"x": 1}\n')
    not_object = tmp_path / "not_object.jsonl"
    not_object.write_text("[1, 2]\n")
    cases = [(str(tmp_path / "missing.jsonl"), "missing.jsonl"), (str(not_json), "line 1"),
             (str(keyless), "missing key 'system_index'"), (str(not_object), "not a JSON object")]
    good = run_record_line()
    for field, value in [("system_index", None), ("system_index", "0"), ("T", True),
                         ("controller", 3), ("stage_costs", [1.0, "x"]),
                         ("regret_achieved", "0.5"), ("diverged", 0)]:
        wrong = tmp_path / f"wrong_{field}.jsonl"
        wrong.write_text(good + "\n" + json.dumps(dict(json.loads(good), **{field: value})) + "\n")
        cases.append((str(wrong), f"line 2: not a run record: {field} has the wrong type"))
    for path, expected in cases:
        assert main(["table", "--runs", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad runs input: ") and expected in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_table_on_an_incomplete_grid_exit_code(tmp_path, capsys):
    # Two records of different generators on different systems leave two
    # cells of the grid empty: one line on stderr, exit 1, no tables.
    good = run_record_line()
    other = dict(json.loads(good), system_index=1, generator="random")
    runs = tmp_path / "runs.jsonl"
    runs.write_text(good + "\n" + json.dumps(other) + "\n")
    assert main(["table", "--runs", str(runs)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("aggregation error: incomplete grid") and captured.err.count("\n") == 1
    assert not (tmp_path / "table_ratio.csv").exists()


def test_run_seed_overrides_the_base_seed(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", {**small_config_dict(), "n_systems": 1, "n_seeds": 1})
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--seed", "3", "--out", str(out_dir)]) == 0
    snapshot = json.loads((out_dir / "config.snapshot.json").read_text())
    assert snapshot["base_seed"] == 3


def test_run_rerun_byte_identical(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", small_config_dict())
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg_path, "--out", out_a]) == 0
    assert main(["run", "--config", cfg_path, "--out", out_b]) == 0
    bytes_a = open(os.path.join(out_a, "runs.jsonl"), "rb").read()
    bytes_b = open(os.path.join(out_b, "runs.jsonl"), "rb").read()
    assert bytes_a == bytes_b


def test_run_jobs_equivalent(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", small_config_dict())
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg_path, "--out", out_a, "--jobs", "1"]) == 0
    assert main(["run", "--config", cfg_path, "--out", out_b, "--jobs", "3"]) == 0
    lines_a = open(os.path.join(out_a, "runs.jsonl")).read().splitlines()
    lines_b = open(os.path.join(out_b, "runs.jsonl")).read().splitlines()
    assert sorted(lines_a) == sorted(lines_b)


def test_run_rejects_jobs_below_one(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", small_config_dict())
    for jobs in ("0", "-3"):
        out_dir = tmp_path / f"out{jobs}"
        assert main(["run", "--config", cfg_path, "--out", str(out_dir), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad --jobs:") and err.count("\n") == 1
        assert not (out_dir / "runs.jsonl").exists()


def test_run_jobs_verbose_logs_every_episode(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", small_config_dict())
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg_path, "--out", out_a, "--jobs", "1"]) == 0
    capsys.readouterr()
    assert main(["run", "--config", cfg_path, "--out", out_b, "--jobs", "2", "--verbose"]) == 0
    progress = [line for line in capsys.readouterr().err.splitlines() if ": done (" in line]
    assert len(progress) == 2 * 2 * 1 * 2
    assert progress[-1].endswith("(8/8)")
    bytes_a = open(os.path.join(out_a, "runs.jsonl"), "rb").read()
    bytes_b = open(os.path.join(out_b, "runs.jsonl"), "rb").read()
    assert bytes_a == bytes_b


def test_partial_run_exit_code_and_manifest(tmp_path, monkeypatch):
    import motrbench.bench as bench

    real_task = bench._episode_task
    calls = {"n": 0}

    def flaky(args):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("injected failure")
        return real_task(args)

    monkeypatch.setattr(bench, "_episode_task", flaky)
    cfg_path = write_json(tmp_path / "cfg.json", small_config_dict())
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out_dir]) == 1
    manifest = json.load(open(os.path.join(out_dir, "incomplete.manifest.json")))
    assert len(manifest) == 1
    assert "injected failure" in manifest[0]["error"]
    assert "task" in manifest[0]

    # A clean rerun into the same directory leaves no stale manifest.
    monkeypatch.setattr(bench, "_episode_task", real_task)
    assert main(["run", "--config", cfg_path, "--out", out_dir]) == 0
    assert not os.path.exists(os.path.join(out_dir, "incomplete.manifest.json"))


def test_malformed_config_exit_code(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text('{"T": ')
    assert main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    unknown = write_json(tmp_path / "unknown.json", {"whatever": 1})
    assert main(["run", "--config", unknown]) == 2

    # A value out of range fails at load, before any episode runs.
    out_of_range = write_json(tmp_path / "range.json", {**small_config_dict(), "D_M": -1})
    out_dir = tmp_path / "out"
    assert main(["run", "--config", out_of_range, "--out", str(out_dir)]) == 2
    assert "D_M must be a positive number" in capsys.readouterr().err
    assert not (out_dir / "runs.jsonl").exists()

    # eta is no config field: a config or an old snapshot that carries it
    # names the field.
    path = write_json(tmp_path / "old.json", {**small_config_dict(), "eta": None})
    assert main(["run", "--config", path, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown") and "'eta'" in err, err
    assert not (out_dir / "runs.jsonl").exists()

    # Controllers and generators are names.  An old snapshot, whose specs
    # are {"name": ...} objects, exits 2 with one line naming the first one.
    old_snapshot = {
        **small_config_dict(),
        "controllers": [{"name": "lqr"}, {"name": "gpc", "h": 5, "lr": 0.5, "ball_radius": None}],
        "generators": [{"name": "motr"}, {"name": "oga", "lr": None}, {"name": "hinf"}],
    }
    for fields, named in ((old_snapshot, "{'name': 'lqr'}"),
                          ({"generators": ["random", {"name": "oga", "lr": None}]}, "{'name': 'oga', 'lr': None}")):
        path = write_json(tmp_path / "old.json", {**small_config_dict(), **fields})
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and named in err, err
        assert not (out_dir / "runs.jsonl").exists()

    # So does a malformed shape: no traceback, and no empty run.
    monkeypatch.chdir(tmp_path)
    for fields in ({"controllers": 5}, {"generators": [["motr"]]}, {"generators": []},
                   {"output_dir": 5}, {"generators": ["sine", "sine"]}):
        path = write_json(tmp_path / "shape.json", {**small_config_dict(), **fields})
        assert main(["run", "--config", path]) == 2, fields
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out" / "runs.jsonl").exists()


def test_run_and_regret_on_a_system_whose_synthesis_fails(tmp_path, capsys, fail_synthesis):
    config = {**small_config_dict(), "n_systems": 3, "n_seeds": 1}
    cfg_path = write_json(tmp_path / "cfg.json", config)
    fail_synthesis(ExperimentConfig.from_dict(config), 1)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out_dir)]) == 1
    records = [json.loads(line) for line in (out_dir / "runs.jsonl").read_text().splitlines()]
    assert [r["system_index"] for r in records] == [0, 0, 2, 2]
    manifest = json.loads((out_dir / "incomplete.manifest.json").read_text())
    assert [entry["task"] for entry in manifest] == [
        "system=1 seed=0 controller=lqr generator=random", "system=1 seed=0 controller=lqr generator=hinf"
    ]
    assert all(entry["error"].startswith("SynthesisError: Riccati") for entry in manifest)
    capsys.readouterr()

    argv = ["regret", "--config", cfg_path, "--T-grid", "40,80", "--seeds", "1", "--out", str(tmp_path / "regret")]
    assert main([*argv, "--system-index", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("synthesis error: Riccati") and captured.err.count("\n") == 1
    assert main([*argv, "--system-index", "2"]) == 0


def test_solve_tr_subcommand(tmp_path, capsys):
    prob = write_json(
        tmp_path / "prob.json",
        {"P": [[0.0, 0.0], [0.0, 0.0]], "p": [1.0, 0.0], "D": 2.0},
    )
    assert main(["solve-tr", "--problem", prob]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(2.0)
    assert np.allclose(out["z"], [2.0, 0.0], atol=1e-9)
    assert out["on_boundary"] is True

    bad = write_json(tmp_path / "bad.json", {"P": [[1.0]]})
    assert main(["solve-tr", "--problem", bad]) == 2
    capsys.readouterr()
    negative_eps = write_json(tmp_path / "eps.json", {"P": [[1.0]], "p": [1.0], "D": 1.0, "eps": -1})
    any_eps = write_json(tmp_path / "eps2.json", {"P": [[1.0]], "p": [1.0], "D": 1.0, "eps": 1e-9})
    array = write_json(tmp_path / "array.json", [[1.0]])
    for path in (negative_eps, any_eps, array):
        assert main(["solve-tr", "--problem", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad problem input:") and err.count("\n") == 1


def test_solve_tr_reports_a_solver_failure(tmp_path, capsys):
    # Finite entries whose products overflow: the solver finds no finite
    # solution and says so in one line, without numpy's overflow warnings.
    prob = write_json(tmp_path / "prob.json", {"P": [[1e308, 0.0], [0.0, 1e308]], "p": [1e308, 0.0], "D": 1e300})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve-tr", "--problem", prob]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver error:") and captured.err.count("\n") == 1


def test_synth_subcommand(tmp_path, capsys):
    sys = random_system(3, 2, 2, seed=4, target_radius=0.9)
    sys_path = write_json(tmp_path / "sys.json", sys.to_json())
    assert main(["synth", "--system", sys_path]) == 0
    out = json.loads(capsys.readouterr().out)
    K = np.array(out["lqr"]["K"])
    assert K.shape == (2, 3)
    assert np.max(np.abs(np.linalg.eigvals(sys.A - sys.B @ K))) < 1.0
    gains = out["hinf"]
    assert np.array(gains["W"]).shape == (2, 3)
    assert gains["gamma_star"] > 0

    array = write_json(tmp_path / "array.json", [[1.0]])
    for argv in (["--system", array], ["--system", sys_path, "--cost", array]):
        assert main(["synth", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad system input:") and err.count("\n") == 1

    # The unstable mode 1.5 is uncontrollable: the solver rejects (A, B).
    unstabilizable = {
        "d_x": 2, "d_u": 1, "d_w": 1, "A": [[1.5, 0.0], [0.0, 0.5]], "B": [[0.0], [1.0]], "C": [[1.0], [0.0]],
    }
    assert main(["synth", "--system", write_json(tmp_path / "bad.json", unstabilizable)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("synthesis error:") and captured.err.count("\n") == 1


def synth_exit(argv, capsys):
    """(exit code, stdout, stderr) of one synth call."""
    code = main(["synth", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_rejects_a_cost_of_other_sizes(tmp_path, capsys):
    sys_path = write_json(tmp_path / "sys.json", random_system(3, 2, 2, seed=4).to_json())
    cost = {"d_x": 2, "d_u": 2, "Q": np.eye(2).tolist(), "R": np.eye(2).tolist()}
    code, out, err = synth_exit(["--system", sys_path, "--cost", write_json(tmp_path / "cost.json", cost)], capsys)
    assert code == 2 and out == ""
    assert err == "bad system input: the cost's (d_x, d_u) (2, 2) are not the system's (3, 2)\n" and err.count("\n") == 1


def test_synth_rejects_an_empty_matrix(tmp_path, capsys):
    # d_u = 0 or d_w = 0: one line naming the empty matrix, not numpy's
    # message from deep inside a solver.
    one = {"d_x": 1, "d_u": 1, "d_w": 1, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]}
    for name, size in (("B", "d_u"), ("C", "d_w")):
        path = write_json(tmp_path / f"empty_{name}.json", {**one, size: 0, name: [[]]})
        code, out, err = synth_exit(["--system", path], capsys)
        assert code == 2 and out == ""
        assert err == f"bad system input: {name} must have 1 rows and at least one column, got shape (1, 0)\n"


def test_synth_stops_on_the_first_non_finite_riccati_iterate(tmp_path, capsys):
    # Finite entries whose products overflow: the Riccati iteration stops at
    # once and says so in one line, without numpy's overflow warnings.
    path = write_json(tmp_path / "sys.json", {"d_x": 1, "d_u": 1, "d_w": 1, "A": [[1e200]], "B": [[1e200]], "C": [[1.0]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = synth_exit(["--system", path], capsys)
    assert code == 2 and out == ""
    assert err == "synthesis error: Riccati iteration produced non-finite values\n"


def test_synth_rejects_a_singular_R(tmp_path, capsys):
    # R = [[0]] is PSD, so CostWeights takes it; the Riccati solver needs it
    # positive definite.
    sys_path = write_json(tmp_path / "sys.json", random_system(1, 1, 1, seed=0).to_json())
    cost = {"d_x": 1, "d_u": 1, "Q": [[1.0]], "R": [[0.0]]}
    code, out, err = synth_exit(["--system", sys_path, "--cost", write_json(tmp_path / "cost.json", cost)], capsys)
    assert code == 2 and out == ""
    assert err == "bad system input: R must be positive definite\n"


def test_regret_subcommand(tmp_path, capsys):
    cfg_path = write_json(
        tmp_path / "cfg.json",
        {**small_config_dict(), "n_systems": 1, "n_seeds": 1},
    )
    out_dir = str(tmp_path / "out")
    assert main([
        "regret", "--config", cfg_path, "--controller", "lqr",
        "--T-grid", "40,80", "--seeds", "1", "--out", out_dir,
    ]) == 0
    path = os.path.join(out_dir, "regret.csv")
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "T,regret,regret_per_round,loglog_slope"
    assert len(lines) == 3
    assert "fitted log-log slope" in capsys.readouterr().out

    assert main(["regret", "--config", cfg_path, "--controller", "gpc", "--T-grid", "40"]) == 2
    assert "not in config" in capsys.readouterr().err
    assert main(["regret", "--config", cfg_path, "--T-grid", "80,40"]) == 2
    assert "strictly increasing" in capsys.readouterr().err
    for index in ("7", "-3", "1"):
        assert main(["regret", "--config", cfg_path, "--system-index", index, "--T-grid", "40"]) == 2
        assert "system_index must be in [0, 1)" in capsys.readouterr().err


def test_regret_on_one_horizon_reports_no_slope(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", {**small_config_dict(), "n_systems": 1, "n_seeds": 1})
    out_dir = str(tmp_path / "out")
    assert main(["regret", "--config", cfg_path, "--T-grid", "40", "--seeds", "1", "--out", out_dir]) == 0
    captured = capsys.readouterr()
    assert "fitted log-log slope: nan\n" in captured.out
    assert captured.err == ""
    lines = open(os.path.join(out_dir, "regret.csv")).read().strip().splitlines()
    assert len(lines) == 2 and lines[1].endswith(",nan")


def test_regret_runs_motr_whatever_the_generators_list(tmp_path, capsys):
    def regret_lines(generators, name, **top_level):
        cfg_path = write_json(
            tmp_path / f"{name}.json",
            {**small_config_dict(), "n_systems": 1, "n_seeds": 1, "generators": generators, **top_level},
        )
        assert main([
            "regret", "--config", cfg_path, "--T-grid", "40,80", "--seeds", "1",
            "--out", str(tmp_path / name),
        ]) == 0
        return [line for line in capsys.readouterr().out.splitlines() if line.startswith("T=")]

    listed = regret_lines(["motr"], "listed")
    assert regret_lines(["random"], "absent") == listed
    # MOTR's settings are the config's top level: H moves every row.
    changed = regret_lines(["random"], "changed", H=1)
    assert len(changed) == len(listed) == 2
    assert changed[0] != listed[0] and changed[1] != listed[1]


def test_readme_config_schema_matches_the_code():
    # The README's "Config schema" section lists exactly the config's fields
    # and names every controller and generator, so a knob or name that is
    # removed or added cannot leave the documentation behind.
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    section = readme.split("### Config schema", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = [name for row in rows for cell in re.findall(r"`([^`]*)`", row.split("|")[1])
                  for name in cell.split(", ")]
    assert sorted(documented) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
    named = set(re.findall(r"`([^`]*)`", section))
    assert {*CONTROLLERS, *GENERATORS} <= named
