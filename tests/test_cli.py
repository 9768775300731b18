import json
import os

import numpy as np
import pytest

from motrbench.cli import main
from motrbench.lds import random_system


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def small_config_dict():
    return {
        "n_systems": 2,
        "n_seeds": 2,
        "T": 25,
        "controllers": [{"name": "lqr"}],
        "generators": [{"name": "random"}, {"name": "hinf"}],
    }


def test_run_and_table_round_trip(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", small_config_dict())
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "runs.jsonl"))
    assert os.path.exists(os.path.join(out_dir, "config.snapshot.json"))
    snapshot = json.load(open(os.path.join(out_dir, "config.snapshot.json")))
    assert snapshot["T"] == 25
    assert all("name" in s for s in snapshot["generators"])

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


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"T": ')
    assert main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    unknown = write_json(tmp_path / "unknown.json", {"whatever": 1})
    assert main(["run", "--config", unknown]) == 2


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
