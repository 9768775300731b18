"""tools/bench_snapshot.py writes a BENCH file only from benchmark passes
that passed their own checks."""

import json
import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture(scope="module")
def snapshot():
    sys.path.insert(0, TOOLS)
    try:
        import bench_snapshot

        yield bench_snapshot
    finally:
        sys.path.remove(TOOLS)


def _out(result):
    return "grid seed 0: 4 passes\n" + json.dumps(result) + "\n"


def test_checked_result_returns_a_clean_pass(snapshot):
    result = {"correct": True, "attempted": 36, "failed": 0, "metrics": {}}
    assert snapshot._checked_result(_out(result), "run.py") == result


@pytest.mark.parametrize("result", [
    {"correct": False, "attempted": 36, "failed": 0, "metrics": {}},
    {"correct": True, "attempted": 36, "failed": 2, "metrics": {}},
    {"correct": "true", "attempted": 36, "failed": 0, "metrics": {}},
    {"attempted": 36, "failed": 0, "metrics": {}},
    {"correct": True, "attempted": 36, "metrics": {}},
    [1, 2],
])
def test_checked_result_refuses_a_failed_pass(snapshot, result):
    with pytest.raises(SystemExit):
        snapshot._checked_result(_out(result), "run.py")


@pytest.mark.parametrize("out", ["", "grid seed 0: 4 passes\nTraceback: boom\n"])
def test_checked_result_refuses_output_without_a_result_line(snapshot, out):
    with pytest.raises(SystemExit):
        snapshot._checked_result(out, "run.py")


def test_no_file_is_written_when_head_cannot_be_resolved(snapshot, tmp_path):
    # A fresh repository has a clean src/ but no HEAD: the script stops
    # before any pass runs.
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    (tmp_path / "src").mkdir()
    out = tmp_path / "BENCH_x.json"
    with pytest.raises(SystemExit):
        snapshot.main([str(out), "--root", str(tmp_path)])
    assert not out.exists()


def test_settable_values_counts_config_and_spec_fields(snapshot):
    # The 14 config fields: controllers and generators are bare names.
    commands = []
    assert snapshot.settable_values(os.path.dirname(TOOLS), commands) == 14
    assert len(commands) == 1 and commands[0].startswith("python3 -c ")


def test_settable_values_counts_the_spec_fields_of_an_older_checkout(snapshot, tmp_path):
    # --root still measures checkouts whose specs had fields, listed in
    # their default tables: 2 config fields plus 3 spec fields.
    package = tmp_path / "src" / "motrbench"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "bench.py").write_text(
        "import dataclasses\n\n\n"
        "@dataclasses.dataclass\nclass ExperimentConfig:\n    T: int = 200\n    controllers: list = None\n\n\n"
        "CONTROLLER_DEFAULTS = {'lqr': {}, 'gpc': {'h': 5, 'lr': 0.5}}\n"
        "GENERATOR_DEFAULTS = {'motr': {}, 'oga': {'lr': None}}\n"
    )
    assert snapshot.settable_values(str(tmp_path), []) == 5


@pytest.mark.parametrize("value, expected", [(None, False), ("", False), ("0", False), ("1", True), ("x", True)])
def test_machine_records_the_bytecode_setting(snapshot, monkeypatch, value, expected):
    # Python reads PYTHONDONTWRITEBYTECODE as set when it is a positive
    # integer or a non-empty string other than an integer.
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    block = snapshot.machine()
    assert block["dont_write_bytecode"] is expected
    assert set(block) == {"python", "numpy", "cpus", "platform", "dont_write_bytecode"}
