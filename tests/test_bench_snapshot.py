"""tools/bench_snapshot.py writes a BENCH file only from benchmark passes
that passed their own checks."""

import json
import os
import subprocess
import sys

import numpy as np
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


# perfbench/run.py's report of a --trace 1 run: untraced and traced passes.
RUN_OUTPUT = """\
untraced pass 0: wall_s 0.7201 (raw 0.7312, speed 1.015) setup_s 0.1104 (raw 0.1121, speed 1.015) \
peak_rss_mb 61.2 runs.jsonl sha256 5e27
untraced pass 1: wall_s 0.7372 (raw 0.7290, speed 0.989) setup_s 0.1098 (raw 0.1090, speed 0.993) \
peak_rss_mb 61.3 runs.jsonl sha256 5e27
traced pass 0: wall 1.0210 s raw (traced, not rescaled) setup_s 0.1101 (raw 0.1101, speed 1.000) \
peak_rss_mb 63.0 runs.jsonl sha256 5e27
adversary-n64 seed 0: 3 passes, 72 episodes attempted, 0 failed, correct True
{"correct": true, "attempted": 72, "failed": 0, "metrics": {}}
"""


def test_untraced_wall_s_reads_every_untraced_pass(snapshot):
    assert snapshot.untraced_wall_s(RUN_OUTPUT, "run.py") == [0.7201, 0.7372]


def test_untraced_wall_s_refuses_output_without_an_untraced_pass(snapshot):
    traced_only = "".join(line + "\n" for line in RUN_OUTPUT.splitlines() if not line.startswith("untraced"))
    with pytest.raises(SystemExit):
        snapshot.untraced_wall_s(traced_only, "run.py")


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
    assert set(block) == {"python", "numpy", "cpus", "platform", "dont_write_bytecode", "blas"}


@pytest.mark.parametrize("coretype", [None, "Prescott"])
def test_machine_records_the_blas_kernel_setting(snapshot, monkeypatch, coretype):
    # A runs.jsonl hash holds for one BLAS kernel: the block records the
    # override of OpenBLAS's pick and numpy's OpenBLAS build string.
    if coretype is None:
        monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
    blas = snapshot.machine()["blas"]
    numpy_blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert blas == {
        "openblas_coretype": coretype,
        "openblas_configuration": numpy_blas.get("openblas configuration"),
        "openblas_corename": snapshot.openblas_corename(),
    }


def test_openblas_corename_names_the_kernel_that_runs(dynamic_openblas):
    # The configuration string names the build target; the kernel that
    # runs is the one OPENBLAS_CORETYPE names, here in a child process.
    env = dict(os.environ, PYTHONPATH=TOOLS, OPENBLAS_CORETYPE="Nehalem")
    child = subprocess.run([sys.executable, "-c", "import bench_snapshot; print(bench_snapshot.openblas_corename())"],
                           env=env, stdout=subprocess.PIPE, text=True, check=True)
    assert child.stdout == "Nehalem\n"
