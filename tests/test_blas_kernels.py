"""How far the records move when the BLAS kernel changes.

numpy's OpenBLAS, built with DYNAMIC_ARCH, picks a kernel for the CPU it
loads on, and OPENBLAS_CORETYPE overrides the pick.  Kernels round some
products differently, so runs.jsonl is byte-identical only under one
kernel.  This module runs the benchmark's `grid` workload config
(perfbench/workloads.py, base seed 0) under Nehalem and Prescott, two
kernels that every x86-64 CPU can run, matches the records as
tools/drift_report.py does, and bounds the relative change of every pair
that does not amplify rounding.  The chaotic pairs are listed with the
ROADMAP item that owns each; they run as expected failures.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from motrbench.bench import CONTROLLERS, GENERATORS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNELS = ("Nehalem", "Prescott")
# Fixed before the first run, from a full-grid probe under four kernels in
# which these pairs agreed to 1.1e-14 and 1.9e-12.
COST_REL_BOUND = 1e-12
STAGE_REL_BOUND = 1e-9
# Pairs whose records a last-bit change moves in the leading digits.
CHAOTIC = {
    ("gpc", "hinf"): "ROADMAP item 2",
    ("gpc", "motr"): "ROADMAP item 2",
    ("gpc", "oga"): "ROADMAP item 2",
    ("gpc", "sine"): "ROADMAP item 2",
    ("lqr", "motr"): "ROADMAP item 17",
}
PAIRS = [(c, g) for c in CONTROLLERS for g in GENERATORS]


def _skip_reason():
    """Why this machine cannot swap kernels, or None when it can: numpy's
    BLAS must be an OpenBLAS with DYNAMIC_ARCH on x86-64."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return "numpy cannot report its build configuration"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = config.get("Machine Information", {}).get("host", {}).get("cpu")
    if "openblas" not in str(blas.get("name", "")).lower():
        return f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS"
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")).split():
        return "numpy's OpenBLAS is built without DYNAMIC_ARCH"
    if cpu != "x86_64":
        return f"the CPU is {cpu!r}, not x86_64"
    return None


SKIP = _skip_reason()
pytestmark = pytest.mark.skipif(SKIP is not None, reason=str(SKIP))


@pytest.fixture(scope="module")
def kernel_runs(perfbench, drift_report, tmp_path_factory):
    """The grid workload's records under each kernel, loaded by
    drift_report.load; the two runs go side by side in child processes."""
    from workloads import WORKLOADS

    tmp = tmp_path_factory.mktemp("kernels")
    config = tmp / "grid.json"
    config.write_text(json.dumps(WORKLOADS["grid"]))
    children = []
    for kernel in KERNELS:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_CORETYPE=kernel,
                   OPENBLAS_NUM_THREADS="1")
        cmd = [sys.executable, "-m", "motrbench.cli", "run", "--config", str(config), "--out", str(tmp / kernel)]
        children.append(subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
    for kernel, child in zip(KERNELS, children):
        _, err = child.communicate()
        assert child.returncode == 0, f"{kernel}: {err}"
    return [drift_report.load(str(tmp / kernel / "runs.jsonl")) for kernel in KERNELS]


def test_the_kernel_swap_changes_the_records(kernel_runs, drift_report):
    pairs, unmatched = drift_report.drift(*kernel_runs)
    assert unmatched == 0 and sorted(pairs) == sorted(PAIRS)
    # Otherwise the bounds below would hold without measuring anything.
    assert sum(row["identical"] for row in pairs.values()) < len(kernel_runs[0])


@pytest.mark.parametrize("pair", [
    pytest.param(pair, marks=pytest.mark.xfail(reason=f"chaotic under a kernel swap; {CHAOTIC[pair]}"))
    if pair in CHAOTIC else pair
    for pair in PAIRS
], ids="-".join)
def test_pair_is_stable_under_a_kernel_swap(kernel_runs, drift_report, pair):
    row = drift_report.drift(*kernel_runs)[0][pair]
    assert row["cumulative_average_cost"] <= COST_REL_BOUND, row
    assert row["stage_costs"] <= STAGE_REL_BOUND, row
