"""How far the records move when the BLAS kernel changes.

numpy's OpenBLAS, built with DYNAMIC_ARCH, picks a kernel for the CPU it
loads on, and OPENBLAS_CORETYPE overrides the pick.  Kernels round some
products differently, so runs.jsonl is byte-identical only under one
kernel; an unknown name silently runs the default kernel, and a known
one may run another (this numpy's OpenBLAS runs Prescott and Core2 as its
Katmai kernel).  This module runs the benchmark's `grid` workload config
(perfbench/workloads.py, base seed 0) under OPENBLAS_CORETYPE Nehalem and
Prescott, kernels that every x86-64 CPU can run, checks through
tools/bench_snapshot.py's openblas_corename that each child ran a kernel
other than the default, matches the records as tools/drift_report.py
does, and bounds the relative change of every pair that does not amplify
rounding.  The chaotic pairs are listed with the ROADMAP item that owns
each; they run as expected failures.
"""

import json
import os
import subprocess
import sys

import pytest

from motrbench.bench import CONTROLLERS, GENERATORS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYTHONPATH = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "tools"))
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


@pytest.fixture(scope="module")
def kernel_children(dynamic_openblas, perfbench, drift_report, tmp_path_factory):
    """(kernel that ran, the grid workload's records as drift_report.load
    gives them) under each KERNELS setting; the two runs go side by side in
    child processes, and a third child names the default kernel."""
    from bench_snapshot import CORENAME_CHILD, KERNEL_CHILD
    from workloads import WORKLOADS

    tmp = tmp_path_factory.mktemp("kernels")
    config = tmp / "grid.json"
    config.write_text(json.dumps(WORKLOADS["grid"]))
    children = []
    for kernel in KERNELS:
        env = dict(os.environ, PYTHONPATH=PYTHONPATH, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1")
        cmd = [sys.executable, "-c", KERNEL_CHILD, "run", "--config", str(config), "--out", str(tmp / kernel)]
        children.append(subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    runs = []
    for kernel, child in zip(KERNELS, children):
        out, err = child.communicate()
        assert child.returncode == 0, f"{kernel}: {err}"
        runs.append((out.splitlines()[0], drift_report.load(str(tmp / kernel / "runs.jsonl"))))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = PYTHONPATH
    default = subprocess.run([sys.executable, "-c", CORENAME_CHILD], env=env, stdout=subprocess.PIPE, text=True,
                             check=True)
    return default.stdout.strip(), runs


@pytest.fixture(scope="module")
def kernel_runs(kernel_children):
    return [records for _, records in kernel_children[1]]


def test_each_child_runs_a_kernel_other_than_the_default(kernel_children):
    # OpenBLAS runs its default kernel for a name it does not know, and
    # then the bounds below would compare the default with itself.
    default, runs = kernel_children
    ran = [kernel for kernel, _ in runs]
    assert default != "None" and default not in ran, (default, ran)


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
