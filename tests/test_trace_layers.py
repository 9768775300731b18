"""Guards for the benchmark's traced run: every (module, attribute) that
perfbench/tracing.py wraps must still exist, or `run.py --trace 1` stops
with a TraceError, and a traced pass must certify every trust-region
solve."""

import json
import os
import subprocess
import sys


def test_every_traced_layer_resolves(perfbench):
    import tracing

    for name, module_name, path in tracing.LAYERS:
        owner, attr, raw = tracing._resolve(module_name, path)
        assert callable(getattr(owner, attr)), f"{name}: {module_name}.{path} is not callable"


def test_traced_pass_certifies_every_solve(perfbench, tmp_path):
    # One traced pass of the adversary-n64 workload (about 5 s): every
    # check passes, no episode fails, and each of the workload's 3144
    # trust-region solves (8 MOTR episodes of 391 plays, plus one hindsight
    # solve per adaptive episode) goes through the certificate.
    root = os.path.dirname(perfbench)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(perfbench, "worker.py"), "adversary-n64", "0", "trace", str(tmp_path)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["solves_certified"] == 3144


def test_traced_gpc_pass(perfbench, tmp_path):
    # One traced pass of the gpc-noise workload (a few seconds): the
    # per-round plant-step recomputation finds no problem, no episode fails,
    # and GPC acts in every one of the workload's 9600 rounds.
    root = os.path.dirname(perfbench)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(perfbench, "worker.py"), "gpc-noise", "0", "trace", str(tmp_path)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["per_layer"]["controllers.gpc_act.calls"] == 9600
