"""Smoke test of the benchmark's output checks: every perfbench workload,
cut to 1 system x 1 seed x T = 30, runs through run_grid and passes the
checks perfbench/worker.py applies to a full pass."""

from motrbench.bench import ExperimentConfig, run_grid

CUT = {"n_systems": 1, "n_seeds": 1, "T": 30}


def test_every_workload_passes_benchmark_checks(perfbench):
    import checks
    from workloads import WORKLOADS

    for workload, fields in WORKLOADS.items():
        config = ExperimentConfig(base_seed=0, **{**fields, **CUT})
        records, failures = run_grid(config, jobs=1)
        expected = len(config.controllers) * len(config.generators)
        assert checks.check_records(records, failures, expected) == [], workload
        if workload == "adversary-n64":
            assert checks.check_equilibrium_tie(records) == []
