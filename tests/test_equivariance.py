"""Metamorphic test of an exact symmetry of the benchmark.

Every generator's budget and every linear controller is homogeneous, so
scaling the initial state x0 and the disturbance budget W_max by s scales
every state, control and disturbance by s and every stage cost by s^2.
With s = 2 the floating-point arithmetic scales exactly, so the scaled run
must reproduce each stage cost times 4 bit for bit.

The pairs checked are the ones that hold today.  lqr-motr and the gpc
pairs are left out: MOTR's perturbation and GPC's step rule are not
homogeneous in the scale, so their costs move by more than rounding.
"""

import dataclasses

import numpy as np

import motrbench.bench as bench
from motrbench.bench import ExperimentConfig, run_grid

EXACT_PAIRS = [("hinf", g) for g in ("motr", "oga", "hinf", "random", "sine", "gaussian")] + [
    ("lqr", g) for g in ("oga", "hinf", "random", "sine", "gaussian")
]


def grid_records(config):
    records, failures = run_grid(config)
    assert not failures
    return {(r.system_index, r.seed_index, r.controller, r.generator): r for r in records}


def test_doubling_x0_and_the_budget_quadruples_every_stage_cost(monkeypatch):
    # The benchmark's grid workload (base seed 0, 3 systems x 2 seeds) on
    # the two linear controllers, once as is and once with (2 x0, 2 W_max).
    config = ExperimentConfig(n_systems=3, n_seeds=2, controllers=["lqr", "hinf"])
    base = grid_records(config)
    run_episode = bench.run_episode

    def from_doubled_x0(sys, cw, controller, generator, T, x0, **kw):
        return run_episode(sys, cw, controller, generator, T, 2.0 * x0, **kw)

    monkeypatch.setattr(bench, "run_episode", from_doubled_x0)
    scaled = grid_records(dataclasses.replace(config, W_max=2.0))
    checked = 0
    for key, rec in base.items():
        if key[2:] not in EXACT_PAIRS:
            continue
        twin = scaled[key]
        assert not rec.diverged and not twin.diverged, key
        np.testing.assert_array_equal(twin.stage_costs, 4.0 * np.array(rec.stage_costs), err_msg=str(key))
        assert twin.cumulative_average_cost == 4.0 * rec.cumulative_average_cost, key
        checked += 1
    assert checked == len(EXACT_PAIRS) * config.n_systems * config.n_seeds
