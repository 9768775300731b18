"""Metamorphic tests of exact symmetries of the benchmark.

Scale.  Every generator's budget and every linear controller is
homogeneous, so scaling the initial state x0 and the disturbance budget
W_max by s scales every state, control and disturbance by s and every
stage cost by s^2.  With s = 2 the floating-point arithmetic scales
exactly, so the scaled run must reproduce each stage cost times 4 bit for
bit.  The pairs checked are the ones that hold today.  lqr-motr and the
gpc pairs are left out: MOTR's perturbation and GPC's step rule are not
homogeneous in the scale, so their costs move by more than rounding.

Rotation.  An orthogonal change of state coordinates x -> S x maps the
plant (A, B, C) to (S A S', S B, S C) and leaves Q = I, every control,
every disturbance and every cost unchanged, so each record must agree
with the unrotated one to rounding.  The pairs that a last-bit change
moves in the leading digits (CHAOTIC, shared with
tests/test_blas_kernels.py) amplify that rounding and run as expected
failures.
"""

import dataclasses

import numpy as np
import pytest

import motrbench.bench as bench
from motrbench.bench import CONTROLLERS, GENERATORS, ExperimentConfig, run_grid
from motrbench.lds import LinearSystem
from test_blas_kernels import CHAOTIC

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


# The benchmark's grid workload: base seed 0, 3 systems x 2 seeds, all pairs.
GRID = ExperimentConfig(n_systems=3, n_seeds=2)
# Fixed before the first run, from a probe whose worst stable pair moved
# its cumulative average cost by 4.2e-12 and a stage cost by 9.4e-11.
COST_REL_BOUND = 1e-9
STAGE_REL_BOUND = 1e-8


@pytest.fixture(scope="module")
def rotated_grids():
    """The grid's records as is and with every plant in the coordinates
    x -> S x, S the orthogonal factor of a seeded Gaussian matrix."""
    S, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((GRID.d_x, GRID.d_x)))
    base = grid_records(GRID)
    random_system, run_episode = bench.random_system, bench.run_episode

    def rotated_system(*args, **kw):
        sys = random_system(*args, **kw)
        return LinearSystem(S @ sys.A @ S.T, S @ sys.B, S @ sys.C)

    def from_rotated_x0(sys, cw, controller, generator, T, x0, **kw):
        return run_episode(sys, cw, controller, generator, T, S @ x0, **kw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "random_system", rotated_system)
        patch.setattr(bench, "run_episode", from_rotated_x0)
        rotated = grid_records(GRID)
    return base, rotated


@pytest.mark.parametrize("pair", [
    pytest.param(pair, marks=pytest.mark.xfail(reason=f"chaotic under rounding; {CHAOTIC[pair]}"))
    if pair in CHAOTIC else pair
    for pair in [(c, g) for c in CONTROLLERS for g in GENERATORS]
], ids="-".join)
def test_rotating_the_state_leaves_every_cost_unchanged(rotated_grids, pair):
    base, rotated = rotated_grids
    keys = [key for key in base if key[2:] == pair]
    assert len(keys) == GRID.n_systems * GRID.n_seeds
    for key in keys:
        rec, twin = base[key], rotated[key]
        assert not rec.diverged and not twin.diverged, key
        assert len(twin.stage_costs) == len(rec.stage_costs), key
        cost = abs(twin.cumulative_average_cost - rec.cumulative_average_cost) / rec.cumulative_average_cost
        assert cost <= COST_REL_BOUND, (key, cost)
        stages = np.abs(np.subtract(twin.stage_costs, rec.stage_costs)) / np.abs(rec.stage_costs)
        assert stages.max() <= STAGE_REL_BOUND, (key, stages.max())
