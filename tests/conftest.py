import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
TOOLS = os.path.join(ROOT, "tools")


@pytest.fixture(scope="session")
def perfbench():
    """Makes the benchmark's modules (perfbench/) importable by name."""
    sys.path.insert(0, PERFBENCH)
    try:
        yield PERFBENCH
    finally:
        sys.path.remove(PERFBENCH)


@pytest.fixture(scope="session")
def drift_report():
    """tools/drift_report.py as a module."""
    sys.path.insert(0, TOOLS)
    try:
        import drift_report

        yield drift_report
    finally:
        sys.path.remove(TOOLS)


@pytest.fixture(scope="session")
def dynamic_openblas():
    """Skips the test unless OPENBLAS_CORETYPE can swap numpy's BLAS
    kernel (tools/bench_snapshot.py's kernel_swap_unavailable)."""
    sys.path.insert(0, TOOLS)
    try:
        from bench_snapshot import kernel_swap_unavailable
    finally:
        sys.path.remove(TOOLS)
    reason = kernel_swap_unavailable()
    if reason is not None:
        pytest.skip(reason)


@pytest.fixture
def fail_synthesis(monkeypatch):
    """fail_synthesis(config, index) makes bench's H-infinity synthesis
    raise SynthesisError on the config's system index, and only there."""
    from motrbench import bench
    from motrbench.controllers import SynthesisError, hinf_bisection
    from motrbench.lds import random_system

    def install(config, index):
        bad = random_system(config.d_x, config.d_u, config.d_w, target_radius=config.target_radius,
                            seed=bench.stable_seed(config.base_seed, "system", index))

        def synthesis(sys, cw):
            if np.array_equal(sys.A, bad.A):
                raise SynthesisError("Riccati iteration did not converge in 500 steps")
            return hinf_bisection(sys, cw)

        monkeypatch.setattr(bench, "hinf_bisection", synthesis)

    return install


@pytest.fixture
def fail_fifth_rollout_quadratic(monkeypatch):
    """Makes the adaptive generators' rollout_cost_quadratic raise
    ValueError("rollout quadratic is not finite") on its 5th call, the
    observe of round 4 of the first episode that calls it."""
    from motrbench import generators

    calls = []
    real = generators.rollout_cost_quadratic

    def flaky(*args):
        calls.append(None)
        if len(calls) == 5:
            raise ValueError("rollout quadratic is not finite")
        return real(*args)

    monkeypatch.setattr(generators, "rollout_cost_quadratic", flaky)
