import os
import sys

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="session")
def perfbench():
    """Makes the benchmark's modules (perfbench/) importable by name."""
    sys.path.insert(0, PERFBENCH)
    try:
        yield PERFBENCH
    finally:
        sys.path.remove(PERFBENCH)


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
