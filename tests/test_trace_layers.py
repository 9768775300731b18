"""Guard for the benchmark's traced run: every (module, attribute) that
perfbench/tracing.py wraps must still exist, or `run.py --trace 1` stops
with a TraceError."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing

        yield tracing
    finally:
        sys.path.remove(PERFBENCH)


def test_every_traced_layer_resolves(tracing):
    for name, module_name, path in tracing.LAYERS:
        owner, attr, raw = tracing._resolve(module_name, path)
        assert callable(getattr(owner, attr)), f"{name}: {module_name}.{path} is not callable"
