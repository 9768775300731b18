import os
import sys

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
