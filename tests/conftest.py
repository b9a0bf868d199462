import contextlib
import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@contextlib.contextmanager
def _traced():
    def peak():
        value = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return value

    tracemalloc.start()
    try:
        yield peak
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced():
    """The memory tests' one tracemalloc helper: allocations are traced
    inside ``with traced() as peak:``, and peak() returns the most bytes
    traced at once since the block began or since the last peak(), then
    starts a new peak.  Memory still held from before counts."""
    return _traced


@pytest.fixture(scope="session")
def triangle_gpc():
    """One EP fit on the 2-D triangle data, shared across tests."""
    from localgrad.data import gen_triangle
    from localgrad.gpc import ep_fit
    from localgrad.kernels import KernelSpec

    data = gen_triangle(60, seed=123)
    model = ep_fit(data.features, data.labels, KernelSpec("rbf", width=1.0))
    return data, model
