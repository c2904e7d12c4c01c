"""Repository-wide test fixtures."""

import pytest

from repro.core import profiler


@pytest.fixture(autouse=True)
def _no_leaked_collector():
    """Fail any test that leaves a live collector attached: every
    system built after it would be adopted by that collector."""
    yield
    leaked, profiler.COLLECTOR = profiler.COLLECTOR, None
    assert leaked is None, f"live collector left attached: {leaked!r}"
