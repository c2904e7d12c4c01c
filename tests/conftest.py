"""Repository-wide test fixtures."""

import pytest

from repro.core import profiler


@pytest.fixture(autouse=True)
def _no_leaked_profile_listener():
    """Fail any test that leaves a listener on the profile-event
    channel: every system built after it would feed that listener."""
    yield
    leaked = list(profiler.PROFILE_LISTENERS)
    profiler.PROFILE_LISTENERS.clear()
    assert not leaked, f"profile listeners left attached: {leaked!r}"
