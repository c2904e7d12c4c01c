"""The profile-event channel the live collector listens on.

Stage runtimes capture ``repro.core.profiler.PROFILE_LISTENERS`` once,
at construction, and hand the same emitter to their crosstalk
recorders.  These tests pin who listens when: a collector hears only
systems built while it was attached, it needs no telemetry, two of
them can share one stream, and a collector that cannot absorb an event
stops the run instead of being quietly dropped.
"""

import hashlib

import pytest

from repro import telemetry
from repro.apps.tpcw import TpcwSystem
from repro.core import profiler
from repro.live import attach_collector
from repro.live.checkpoint import SpillLog
from repro.parallel import canonical_profile_bytes


@pytest.fixture(autouse=True)
def _telemetry_teardown():
    yield
    telemetry.uninstall()


def _digest(profile) -> str:
    return hashlib.sha256(canonical_profile_bytes(profile)).hexdigest()


def _emitters(system):
    return [
        (stage._emit_profile, stage.crosstalk.emit_profile)
        for stage in system.stages_by_name.values()
    ]


def _run(system):
    return system.run(duration=3.0, warmup=0.5)


def test_a_system_captures_the_listeners_at_construction():
    assert _emitters(TpcwSystem(clients=4, seed=3)) == [(None, None)] * 3
    collector = attach_collector(None, directory=None)
    try:
        system = TpcwSystem(clients=4, seed=3)
        for sample_emit, crosstalk_emit in _emitters(system):
            # One listener: the collector's own entry point, no fan-out.
            assert sample_emit == collector.on_profile_event
            assert crosstalk_emit is sample_emit
    finally:
        collector.close()


@pytest.mark.parametrize("with_telemetry", [True, False])
def test_a_system_built_after_the_collector_closed_feeds_nothing(
    with_telemetry,
):
    """Ending the subscription — ``telemetry.uninstall()`` for a
    collector attached to a hub, ``close()`` for one attached without —
    leaves later systems with no emitter at all."""
    tele = telemetry.install("spans") if with_telemetry else None
    old = attach_collector(tele, directory=None)
    _run(TpcwSystem(clients=4, seed=3))
    if with_telemetry:
        telemetry.uninstall()
    else:
        old.close()
    assert profiler.PROFILE_LISTENERS == []
    absorbed = old.events_absorbed
    assert absorbed > 0

    system = TpcwSystem(clients=4, seed=3)
    assert _emitters(system) == [(None, None)] * 3
    _run(system)
    old.drain()
    assert old.events_absorbed == absorbed


def test_two_collectors_without_telemetry_match_the_postmortem_stitch(
    tmp_path,
):
    spilling = attach_collector(
        None, directory=str(tmp_path / "live"), interval=2.0, max_resident=3
    )
    in_memory = attach_collector(None, directory=None)
    try:
        system = TpcwSystem(clients=10, seed=7)
        assert telemetry.ACTIVE is None
        results = system.run(duration=8.0, warmup=1.0)
    finally:
        spilling.close()
        in_memory.close()
    assert spilling.evictions > 0 and in_memory.evictions == 0
    # No spans were built, so none were seen.
    assert spilling.spans_seen == in_memory.spans_seen == 0
    assert spilling.events_absorbed == in_memory.events_absorbed > 0
    post = _digest(results.stitch())
    assert _digest(spilling.compact(strict=True)) == post
    assert _digest(in_memory.compact(strict=True)) == post


def test_a_failing_collector_stops_the_run(tmp_path, monkeypatch):
    """A spill that cannot be written must not be quarantined into a
    silently partial live profile: the error ends the run."""

    def disk_full(self, cell):
        raise OSError("disk full")

    monkeypatch.setattr(SpillLog, "append", disk_full)
    tele = telemetry.install("spans")
    collector = attach_collector(
        tele, directory=str(tmp_path / "live"), interval=2.0, max_resident=2
    )
    system = TpcwSystem(clients=10, seed=7)
    with pytest.raises(OSError, match="disk full"):
        system.run(duration=8.0, warmup=1.0)
    assert tele.sink_errors == 0
    telemetry.uninstall()
    assert profiler.PROFILE_LISTENERS == []
    assert collector.evictions == 0


def test_a_failing_shard_releases_the_spill_log(tmp_path, monkeypatch):
    from repro.live import checkpoint
    from repro.parallel import plan_shards
    from repro.parallel.runner import run_one_shard

    logs = []
    append = SpillLog.append

    def recording_append(self, cell):
        logs.append(self)
        return append(self, cell)

    def disk_full(directory, seq, document):
        raise OSError("disk full")

    monkeypatch.setattr(SpillLog, "append", recording_append)
    monkeypatch.setattr(checkpoint, "write_checkpoint", disk_full)
    plan = plan_shards(
        "tpcw", seed=7, clients=10, shards=1, duration=8.0, warmup=1.0,
        params={}, live_dir=str(tmp_path / "live"), live_interval=2.0,
        live_resident=3,
    )
    with pytest.raises(OSError, match="disk full"):
        run_one_shard(plan.specs[0])
    assert logs, "the shard evicted nothing before its first checkpoint"
    assert all(log._handle is None for log in logs)
    assert profiler.PROFILE_LISTENERS == []
    assert telemetry.ACTIVE is None
