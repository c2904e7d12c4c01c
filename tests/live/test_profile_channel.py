"""Who owns a stage's trees: the collector slot.

A live collector attached in ``repro.core.profiler.COLLECTOR`` adopts
every stage runtime built while it sits there: the runtime's ``ccts``
becomes the collector's store, and samples, mints and crash clears are
direct calls into it.  These tests pin who owns what when: only
systems built while a collector is attached are adopted, it needs no
telemetry, one collector and one runtime per stage name at a time,
decoded dumps stay the caller's, each sample is recorded once, the
LRU bounds the trees of the whole process, and a collector that
cannot spill stops the run instead of being quietly dropped.
"""

import gc
import os

import pytest

from repro import telemetry
from repro.apps.tpcw import TpcwSystem
from repro.core import profiler
from repro.core.cct import CallingContextTree
from repro.core.persist import load_run, load_stage, save_stage
from repro.core.profiler import StageRuntime
from repro.live import LiveCollector, attach_collector, checkpoint
from repro.live.collector import StageTrees


@pytest.fixture(autouse=True)
def _telemetry_teardown():
    yield
    telemetry.uninstall()


def _owners(system):
    return [
        (type(stage.ccts), stage._live)
        for stage in system.stages_by_name.values()
    ]


def _run(system):
    return system.run(duration=3.0, warmup=0.5)


def _stages(collector):
    return list(collector._stages.values())


def test_a_system_built_while_attached_is_adopted():
    assert _owners(TpcwSystem(clients=4, seed=3)) == [(dict, None)] * 3
    collector = attach_collector(None, directory=None)
    try:
        system = TpcwSystem(clients=4, seed=3)
        assert _owners(system) == [(StageTrees, collector)] * 3
        assert sorted(collector._stages) == sorted(system.stages_by_name)
    finally:
        collector.close()
    assert profiler.COLLECTOR is None


@pytest.mark.parametrize("with_telemetry", [True, False])
def test_a_system_built_after_the_collector_closed_feeds_nothing(
    with_telemetry,
):
    """Ending the attachment — ``telemetry.uninstall()`` for a
    collector attached to a hub, ``close()`` for one attached without —
    leaves later systems with plain dicts."""
    tele = telemetry.install("spans") if with_telemetry else None
    old = attach_collector(tele, directory=None)
    _run(TpcwSystem(clients=4, seed=3))
    if with_telemetry:
        telemetry.uninstall()
    else:
        old.close()
    assert profiler.COLLECTOR is None
    absorbed = old.events_absorbed
    assert absorbed > 0

    system = TpcwSystem(clients=4, seed=3)
    assert _owners(system) == [(dict, None)] * 3
    _run(system)
    assert old.events_absorbed == absorbed


def test_a_second_attach_raises():
    first = attach_collector(None, directory=None)
    try:
        with pytest.raises(ValueError, match="already attached"):
            attach_collector(None, directory=None)
        with pytest.raises(ValueError, match="already attached"):
            first.attach(None)
        assert profiler.COLLECTOR is first
        StageRuntime("web")
        with pytest.raises(ValueError, match="already holds a stage named 'web'"):
            StageRuntime("web")
        # A stage rebuilt for analysis is never adopted.
        assert type(StageRuntime("web", live=False).ccts) is dict
    finally:
        first.close()
    second = attach_collector(None, directory=None)
    second.close()


@pytest.mark.parametrize(
    "interval", [0.0, -1.0, float("nan"), float("inf")]
)
def test_the_interval_must_be_finite_and_positive(interval):
    with pytest.raises(ValueError, match="interval"):
        LiveCollector(interval=interval)


@pytest.mark.parametrize("max_resident", [0, -1])
def test_the_resident_bound_must_be_positive(max_resident, tmp_path):
    with pytest.raises(ValueError, match="max_resident"):
        LiveCollector(directory=str(tmp_path), max_resident=max_resident)
    assert profiler.COLLECTOR is None


def _state(collector):
    return (
        _stages(collector),
        [dict(stage.ccts.entries) for stage in _stages(collector)],
        [stage.synopses.items() for stage in _stages(collector)],
        collector.samples,
        collector.events_absorbed,
        collector.evictions,
        collector.revivals,
        collector.resident_contexts,
        collector.peak_resident,
        collector.checkpoints_written,
        collector.top_contexts(50),
    )


def test_a_dump_loaded_while_attached_leaves_the_collector_alone(tmp_path):
    dumps = tmp_path / "dumps"
    paths = TpcwSystem(clients=6, seed=3).run(
        duration=3.0, warmup=0.5
    ).system.save_profiles(str(dumps), "v2")
    v1 = str(tmp_path / "mysql.v1.json")
    save_stage(load_stage(paths["mysql"]), v1, "v1")
    live_dir = str(tmp_path / "live")
    collector = attach_collector(
        None, directory=live_dir, interval=1.0, max_resident=2
    )
    try:
        _run(TpcwSystem(clients=6, seed=3))
        collector.finalize()
        before = _state(collector)
        files = sorted(os.listdir(live_dir))
        # Same stage names as the adopted ones: adopting any of these
        # would raise, so loading proves they stay the caller's.
        for path in [v1, *paths.values()]:
            assert type(load_stage(path).ccts) is dict
        assert load_run(str(dumps)).profile.entries
        assert LiveCollector.recover(live_dir).samples == collector.samples
        assert load_run(live_dir).profile.entries
        assert _state(collector) == before
        assert sorted(os.listdir(live_dir)) == files
        assert profiler.COLLECTOR is collector
    finally:
        collector.close()


def test_one_record_sample_per_sample(tmp_path, monkeypatch):
    calls = []
    record = CallingContextTree.record_sample

    def counting(self, path, weight=1.0):
        calls.append(weight)
        return record(self, path, weight)

    monkeypatch.setattr(CallingContextTree, "record_sample", counting)
    collector = attach_collector(
        None, directory=str(tmp_path / "live"), interval=2.0, max_resident=3
    )
    try:
        TpcwSystem(clients=10, seed=7).run(duration=8.0, warmup=1.0)
    finally:
        collector.close()
    assert collector.evictions > 0 and collector.revivals > 0
    assert len(calls) == collector.samples > 0


def test_resident_trees_are_bounded_for_the_process(tmp_path):
    """Stopped mid-run, the process holds no more trees than the LRU
    bound: the stages' own dictionaries are the collector's store."""
    max_resident = 4
    collector = attach_collector(
        None, directory=str(tmp_path / "live"), interval=2.0,
        max_resident=max_resident,
    )
    try:
        system = TpcwSystem(clients=20, seed=42)
        system.start()
        for until in (4.0, 8.0, 12.0):
            system.kernel.run(until=until)
            gc.collect()
            alive = sum(
                isinstance(obj, CallingContextTree) for obj in gc.get_objects()
            )
            assert alive <= max_resident, (until, alive)
        labels = sum(len(stage.ccts) for stage in _stages(collector))
        assert labels > max_resident
        assert collector.evictions > 0
    finally:
        collector.close()


def test_reading_trees_moves_no_lru_counter(tmp_path):
    """Reports, the post-mortem stitch and compaction read trees; only
    changes (samples, gprof's call counts) touch the LRU."""
    from repro.analysis import render_stage_profile

    collector = attach_collector(
        None, directory=str(tmp_path / "live"), interval=2.0, max_resident=2
    )
    try:
        results = TpcwSystem(clients=10, seed=7).run(duration=8.0, warmup=1.0)
    finally:
        collector.close()

    def counters():
        return (collector.evictions, collector.revivals,
                collector.peak_resident, collector.samples)

    before, resident = counters(), collector.resident_contexts
    assert collector.evictions > 0
    evicted = [
        label
        for stage in _stages(collector)
        for label, entry in stage.ccts.entries.items()
        if entry.cct is None
    ]
    assert evicted
    post = results.stitch()
    for stage in _stages(collector):
        render_stage_profile(stage)
        assert stage.total_weight() > 0.0
    assert (counters(), collector.resident_contexts) == (before, resident)
    assert collector.compact().entries.keys() == post.entries.keys()
    assert counters() == before


def test_a_failing_collector_stops_the_run(tmp_path, monkeypatch):
    """A spill that cannot be written must not be quarantined into a
    silently partial live profile: the error ends the run."""

    def disk_full(handle, document, version):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "append_frame", disk_full)
    tele = telemetry.install("spans")
    collector = attach_collector(
        tele, directory=str(tmp_path / "live"), interval=2.0, max_resident=2
    )
    system = TpcwSystem(clients=10, seed=7)
    with pytest.raises(OSError, match="disk full"):
        system.run(duration=8.0, warmup=1.0)
    assert tele.sink_errors == 0
    telemetry.uninstall()
    assert profiler.COLLECTOR is None
    assert collector.evictions == 0


def test_a_failing_shard_releases_the_spill_log(tmp_path, monkeypatch):
    from repro.parallel import plan_shards
    from repro.parallel.runner import run_one_shard

    logs = []
    append = checkpoint.append_frame

    def commit_fails(handle, document, version):
        if version == checkpoint.COMMIT_VERSION:
            raise OSError("disk full")
        logs.append(handle)
        return append(handle, document, version)

    monkeypatch.setattr(checkpoint, "append_frame", commit_fails)
    plan = plan_shards(
        "tpcw", seed=7, clients=10, shards=1, duration=8.0, warmup=1.0,
        params={}, live_dir=str(tmp_path / "live"), live_interval=2.0,
        live_resident=3,
    )
    with pytest.raises(OSError, match="disk full"):
        run_one_shard(plan.specs[0])
    assert logs, "the shard wrote no tree before its first commit"
    assert all(log.closed for log in logs)
    assert profiler.COLLECTOR is None
    assert telemetry.ACTIVE is None
