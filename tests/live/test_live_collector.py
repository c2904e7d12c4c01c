"""The online streaming stitcher's headline guarantee.

A live collector owns the stage runtimes' trees during the run — with
an LRU bound forcing real evictions to the spill log — and must, after
final compaction, produce a profile *byte-identical* to the
post-mortem stitch of the same seeded run with no collector attached,
and must answer ``top_contexts`` / ``completeness`` queries mid-run
without stopping or perturbing the simulation.  Since the live and
the post-mortem stitch of one run read the same trees, the oracle is
always a second run of the same seed that no collector touched.
"""

import functools
import hashlib
import os

import pytest

from repro import telemetry
from repro.apps.tpcw import TpcwSystem
from repro.core import profiler
from repro.core.persist import crosstalk_table, live_collectors, load_run
from repro.core.profiler import ProfilerMode
from repro.live import LOG_NAME, LiveCollector, attach_collector, read_commits
from repro.parallel import canonical_profile_bytes
from tests.sim.later import call_later


@pytest.fixture(autouse=True)
def _telemetry_teardown():
    yield
    telemetry.uninstall()


def _digest(profile) -> str:
    return hashlib.sha256(canonical_profile_bytes(profile)).hexdigest()


def _system(clients=12, seed=7, mix="browsing", fault_plan=None,
            mode=ProfilerMode.WHODUNIT):
    kwargs = {"clients": clients, "seed": seed, "mix": mix,
              "profiler_mode": mode}
    if fault_plan is not None:
        kwargs.update(fault_plan=fault_plan, fault_seed=3)
    return TpcwSystem(**kwargs)


@functools.lru_cache(maxsize=None)
def _oracle(duration=18.0, warmup=2.0, **system):
    """The digest of the same seeded run with no collector attached."""
    assert profiler.COLLECTOR is None
    results = _system(**system).run(duration=duration, warmup=warmup)
    return _digest(results.stitch(strict=False))


def _live_run(tmp_path, fault_plan=None, interval=3.0, max_resident=4,
              clients=12, seed=7, duration=18.0, warmup=2.0, mix="browsing"):
    tele = telemetry.install("spans")
    collector = attach_collector(
        tele,
        directory=str(tmp_path / "live"),
        interval=interval,
        max_resident=max_resident,
    )
    system = _system(clients=clients, seed=seed, mix=mix, fault_plan=fault_plan)
    results = system.run(duration=duration, warmup=warmup)
    # Detaches the collector (a closed one stays queryable), so the
    # oracle run builds plain stages.
    telemetry.uninstall()
    return collector, system, results


def test_live_compaction_matches_postmortem_under_eviction(tmp_path):
    collector, system, results = _live_run(tmp_path, max_resident=4)
    # The LRU bound must have actually been exercised: trees were
    # spilled to checkpoints and faulted back in.
    assert collector.evictions > 0
    assert collector.revivals > 0
    assert collector.peak_resident <= 4
    live = collector.compact(strict=True)  # lossless run: strict stitch
    assert live.completeness == 1.0
    assert _digest(live) == _oracle()
    # Compaction rewrote the log as one superseding commit.
    log = os.path.join(collector.directory, LOG_NAME)
    assert os.listdir(collector.directory) == [LOG_NAME]
    assert len(list(read_commits(log))) == 1


@pytest.mark.parametrize("max_resident", [1, 3])
def test_a_spilling_collector_without_telemetry_matches_a_run_without_one(
    tmp_path, max_resident
):
    collector = attach_collector(
        None, directory=str(tmp_path / "live"), interval=2.0,
        max_resident=max_resident,
    )
    try:
        system = TpcwSystem(clients=10, seed=7)
        assert telemetry.ACTIVE is None
        system.run(duration=8.0, warmup=1.0)
    finally:
        collector.close()
    assert collector.evictions > 0 and collector.revivals > 0
    assert collector.peak_resident == max_resident
    assert collector.events_absorbed > collector.samples > 0
    assert _digest(collector.compact(strict=True)) == _oracle(
        duration=8.0, warmup=1.0, clients=10
    )


def test_a_gprof_live_run_keeps_its_call_counts(tmp_path):
    """gprof counts calls into a tree outside any sample; an evicted
    tree must be revived for it and spilled with the counts."""
    collector = attach_collector(
        None, directory=str(tmp_path / "live"), interval=1.0, max_resident=2
    )
    try:
        system = _system(clients=8, seed=3, mode=ProfilerMode.GPROF)
        system.run(duration=4.0, warmup=0.0)
    finally:
        collector.close()
    assert collector.evictions > 0
    assert _digest(collector.compact(strict=True)) == _oracle(
        duration=4.0, warmup=0.0, clients=8, seed=3, mode=ProfilerMode.GPROF
    )
    calls = {
        stage.name: sum(row[3] for row in stage.ccts[profiler.LOCAL].root.to_rows())
        for stage in collector._stages.values()
    }
    assert all(count > 0 for count in calls.values()), calls


def test_live_matches_postmortem_with_stage_crashes(tmp_path):
    collector, system, results = _live_run(
        tmp_path,
        fault_plan="crash=tomcat@9.0,crash=mysql@14.0",
        max_resident=8,
        duration=16.0,
    )
    live = collector.compact(strict=False)
    # Crashes cleared synopsis mappings -> genuinely partial profile,
    # and the live collector accounts for the loss identically.
    assert collector.crashes == 2
    assert live.unresolved_refs > 0
    assert live.completeness < 1.0
    assert _digest(live) == _oracle(
        duration=16.0, fault_plan="crash=tomcat@9.0,crash=mysql@14.0"
    )


def test_midrun_queries_answer_without_stopping(tmp_path):
    tele = telemetry.install("spans")
    collector = attach_collector(
        tele, directory=str(tmp_path / "live"), interval=2.0, max_resident=4
    )
    system = TpcwSystem(clients=10, seed=5)
    probes = []

    def probe():
        rows = collector.top_contexts(3)
        probes.append((collector.now, rows, collector.completeness(),
                       collector.stage_weights()))

    call_later(system.kernel, 6.0, probe)
    call_later(system.kernel, 12.0, probe)
    system.run(duration=15.0, warmup=1.0)
    telemetry.uninstall()
    assert len(probes) == 2
    (t1, rows1, comp1, weights1), (t2, rows2, comp2, weights2) = probes
    assert t1 < t2
    assert rows2 and rows2[0][2] > 0.0  # (stage, context, weight, share)
    assert all(0.0 < share <= 1.0 for _, _, _, share in rows2)
    assert 0.0 < comp2 <= 1.0
    # Work accumulates between the probes.
    assert sum(weights2.values()) > sum(weights1.values())
    # The queries (index refreshes, resolve passes) perturbed nothing.
    assert _digest(collector.compact(strict=True)) == _oracle(
        duration=15.0, warmup=1.0, clients=10, seed=5
    )


def test_memory_only_collector_disables_eviction():
    tele = telemetry.install("spans")
    # No directory -> nowhere to spill -> the bound must be dropped.
    collector = attach_collector(tele, directory=None, max_resident=4)
    assert collector.max_resident is None
    system = TpcwSystem(clients=6, seed=11)
    system.run(duration=6.0, warmup=1.0)
    assert collector.evictions == 0
    assert collector.checkpoints_written == 0
    telemetry.uninstall()
    assert _digest(collector.stitched_profile(strict=True)) == _oracle(
        duration=6.0, warmup=1.0, clients=6, seed=11
    )


def test_live_crosstalk_and_renderers(tmp_path):
    from repro.analysis import render_live_crosstalk, render_live_top

    # The ordering mix issues conflicting writes, so the shared DB
    # tier contends deterministically at this scale.
    collector, system, results = _live_run(
        tmp_path, max_resident=64, clients=40, duration=15.0, mix="ordering"
    )
    pairs = collector.crosstalk_pairs()
    assert pairs
    waiter, holder, count, total, mean, peak = pairs[0]
    assert count > 0 and total > 0.0 and peak >= mean > 0.0
    # Live totals agree with the instrumented runtime's own aggregate.
    assert sum(row[2] for row in pairs) == sum(
        stats.count for stats in system.db.crosstalk.pairs.values()
    )
    top = render_live_top(collector, k=5)
    assert "live profile" in top and "stage totals" in top
    assert render_live_crosstalk(collector).count("\n") >= 1

    # A live directory's run profile folds the recovered stages'
    # crosstalk like any other run: the same items, in the same order.
    collector.finalize()
    collector.close()
    directory = collector.directory
    recovered = [stage for _index, recovered in live_collectors(directory)
                 for stage in recovered.stages]
    loaded = load_run(directory).crosstalk
    assert loaded
    assert list(loaded.items()) == list(crosstalk_table(recovered).items())
    assert list(loaded.items()) == list(
        crosstalk_table(collector.stages).items()
    )


def test_sharded_live_collection_folds_like_parallel_stitch(tmp_path):
    """Per-shard live collectors, folded shard-by-shard through the
    exact accumulator with @shardN tagging, must match the sharded
    post-mortem map-reduce of the same plan run without them
    byte-for-byte."""
    from repro.parallel import plan_shards, run_shards
    from repro.parallel.reduce import ProfileAccumulator
    from repro.parallel.stitching import _tag_unresolved

    def plan(**kwargs):
        return plan_shards(
            "tpcw", seed=7, clients=12, shards=3, duration=8.0, warmup=1.0,
            params={}, **kwargs,
        )

    live_dir = tmp_path / "live"
    run = run_shards(
        plan(live_dir=str(live_dir), live_interval=2.0, live_resident=6),
        jobs=1,
    )
    post = run_shards(plan(spool_dir=str(tmp_path / "spool")), jobs=1)
    accumulator = ProfileAccumulator()
    for index in range(3):
        shard_dir = str(live_dir / f"shard-{index:04d}")
        assert list(read_commits(os.path.join(shard_dir, LOG_NAME)))
        recovered = LiveCollector.recover(shard_dir)
        accumulator.add_profile(
            _tag_unresolved(
                recovered.stitched_profile(strict=False), f"@shard{index}"
            )
        )
        extra = run.results[index].extra["live"]
        assert extra["samples"] == recovered.samples
        assert extra["evictions"] > 0
        assert "sink_errors" not in extra
    folded = accumulator.finalize()
    assert _digest(folded) == _digest(post.stitch(strict=False))
    # load_run folds the directory the same way, crosstalk included.
    loaded = load_run(str(live_dir))
    assert _digest(loaded.profile) == _digest(folded)
    assert list(loaded.crosstalk.items()) == list(crosstalk_table(
        stage for _index, recovered in live_collectors(str(live_dir))
        for stage in recovered.stages
    ).items())
