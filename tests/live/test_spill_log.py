"""The log: where evicted trees go, and what recovery makes of it.

Evicted trees are appended to one file per collector directory, the
same file the interval commits go to; a commit names the tree frames
by offset.  These tests pin the consequences: bytes no commit names (a
torn tail, orphan frames) change nothing, a recovered collector that
resumes writing cuts them off, any LRU bound and interval give the
post-mortem bytes, and the commits grow with virtual time and not with
evictions.
"""

import hashlib
import math
import os

import pytest

from repro import telemetry
from repro.apps.tpcw import TpcwSystem
from repro.live import LOG_NAME, LiveCollector, attach_collector, read_commits
from repro.live.checkpoint import TREE_VERSION, append_frame
from repro.parallel import canonical_profile_bytes


@pytest.fixture(autouse=True)
def _telemetry_teardown():
    yield
    telemetry.uninstall()


def _digest(profile) -> str:
    return hashlib.sha256(canonical_profile_bytes(profile)).hexdigest()


def _run(directory, interval=2.0, max_resident=3, fault_plan=None,
         duration=12.0):
    """One seeded TPC-W run under a spilling collector."""
    tele = telemetry.install("spans")
    collector = attach_collector(
        tele, directory=directory, interval=interval, max_resident=max_resident
    )
    results = _system(fault_plan).run(duration=duration, warmup=2.0)
    collector.finalize()
    telemetry.uninstall()
    return collector, results


def _system(fault_plan=None):
    kwargs = {"clients": 10, "seed": 7}
    if fault_plan is not None:
        kwargs.update(fault_plan=fault_plan, fault_seed=1)
    return TpcwSystem(**kwargs)


def _oracle(duration, fault_plan=None) -> str:
    """The digest of the same seeded run with no collector attached."""
    results = _system(fault_plan).run(duration=duration, warmup=2.0)
    return _digest(results.stitch(strict=False))


def _state(collector):
    """Everything a query can see, without touching a tree."""
    return (
        collector.now,
        collector.samples,
        collector.sample_weight,
        collector.synopses_minted,
        collector.synopses_lost,
        collector.crashes,
        collector.events_absorbed,
        collector.evictions,
        collector.revivals,
        collector.stitch_stats(),
        collector.stage_weights(),
        collector.top_contexts(50),
        collector.crosstalk_pairs(),
    )


def test_nothing_on_disk_before_the_first_eviction(tmp_path):
    directory = str(tmp_path / "live")
    tele = telemetry.install("spans")
    collector = attach_collector(tele, directory=directory, max_resident=2)
    assert not os.path.exists(directory)
    collector.close()  # nothing open: a no-op, and callable twice
    collector.close()


def test_torn_tail_is_ignored(tmp_path):
    """A collector that dies while appending leaves orphan frames and
    a torn one after the last commit.  Whatever prefix of them
    survives, recovery is the last commit, exactly; a recovered
    collector that resumes cuts them off before it writes."""
    directory = str(tmp_path / "live")
    collector, results = _run(directory, fault_plan="crash=tomcat@6.0")
    assert collector.evictions > 0
    log_path = os.path.join(directory, LOG_NAME)
    referenced = os.path.getsize(log_path)
    intact = LiveCollector.recover(directory)
    want = _state(intact)
    stored = list(read_commits(log_path))[-1][1]["counters"]
    assert (intact.samples, intact.sample_weight, intact.evictions) == (
        stored["samples"], stored["sample_weight"], stored["evictions"]
    )
    assert intact.samples == collector.samples
    post = _digest(results.stitch())
    assert _digest(intact.stitched_profile()) == post

    def orphans():
        """Two evictions after the last commit; the second one torn."""
        with open(log_path, "ab") as log:
            append_frame(log, [["orphan", "<root>"], [[0]],
                               [0, [-1], [1], [1.0], [0]]], TREE_VERSION)
            append_frame(log, [["torn", "<root>", "frame"], [[0]],
                               [0, [-1, 0], [1, 2], [0.0, 2.5], [0, 1]]],
                         TREE_VERSION)

    orphans()
    whole = os.path.getsize(log_path)
    assert whole > referenced + 24
    for cut in range(1, whole - referenced + 1):
        with open(log_path, "r+b") as handle:
            handle.truncate(whole - cut)
        recovered = LiveCollector.recover(directory)
        assert _state(recovered) == want, cut
        if cut % 16 == 1:
            assert _digest(recovered.stitched_profile()) == post
    assert os.path.getsize(log_path) == referenced

    # The recovered collector keeps working: changes to its rebuilt
    # stages revive trees and evict them onto the log, which it first
    # cuts back to its last commit.  It holds their names, so no new
    # system joins it.
    orphans()
    with open(log_path, "r+b") as handle:
        handle.truncate(whole - 3)
    recovered = LiveCollector.recover(directory, max_resident=3)
    for stage in recovered._stages.values():
        for label in list(stage.ccts):
            stage.cct_for(label).record_sample(("resumed",), 1.0)
    assert recovered.revivals > stored["revivals"]
    assert recovered.evictions > stored["evictions"]
    recovered.attach(None)
    with pytest.raises(ValueError, match="already holds a stage"):
        _system()
    recovered.checkpoint()
    recovered.close()
    resumed = LiveCollector.recover(directory)
    assert resumed.recovered_from == intact.recovered_from + 1
    assert resumed.samples == recovered.samples
    assert _digest(resumed.stitched_profile()) == _digest(
        recovered.stitched_profile()
    ) != post
    compacted = _digest(recovered.compact())
    assert os.listdir(directory) == [LOG_NAME]
    again = LiveCollector.recover(directory)
    assert again.samples == recovered.samples
    assert _digest(again.stitched_profile()) == compacted


@pytest.mark.parametrize("interval", [0.5, 2.0])
@pytest.mark.parametrize("max_resident", [1, 2, 3, 6])
def test_any_bound_and_interval_give_the_postmortem_bytes(
    tmp_path, max_resident, interval
):
    collector, _ = _run(
        str(tmp_path / "live"), interval=interval, max_resident=max_resident,
        duration=8.0,
    )
    assert collector.evictions > 0
    assert collector.peak_resident <= max_resident
    post = _oracle(duration=8.0)
    assert _digest(collector.compact(strict=True)) == post
    recovered = LiveCollector.recover(collector.directory)
    assert _digest(recovered.stitched_profile(strict=True)) == post


def test_chain_grows_with_virtual_time_not_with_evictions(tmp_path):
    directory = str(tmp_path / "live")
    interval, duration, warmup = 2.0, 16.0, 2.0
    collector, _ = _run(
        directory, interval=interval, max_resident=2, duration=duration
    )
    assert collector.evictions > 200
    log_path = os.path.join(directory, LOG_NAME)
    commits = [commit for _end, commit in read_commits(log_path)]
    bound = math.ceil((duration + warmup) / interval) + 2
    # Bounded loss is by virtual time: one commit per interval, give
    # or take the gap to the next sample; none per eviction.
    assert bound - 4 <= len(commits) <= bound
    assert collector.checkpoints_written == len(commits)
    times = [commit["t"] for commit in commits[:-1]]
    assert all(
        later - earlier < interval + 1.0
        for earlier, later in zip(times, times[1:])
    )
    assert os.listdir(directory) == [LOG_NAME]
    LiveCollector.recover(directory).compact()
    assert os.listdir(directory) == [LOG_NAME]
    assert len(list(read_commits(log_path))) == 1
