"""The spill log: where evicted trees go, and what recovery makes of it.

Evicted trees are appended to one file per collector directory; the
interval chain references them by offset.  These tests pin the
consequences: bytes nothing references (a torn tail, frames newer than
the surviving checkpoint) change nothing, any LRU bound and interval
give the post-mortem bytes, the chain grows with virtual time and not
with evictions, and a directory in the older layout (every tree a cell
of some chain document) still recovers.
"""

import hashlib
import math
import os
import shutil

import pytest

from repro import telemetry
from repro.apps.tpcw import TpcwSystem
from repro.live import (
    LiveCollector,
    attach_collector,
    list_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.live.checkpoint import SPILL_NAME, SpillLog
from repro.parallel import canonical_profile_bytes


@pytest.fixture(autouse=True)
def _telemetry_teardown():
    yield
    telemetry.uninstall()


def _digest(profile) -> str:
    return hashlib.sha256(canonical_profile_bytes(profile)).hexdigest()


def _run(directory, interval=2.0, max_resident=3, fault_plan=None,
         duration=12.0, on_checkpoint=None):
    """One seeded TPC-W run under a spilling collector."""
    tele = telemetry.install("spans")
    collector = attach_collector(
        tele, directory=directory, interval=interval, max_resident=max_resident
    )
    if on_checkpoint is not None:
        write = collector.checkpoint

        def checkpoint():
            path = write()
            on_checkpoint(path)
            return path

        collector.checkpoint = checkpoint
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
    """A collector that dies while appending leaves a torn frame after
    the last checkpoint.  Whatever prefix of it survives, recovery is
    the last checkpoint, exactly."""
    directory = str(tmp_path / "live")
    collector, results = _run(directory)
    assert collector.evictions > 0
    log_path = os.path.join(directory, SPILL_NAME)
    referenced = os.path.getsize(log_path)
    intact = LiveCollector.recover(directory)
    want = _state(intact)
    stored = read_checkpoint(list_checkpoints(directory)[-1])["counters"]
    assert (intact.samples, intact.sample_weight, intact.evictions) == (
        stored["samples"], stored["sample_weight"], stored["evictions"]
    )
    assert intact.samples == collector.samples
    post = _digest(results.stitch())
    assert _digest(intact.stitched_profile(strict=True)) == post

    # Two evictions after the last checkpoint; the second one torn.
    log = SpillLog(directory)
    log.append([["orphan"], [-1], ["<root>"], [1.0], [0]])
    log.append([["torn"], [-1, 0], ["<root>", "frame"], [0.0, 2.5], [0, 1]])
    log.close()
    whole = os.path.getsize(log_path)
    assert whole > referenced + 24
    for cut in range(1, whole - referenced + 1):
        with open(log_path, "r+b") as handle:
            handle.truncate(whole - cut)
        recovered = LiveCollector.recover(directory)
        assert _state(recovered) == want, cut
        if cut % 16 == 1:
            assert _digest(recovered.stitched_profile(strict=True)) == post
    assert os.path.getsize(log_path) == referenced


def test_frames_newer_than_the_surviving_checkpoint_are_ignored(tmp_path):
    """Lose the two newest chain files but keep the whole log: the
    frames appended after the survivor must count for nothing, as if
    the collector had died right after writing the survivor."""
    directory = str(tmp_path / "live")
    at_checkpoint = {}

    def keep_copy(path):
        copy = str(tmp_path / f"at-{len(at_checkpoint)}")
        shutil.copytree(directory, copy)
        at_checkpoint[path] = copy

    _run(directory, fault_plan="crash=tomcat@6.0", on_checkpoint=keep_copy)
    files = list_checkpoints(directory)
    assert len(files) > 4
    for path in files[-2:]:
        os.remove(path)
    survivor = files[-3]
    pristine = at_checkpoint[survivor]
    log_path = os.path.join(directory, SPILL_NAME)
    assert os.path.getsize(log_path) > os.path.getsize(
        os.path.join(pristine, SPILL_NAME)
    )

    stored = read_checkpoint(survivor)["counters"]
    recovered = LiveCollector.recover(directory, max_resident=3)
    assert recovered.samples == stored["samples"]
    assert recovered.sample_weight == stored["sample_weight"]
    assert recovered.evictions == stored["evictions"] > 0
    assert recovered.revivals == stored["revivals"] > 0
    assert recovered.stitch_stats() == (
        stored["attempted"], stored["unresolved"]
    )
    reference = LiveCollector.recover(pristine)
    assert _state(recovered) == _state(reference)
    assert _digest(recovered.stitched_profile()) == _digest(
        reference.stitched_profile()
    )

    # The recovered collector keeps working: changes to its rebuilt
    # stages revive trees and evict onto the end of the same log, past
    # the orphans.  It holds their names, so no new system joins it.
    for stage in recovered._stages.values():
        for label in list(stage.ccts):
            stage.cct_for(label).record_sample(("resumed",), 1.0)
    assert recovered.revivals > stored["revivals"]
    assert recovered.evictions > stored["evictions"]
    recovered.attach(None)
    with pytest.raises(ValueError, match="already holds a stage"):
        _system()
    recovered.close()
    compacted = _digest(recovered.compact())
    assert os.listdir(directory) == [
        os.path.basename(list_checkpoints(directory)[0])
    ]
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
    chain = list_checkpoints(directory)
    bound = math.ceil((duration + warmup) / interval) + 2
    # Bounded loss is by virtual time: one document per interval, give
    # or take the gap to the next sample; none per eviction.
    assert bound - 4 <= len(chain) <= bound
    assert collector.checkpoints_written == len(chain)
    times = [read_checkpoint(path)["t"] for path in chain[:-1]]
    assert all(
        later - earlier < interval + 1.0
        for earlier, later in zip(times, times[1:])
    )
    assert sorted(os.listdir(directory)) == sorted(
        [os.path.basename(path) for path in chain] + [SPILL_NAME]
    )
    LiveCollector.recover(directory).compact()
    assert os.listdir(directory) == [
        os.path.basename(list_checkpoints(directory)[0])
    ]


def test_directory_without_a_spill_log_still_recovers(tmp_path):
    """The layout before the spill log: every tree snapshot is a cell
    of some chain document, no document has a ``spilled`` key, and
    there is no log file."""
    directory = str(tmp_path / "live")
    _, results = _run(directory, fault_plan="crash=tomcat@6.0")
    log = SpillLog(directory)
    old_layout = str(tmp_path / "old-layout")
    inlined = 0
    for path in list_checkpoints(directory):
        document = read_checkpoint(path)
        for stage_doc in document["stages"].values():
            for _label, offset in stage_doc.pop("spilled"):
                stage_doc["ccts"].append(log.read(offset))
                inlined += 1
        write_checkpoint(old_layout, document["seq"], document)
    log.close()
    assert inlined > 0
    assert SPILL_NAME not in os.listdir(old_layout)

    want = LiveCollector.recover(directory)
    recovered = LiveCollector.recover(old_layout)
    assert _state(recovered) == _state(want)
    post = _digest(results.stitch(strict=False))
    assert _digest(recovered.stitched_profile()) == post
    # ... and compacts into the current layout without changing a byte.
    assert _digest(recovered.compact()) == post
    assert len(os.listdir(old_layout)) == 1
    assert _digest(
        LiveCollector.recover(old_layout).stitched_profile()
    ) == post
