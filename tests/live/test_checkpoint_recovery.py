"""Bounded-loss recovery: a dead collector restarts from checkpoints.

The contract: killing the collector loses at most one checkpoint
interval plus the gap to the next sample.  Recovery from the
surviving prefix of the log must restore the counters, resolution accounting
(attempted/unresolved — the completeness ratio), and queryable state
*exactly* as of the last surviving checkpoint — including runs where a
simulated stage crash (``repro.faults``) wiped synopsis tables mid-run,
since each commit holds the tables as they stood, with their next
values and crash counts.
"""

import hashlib
import os

import pytest

from repro import telemetry
from repro.apps.tpcw import TpcwSystem
from repro.core.context import SynopsisRef, TransactionContext
from repro.core.profiler import StageRuntime
from repro.live import LOG_NAME, LiveCollector, attach_collector, read_commits
from repro.parallel import canonical_profile_bytes


@pytest.fixture(autouse=True)
def _telemetry_teardown():
    yield
    telemetry.uninstall()


def _digest(profile) -> str:
    return hashlib.sha256(canonical_profile_bytes(profile)).hexdigest()


def _answers(collector):
    """What the collector answers without reading a tree."""
    return (
        collector.now,
        collector.samples,
        collector.sample_weight,
        collector.synopses_minted,
        collector.crashes,
        collector.events_absorbed,
        collector.evictions,
        collector.revivals,
        collector.stitch_stats(),
    )


def _checkpointed_run(tmp_path, fault_plan=None, answers=None):
    """One seeded TPC-W run under a spilling collector; ``answers``,
    when given, receives what the collector answered at each commit."""
    tele = telemetry.install("spans")
    directory = str(tmp_path / "live")
    collector = attach_collector(
        tele, directory=directory, interval=2.0, max_resident=6
    )
    if answers is not None:
        write = collector.checkpoint

        def checkpoint_and_record():
            write()
            answers.append(_answers(collector))

        collector.checkpoint = checkpoint_and_record
    kwargs = {"clients": 12, "seed": 7}
    if fault_plan is not None:
        kwargs.update(fault_plan=fault_plan, fault_seed=1)
    system = TpcwSystem(**kwargs)
    results = system.run(duration=16.0, warmup=2.0)
    collector.finalize()
    telemetry.uninstall()
    return directory, collector, results


def test_full_recovery_matches_postmortem_digest(tmp_path):
    directory, collector, results = _checkpointed_run(tmp_path)
    recovered = LiveCollector.recover(directory)
    commits = list(read_commits(os.path.join(directory, LOG_NAME)))
    assert recovered.recovered_from == len(commits) > 1
    assert recovered.samples == collector.samples
    assert recovered.now == collector.now
    assert _digest(recovered.stitched_profile(strict=True)) == _digest(
        results.stitch()
    )


def test_recovery_after_collector_death_is_exact(tmp_path):
    """Kill the collector mid-run (simulated by cutting the log after
    an older commit) during a run where a stage crash cleared synopsis
    tables; the restart must restore the accounting of the last
    surviving commit exactly — no drift, no double counting."""
    answers = []
    directory, _, _ = _checkpointed_run(
        tmp_path, fault_plan="crash=tomcat@9.0", answers=answers
    )
    log = os.path.join(directory, LOG_NAME)
    commits = list(read_commits(log))
    assert len(commits) == len(answers) > 4
    end, survivor = commits[-3]  # everything after it is lost
    with open(log, "r+b") as handle:
        handle.truncate(end)
    stored = survivor["counters"]

    recovered = LiveCollector.recover(directory)
    assert recovered.recovered_from == len(commits) - 2
    assert recovered.now == survivor["t"]
    assert recovered.samples == stored["samples"]
    assert recovered.sample_weight == stored["sample_weight"]
    # The derived counters (mints from the tables' next values, crash
    # clears from the stages' counts) and the resolution tallies are
    # what the live collector answered at that commit.
    assert _answers(recovered) == answers[-3]
    assert recovered.crashes >= 1  # the fault fired before the survivor
    # The LRU's own counters are cumulative state like the rest.
    assert recovered.evictions == stored["evictions"] > 0
    assert recovered.revivals == stored["revivals"] > 0
    attempted, unresolved = recovered.stitch_stats()
    # The completeness ratio is recomputed from a fresh resolve pass
    # over recovered state, not read back from the file — and agrees
    # with the tallies the live collector answered exactly.
    assert recovered.completeness() == (attempted - unresolved) / attempted
    assert recovered.completeness() < 1.0  # the crash really lost refs

    # Cold state answers queries: trees fault in from the log.
    rows = recovered.top_contexts(5)
    assert rows and rows[0][2] > 0.0
    profile = recovered.stitched_profile(strict=False)
    assert profile.entries
    assert profile.completeness == recovered.completeness()


def test_recovery_roundtrip_is_stable(tmp_path):
    """recover -> compact -> recover again reproduces the same bytes
    from a single superseding commit."""
    directory, _, _ = _checkpointed_run(tmp_path)
    first = LiveCollector.recover(directory)
    digest = _digest(first.compact(strict=True))
    assert os.listdir(directory) == [LOG_NAME]
    assert len(list(read_commits(os.path.join(directory, LOG_NAME)))) == 1
    second = LiveCollector.recover(directory)
    assert second.samples == first.samples
    assert _digest(second.stitched_profile(strict=True)) == digest


def test_a_closed_collector_writes_on_where_it_stopped(tmp_path):
    """close() releases the log's handle, not its contents: the
    evictions and commits after it append to the log, before and after
    a compaction."""
    tele = telemetry.install("spans")
    directory = str(tmp_path / "live")
    collector = attach_collector(
        tele, directory=directory, interval=2.0, max_resident=6
    )
    write = collector.checkpoint

    def checkpoint_then_close():
        write()
        collector.close()

    collector.checkpoint = checkpoint_then_close
    results = TpcwSystem(clients=12, seed=7).run(duration=16.0, warmup=2.0)
    telemetry.uninstall()
    collector.finalize()
    assert collector.checkpoints_written > 4 and collector.evictions > 0
    log = os.path.join(directory, LOG_NAME)
    assert len(list(read_commits(log))) == collector.checkpoints_written
    recovered = LiveCollector.recover(directory)
    assert recovered.samples == collector.samples
    digest = _digest(results.stitch())
    assert _digest(recovered.stitched_profile(strict=True)) == digest

    # After a compaction, the log it wrote is the one carried on.
    collector.compact()
    collector.finalize()
    collector.close()
    collector.finalize()
    collector.close()
    assert os.listdir(directory) == [LOG_NAME]
    recovered = LiveCollector.recover(directory)
    assert recovered.recovered_from == 3
    assert _digest(recovered.stitched_profile(strict=True)) == digest


def _tables(collector):
    """Each stage's synopsis mappings, next value and crash count."""
    return {
        stage.name: (
            stage.synopses.items(), stage.synopses.next_value, stage.crashes
        )
        for stage in collector.stages
    }


def test_mint_crash_mint_within_one_interval_recovers_the_live_tables(
    tmp_path,
):
    """The sequence a set of mappings alone cannot tell apart from a
    plain mint: a context minted, the table cleared by a crash, the
    same context minted again under a new value, all between two
    commits.  Recovery must give the live tables back — mappings, next
    value and crash count — and with them the live digest and event
    count."""
    directory = str(tmp_path / "live")
    collector = attach_collector(None, directory=directory, interval=100.0)
    try:
        web = StageRuntime("web")
        db = StageRuntime("db")
        first = TransactionContext(("accept", "read"))
        second = TransactionContext(("accept", "write"))
        stale = web.synopses.synopsis(first)
        web.synopses.synopsis(second)
        assert web.crash() == 2
        fresh = web.synopses.synopsis(first)
        assert fresh != stale
        for value, weight in ((stale, 3.0), (fresh, 5.0)):
            label = TransactionContext((SynopsisRef("web", value),))
            collector.on_sample(db.ccts, label, ("query",), weight, 1.0)
        collector.on_sample(web.ccts, first, ("read",), 2.0, 1.5)
        live = _tables(collector)
        assert live["web"] == (((first, fresh),), 4, 1)
        collector.finalize()
    finally:
        collector.close()
    assert collector.checkpoints_written == 1
    profile = collector.stitched_profile()
    assert profile.unresolved_refs == 1  # the stale value stays lost

    recovered = LiveCollector.recover(directory)
    assert _tables(recovered) == live
    assert recovered.synopses_minted == collector.synopses_minted == 3
    assert recovered.crashes == collector.crashes == 1
    assert recovered.events_absorbed == collector.events_absorbed == 3 + 3 + 1
    assert recovered.stitch_stats() == collector.stitch_stats()
    assert recovered.top_contexts(10) == collector.top_contexts(10)
    assert _digest(recovered.stitched_profile()) == _digest(profile)
