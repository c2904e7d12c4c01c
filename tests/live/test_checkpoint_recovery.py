"""Bounded-loss recovery: a dead collector restarts from checkpoints.

The contract: killing the collector loses at most one checkpoint
interval plus the gap to the next sample.  Recovery from the
surviving WDR2 chain must restore the counters, resolution accounting
(attempted/unresolved — the completeness ratio), and queryable state
*exactly* as of the last surviving checkpoint — including runs where a
simulated stage crash (``repro.faults``) wiped synopsis tables mid-run,
since the op-log replay re-applies mints and clears in order.
"""

import hashlib
import os

import pytest

from repro import telemetry
from repro.apps.tpcw import TpcwSystem
from repro.live import (
    LiveCollector,
    attach_collector,
    list_checkpoints,
    read_checkpoint,
)
from repro.parallel import canonical_profile_bytes


@pytest.fixture(autouse=True)
def _telemetry_teardown():
    yield
    telemetry.uninstall()


def _digest(profile) -> str:
    return hashlib.sha256(canonical_profile_bytes(profile)).hexdigest()


def _checkpointed_run(tmp_path, fault_plan=None):
    tele = telemetry.install("spans")
    directory = str(tmp_path / "live")
    collector = attach_collector(
        tele, directory=directory, interval=2.0, max_resident=6
    )
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
    assert recovered.recovered_from == len(list_checkpoints(directory))
    assert recovered.samples == collector.samples
    assert recovered.now == collector.now
    assert _digest(recovered.stitched_profile(strict=True)) == _digest(
        results.stitch()
    )


def test_recovery_after_collector_death_is_exact(tmp_path):
    """Kill the collector mid-run (simulated by deleting its newest
    checkpoints) during a run where a stage crash cleared synopsis
    tables; the restart must restore the accounting of the last
    surviving checkpoint exactly — no drift, no double counting."""
    directory, _, _ = _checkpointed_run(
        tmp_path, fault_plan="crash=tomcat@9.0"
    )
    files = list_checkpoints(directory)
    assert len(files) > 4
    for path in files[-2:]:  # everything after the survivor is lost
        os.remove(path)
    survivor = read_checkpoint(files[-3])
    stored = survivor["counters"]
    assert stored["crashes"] >= 1  # the fault fired before the survivor

    recovered = LiveCollector.recover(directory)
    assert recovered.now == survivor["t"]
    assert recovered.samples == stored["samples"]
    assert recovered.sample_weight == stored["sample_weight"]
    assert recovered.synopses_minted == stored["synopses_minted"]
    assert recovered.synopses_lost == stored["synopses_lost"]
    assert recovered.crashes == stored["crashes"]
    # The LRU's own counters are cumulative state like the rest.
    assert recovered.evictions == stored["evictions"] > 0
    assert recovered.revivals == stored["revivals"] > 0
    attempted, unresolved = recovered.stitch_stats()
    assert (attempted, unresolved) == (
        stored["attempted"], stored["unresolved"]
    )
    # The completeness ratio is recomputed from a fresh resolve pass
    # over recovered state, not read back from the file — and still
    # agrees with the stored accounting exactly.
    assert recovered.completeness() == (attempted - unresolved) / attempted
    assert recovered.completeness() < 1.0  # the crash really lost refs

    # Cold state answers queries: trees fault in from checkpoints.
    rows = recovered.top_contexts(5)
    assert rows and rows[0][2] > 0.0
    profile = recovered.stitched_profile(strict=False)
    assert profile.entries
    assert profile.completeness == recovered.completeness()


def test_recovery_roundtrip_is_stable(tmp_path):
    """recover -> compact -> recover again reproduces the same bytes
    from a single superseding snapshot."""
    directory, _, _ = _checkpointed_run(tmp_path)
    first = LiveCollector.recover(directory)
    digest = _digest(first.compact(strict=True))
    assert len(list_checkpoints(directory)) == 1
    second = LiveCollector.recover(directory)
    assert second.samples == first.samples
    assert _digest(second.stitched_profile(strict=True)) == digest
