"""Crash points of the live log: every prefix recovers to its last commit.

A collector directory holds one append-only file.  Each interval
appends the dirty resident trees and then one commit naming them, and
compaction writes a whole new log beside the old one before it
replaces it.  So a process crash at any point leaves a prefix of some
log, and the crash claims of :mod:`repro.live.checkpoint` reduce to
one rule: recovery from any prefix is the state at its last complete
commit.  These tests check that rule exhaustively over one small
seeded run with a stage crash in it (so commits hold a synopsis table
cleared between them), cutting the file at every frame boundary and
inside every frame, and at every write inside compaction.
"""

import hashlib
import io
import os

import pytest

from repro.apps.tpcw import TpcwSystem
from repro.core.persist import live_directories, read_frame_header
from repro.live import LOG_NAME, LiveCollector, attach_collector, checkpoint
from repro.parallel import canonical_profile_bytes

def _digest(profile) -> str:
    return hashlib.sha256(canonical_profile_bytes(profile)).hexdigest()


def _system():
    return TpcwSystem(clients=10, seed=7, fault_plan="crash=tomcat@6.0",
                      fault_seed=1)


def _frames(data):
    """``(start, version, payload start, end)`` of every frame in a
    log's bytes."""
    stream = io.BytesIO(data)
    while True:
        start = stream.tell()
        header = read_frame_header(stream)
        if header is None:
            return
        _magic, version, length = header
        body = stream.tell()
        yield start, version, body, stream.seek(length, os.SEEK_CUR)


def _seen(collector):
    """What the collector answers at a commit: its counters, and the
    digest and completeness of its stitched profile."""
    profile = collector.stitched_profile()
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
        collector.crosstalk_pairs(),
        _digest(profile),
        profile.completeness,
    )


def _state(collector):
    """Everything a query can see.  A recovered collector sums its
    scalar weights from its trees, not sample by sample, so these are
    compared between recoveries only."""
    return (
        _seen(collector),
        collector.stage_weights(),
        collector.top_contexts(50),
    )


class Run:
    """The log of one live run, and what the collector answered at
    each of its commits."""

    def __init__(self, directory):
        path = os.path.join(directory, LOG_NAME)
        collector = attach_collector(
            None, directory=directory, interval=2.0, max_resident=3
        )
        self.commits = []  # (end offset, what the collector answered)
        write = collector.checkpoint

        def checkpoint_and_record():
            write()
            self.commits.append((os.path.getsize(path), _seen(collector)))

        collector.checkpoint = checkpoint_and_record
        try:
            _system().run(duration=10.0, warmup=2.0)
            collector.finalize()
        finally:
            collector.close()
        self.collector = collector
        with open(path, "rb") as handle:
            self.data = handle.read()
        self.frames = list(_frames(self.data))


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    return Run(str(tmp_path_factory.mktemp("crash-points") / "live"))


def _recover(directory, data):
    """Recover a directory whose log holds ``data``."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, LOG_NAME), "wb") as handle:
        handle.write(data)
    return LiveCollector.recover(directory)


def test_the_run_crosses_every_kind_of_write(run):
    versions = [version for _start, version, _body, _end in run.frames]
    assert versions.count(checkpoint.COMMIT_VERSION) == len(run.commits) > 4
    assert versions.count(checkpoint.TREE_VERSION) > len(run.commits)
    assert run.collector.evictions > 0 and run.collector.revivals > 0
    assert run.collector.crashes >= 1
    assert run.collector.stitched_profile().unresolved_refs > 0
    # Asking at every commit changed nothing: the profile is the one
    # the run gives with no collector attached.
    assert run.commits[-1][1] == _seen(run.collector)
    assert _digest(run.collector.stitched_profile()) == _digest(
        _system().run(duration=10.0, warmup=2.0).stitch(strict=False)
    )


def test_every_prefix_recovers_to_its_last_commit(run, tmp_path):
    # The log as it stood at each commit recovers to what the
    # collector answered there.
    at_commit = []
    for index, (end, seen) in enumerate(run.commits):
        recovered = _recover(str(tmp_path / f"at-{index}"), run.data[:end])
        assert recovered.recovered_from == index + 1
        assert _seen(recovered) == seen, index
        at_commit.append(_state(recovered))
    ends = [end for end, _seen in run.commits]
    assert ends[-1] == len(run.data)

    # Cut at every frame boundary, mid-header, mid-payload and before
    # the last byte of every frame.
    cuts = {len(run.data)}
    for start, _version, body, end in run.frames:
        cuts.update((start, (start + body) // 2, (body + end) // 2, end - 1))
    directory = str(tmp_path / "cut")
    for cut in sorted(cuts):
        recovered = _recover(directory, run.data[:cut])
        complete = sum(1 for end in ends if end <= cut)
        assert recovered.recovered_from == complete, cut
        if complete:
            assert _state(recovered) == at_commit[complete - 1], cut
            assert live_directories(directory) == [(None, directory)]
        else:
            assert (recovered.samples, recovered.stage_weights()) == (0, {})
            assert live_directories(directory) == []


def test_a_corrupt_frame_before_the_end_names_the_file(run, tmp_path):
    second, payload = [(start, body) for start, version, body, _end
                       in run.frames
                       if version == checkpoint.COMMIT_VERSION][1]
    for at, junk in ((second, b"XXXX"), (payload, b"\0\0\0\0")):
        data = bytearray(run.data)
        data[at:at + 4] = junk
        with pytest.raises(ValueError, match=LOG_NAME):
            _recover(str(tmp_path / "corrupt"), bytes(data))


def test_a_crash_inside_compaction_leaves_the_old_log(run, tmp_path,
                                                      monkeypatch):
    directory = str(tmp_path / "live")
    log = os.path.join(directory, LOG_NAME)
    temp = log + ".tmp"
    before = _state(_recover(directory, run.data))
    append = checkpoint.append_frame
    writes = len(list(_recover(directory, run.data)._entries())) + 1
    for crash_at in range(writes):
        done = []

        def dies(handle, document, version):
            if len(done) == crash_at:
                raise OSError("killed")
            done.append(version)
            return append(handle, document, version)

        monkeypatch.setattr(checkpoint, "append_frame", dies)
        survivor = _recover(directory, run.data)
        with pytest.raises(OSError, match="killed"):
            survivor.compact()
        monkeypatch.setattr(checkpoint, "append_frame", append)
        assert sorted(os.listdir(directory)) == [LOG_NAME, LOG_NAME + ".tmp"]
        with open(log, "rb") as handle:
            assert handle.read() == run.data, crash_at
        assert _state(LiveCollector.recover(directory)) == before, crash_at
        # The collector that failed still commits to the old log.
        survivor.finalize()
        survivor.close()
        assert _state(LiveCollector.recover(directory)) == before, crash_at

    # Killed at the replace itself: the new log is whole beside the
    # old one, and no prefix of it counts.
    def killed(src, dst):
        raise OSError("killed")

    monkeypatch.setattr(os, "replace", killed)
    survivor = _recover(directory, run.data)
    with pytest.raises(OSError, match="killed"):
        survivor.compact()
    monkeypatch.undo()
    survivor.finalize()
    survivor.close()
    whole = os.path.getsize(temp)
    for size in (whole, whole - 1, whole // 2, 5, 0):
        with open(temp, "r+b") as handle:
            handle.truncate(size)
        assert live_directories(directory) == [(None, directory)]
        assert _state(LiveCollector.recover(directory)) == before, size

    # The next compaction overwrites a leftover longer than the new
    # log, then replaces the old one.
    with open(temp, "wb") as handle:
        handle.write(run.data)
    profile = LiveCollector.recover(directory).compact()
    assert _digest(profile) == before[0][-2]
    assert os.listdir(directory) == [LOG_NAME]
    clean = str(tmp_path / "clean")
    _recover(clean, run.data).compact()
    with open(log, "rb") as ours, open(os.path.join(clean, LOG_NAME),
                                       "rb") as theirs:
        assert ours.read() == theirs.read()


def test_after_the_replace_recovery_is_the_compacted_log(run, tmp_path):
    directory = str(tmp_path / "live")
    collector = _recover(directory, run.data)
    before = _state(collector)
    collector.compact()
    assert os.listdir(directory) == [LOG_NAME]
    with open(os.path.join(directory, LOG_NAME), "rb") as handle:
        versions = [version for _start, version, _body, _end
                    in _frames(handle.read())]
    assert versions == [checkpoint.TREE_VERSION] * (len(versions) - 1) + [
        checkpoint.COMMIT_VERSION
    ]
    recovered = LiveCollector.recover(directory)
    assert recovered.recovered_from == 1
    assert _state(recovered) == before
