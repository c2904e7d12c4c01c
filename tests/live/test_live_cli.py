"""CLI surface of the online streaming stitcher.

``--live`` / ``--live-dir`` on the single-run and sharded paths, and
``live-report`` over checkpoint directories — including the CI-grade
proof that a live run's checkpoints stitch to the *same digest* as the
post-mortem spool of the identical seeded run.
"""

import hashlib
import os

import pytest

from repro.cli import main
from repro.live import LOG_NAME, LiveCollector, read_commits


@pytest.fixture(autouse=True)
def _telemetry_teardown():
    from repro import telemetry

    yield
    telemetry.uninstall()


_TPCW = ["tpcw", "--clients", "8", "--duration", "8", "--warmup", "1",
         "--seed", "7"]


def _listing(root):
    """Every file under ``root``: path, size, mtime and content hash."""
    rows = []
    for parent, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(parent, name)
            stat = os.stat(path)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            rows.append((path, stat.st_size, stat.st_mtime_ns, digest))
    return sorted(rows)


def _commits(directory) -> int:
    return len(list(read_commits(os.path.join(directory, LOG_NAME))))


def test_tpcw_live_flag(capsys):
    assert main(_TPCW + ["--live", "--live-top", "4"]) == 0
    out = capsys.readouterr().out
    assert "=== live profile @ t=" in out
    assert "live stitch:" in out
    assert "completeness 100.00%" in out


def test_haboob_live_with_checkpoints(tmp_path, capsys):
    live = tmp_path / "live"
    assert main([
        "haboob", "--seconds", "2", "--clients", "3", "--objects", "50",
        "--live-dir", str(live), "--live-interval", "0.5",
        "--live-resident", "6",
    ]) == 0
    out = capsys.readouterr().out
    assert "live profile" in out
    # The run finalizes its log and leaves compaction to live-report.
    assert os.listdir(live) == ["shard-0000"]
    assert os.listdir(live / "shard-0000") == [LOG_NAME]
    assert _commits(live / "shard-0000") > 1
    assert main(["live-report", str(live), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "live profile" in out
    assert "end-to-end transactional profile" in out


def test_live_report_digest_matches_postmortem_stitch(tmp_path, capsys):
    """The acceptance proof, end to end through the CLI: a sharded run
    writes live checkpoints, a second run of the same seed without a
    collector writes post-mortem spool dumps; the live-report fold and
    the spool stitch print the same SHA-256."""
    live = tmp_path / "live"
    spool = tmp_path / "spool"
    sharded = _TPCW + ["--shards", "2", "--jobs", "1"]
    assert main(sharded + [
        "--live-dir", str(live), "--live-interval", "2",
        "--live-resident", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "live checkpoints in" in out
    assert main(sharded + ["--spool", str(spool)]) == 0
    capsys.readouterr()
    # Each shard left one log: evicted trees and interval commits.
    for shard in sorted(os.listdir(live)):
        assert os.listdir(live / shard) == [LOG_NAME]
        assert _commits(live / shard) > 1
    before = _listing(live)
    assert main(["live-report", str(live), "--digest"]) == 0
    live_digest = capsys.readouterr().out.strip()
    # Reporting only reads: nothing created, touched or resized.
    assert _listing(live) == before
    assert main(["stitch", str(spool), "--digest"]) == 0
    post_digest = capsys.readouterr().out.strip()
    assert len(live_digest) == 64
    assert live_digest == post_digest
    # --compact is the one reporting mode that rewrites the directory:
    # each shard's log becomes one commit.
    assert main(["live-report", str(live), "--digest", "--compact"]) == 0
    assert capsys.readouterr().out.strip() == live_digest
    for shard in os.listdir(live):
        assert os.listdir(live / shard) == [LOG_NAME]
        assert _commits(live / shard) == 1


def test_live_run_builds_no_spans(tmp_path, capsys, monkeypatch):
    """``--live-dir`` leaves the default ``--telemetry off`` alone, and
    the profile it compacts is the one a spans run and the post-mortem
    stitch of the same seed give."""
    from repro import telemetry
    from repro.apps.tpcw import TpcwSystem

    active_during_run = []
    run = TpcwSystem.run

    def spy(self, *args, **kwargs):
        active_during_run.append(telemetry.ACTIVE)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(TpcwSystem, "run", spy)
    plain, spans, dumps = tmp_path / "plain", tmp_path / "spans", tmp_path / "dumps"
    live = ["--live-interval", "2", "--live-resident", "4"]
    assert main(_TPCW + live + [
        "--live-dir", str(plain), "--save-profiles", str(dumps),
    ]) == 0
    out = capsys.readouterr().out
    assert active_during_run == [None]
    assert "live stitch:" in out
    assert "live telemetry summary" not in out
    assert main(_TPCW + live + [
        "--live-dir", str(spans), "--telemetry", "spans",
    ]) == 0
    assert "live telemetry summary" in capsys.readouterr().out
    assert active_during_run[1] is not None

    digests = []
    for argv in (["live-report", str(plain)], ["live-report", str(spans)],
                 ["stitch", str(dumps)]):
        assert main(argv + ["--digest"]) == 0
        digests.append(capsys.readouterr().out.strip())
    assert len(digests[0]) == 64
    assert digests == [digests[0]] * 3


def test_live_report_rejects_bad_directory(tmp_path, capsys):
    assert main(["live-report", str(tmp_path / "nope")]) == 2
    assert "not a directory" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["live-report", str(empty)]) == 2
    assert "no checkpoints" in capsys.readouterr().err


def test_a_log_without_a_commit_is_not_a_collector_directory(tmp_path,
                                                            capsys):
    """A crash before the first interval leaves evicted trees and no
    commit: that is not a live run, whatever else is there, but it is
    one shard of a run another shard of which has committed.  A
    ``live.wdr2.tmp`` left by a compaction that died is never read."""
    import shutil

    from repro.apps.tpcw import TpcwSystem
    from repro.core.persist import live_directories, load_run
    from repro.live import attach_collector
    from repro.parallel import canonical_profile_bytes

    early = tmp_path / "early"
    collector = attach_collector(
        None, directory=str(early), interval=1000.0, max_resident=1
    )
    try:
        TpcwSystem(clients=4, seed=7).run(duration=2.0, warmup=0.0)
    finally:
        collector.close()
    assert collector.evictions > 0 and collector.checkpoints_written == 0
    assert os.listdir(early) == [LOG_NAME]

    live = tmp_path / "live"
    # The stage crash leaves unresolved references, which a fold over
    # shards qualifies with their shard.
    assert main(_TPCW + ["--live-dir", str(live), "--live-interval", "2",
                         "--live-resident", "4",
                         "--faults", "crash=tomcat@4"]) == 0
    capsys.readouterr()
    shard = str(live / "shard-0000")
    want = load_run(shard).profile
    samples = LiveCollector.recover(shard).samples
    # A whole log with commits as the leftover does not make ``early``
    # a collector directory ...
    shutil.copy(os.path.join(shard, LOG_NAME), early / (LOG_NAME + ".tmp"))
    assert live_directories(str(early)) == []
    assert main(["live-report", str(early)]) == 2
    assert "no checkpoints" in capsys.readouterr().err
    with pytest.raises(ValueError, match="no profile dumps found"):
        load_run(str(early))
    # Nor does a run none of whose shards has committed.
    sharded = tmp_path / "sharded"
    (sharded / "shard-0000").mkdir(parents=True)
    shutil.copy(early / LOG_NAME, sharded / "shard-0000" / LOG_NAME)
    assert live_directories(str(sharded)) == []
    assert main(["live-report", str(sharded)]) == 2
    assert "no checkpoints" in capsys.readouterr().err
    # Once one has, every shard counts: one with no commit yet folds
    # as an empty shard, as it would with an empty commit.
    shutil.copytree(shard, sharded / "shard-0001")
    assert live_directories(str(sharded)) == [
        (0, str(sharded / "shard-0000")), (1, str(sharded / "shard-0001"))
    ]
    assert main(["live-report", str(sharded)]) == 0
    assert "recovered 2 shard collectors" in capsys.readouterr().out
    assert main(["live-report", str(sharded), "--digest"]) == 0
    folded = capsys.readouterr().out.strip()
    emptied = tmp_path / "emptied"
    shutil.copytree(sharded, emptied)
    os.remove(emptied / "shard-0000" / LOG_NAME)
    LiveCollector(directory=str(emptied / "shard-0000")).compact()
    assert main(["live-report", str(emptied), "--digest"]) == 0
    assert capsys.readouterr().out.strip() == folded
    assert folded != hashlib.sha256(canonical_profile_bytes(want)).hexdigest()
    # ... and a leftover beside a log with commits changes nothing.
    shutil.copy(early / LOG_NAME, os.path.join(shard, LOG_NAME + ".tmp"))
    assert live_directories(shard) == [(None, shard)]
    assert LiveCollector.recover(shard).samples == samples
    assert canonical_profile_bytes(load_run(shard).profile) == (
        canonical_profile_bytes(want)
    )


def test_sharded_live_without_dir_prints_each_shards_view(capsys):
    # Each shard renders its view before its collector closes, so an
    # in-memory collector needs no directory at any shard count.
    assert main(_TPCW + ["--shards", "2", "--jobs", "1", "--live",
                         "--live-top", "3"]) == 0
    captured = capsys.readouterr()
    assert "warning" not in captured.err
    assert captured.out.count("=== live profile @ t=") == 2
    assert captured.out.count("live stitch:") == 2


def test_live_report_recovers_each_collector_once(tmp_path, capsys,
                                                  monkeypatch):
    from repro.live import LiveCollector

    live = tmp_path / "live"
    assert main(_TPCW + ["--shards", "2", "--live-dir", str(live),
                         "--live-interval", "2"]) == 0
    capsys.readouterr()
    recovered = []
    recover = LiveCollector.recover.__func__

    def spy(cls, directory, *args, **kwargs):
        recovered.append(os.path.basename(directory))
        return recover(cls, directory, *args, **kwargs)

    monkeypatch.setattr(LiveCollector, "recover", classmethod(spy))
    assert main(["live-report", str(live), "--compact", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("=== live profile @ t=") == 2
    assert sorted(recovered) == ["shard-0000", "shard-0001"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--live-interval", "0"],
        ["--live-interval", "-2"],
        ["--live-interval", "nan"],
        ["--live-interval", "inf"],
        ["--live-resident", "-1"],
        ["--live-resident", "1.5"],
    ],
)
@pytest.mark.parametrize("shards", ["1", "2"])
def test_out_of_range_live_options_are_usage_errors(argv, shards, capsys):
    # --live-interval 0 wrote a checkpoint per sample and nan never
    # wrote one; a sharded --live-resident -1 was a limit of -1.
    with pytest.raises(SystemExit) as exit_info:
        main(_TPCW + ["--shards", shards, "--live-dir", "unused"] + argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[0]}" in err
    assert "usage:" in err


def test_live_resident_zero_is_unbounded(tmp_path, capsys):
    live = ["--live-interval", "2", "--live-resident", "0"]
    assert main(_TPCW + live + ["--live-dir", str(tmp_path / "one")]) == 0
    assert "0 evicted / 0 revived" in capsys.readouterr().out
    sharded = tmp_path / "sharded"
    assert main(_TPCW + live + [
        "--shards", "2", "--jobs", "1", "--live-dir", str(sharded),
    ]) == 0
    # Nothing was evicted: every tree reached the log at an interval.
    for shard in ("shard-0000", "shard-0001"):
        assert os.listdir(sharded / shard) == [LOG_NAME]
        assert LiveCollector.recover(str(sharded / shard)).evictions == 0
