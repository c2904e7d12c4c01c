"""Smoke tests for the command-line interface."""

import json
import os
import re

import pytest

from repro.cli import build_parser, main


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table3_runs(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "ap_queue_push" in out
    assert "emulate only" in out


def test_apache_runs(capsys):
    assert main(["apache", "--seconds", "0.5", "--clients", "2", "--objects", "50"]) == 0
    out = capsys.readouterr().out
    assert "lock classifications" in out
    assert "fd_queue" not in out  # name is httpd.one_big_mutex
    assert "one_big_mutex" in out


def test_squid_runs(capsys):
    assert main(["squid", "--seconds", "0.5", "--clients", "2", "--objects", "50"]) == 0
    out = capsys.readouterr().out
    assert "transactional profile of stage squid" in out


def test_haboob_runs(capsys):
    assert main(["haboob", "--seconds", "0.5", "--clients", "2", "--objects", "50"]) == 0
    out = capsys.readouterr().out
    assert "transactional profile of stage haboob" in out


@pytest.mark.parametrize("command", ["apache", "squid", "haboob", "openloop"])
@pytest.mark.parametrize("seconds", ["nan", "inf", "-inf", "-1", "0", "soon"])
def test_bad_seconds_is_a_usage_error(command, seconds, capsys):
    # NaN and inf used to run forever, and -1 printed an empty profile.
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--seconds", seconds])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--seconds" in err
    assert "usage:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tpcw", "--shards", "2", "--jobs", "0"],
        ["haboob", "--shards", "2", "--jobs", "-3"],
        ["openloop", "--jobs", "1.5"],
        ["tpcw", "--shards", "0"],
        ["tpcw", "--duration", "-1"],
        ["tpcw", "--duration", "nan"],
        ["tpcw", "--warmup", "-1"],
        ["tpcw", "--warmup", "inf"],
        ["tpcw", "--clients", "0"],
        ["tpcw", "--clients", "-3"],
        ["tpcw", "--shards", "4", "--clients", "2"],
        ["openloop", "--shards", "4", "--clients", "2"],
        ["haboob", "--objects", "0"],
        ["openloop", "--objects", "0"],
        ["tpcw", "--faults", "drop=0.1", "--retry-timeout", "nan"],
        ["tpcw", "--faults", "drop=0.1", "--retry-timeout", "0"],
        ["tpcw", "--faults", "drop=0.1", "--retry-timeout", "-1"],
        ["tpcw", "--duration", "1", "--warmup", "0", "--faults", "drop=0.1",
         "--retries", "-2"],
        ["tpcw", "--clients", "2", "--duration", "1", "--warmup", "0",
         "--live", "--live-top", "0"],
        ["tpcw", "--clients", "2", "--duration", "1", "--warmup", "0",
         "--live", "--live-top", "-1"],
        ["diff", "before", "after", "--top", "-1"],
        ["live-report", "live", "--top", "-2"],
    ],
)
def test_out_of_range_numbers_are_usage_errors(argv, capsys):
    # --jobs 0 used to raise ValueError from the shard runner, a negative
    # --duration raised from the kernel, and --shards 0 ran unsharded.
    # --clients 0 printed an empty table and fewer clients than shards
    # raised from partition_clients; --objects 0 raised IndexError; a
    # NaN or non-positive --retry-timeout raised ValueError; --retries
    # -2 meant no retries and --live-top 0 printed "(no samples yet)".
    # diff --top -1 printed every row but the last, and live-report
    # --top -2 printed "(no samples yet)" for a collector with samples.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}" in err
    assert "usage:" in err


def test_dot_output(tmp_path, capsys):
    path = tmp_path / "profile.dot"
    assert (
        main(
            [
                "apache",
                "--seconds",
                "0.5",
                "--clients",
                "2",
                "--objects",
                "50",
                "--dot",
                str(path),
            ]
        )
        == 0
    )
    content = path.read_text()
    assert content.startswith("digraph")
    assert "ap_queue_push" in content


def test_tpcw_mix_option(capsys):
    assert (
        main(
            [
                "tpcw",
                "--clients",
                "10",
                "--duration",
                "10",
                "--warmup",
                "2",
                "--mix",
                "ordering",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "interactions/min" in out


def test_tpcw_runs(capsys):
    assert (
        main(["tpcw", "--clients", "10", "--duration", "10", "--warmup", "2"]) == 0
    )
    out = capsys.readouterr().out
    assert "interactions/min" in out
    assert "MySQL CPU %" in out


def test_tpcw_save_profiles_and_stitch(tmp_path, capsys):
    assert (
        main(
            [
                "tpcw",
                "--clients",
                "10",
                "--duration",
                "10",
                "--warmup",
                "2",
                "--save-profiles",
                str(tmp_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    # --save-profiles spools: a manifest and one shard directory.
    assert (tmp_path / "manifest.json").is_file()
    paths = [
        str(tmp_path / "shard-0000" / f"{name}.profile.wdp")
        for name in ("squid", "tomcat", "mysql")
    ]
    assert main(["stitch"] + paths) == 0
    out = capsys.readouterr().out
    assert "end-to-end transactional profile" in out
    assert "## stage mysql" in out
    assert "==request==>" in out
    assert "completeness 100.00%" in out
    assert main(["stitch", "--digest"] + paths) == 0
    by_name = capsys.readouterr().out
    assert main(["stitch", "--digest", str(tmp_path)]) == 0
    assert capsys.readouterr().out == by_name


def test_stitch_reads_a_directory_without_a_manifest(tmp_path, capsys):
    # A directory of dumps with no spool manifest must stitch like the
    # files it contains, not die looking for one.
    from repro.apps.tpcw import TpcwSystem

    system = TpcwSystem(clients=8, seed=42)
    system.run(duration=5, warmup=1)
    paths = list(system.save_profiles(str(tmp_path)).values())
    assert main(["stitch", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "## stage mysql" in out
    assert "completeness 100.00%" in out
    assert main(["stitch", "--digest", str(tmp_path)]) == 0
    from_directory = capsys.readouterr().out
    assert main(["stitch", "--digest"] + paths) == 0
    assert capsys.readouterr().out == from_directory


@pytest.mark.parametrize(
    "run",
    [
        ["tpcw", "--clients", "8", "--duration", "5", "--warmup", "1"],
        ["haboob", "--clients", "4", "--seconds", "1"],
    ],
    ids=["tpcw", "haboob"],
)
def test_spool_without_shards_spools_the_unsharded_run(run, tmp_path, capsys):
    # --save-profiles is the same flag as --spool: one layout, one digest.
    spool, saved = tmp_path / "spool", tmp_path / "saved"
    assert main(run + ["--spool", str(spool)]) == 0
    assert main(run + ["--save-profiles", str(saved)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(spool)) == sorted(os.listdir(saved)) == [
        "manifest.json", "shard-0000",
    ]
    assert main(["stitch", "--digest", str(spool)]) == 0
    spooled = capsys.readouterr().out
    assert main(["stitch", "--digest", str(saved)]) == 0
    assert capsys.readouterr().out == spooled


def _lossy_spool(spool):
    assert main([
        "tpcw", "--clients", "8", "--duration", "4", "--warmup", "1",
        "--shards", "2", "--jobs", "1", "--spool", str(spool),
        "--faults", "drop=0.05", "--fault-seed", "3",
    ]) == 0


def test_spool_manifest_records_the_run_params(tmp_path, capsys):
    _lossy_spool(tmp_path)
    capsys.readouterr()
    with open(tmp_path / "manifest.json", encoding="utf-8") as handle:
        params = json.load(handle)["params"]
    assert params["fault_plan"] == "drop=0.05"
    assert params["fault_seed"] == 3
    assert params["mix"] == "browsing"
    assert params["caching"] is False


def test_load_run_reads_a_manifest_without_params(tmp_path, capsys):
    from repro.core.persist import load_run
    from repro.parallel import canonical_profile_bytes

    _lossy_spool(tmp_path)
    capsys.readouterr()
    before = canonical_profile_bytes(load_run(str(tmp_path)).profile)
    path = tmp_path / "manifest.json"
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    del manifest["params"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    assert canonical_profile_bytes(load_run(str(tmp_path)).profile) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["tpcw", "--shards", "2", "--telemetry", "spans", "--trace-out", "t.json"],
        ["haboob", "--shards", "2", "--telemetry", "full", "--metrics-out", "m.prom"],
        ["tpcw", "--shards", "2", "--spool", "s", "--telemetry", "spans",
         "--trace-out", "t.json"],
        ["openloop", "--shards", "2", "--telemetry", "spans", "--trace-out",
         "t.json"],
    ],
)
def test_sharded_trace_and_metrics_out_are_usage_errors(argv, tmp_path,
                                                        capsys, monkeypatch):
    # They used to write a 0-span trace: the shards keep their spans.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_one_shard_spool_run_writes_its_trace(tmp_path, capsys):
    # A one-shard plan's shard writes the trace itself.
    trace = tmp_path / "t.json"
    assert main(["tpcw", "--clients", "4", "--duration", "1", "--warmup",
                 "0.2", "--spool", str(tmp_path / "s"), "--telemetry",
                 "spans", "--trace-out", str(trace)]) == 0
    spans = re.search(r"wrote chrome trace \((\d+) spans\)",
                      capsys.readouterr().out)
    assert spans and int(spans.group(1)) > 0
    assert '"traceEvents"' in trace.read_text()


def test_sharded_telemetry_prints_no_empty_parent_summary(capsys):
    argv = ["tpcw", "--shards", "2", "--clients", "8", "--duration", "5",
            "--warmup", "1", "--telemetry", "spans"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    # One summary, over the spans both shards recorded.
    assert out.count("=== live telemetry summary ===") == 1
    spans = re.search(r"^spans: (\d+) completed", out, re.M)
    assert spans and int(spans.group(1)) > 0
    assert "(metrics disabled" in out


def test_sharded_tpcw_prints_its_fault_line(capsys):
    argv = ["tpcw", "--shards", "2", "--jobs", "1", "--clients", "10",
            "--duration", "5", "--warmup", "1", "--faults", "drop=0.05"]
    assert main(argv) == 0
    lines = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("faults: ")
    ]
    assert len(lines) == 1
    totals = dict(item.split("=") for item in lines[0][len("faults: "):].split(", "))
    assert int(totals["messages_seen"]) > int(totals["dropped"]) > 0


def test_sharded_haboob_prints_its_telemetry(capsys):
    argv = ["haboob", "--shards", "2", "--jobs", "1", "--clients", "4",
            "--seconds", "1", "--telemetry", "full"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "-- metrics --" in out
    assert "repro_seda_" in out
    spans = re.search(r"^spans: (\d+) completed", out, re.M)
    assert spans and int(spans.group(1)) > 0


def _seeded_tpcw_profiles(directory, clients="8", duration="5"):
    assert (
        main(
            [
                "tpcw",
                "--clients",
                clients,
                "--duration",
                duration,
                "--warmup",
                "1",
                "--save-profiles",
                str(directory),
            ]
        )
        == 0
    )


def test_diff_self_is_clean(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    _seeded_tpcw_profiles(a)
    _seeded_tpcw_profiles(b)
    capsys.readouterr()
    assert main(["diff", str(a), str(b), "--gate"]) == 0
    out = capsys.readouterr().out
    assert "differential transactional profile" in out
    assert "confidence: high" in out
    assert "no regressions." in out
    assert "diff-gate: OK" in out


def test_diff_detects_injected_regression(tmp_path, capsys, monkeypatch):
    import repro.apps.tpcw.model as tpcw_model

    a = tmp_path / "a"
    b = tmp_path / "b"
    _seeded_tpcw_profiles(a)
    monkeypatch.setitem(
        tpcw_model.DB_CPU_COST,
        "BestSellers",
        tpcw_model.DB_CPU_COST["BestSellers"] * 1.6,
    )
    _seeded_tpcw_profiles(b)
    capsys.readouterr()
    # The gate turns the regression into a non-zero exit for CI.
    assert main(["diff", str(a), str(b), "--gate", "--top", "5"]) == 1
    out = capsys.readouterr().out
    assert "BestSellers" in out
    assert "diff-gate: FAIL" in out

    # JSON mode emits the machine-readable document instead.
    assert main(["diff", str(a), str(b), "--json"]) == 0
    import json

    doc = json.loads(capsys.readouterr().out)
    assert doc["regressions"][0]["stage"] == "mysql"
    assert "BestSellers" in doc["regressions"][0]["context"]


def test_diff_html_report(tmp_path, capsys):
    a = tmp_path / "a"
    _seeded_tpcw_profiles(a, clients="5", duration="3")
    capsys.readouterr()
    report = tmp_path / "report.html"
    assert main(["diff", str(a), str(a), "--html", str(report)]) == 0
    content = report.read_text()
    assert content.startswith("<!DOCTYPE html>")
    for marker in ("http://", "https://", "src=", "@import", "url("):
        assert marker not in content


def test_diff_rejects_missing_source(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["diff", str(missing), str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_dump_is_an_error_not_a_traceback(tmp_path, capsys):
    from repro.core.persist import _V2_HEADER, dumps_stage_v2
    from repro.core.profiler import LOCAL, StageRuntime

    stage = StageRuntime("web")
    stage.cct_for(LOCAL).record_sample(("main", "accept"), 1.0)
    blob = bytearray(dumps_stage_v2(stage))
    # First deflate byte, after the 10-byte gzip header: block type 3
    # is reserved, which zlib reports as zlib.error, not OSError.
    blob[_V2_HEADER.size + 10] = 0xFF
    dump = tmp_path / "web.wdp"
    dump.write_bytes(bytes(blob))
    for command in (["diff", str(dump), str(dump)], ["stitch", str(dump)]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: corrupt")
        assert "web.wdp" in captured.err
        assert "Traceback" not in captured.err


def test_a_reader_that_leaves_early_gets_no_traceback():
    # `repro tpcw ... | head -1`: the reader closes the pipe after the
    # first line, so a later write fails with EPIPE.
    import subprocess
    import sys

    import repro

    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        PYTHONUNBUFFERED="1",
    )
    argv = [sys.executable, "-m", "repro.cli", "tpcw", "--clients", "4",
            "--duration", "2", "--warmup", "1"]
    # The pipe breaks only if the reader is gone before the next write;
    # a run that wrote everything first is retried.
    for _attempt in range(3):
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        status = proc.wait()
        assert first.startswith(b"1 shards x 4 clients")
        assert "Traceback" not in stderr, stderr
        if status:
            break
    assert status == 1
