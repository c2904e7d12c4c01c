"""Smoke tests for the command-line interface."""

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
        ["stitch", "dump.json", "--jobs", "0"],
        ["diff", "a", "b", "--jobs", "0"],
    ],
)
def test_out_of_range_numbers_are_usage_errors(argv, capsys):
    # --jobs 0 used to raise ValueError from the shard runner, a negative
    # --duration raised from the kernel, and --shards 0 ran unsharded.
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
    paths = [
        str(tmp_path / f"{name}.profile.json")
        for name in ("squid", "tomcat", "mysql")
    ]
    assert main(["stitch"] + paths) == 0
    out = capsys.readouterr().out
    assert "end-to-end transactional profile" in out
    assert "## stage mysql" in out
    assert "==request==>" in out
    assert "completeness 100.00%" in out
    # The directory --save-profiles wrote holds no spool manifest; it
    # must stitch like the files it contains, not die looking for one.
    assert main(["stitch", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "## stage mysql" in out
    assert "completeness 100.00%" in out
    assert main(["stitch", "--digest"] + paths) == 0
    by_name = capsys.readouterr().out
    assert main(["stitch", "--digest", str(tmp_path)]) == 0
    assert capsys.readouterr().out == by_name


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
