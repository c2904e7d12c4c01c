"""Every ``tpcw`` and ``haboob`` run is a shard plan with one printer.

The golden files under ``tests/golden/`` are the output of the
unsharded implementation these commands had before they became
one-shard plans.  Every paragraph they print must still print, line
for line and in order; the one-shard run may add paragraphs of its
own.
"""

import os
import re

import pytest

from repro.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

_TPCW = ["tpcw", "--clients", "8", "--duration", "5", "--warmup", "1",
         "--seed", "7"]
_HABOOB = ["haboob", "--clients", "4", "--seconds", "1", "--seed", "7"]

#: The one line whose numbers are host wall-clock time.
_WALL = re.compile(r"^\d+ shards x \d+ clients, \d+ jobs, [\d.]+s wall$")


@pytest.fixture(autouse=True)
def _telemetry_teardown():
    from repro import telemetry

    yield
    telemetry.uninstall()


def _assert_paragraphs_in_order(expected: str, actual: str) -> None:
    lines = actual.splitlines()
    position = 0
    for paragraph in expected.strip("\n").split("\n\n"):
        block = paragraph.splitlines()
        for start in range(position, len(lines) - len(block) + 1):
            if lines[start:start + len(block)] == block:
                position = start + len(block)
                break
        else:
            raise AssertionError(
                f"paragraph missing or out of order:\n{paragraph}\n"
                f"--- in output ---\n{actual}"
            )


@pytest.mark.parametrize(
    "name, argv",
    [
        ("tpcw_plain", _TPCW),
        ("tpcw_faults", _TPCW + ["--faults", "drop=0.05"]),
        ("tpcw_telemetry", _TPCW + ["--telemetry", "full"]),
        ("tpcw_live", _TPCW + ["--live"]),
        ("haboob_plain", _HABOOB),
        ("haboob_dot", _HABOOB + ["--dot", "haboob.dot"]),
    ],
)
def test_one_shard_run_prints_every_golden_section(name, argv, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="utf-8") as handle:
        _assert_paragraphs_in_order(handle.read(), out)
    if "--dot" in argv:
        with open(os.path.join(GOLDEN, "haboob.dot"), "rb") as handle:
            assert (tmp_path / "haboob.dot").read_bytes() == handle.read()


def _without_wall_clock(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not _WALL.match(line))


def test_two_shard_tpcw_prints_every_section(capsys):
    argv = _TPCW + ["--clients", "10", "--shards", "2", "--faults",
                    "drop=0.05", "--telemetry", "spans", "--live"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert re.search(r"^2 shards x 5 clients, 1 jobs", out, re.M)
    assert re.search(r"^faults: .*dropped=[1-9]", out, re.M)
    assert "interactions/min; db CPU" in out
    assert "mean resp ms" in out
    assert "=== fault injection report ===" in out
    assert "stage mysql: retransmits=" in out
    assert re.search(r"^stitch completeness: \d+\.\d\d%$", out, re.M)
    # One live view per shard, rendered inside the shard: no --live-dir.
    assert out.count("=== live profile @ t=") == 2
    assert "-- shard 0 --" in out and "-- shard 1 --" in out
    assert out.count("live stitch:") == 2
    # One telemetry summary over both shards' spans.
    assert out.count("=== live telemetry summary ===") == 1
    spans = re.search(r"^spans: (\d+) completed", out, re.M)
    assert spans and int(spans.group(1)) > 0
    assert "transaction.hop" in out


def test_interaction_without_completions_has_no_mean_response(capsys):
    # Seed 42's BestSellers burns MySQL CPU in this window but completes
    # no instance: its mean response is unknown, not 0 ms.
    argv = ["tpcw", "--clients", "10", "--duration", "5", "--warmup", "1",
            "--seed", "42", "--shards", "2", "--faults", "drop=0.05"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    row = re.search(r"^BestSellers +[\d.]+ +[\d.]+ +(\S+)$", out, re.M)
    assert row and row.group(1) == "-"
    assert re.search(r"^NewProducts +[\d.]+ +[\d.]+ +[1-9]\d*$", out, re.M)


def test_two_shard_haboob_prints_every_section(tmp_path, capsys):
    dot = tmp_path / "merged.dot"
    argv = _HABOOB + ["--shards", "2", "--faults", "drop=0.05",
                      "--telemetry", "full", "--live", "--dot", str(dot)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert re.search(r"^faults: .*messages_seen=[1-9]", out, re.M)
    assert re.search(r"^served \d+ responses, [\d.]+ Mb/s, hit ratio \d+%$",
                     out, re.M)
    assert "=== transactional profile of stage haboob ===" in out
    assert dot.read_text().startswith("digraph")
    assert out.count("=== live profile @ t=") == 2
    assert out.count("=== live telemetry summary ===") == 1
    assert "repro_seda_" in out


@pytest.mark.parametrize(
    "argv",
    [
        _TPCW + ["--clients", "10", "--faults", "drop=0.05", "--live"],
        _HABOOB + ["--telemetry", "full"],
    ],
    ids=["tpcw", "haboob"],
)
def test_two_shard_output_does_not_depend_on_jobs(argv, capsys):
    outputs = []
    for jobs in ("1", "2"):
        assert main(argv + ["--shards", "2", "--jobs", jobs]) == 0
        outputs.append(_without_wall_clock(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
