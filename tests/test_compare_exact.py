"""Tests for benchmarks/compare_exact.py, the CI gate on ledger exact blocks."""

import importlib.util
import json
import os

SCRIPT = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "compare_exact.py"
)
spec = importlib.util.spec_from_file_location("compare_exact", SCRIPT)
compare_exact = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_exact)


def _report(path, **workloads):
    sets = [{name: {"exact": exact} for name, exact in workloads.items()}]
    path.write_text(json.dumps({"seed": 42, "sets": sets}))
    return str(path)


def _rss_report(path, **peaks):
    """A report whose workloads share one exact block and differ only in
    ``end_to_end.peak_rss_mb`` (None: the metric is absent)."""
    sets = [{
        name: {"exact": {"ops": 1.0}, "end_to_end": (
            {} if peak is None else {"peak_rss_mb": {"value": peak}})}
        for name, peak in peaks.items()
    }]
    path.write_text(json.dumps({"seed": 42, "sets": sets}))
    return str(path)


def test_identical_blocks_pass(tmp_path, capsys):
    exact = {"digest": "ab", "ops": 10.0, "profile_err_pp": float("nan")}
    base = _report(tmp_path / "base.json", tpcw=exact)
    head = _report(tmp_path / "head.json", tpcw=dict(exact))
    assert compare_exact.main([base, head]) == 0
    assert "identical" in capsys.readouterr().out


def test_each_differing_key_is_named(tmp_path, capsys):
    base = _report(
        tmp_path / "base.json",
        tpcw={"digest": "ab", "ops": 10.0, "sim_stats.tpm": 5.0},
        haboob={"ops": 1.0},
    )
    head = _report(
        tmp_path / "head.json",
        tpcw={"digest": "cd", "ops": 10.0, "stitch.contexts": 3.0},
        postmortem={"ops": 1.0},
    )
    assert compare_exact.main([base, head]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("DIFFERS")] == [
        "DIFFERS haboob: only in base",
        "DIFFERS postmortem: only in head",
        'DIFFERS tpcw digest: "ab" -> "cd"',
        "DIFFERS tpcw sim_stats.tpm: 5.0 -> null",
        "DIFFERS tpcw stitch.contexts: null -> 3.0",
    ]


def test_the_rss_bound_is_the_one_benchmark_json_declares():
    benchmark = os.path.join(os.path.dirname(SCRIPT), os.pardir, "BENCHMARK.json")
    with open(benchmark, encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    (metric,) = [m for m in declared if m["name"] == "peak_rss_mb"]
    assert compare_exact.rss_bound() == metric["bound"]


def test_peak_rss_is_printed_base_to_head_and_may_shrink(tmp_path, capsys):
    base = _rss_report(tmp_path / "base.json", haboob=32.61, tpcw=30.0)
    head = _rss_report(tmp_path / "head.json", haboob=27.60, tpcw=30.0)
    assert compare_exact.main([base, head]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "RSS haboob peak_rss_mb: 32.61 -> 27.60 MiB (-15.4%)" in out
    assert "RSS tpcw peak_rss_mb: 30.00 -> 30.00 MiB (+0.0%)" in out


def test_peak_rss_growth_past_the_bound_fails(tmp_path, capsys):
    bound = compare_exact.rss_bound()
    base = _rss_report(tmp_path / "base.json", haboob=30.0, tpcw=30.0)
    head = _rss_report(
        tmp_path / "head.json",
        haboob=30.0 * (1 + bound) - 0.01,
        tpcw=30.0 * (1 + bound) + 0.01,
    )
    assert compare_exact.main([base, head]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out if "peak_rss_mb:" in line] == [
        "RSS haboob peak_rss_mb",
        "GROWS tpcw peak_rss_mb",
    ]
    assert "identical" in out[0]


def test_a_workload_without_peak_rss_on_one_side_is_not_compared(tmp_path, capsys):
    base = _rss_report(tmp_path / "base.json", haboob=None, tpcw=10.0)
    head = _rss_report(tmp_path / "head.json", haboob=99.0, tpcw=10.0)
    assert compare_exact.main([base, head]) == 0
    out = capsys.readouterr().out
    assert "haboob peak_rss_mb" not in out
    assert "tpcw peak_rss_mb" in out
