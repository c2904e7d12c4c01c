"""Smoke and consistency tests for the ledger (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

A tiny-scale run of every workload, untraced and traced, checked
against ``layers.py``; plus the two files generated from that module.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
WORKLOADS = [w.name for w in layers.WORKLOADS]


def run_ledger(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--scale", "0.05", "--seconds", "1", *extra],
        capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_is_the_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == layers.manifest()


def test_readme_tables_are_rendered_from_layers():
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as handle:
        assert layers.render_tables() in handle.read()


def test_names_and_units_fit_the_contract():
    metrics = list(layers.END_TO_END) + list(layers.PER_LAYER)
    names = [m.name for m in metrics] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m.unit) for m in metrics)
    assert all(m.better in ("higher", "lower") for m in metrics)
    bounds = {m.name: m.bound for m in layers.END_TO_END}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert set(layers.LADDER_CHAIN) == set(WORKLOADS)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in layers.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced", [0, 1])
def test_smoke_prints_every_declared_metric_once(workload, traced, tmp_path):
    out = tmp_path / "report.json"
    done = run_ledger(
        "--workload", workload, "--trace", str(traced), "--out", str(out)
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = layers.PER_LAYER if traced else layers.END_TO_END
    assert list(result["metrics"]) == [m.name for m in declared]
    for metric in declared:
        printed = [l for l in lines[:-1] if l.split(" ")[0] == metric.name]
        assert len(printed) == 1, metric.name
        assert result["metrics"][metric.name]["unit"] == metric.unit
        if workload not in metric.workloads:
            assert printed[0].split()[1] == "-"
    if traced:
        report = json.loads(out.read_text())["sets"][0][workload]
        spans = report["spans"]
        assert spans
        for span in spans:
            duration = span["end"] - span["start"]
            assert -1e-9 <= span["self_s"] <= duration + 1e-9
            assert span["workload"] == workload
            assert span["parent"] is None or span["parent"] < span["id"]


def test_expected_separation_between_workloads(tmp_path):
    """seda counts are zero on TPC-W, the kernel is idle post-mortem,
    and the live rungs are only climbed on tpcw-live."""
    rows = {}
    for workload in ("tpcw-closed", "postmortem"):
        done = run_ledger("--workload", workload, "--trace", "1")
        assert done.returncode == 0, done.stdout + done.stderr
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        rows[workload] = {k: v["value"] for k, v in metrics.items()}
    assert rows["tpcw-closed"]["seda.enqueued_per_op"] == 0
    assert rows["tpcw-closed"]["sim.events_per_op"] > 0
    assert rows["postmortem"]["sim.events_per_op"] == 0
    live_only = [
        m.name for m in layers.PER_LAYER if m.workloads == ("tpcw-live",)
    ]
    assert "ladder.live.delta_us_per_op" in live_only
    assert "ladder.spans.delta_us_per_op" in live_only


def test_a_failing_check_raises_failed_share(tmp_path):
    """Stitch a spool with a dump removed (strict=False): the pass's
    completeness check fails and the tally's failed share is above 0."""
    import child
    from tracer import Tracer
    from workloads import Postmortem

    wl = Postmortem(seed=layers.DEFAULT_SEED, scale=0.2, workdir=str(tmp_path))
    wl.setup()
    quiet = Tracer(wl.name, enabled=False)
    good = wl.repeat(wl.top, quiet)
    assert child.tally(wl, [good])["failed_share"] == 0

    manifest_path = os.path.join(wl.spools[0], "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    for group in manifest["groups"]:
        group["files"] = [f for f in group["files"] if "tomcat" not in f]
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    wl.dumps = [p for p in wl.dumps if "tomcat" not in p]

    bad = wl.repeat(wl.top, quiet)
    tally = child.tally(wl, [good, bad])
    assert tally["failed"] >= 1 and tally["failed_share"] > 0
    assert any("stitches completely" in f for f in tally["failures"])
