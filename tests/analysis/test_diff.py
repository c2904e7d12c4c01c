"""Golden tests for the differential profiling engine (``repro diff``).

Two seeded TPC-W runs — identical except for an injected slowdown of
the BestSellers query plan in the second — are diffed; the engine must
attribute the regression to exactly the mysql contexts that execute
BestSellers, with the injected ratio, and a self-diff of the identical
seed must be all-zero (the property the CI gate rests on).
"""

import json

import pytest

import repro.apps.tpcw.model as tpcw_model
from repro.analysis import (
    diff_runs,
    render_diff,
    render_gate,
    render_html_report,
)
from repro.apps.tpcw import TpcwSystem
from repro.core.persist import load_run

SLOWDOWN = 1.6
CLIENTS = 10
SEED = 42
DURATION = 5.0


def _run_tpcw(outdir, profile_format, slow=False):
    original = tpcw_model.DB_CPU_COST["BestSellers"]
    if slow:
        tpcw_model.DB_CPU_COST["BestSellers"] = original * SLOWDOWN
    try:
        system = TpcwSystem(clients=CLIENTS, seed=SEED)
        system.run(duration=DURATION)
        system.save_profiles(str(outdir), profile_format=profile_format)
    finally:
        tpcw_model.DB_CPU_COST["BestSellers"] = original


@pytest.fixture(scope="module")
def run_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("diffruns")
    before_dir = root / "before"
    after_dir = root / "after"
    _run_tpcw(before_dir, "v2")
    _run_tpcw(after_dir, "v2", slow=True)
    return load_run(str(before_dir)), load_run(str(after_dir))


@pytest.fixture(scope="module")
def golden_diff(run_pair):
    before, after = run_pair
    return diff_runs(before, after)


def test_loader_kinds_align(run_pair, tmp_path):
    before, _ = run_pair
    assert before.kind == "dumps"
    assert len(before.profile.stages()) == 3
    assert before.profile.completeness == 1.0
    # v1 dumps of the same run load to the same stitched weights.
    v1_dir = tmp_path / "v1"
    _run_tpcw(v1_dir, "v1")
    v1 = load_run(str(v1_dir))
    assert v1.profile.total_weight() == pytest.approx(
        before.profile.total_weight()
    )


def test_slowdown_attributed_to_bestsellers_contexts(golden_diff):
    top = golden_diff.top_regressions(10)
    assert top, "injected slowdown produced no regressions"
    worst = top[0]
    assert worst.stage == "mysql"
    assert "BestSellers" in worst.label
    assert worst.ratio == pytest.approx(SLOWDOWN, rel=0.01)
    # The injected stage explains essentially all of the growth.
    bestsellers_growth = sum(
        golden_diff.growth_share(row)
        for row in top
        if "BestSellers" in row.label
    )
    assert bestsellers_growth > 99.0


def test_untouched_stages_are_flat(golden_diff):
    by_stage = {row[0]: row[3] for row in golden_diff.stage_rows()}
    assert by_stage["mysql"] > 0
    # Tomcat and squid weights are servlet/proxy CPU, untouched by the
    # DB plan cost; they move by at most rounding noise.
    assert abs(by_stage["tomcat"]) < 0.01
    assert abs(by_stage["squid"]) < 0.01


def test_confidence_high_on_lossless_pair(golden_diff):
    level, reasons = golden_diff.confidence()
    assert level == "high"
    assert reasons == []


def test_gate_fails_on_injected_regression(golden_diff):
    violations = golden_diff.gate(threshold_pct=25.0, min_share_pct=1.0)
    assert violations
    assert all(v.row.delta > 0 for v in violations)
    assert any("BestSellers" in v.row.label for v in violations)
    assert "FAIL" in render_gate(golden_diff, violations)


def test_self_diff_is_exactly_zero(run_pair):
    before, _ = run_pair
    again = load_run(str(before.source))
    diff = diff_runs(before, again)
    assert diff.total_delta == 0.0
    assert all(row.delta == 0.0 for row in diff.rows)
    assert diff.appeared() == [] and diff.vanished() == []
    assert diff.gate() == []
    assert "OK" in render_gate(diff, diff.gate())


def test_text_report_golden(golden_diff):
    text = render_diff(golden_diff, top=5)
    assert "=== differential transactional profile ===" in text
    assert "confidence: high" in text
    assert "BestSellers" in text
    assert "1.60x" in text
    assert "per-stage:" in text
    assert "mysql" in text


def test_json_document_golden(golden_diff):
    doc = golden_diff.to_dict(top=5)
    # Round-trips through the JSON encoder (no raw contexts leaked).
    encoded = json.loads(json.dumps(doc))
    assert encoded["confidence"]["level"] == "high"
    assert encoded["total"]["delta"] == pytest.approx(
        golden_diff.total_delta
    )
    worst = encoded["regressions"][0]
    assert worst["stage"] == "mysql"
    assert "BestSellers" in worst["context"]
    assert worst["ratio"] == pytest.approx(SLOWDOWN, rel=0.01)
    assert worst["growth_share_pct"] > 90.0
    stages = {row["stage"] for row in encoded["stages"]}
    assert stages == {"mysql", "squid", "tomcat"}


def test_ranking_is_deterministic(golden_diff, run_pair):
    before, after = run_pair
    again = diff_runs(before, after)
    first = [(r.stage, r.label, r.delta) for r in golden_diff.rows]
    second = [(r.stage, r.label, r.delta) for r in again.rows]
    assert first == second


def test_html_report_self_contained(golden_diff):
    html_doc = render_html_report(golden_diff, top=5)
    for marker in ("http://", "https://", "src=", "@import", "url("):
        assert marker not in html_doc
    assert html_doc.startswith("<!DOCTYPE html>")
    assert "flamepair" in html_doc
    assert "BestSellers" in html_doc
    assert "<svg" in html_doc
    # Byte-stable for identical inputs.
    assert html_doc == render_html_report(golden_diff, top=5)


def test_partial_stitch_lowers_confidence(run_pair, tmp_path):
    before, _ = run_pair
    # Drop the squid dump: tomcat's cross-tier references can't resolve.
    import glob
    import os

    kept = [
        path
        for path in sorted(glob.glob(os.path.join(str(before.source), "*")))
        if "squid" not in os.path.basename(path)
    ]
    partial = load_run(kept)
    assert partial.profile.completeness < 1.0
    diff = diff_runs(before, partial)
    level, reasons = diff.confidence()
    assert level == "low"
    assert any("partial" in reason for reason in reasons)


def test_cross_format_spool_vs_live_self_diff(tmp_path):
    """One sharded run, persisted both ways, self-diffs to zero.

    The run writes live checkpoints *and* a post-mortem spool; loading
    each through ``load_run`` must align perfectly — the property that
    lets ``repro diff`` compare any two persistence formats.
    """
    from repro.cli import main

    spool = tmp_path / "spool"
    live = tmp_path / "live"
    assert (
        main(
            [
                "tpcw",
                "--clients", "8",
                "--duration", "5",
                "--warmup", "1",
                "--shards", "2",
                "--spool", str(spool),
                "--live-dir", str(live),
                "--live-interval", "2",
            ]
        )
        == 0
    )
    from_spool = load_run(str(spool))
    from_live = load_run(str(live))
    assert from_spool.kind == "spool"
    assert from_live.kind == "live"
    diff = diff_runs(from_spool, from_live)
    assert diff.total_delta == 0.0
    assert all(row.delta == 0.0 for row in diff.rows)
    assert diff.gate() == []


def test_appeared_and_vanished_sections():
    from repro.analysis import diff_stitched
    from repro.core.cct import CallingContextTree
    from repro.core.context import TransactionContext
    from repro.core.stitch import StitchedProfile

    def profile_with(*names):
        profile = StitchedProfile()
        for name, weight in names:
            cct = CallingContextTree()
            cct.record_sample(("f",), weight)
            profile.add("web", TransactionContext((name,)), cct)
        return profile

    diff = diff_stitched(
        profile_with(("old", 5.0), ("both", 1.0)),
        profile_with(("both", 1.0), ("new", 7.0)),
    )
    assert [row.label for row in diff.appeared()] == ["new"]
    assert [row.label for row in diff.vanished()] == ["old"]
    # An appeared context with material weight trips the gate.
    violations = diff.gate(threshold_pct=25.0, min_share_pct=1.0)
    assert any(
        "appeared" in violation.reason for violation in violations
    )
    text = render_diff(diff)
    assert "appeared (1):" in text
    assert "vanished (1):" in text
