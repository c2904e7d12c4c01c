"""Tests for profile aggregation and text rendering."""

import pytest

from repro.analysis import (
    context_shares,
    frame_shares,
    render_cct,
    render_crosstalk,
    render_stage_profile,
    render_stitched_profile,
    top_paths,
)
from repro.analysis.aggregate import subtree_share
from repro.core.cct import CallingContextTree
from repro.core.context import TransactionContext
from repro.core.crosstalk import CrosstalkRecorder
from repro.core.profiler import LOCAL, StageRuntime
from repro.core.stitch import stitch_profiles


def ctxt(*elements):
    return TransactionContext(elements)


def make_stage():
    stage = StageRuntime("web")
    stage.cct_for(LOCAL).record_sample(("main", "accept"), 10.0)
    flow = stage.cct_for(ctxt("listener", "push"))
    flow.record_sample(("main", "worker", "process"), 60.0)
    flow.record_sample(("main", "worker", "sendfile"), 30.0)
    return stage


def test_context_shares_sum_to_100():
    stage = make_stage()
    shares = context_shares(stage)
    assert sum(shares.values()) == pytest.approx(100.0)
    assert shares[LOCAL] == pytest.approx(10.0)
    assert shares[ctxt("listener", "push")] == pytest.approx(90.0)


def test_context_shares_empty_stage():
    assert context_shares(StageRuntime("x")) == {}


def test_frame_shares():
    cct = CallingContextTree()
    cct.record_sample(("a", "b"), 3.0)
    cct.record_sample(("a",), 1.0)
    shares = frame_shares(cct)
    assert shares["b"] == pytest.approx(75.0)
    assert shares["a"] == pytest.approx(25.0)


def test_frame_shares_with_external_total():
    cct = CallingContextTree()
    cct.record_sample(("a",), 10.0)
    assert frame_shares(cct, total=100.0)["a"] == pytest.approx(10.0)


def test_top_paths_ordering():
    cct = CallingContextTree()
    cct.record_sample(("x",), 1.0)
    cct.record_sample(("y",), 5.0)
    cct.record_sample(("z",), 3.0)
    paths = top_paths(cct, count=2)
    assert paths == [(("y",), 5.0), (("z",), 3.0)]


def test_subtree_share():
    stage = make_stage()
    share = subtree_share(stage, ctxt("listener", "push"), ("main", "worker"))
    assert share == pytest.approx(90.0)
    assert subtree_share(stage, ctxt("nope"), ("main",)) == 0.0


def test_diff_profiles_sorted_by_delta():
    from repro.analysis import diff_profiles

    before = StageRuntime("web")
    before.cct_for(ctxt("hot")).record_sample(("p",), 80.0)
    before.cct_for(ctxt("cold")).record_sample(("p",), 20.0)
    after = StageRuntime("web")
    after.cct_for(ctxt("hot")).record_sample(("p",), 30.0)
    after.cct_for(ctxt("cold")).record_sample(("p",), 20.0)
    after.cct_for(ctxt("new")).record_sample(("p",), 50.0)

    rows = diff_profiles(before, after)
    by_ctxt = {row[0]: row for row in rows}
    assert by_ctxt[ctxt("hot")][3] == pytest.approx(-50.0)
    assert by_ctxt[ctxt("new")][1] == 0.0
    assert by_ctxt[ctxt("new")][3] == pytest.approx(50.0)
    # Largest absolute delta first.
    assert abs(rows[0][3]) >= abs(rows[-1][3])


def test_diff_profiles_orders_ties_independently_of_the_hash_seed():
    """Rows with equal |delta| keep before's order, then after's new
    contexts, under any PYTHONHASHSEED."""
    import os
    import subprocess
    import sys

    code = (
        "from repro.analysis import diff_profiles\n"
        "from repro.core.context import TransactionContext\n"
        "from repro.core.profiler import StageRuntime\n"
        "before, after = StageRuntime('web'), StageRuntime('web')\n"
        "for name in 'abc':\n"
        "    before.cct_for(TransactionContext((name,))).record_sample(('p',), 1.0)\n"
        "for name in 'def':\n"
        "    after.cct_for(TransactionContext((name,))).record_sample(('p',), 1.0)\n"
        "print([row[0].elements[0] for row in diff_profiles(before, after)])\n"
    )
    outputs = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(result.stdout)
    assert outputs == {"['a', 'b', 'c', 'd', 'e', 'f']\n"}


def test_render_cct_shows_percentages():
    cct = CallingContextTree()
    cct.record_sample(("main", "handle"), 80.0)
    cct.record_sample(("main", "accept"), 20.0)
    text = render_cct(cct)
    assert "main" in text
    assert "handle" in text
    assert "80.0%" in text


def test_render_cct_elides_small_subtrees():
    cct = CallingContextTree()
    cct.record_sample(("big",), 99.9)
    cct.record_sample(("tiny",), 0.1)
    text = render_cct(cct, min_share=1.0)
    assert "tiny" not in text


def test_render_cct_empty():
    assert "no samples" in render_cct(CallingContextTree())


def test_render_stage_profile_contains_contexts():
    stage = make_stage()
    text = render_stage_profile(stage)
    assert "listener --> push" in text
    assert "<local>" in text
    assert "90.0% of stage" in text


def test_render_stage_profile_empty():
    assert "(empty profile)" in render_stage_profile(StageRuntime("empty"))


def test_render_stitched_profile():
    stage = make_stage()
    profile = stitch_profiles([stage])
    text = render_stitched_profile(profile)
    assert "## stage web" in text
    assert "listener --> push" in text


def test_render_flow_graph():
    from repro.analysis import render_flow_graph
    from repro.core.context import SynopsisRef
    from repro.core.stitch import flow_graph

    web = StageRuntime("web")
    db = StageRuntime("db")
    syn = web.synopses.synopsis(ctxt("main", "send"))
    db.cct_for(ctxt(SynopsisRef("web", syn))).record_sample(("svc",), 1.0)
    text = render_flow_graph(flow_graph([web, db]))
    assert "web [main --> send]" in text
    assert "==request==> db" in text


def test_render_flow_graph_empty():
    from repro.analysis import render_flow_graph

    assert "no cross-stage flow" in render_flow_graph([])


def test_render_crosstalk_table():
    recorder = CrosstalkRecorder()
    recorder.record("BuyConfirm", "AdminConfirm", 0.0685)
    text = render_crosstalk(recorder)
    assert "BuyConfirm" in text
    assert "68.50" in text


def test_render_crosstalk_empty():
    assert "no crosstalk" in render_crosstalk(CrosstalkRecorder())
