"""Tests for graphviz export."""

import pytest

from repro.analysis.dot import flow_graph_dot, stage_profile_dot
from repro.core.context import SynopsisRef, TransactionContext
from repro.core.profiler import LOCAL, StageRuntime
from repro.core.stitch import flow_graph


def ctxt(*elements):
    return TransactionContext(elements)


def make_stage():
    stage = StageRuntime("web")
    stage.cct_for(LOCAL).record_sample(("main", "accept"), 10.0)
    flow = stage.cct_for(ctxt("listener", "push"))
    flow.record_sample(("main", "worker", "process"), 90.0)
    return stage


def test_stage_profile_dot_structure():
    dot = stage_profile_dot(make_stage())
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    assert "subgraph cluster_ctx0" in dot
    assert "listener -> push" in dot
    assert "worker" in dot
    # Edges between call-path nodes.
    assert "->" in dot
    # No edge leaves the (unlabelled) root: every edge source is a
    # declared call-path node.
    lines = dot.splitlines()
    declared = {line.split()[0] for line in lines if "[label=" in line}
    sources = [
        line.split()[0] for line in lines if " -> " in line and "label" not in line
    ]
    assert len(sources) == 3
    assert set(sources) <= declared


def test_stage_profile_dot_percentages():
    dot = stage_profile_dot(make_stage())
    assert "90.0%" in dot
    assert "10.0%" in dot


def test_stage_profile_dot_elides_small():
    stage = make_stage()
    stage.cct_for(ctxt("tiny")).record_sample(("x",), 0.01)
    dot = stage_profile_dot(stage, min_share=1.0)
    assert "tiny" not in dot


def test_stage_profile_dot_empty_stage():
    dot = stage_profile_dot(StageRuntime("empty"))
    assert dot.startswith("digraph")
    assert "cluster" not in dot


def test_dot_quotes_special_characters():
    stage = StageRuntime("s")
    stage.cct_for(LOCAL).record_sample(('say_"hi"',), 1.0)
    dot = stage_profile_dot(stage)
    assert r"\"hi\"" in dot


def test_flow_graph_dot():
    web = StageRuntime("web")
    db = StageRuntime("db")
    syn = web.synopses.synopsis(ctxt("main", "send"))
    db.cct_for(ctxt(SynopsisRef("web", syn))).record_sample(("svc",), 1.0)
    dot = flow_graph_dot(flow_graph([web, db]))
    assert "style=dashed" in dot
    assert "label=request" in dot
    assert "web" in dot and "db" in dot


def test_flow_graph_dot_empty():
    dot = flow_graph_dot([])
    assert dot.startswith("digraph")
    assert "->" not in dot
