"""Tests for post-mortem profile stitching across stages."""

import json

import pytest

from repro.core.context import SynopsisRef, TransactionContext
from repro.core.persist import load_run, save_stage
from repro.core.profiler import LOCAL, StageRuntime
from repro.core.stitch import StitchError, resolve_context, stitch_profiles


def ctxt(*elements):
    return TransactionContext(elements)


def test_resolve_context_without_refs_is_identity():
    stages = {}
    c = ctxt("main", "foo")
    assert resolve_context(c, stages) == c


def test_resolve_single_ref():
    web = StageRuntime("web")
    syn = web.synopses.synopsis(ctxt("main", "foo", "send"))
    stages = {"web": web}
    resolved = resolve_context(ctxt(SynopsisRef("web", syn), "svc"), stages)
    assert resolved.elements == ("main", "foo", "send", "svc")


def test_resolve_nested_refs_across_three_tiers():
    """proxy -> app -> db: the db context expands through both hops."""
    proxy = StageRuntime("proxy")
    app = StageRuntime("app")
    proxy_syn = proxy.synopses.synopsis(ctxt("comm_poll", "send"))
    app_context = ctxt(SynopsisRef("proxy", proxy_syn), "servlet", "query")
    app_syn = app.synopses.synopsis(app_context)
    db_label = ctxt(SynopsisRef("app", app_syn))
    stages = {"proxy": proxy, "app": app}
    resolved = resolve_context(db_label, stages)
    assert resolved.elements == ("comm_poll", "send", "servlet", "query")


def test_resolve_unknown_stage_raises():
    with pytest.raises(StitchError):
        resolve_context(ctxt(SynopsisRef("ghost", 1)), {})


def test_resolve_cycle_raises():
    a = StageRuntime("a")
    # Forge a self-referential synopsis: context containing a ref to itself.
    value = a.synopses.synopsis(ctxt("placeholder"))
    a.synopses._by_value[value] = ctxt(SynopsisRef("a", value))
    with pytest.raises(StitchError):
        resolve_context(ctxt(SynopsisRef("a", value)), {"a": a})


def test_resolve_cycle_error_names_the_chain():
    a = StageRuntime("a")
    b = StageRuntime("b")
    # a's synopsis refers to b's, which refers back to a's.
    a_value = a.synopses.synopsis(ctxt("placeholder-a"))
    b_value = b.synopses.synopsis(ctxt("placeholder-b"))
    a.synopses._by_value[a_value] = ctxt(SynopsisRef("b", b_value))
    b.synopses._by_value[b_value] = ctxt(SynopsisRef("a", a_value))
    with pytest.raises(StitchError) as excinfo:
        resolve_context(ctxt(SynopsisRef("a", a_value)), {"a": a, "b": b})
    message = str(excinfo.value)
    assert "cyclic" in message
    assert "a" in message and "b" in message


def test_resolve_deep_legitimate_chain_is_not_a_cycle():
    """A 200-hop reference chain (former depth cap was 32) resolves fine."""
    stage = StageRuntime("s")
    previous = stage.synopses.synopsis(ctxt("origin"))
    for level in range(200):
        previous = stage.synopses.synopsis(
            ctxt(SynopsisRef("s", previous), f"hop{level}")
        )
    resolved = resolve_context(ctxt(SynopsisRef("s", previous)), {"s": stage})
    assert resolved.elements[0] == "origin"
    assert len(resolved.elements) == 201


def test_resolve_cache_is_shared_and_correct():
    web = StageRuntime("web")
    syn = web.synopses.synopsis(ctxt("main", "send"))
    stages = {"web": web}
    cache = {}
    label = ctxt(SynopsisRef("web", syn), "svc")
    first = resolve_context(label, stages, cache)
    assert first.elements == ("main", "send", "svc")
    # Both the label and the referenced context are now memoized.
    assert cache[label] == first
    # A second resolution comes straight from the cache (identity).
    assert resolve_context(label, stages, cache) is first


def test_resolve_cache_never_caches_partial_cycles():
    a = StageRuntime("a")
    value = a.synopses.synopsis(ctxt("placeholder"))
    a.synopses._by_value[value] = ctxt(SynopsisRef("a", value))
    cache = {}
    with pytest.raises(StitchError):
        resolve_context(ctxt(SynopsisRef("a", value)), {"a": a}, cache)
    assert cache == {}


def test_stitch_merges_cct_labels_into_full_contexts():
    web = StageRuntime("web")
    db = StageRuntime("db")
    send_ctxt = ctxt("main", "foo", "send")
    syn = web.synopses.synopsis(send_ctxt)
    # Web samples under its local (empty) label:
    web.cct_for(LOCAL).record_sample(("main", "foo"), 10.0)
    # DB samples under the received synopsis label:
    db_label = ctxt(SynopsisRef("web", syn))
    db.cct_for(db_label).record_sample(("svc_run", "sort"), 30.0)

    profile = stitch_profiles([web, db])
    assert profile.stages() == ["db", "web"]
    resolved = ctxt("main", "foo", "send")
    assert profile.cct("db", resolved).weight_of(("svc_run", "sort")) == 30.0
    assert profile.cct("web", LOCAL).weight_of(("main", "foo")) == 10.0


def test_stitch_two_callers_produce_two_db_contexts():
    """Fig 7: the callee's call-path tree appears once per caller context."""
    web = StageRuntime("web")
    db = StageRuntime("db")
    foo = web.synopses.synopsis(ctxt("main", "foo", "send"))
    bar = web.synopses.synopsis(ctxt("main", "bar", "send"))
    db.cct_for(ctxt(SynopsisRef("web", foo))).record_sample(("svc",), 1.0)
    db.cct_for(ctxt(SynopsisRef("web", bar))).record_sample(("svc",), 2.0)

    profile = stitch_profiles([web, db])
    db_contexts = profile.contexts_of("db")
    assert len(db_contexts) == 2
    assert profile.cct("db", ctxt("main", "foo", "send")).total_weight() == 1.0
    assert profile.cct("db", ctxt("main", "bar", "send")).total_weight() == 2.0


def test_stitch_merges_labels_resolving_to_same_context(tmp_path):
    web = StageRuntime("web")
    db = StageRuntime("db")
    send_ctxt = ctxt("main", "send")
    syn = web.synopses.synopsis(send_ctxt)
    # Same resolved context reachable via ref and recorded directly:
    via_ref = ctxt(SynopsisRef("web", syn))
    db.cct_for(via_ref).record_sample(("svc",), 1.0)
    db.cct_for(send_ctxt).record_sample(("svc",), 2.0)

    profile = stitch_profiles([web, db])
    assert profile.cct("db", send_ctxt).weight_of(("svc",)) == 3.0

    # The same two labels through the persisted paths: a dump list and
    # a one-shard spool.  The profile adopts the decoded trees, so the
    # merged entry carries the resolved label, not the ref it came in as.
    shard = tmp_path / "shard-0000"
    shard.mkdir()
    files = []
    for stage in (web, db):
        files.append(f"{stage.name}.wdp")
        save_stage(stage, str(shard / files[-1]), "v2")
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"groups": [{"index": 0, "dir": "shard-0000", "files": files}]}
    ))
    paths = [str(shard / name) for name in files]
    for source in (paths, str(tmp_path)):
        run = load_run(source, strict=True)
        assert run.profile.cct("db", send_ctxt).weight_of(("svc",)) == 3.0
        assert run.profile.cct("db", send_ctxt).label == send_ctxt


def test_stage_weight_and_context_share():
    web = StageRuntime("web")
    web.cct_for(ctxt("hit")).record_sample(("w",), 30.0)
    web.cct_for(ctxt("miss")).record_sample(("w",), 70.0)
    profile = stitch_profiles([web])
    assert profile.stage_weight("web") == 100.0
    assert profile.context_share("web", ctxt("hit")) == pytest.approx(0.3)
    assert profile.total_weight() == 100.0


def test_stage_weight_cache_invalidated_by_add():
    web = StageRuntime("web")
    web.cct_for(ctxt("hit")).record_sample(("w",), 30.0)
    profile = stitch_profiles([web])
    assert profile.stage_weight("web") == 30.0  # primes the cache
    extra = StageRuntime("web")
    extra.cct_for(ctxt("miss")).record_sample(("w",), 70.0)
    profile.add("web", ctxt("miss"), extra.ccts[ctxt("miss")])
    assert profile.stage_weight("web") == 100.0
    assert profile.context_share("web", ctxt("hit")) == pytest.approx(0.3)


def test_invalidate_weights_after_direct_cct_mutation():
    web = StageRuntime("web")
    web.cct_for(LOCAL).record_sample(("main",), 10.0)
    profile = stitch_profiles([web])
    assert profile.stage_weight("web") == 10.0
    profile.cct("web", LOCAL).record_sample(("main",), 5.0)
    profile.invalidate_weights("web")
    assert profile.stage_weight("web") == 15.0


def test_context_share_many_contexts_uses_one_stage_scan():
    """context_share over n contexts must not re-sum the stage each time."""
    web = StageRuntime("web")
    for index in range(50):
        web.cct_for(ctxt(f"c{index}")).record_sample(("w",), 1.0)
    profile = stitch_profiles([web])
    shares = [
        profile.context_share("web", ctxt(f"c{index}")) for index in range(50)
    ]
    assert all(share == pytest.approx(1 / 50) for share in shares)


def test_context_share_of_empty_stage_is_zero():
    web = StageRuntime("web")
    web.cct_for(ctxt("a"))  # empty CCT
    profile = stitch_profiles([web])
    assert profile.context_share("web", ctxt("a")) == 0.0


def test_flow_graph_derives_request_edges():
    from repro.core.stitch import FlowEdge, flow_graph

    web = StageRuntime("web")
    db = StageRuntime("db")
    foo = web.synopses.synopsis(ctxt("main", "foo", "send"))
    bar = web.synopses.synopsis(ctxt("main", "bar", "send"))
    web.cct_for(LOCAL).record_sample(("main",), 1.0)
    db.cct_for(ctxt(SynopsisRef("web", foo))).record_sample(("svc",), 1.0)
    db.cct_for(ctxt(SynopsisRef("web", bar))).record_sample(("svc",), 1.0)

    edges = flow_graph([web, db])
    assert len(edges) == 2
    assert FlowEdge("web", ctxt("main", "foo", "send"), "db", ctxt("main", "foo", "send")) in edges
    froms = {(e.from_stage, e.to_stage) for e in edges}
    assert froms == {("web", "db")}


def test_flow_graph_three_tier_chain():
    from repro.core.stitch import flow_graph

    proxy = StageRuntime("proxy")
    app = StageRuntime("app")
    db = StageRuntime("db")
    p_syn = proxy.synopses.synopsis(ctxt("poll", "send"))
    app_label = ctxt(SynopsisRef("proxy", p_syn))
    app.cct_for(app_label).record_sample(("servlet",), 1.0)
    a_syn = app.synopses.synopsis(app_label.extend_path(("servlet", "query")))
    db.cct_for(ctxt(SynopsisRef("app", a_syn))).record_sample(("select",), 1.0)

    edges = flow_graph([proxy, app, db])
    pairs = {(e.from_stage, e.to_stage) for e in edges}
    assert pairs == {("proxy", "app"), ("app", "db")}
    db_edge = next(e for e in edges if e.to_stage == "db")
    assert db_edge.to_context.elements == ("poll", "send", "servlet", "query")


def test_flow_graph_deduplicates():
    from repro.core.stitch import flow_graph

    web = StageRuntime("web")
    db = StageRuntime("db")
    syn = web.synopses.synopsis(ctxt("send"))
    db.cct_for(ctxt(SynopsisRef("web", syn))).record_sample(("a",), 1.0)
    # Same label appears only once even if asked twice.
    assert len(flow_graph([web, db])) == len(flow_graph([web, db])) == 1


def test_stitched_ccts_are_copies():
    web = StageRuntime("web")
    web.cct_for(LOCAL).record_sample(("main",), 1.0)
    profile = stitch_profiles([web])
    profile.cct("web", LOCAL).record_sample(("main",), 99.0)
    assert web.ccts[LOCAL].weight_of(("main",)) == 1.0
