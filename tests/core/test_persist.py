"""Tests for profile persistence (dump to disk, stitch post-mortem)."""

import io
import json

import pytest
from hypothesis import given, strategies as st

from repro.core.context import SynopsisRef, TransactionContext
from repro.core.persist import (
    decode_context,
    decode_stage,
    encode_context,
    encode_stage,
    load_run,
    load_stage,
    save_stage,
)
from repro.core.profiler import LOCAL, ProfilerMode, StageRuntime


def ctxt(*elements):
    return TransactionContext(elements)


def make_stage():
    stage = StageRuntime("web", mode=ProfilerMode.WHODUNIT, sampling_hz=500.0)
    stage.cct_for(LOCAL).record_sample(("main", "accept"), 12.5)
    flow = stage.cct_for(ctxt("listener", "push"))
    flow.record_sample(("main", "worker"), 30.0)
    flow.record_call(("main", "worker"))
    stage.synopses.synopsis(ctxt("main", "send"))
    stage.crosstalk.record("B", "A", 0.07)
    stage.account_message(1000, 4)
    return stage


def test_context_round_trip():
    context = ctxt("a", SynopsisRef("web", 7), "b")
    assert decode_context(encode_context(context)) == context


def test_unencodable_element_rejected():
    with pytest.raises(TypeError):
        encode_context(TransactionContext((42,)))


def test_bad_encoded_element_rejected():
    with pytest.raises(ValueError):
        decode_context([{"bogus": 1}])


def test_stage_round_trip_preserves_profile():
    stage = make_stage()
    clone = decode_stage(encode_stage(stage))
    assert clone.name == "web"
    assert clone.mode == ProfilerMode.WHODUNIT
    assert clone.sampling_hz == 500.0
    assert clone.total_weight() == pytest.approx(stage.total_weight())
    flow = clone.ccts[ctxt("listener", "push")]
    assert flow.weight_of(("main", "worker")) == 30.0
    assert flow.lookup(("main", "worker")).call_count == 1
    assert clone.synopses.lookup(ctxt("main", "send")) == stage.synopses.lookup(
        ctxt("main", "send")
    )
    assert clone.crosstalk.mean_wait("B", "A") == pytest.approx(0.07)
    assert clone.comm_data_bytes == 1000


def test_dump_is_plain_json():
    buffer = io.StringIO()
    save_stage(make_stage(), buffer, profile_format="v1")
    data = json.loads(buffer.getvalue())
    assert data["version"] == 1
    assert data["name"] == "web"


def test_save_load_file(tmp_path):
    path = str(tmp_path / "web.profile.json")
    save_stage(make_stage(), path)
    clone = load_stage(path)
    assert clone.name == "web"


def test_unsupported_version_rejected():
    data = encode_stage(make_stage())
    data["version"] = 99
    with pytest.raises(ValueError):
        decode_stage(data)


def test_presentation_phase_stitches_from_files(tmp_path):
    """The paper's workflow: stages dump independently; stitch later."""
    web = StageRuntime("web")
    db = StageRuntime("db")
    send_ctxt = ctxt("main", "foo", "send")
    syn = web.synopses.synopsis(send_ctxt)
    web.cct_for(LOCAL).record_sample(("main", "foo"), 10.0)
    db.cct_for(ctxt(SynopsisRef("web", syn))).record_sample(("svc", "sort"), 40.0)

    web_path = str(tmp_path / "web.json")
    db_path = str(tmp_path / "db.json")
    save_stage(web, web_path)
    save_stage(db, db_path)

    profile = load_run([web_path, db_path], strict=True).profile
    assert profile.cct("db", send_ctxt).weight_of(("svc", "sort")) == 40.0


# ----------------------------------------------------------------------
# Property: arbitrary CCT shapes survive the round trip
# ----------------------------------------------------------------------
paths = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=4).map(tuple),
    min_size=1,
    max_size=20,
)


@given(paths)
def test_round_trip_arbitrary_trees(path_list):
    stage = StageRuntime("s")
    cct = stage.cct_for(ctxt("x"))
    for i, path in enumerate(path_list):
        cct.record_sample(path, float(i + 1))
    clone = decode_stage(encode_stage(stage))
    assert clone.ccts[ctxt("x")].flatten() == cct.flatten()
