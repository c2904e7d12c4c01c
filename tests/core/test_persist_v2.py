"""Tests for the compact v2 profile format (interned, framed, gzipped)."""

import io
import json

import pytest

from repro.core.context import SynopsisRef, TransactionContext, UnresolvedRef
from repro.core.persist import (
    FORMAT_VERSION_V2,
    JSON_SEPARATORS,
    V2_MAGIC,
    decode_stage_v2,
    dump_size,
    encode_stage,
    encode_stage_v2,
    dumps_stage_v2,
    load_stage,
    load_stages,
    loads_stage_v2,
    save_stage,
)
from repro.core.profiler import LOCAL, ProfilerMode, StageRuntime


def ctxt(*elements):
    return TransactionContext(elements)


def make_stage():
    """A stage exercising every persisted feature: local and flow CCTs,
    SynopsisRef *and* UnresolvedRef context elements (partial-stitch
    placeholders), synopsis entries, context-typed crosstalk, comm."""
    stage = StageRuntime("web", mode=ProfilerMode.WHODUNIT, sampling_hz=500.0)
    stage.cct_for(LOCAL).record_sample(("main", "accept"), 12.5)
    flow = stage.cct_for(ctxt("listener", SynopsisRef("db", 0xABC00007), "push"))
    flow.record_sample(("main", "worker", "deep", "deeper"), 30.0)
    flow.record_call(("main", "worker"))
    partial = stage.cct_for(ctxt(UnresolvedRef("gone", 17), "tail"))
    partial.record_sample(("main", "salvage"), 3.25)
    stage.synopses.synopsis(ctxt("main", "send"))
    stage.synopses.synopsis(ctxt("main", "send", "again"))
    stage.crosstalk.record("B", "A", 0.07)
    stage.crosstalk.record(ctxt("main", "send"), None, 0.003)
    stage.account_message(1000, 4)
    return stage


def same_profile(a: StageRuntime, b: StageRuntime) -> bool:
    """load(dump(x)) == x, compared through the exhaustive v1 encoding."""
    return encode_stage(a) == encode_stage(b)


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
def test_v2_round_trip_is_exact():
    stage = make_stage()
    assert same_profile(loads_stage_v2(dumps_stage_v2(stage)), stage)


def test_v2_round_trip_preserves_synopsis_snapshot():
    stage = make_stage()
    clone = loads_stage_v2(dumps_stage_v2(stage))
    assert clone.synopses.base == stage.synopses.base
    assert clone.synopses.next_value == stage.synopses.next_value
    assert dict(clone.synopses.items()) == dict(stage.synopses.items())


def test_v2_dump_is_byte_deterministic():
    stage = make_stage()
    blob = dumps_stage_v2(stage)
    assert dumps_stage_v2(stage) == blob
    # Decode → re-encode is also a fixed point.
    assert dumps_stage_v2(loads_stage_v2(blob)) == blob


def test_v2_restores_a_foreign_base_instead_of_rederiving():
    """The bugfix guard: a fresh process must adopt the dump's salted
    base, never the one it would derive itself (collision salting is
    registration-order dependent)."""
    stage = make_stage()
    document = encode_stage_v2(stage)
    foreign_base = document[4] ^ (7 << 20)  # a base this name never hashes to
    document[4] = foreign_base
    document[9] = [[ctx_id, remainder] for ctx_id, remainder in document[9]]
    clone = decode_stage_v2(document)
    assert clone.synopses.base == foreign_base
    # New synopses allocated post-restore carry the restored base.
    fresh = clone.synopses.synopsis(ctxt("post", "restore"))
    assert fresh & ~0xFFFFF == foreign_base


def test_v2_framing_rejects_corruption():
    stage = make_stage()
    blob = dumps_stage_v2(stage)
    assert blob[:4] == V2_MAGIC
    with pytest.raises(ValueError):
        loads_stage_v2(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        loads_stage_v2(blob[:8])
    with pytest.raises(ValueError):
        loads_stage_v2(blob[:-5])
    # Flip every byte in turn: the dump either still loads (gzip's
    # mtime / OS bytes carry nothing) or is refused with the two
    # exception types the CLI reports -- never zlib.error or EOFError.
    for index in range(len(blob)):
        damaged = bytearray(blob)
        damaged[index] ^= 0xFF
        try:
            clone = loads_stage_v2(bytes(damaged))
        except (ValueError, OSError):
            continue
        assert same_profile(clone, stage), index


def test_v2_rejects_wrong_version():
    document = encode_stage_v2(make_stage())
    document[0] = 99
    with pytest.raises(ValueError):
        decode_stage_v2(document)


# ----------------------------------------------------------------------
# Files and format negotiation
# ----------------------------------------------------------------------
def test_load_stage_sniffs_both_formats(tmp_path):
    stage = make_stage()
    v1_path = str(tmp_path / "web.profile.json")
    v2_path = str(tmp_path / "web.profile.wdp")
    save_stage(stage, v1_path, profile_format="v1")
    save_stage(stage, v2_path, profile_format="v2")
    assert same_profile(load_stage(v1_path), stage)
    assert same_profile(load_stage(v2_path), stage)


def test_every_loader_reads_every_shape_of_dump(tmp_path):
    # load_stage and load_stages sniff the format in one place; each
    # shape a dump arrives in reads as it always did.
    stage, other = make_stage(), StageRuntime("db")
    other.cct_for(LOCAL).record_sample(("main", "query"), 2.0)
    v1 = json.dumps(encode_stage(stage), separators=JSON_SEPARATORS)
    v2 = dumps_stage_v2(stage)
    for source in (io.StringIO(v1), io.BytesIO(v1.encode("utf-8")),
                   io.BytesIO(v2)):
        assert same_profile(load_stage(source), stage)
    # A v2 file of several frames: one stage reads the first, the
    # file reads them all; a v1 list reads as its stages.
    frames = str(tmp_path / "run.wdp")
    with open(frames, "wb") as handle:
        handle.write(v2 + dumps_stage_v2(other))
    assert same_profile(load_stage(frames), stage)
    with open(frames, "rb") as handle:
        assert same_profile(load_stage(handle), stage)
    listed = str(tmp_path / "run.json")
    with open(listed, "w", encoding="utf-8") as handle:
        json.dump([encode_stage(stage), encode_stage(other)], handle)
    for path in (frames, listed):
        loaded = load_stages(path)
        assert [clone.name for clone in loaded] == ["web", "db"]
        assert same_profile(loaded[0], stage)
        assert same_profile(loaded[1], other)


def test_save_stage_writes_v2_unless_asked_for_v1(tmp_path):
    path = str(tmp_path / "web.profile")
    save_stage(make_stage(), path)
    with open(path, "rb") as handle:
        assert handle.read(len(V2_MAGIC)) == V2_MAGIC
    assert dump_size(make_stage()) == len(dumps_stage_v2(make_stage()))


def test_save_stage_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        save_stage(make_stage(), str(tmp_path / "x"), profile_format="v3")


def test_v1_dump_uses_compact_separators():
    buffer = io.StringIO()
    save_stage(make_stage(), buffer, profile_format="v1")
    text = buffer.getvalue()
    assert ", " not in text and ": " not in text
    json.loads(text)  # still plain JSON


def _streamed_v1(stage):
    """The streaming pure-Python encoder: the v1 writer's reference."""
    buffer = io.StringIO()
    json.dump(encode_stage(stage), buffer, separators=(",", ":"))
    return buffer.getvalue()


def test_v1_writer_matches_the_streaming_encoder():
    stage = make_stage()
    buffer = io.StringIO()
    save_stage(stage, buffer, profile_format="v1")
    assert buffer.getvalue() == _streamed_v1(stage)
    assert dump_size(stage, "v1") == len(buffer.getvalue().encode("utf-8"))


def test_v1_writer_encodes_as_deep_as_the_streaming_encoder():
    # v1 nests one JSON object per frame, so the recursion limit bounds
    # the call-path depth it can hold; the C encoder must not lower it.
    def deep_stage(depth):
        stage = StageRuntime("deep")
        path = tuple(f"f{i}" for i in range(depth))
        stage.cct_for(LOCAL).record_sample(path, 1.0)
        return stage

    low, high = 1, 4000
    while low < high:  # deepest path the reference still encodes
        middle = (low + high + 1) // 2
        try:
            _streamed_v1(deep_stage(middle))
            low = middle
        except RecursionError:
            high = middle - 1
    # save_stage itself is one frame the reference call does not have.
    stage = deep_stage(low - 1)
    buffer = io.StringIO()
    save_stage(stage, buffer, profile_format="v1")
    assert buffer.getvalue() == _streamed_v1(stage)


def test_v1_dump_persists_synopsis_snapshot():
    stage = make_stage()
    data = encode_stage(stage)
    assert data["synopsis_base"] == stage.synopses.base
    assert data["synopsis_next"] == stage.synopses.next_value


def test_dump_size_v2_smaller_than_v1():
    stage = StageRuntime("sized")
    for i in range(50):
        cct = stage.cct_for(ctxt("entry", f"request_{i % 5}"))
        cct.record_sample(("main", "dispatch", f"handler_{i % 5}", "io"), 1.0 + i)
        stage.synopses.synopsis(ctxt("entry", f"request_{i}"))
    assert dump_size(stage, "v2") < dump_size(stage, "v1")


def test_interning_stores_repeated_strings_once():
    stage = StageRuntime("intern")
    for i in range(40):
        stage.cct_for(ctxt("same_label", str(i))).record_sample(
            ("very_long_repeated_frame_name", "another_long_frame"), 1.0
        )
    document = encode_stage_v2(stage)
    strings = document[6]
    assert strings.count("very_long_repeated_frame_name") == 1
    assert strings.count("another_long_frame") == 1


def test_v2_dumps_a_tpcw_run_at_least_five_times_smaller():
    from repro.apps.tpcw import TpcwSystem

    system = TpcwSystem(clients=40, seed=42)
    system.run(duration=30.0, warmup=5.0)
    stages = list(system.stages_by_name.values())
    v1 = sum(dump_size(stage, "v1") for stage in stages)
    v2 = sum(dump_size(stage, "v2") for stage in stages)
    assert v1 >= 5 * v2, f"v1/v2 = {v1 / v2:.2f}x"
