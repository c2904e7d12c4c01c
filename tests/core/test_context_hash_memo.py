"""Regression tests for TransactionContext's hash-consing, cached hash
and derive memos.

Every construction route returns the one canonical object per value
(up to the intern table's cap), ``__hash__`` is memoized at
construction, and ``append()`` / ``extend_path()`` derivations are
cached per parent context.  These tests pin the aliasing contract: a
memoized derivation is always the same value a fresh computation would
produce, deriving never mutates the parent, the cached hash always
agrees with equality, and a context built past the cap still behaves
as the value it equals.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.core import context as context_module
from repro.core.cct import CallingContextTree
from repro.core.context import SynopsisRef, TransactionContext
from repro.core.persist import dumps_stage_v2, loads_stage_v2
from repro.core.profiler import StageRuntime
from repro.core.stitch import resolve_context
from repro.live.checkpoint import (
    TREE_VERSION,
    append_frame,
    decode_tree,
    read_tree,
    tree_frame,
)


@pytest.fixture(autouse=True)
def fresh_intern_table(monkeypatch):
    """A table with room, whatever earlier tests in the process built."""
    monkeypatch.setattr(
        context_module, "_INTERN", {(): TransactionContext.empty()}
    )


def test_cached_hash_agrees_with_equality():
    a = TransactionContext(("web", "app", "db"))
    b = TransactionContext(("web", "app", "db"))
    assert a == b
    assert hash(a) == hash(b)
    assert hash(a) == hash(TransactionContext(("web", "app", "db")))
    c = TransactionContext(("web", "app"))
    assert a != c
    # Hash stays the pinned construction-time value across use.
    before = hash(a)
    a.append("x")
    a.extend_path(("p", "q"))
    assert hash(a) == before


def test_append_memo_returns_the_same_object_and_value():
    parent = TransactionContext(("web", "app"))
    d1 = parent.append("db")
    d2 = parent.append("db")
    assert d1 is d2, "repeat appends should hit the memo"
    # The memoized result is exactly what a fresh computation produces.
    fresh = TransactionContext(("web", "app", "db"))
    assert d1 == fresh
    assert hash(d1) == hash(fresh)
    # Deriving never mutates the parent.
    assert parent.elements == ("web", "app")


def test_append_memo_keys_on_normalisation_flags():
    parent = TransactionContext(("a",))
    collapsed = parent.append("a")  # collapse: a,a -> a
    assert collapsed is parent
    pruned = parent.append("a", collapse=False)  # prune loops back to a
    assert pruned.elements == ("a",)
    full = parent.append("a", collapse=False, prune=False)
    assert full.elements == ("a", "a")
    # Each flag combination memoizes independently and stably.
    assert parent.append("a") is collapsed
    assert parent.append("a", collapse=False) is pruned
    assert parent.append("a", collapse=False, prune=False) is full


def test_extend_path_memo_matches_fresh_concatenation():
    parent = TransactionContext(("web",))
    e1 = parent.extend_path(("handler", "query"))
    e2 = parent.extend_path(("handler", "query"))
    assert e1 is e2
    assert e1.elements == ("web", "handler", "query")
    assert hash(e1) == hash(TransactionContext(("web", "handler", "query")))
    assert parent.extend_path(()) is parent
    assert parent.elements == ("web",)


def test_call_path_interning_returns_one_canonical_object():
    p1 = TransactionContext.from_call_path(("main", "serve"))
    p2 = TransactionContext.from_call_path(("main", "serve"))
    assert p1 is p2
    assert hash(p1) == hash(TransactionContext(("main", "serve")))


def test_pickle_round_trip_recomputes_a_consistent_hash():
    original = TransactionContext(("web", "app", "db"))
    original.append("x")  # populate the memo; it must not be pickled
    clone = pickle.loads(pickle.dumps(original))
    assert clone == original
    # Same process, same PYTHONHASHSEED: the recomputed hash matches the
    # memoized one, so clones interoperate with originals in dicts/sets.
    assert hash(clone) == hash(original)
    assert {original: 1}[clone] == 1


def test_every_construction_route_returns_the_canonical_object(tmp_path):
    canonical = TransactionContext(("web", "app", "db"))
    web_app = TransactionContext(("web", "app"))

    assert TransactionContext(["web", "app", "db"]) is canonical
    assert web_app.append("db") is canonical
    assert canonical.append("db") is canonical  # collapse
    assert canonical.append("app") is web_app  # loop pruning
    assert TransactionContext(("web",)).extend_path(("app", "db")) is canonical
    assert TransactionContext(("web",)).concat(
        TransactionContext(("app", "db"))) is canonical
    assert TransactionContext.from_call_path(["web", "app", "db"]) is canonical
    assert pickle.loads(pickle.dumps(canonical)) is canonical

    # A v2 dump round trip, with a synopsis-bearing label beside it.
    remote = TransactionContext((SynopsisRef("squid", 7), "query"))
    stage = StageRuntime("web")
    stage.cct_for(canonical).record_sample(("main",), 1.0)
    stage.cct_for(remote).record_sample(("main",), 1.0)
    loaded = loads_stage_v2(dumps_stage_v2(stage))
    labels = list(loaded.ccts)
    assert labels[0] is canonical and labels[1] is remote

    # A live-log tree frame written to disk and read back.
    cct = CallingContextTree(canonical)
    cct.record_sample(("main", "serve"), 2.0)
    with open(tmp_path / "log", "w+b") as handle:
        offset = append_frame(handle, tree_frame(canonical, cct), TREE_VERSION)
        assert decode_tree(read_tree(handle, offset)).label is canonical

    # Stitching expands a synopsis into the canonical full context.
    value = stage.synopses.synopsis(web_app)
    hop = TransactionContext((SynopsisRef("web", value), "db"))
    assert resolve_context(hop, {"web": stage}) is canonical


def test_contexts_built_past_the_cap_are_fresh_but_equal(monkeypatch):
    canonical = TransactionContext(("web", "app", "db"))
    monkeypatch.setattr(context_module, "_INTERN_MAX", 2)
    monkeypatch.setattr(context_module, "_INTERN", {})
    TransactionContext(("a",))
    TransactionContext(("b",))
    past = TransactionContext(("web", "app", "db"))
    assert len(context_module._INTERN) == 2
    assert past is not canonical
    assert past == canonical and hash(past) == hash(canonical)
    assert past.wire_size() == canonical.wire_size()
    assert {canonical: 1}[past] == 1
    assert {past: 2}[canonical] == 2
    assert TransactionContext(("web", "app")).append("db") == canonical


RETENTION = """
import gc
from repro.apps.haboob import HaboobConfig, HaboobServer
from repro.apps.tpcw import TpcwSystem
from repro.core.context import TransactionContext
from repro.sim import Kernel, Rng
from repro.workloads import HttpClientPool, WebTrace


def haboob():
    kernel = Kernel()
    trace = WebTrace(Rng(23), objects=2000, requests_per_connection_mean=4.0)
    server = HaboobServer(kernel, trace,
                          config=HaboobConfig(cache_bytes=256 * 1024))
    server.start()
    HttpClientPool(kernel, server.listener, trace, clients=5).start()
    kernel.run(until=4.0)


def tpcw():
    TpcwSystem(clients=12, seed=1234).run(duration=10.0, warmup=2.0)


for _ in range(2):
    haboob()
    tpcw()
gc.collect()
live = [o for o in gc.get_objects() if type(o) is TransactionContext]
print(len(live), len({o.elements for o in live}))
"""


def test_repeated_runs_keep_one_live_object_per_context_value():
    """Two Haboob and two TPC-W runs in one fresh process leave exactly
    one live context per distinct value: the memos hold canonical
    objects, not copies."""
    result = subprocess.run(
        [sys.executable, "-c", RETENTION],
        capture_output=True,
        text=True,
        env=dict(os.environ),
        check=True,
    )
    objects, values = map(int, result.stdout.split())
    assert values > 10
    assert objects == values
