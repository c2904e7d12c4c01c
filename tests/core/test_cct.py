"""Tests for the Calling Context Tree."""

import pytest
from hypothesis import given, strategies as st

from repro.core.cct import CallingContextTree


def test_record_sample_creates_path_nodes():
    cct = CallingContextTree()
    cct.record_sample(("main", "foo", "bar"), 2.0)
    assert cct.weight_of(("main", "foo", "bar")) == 2.0
    assert cct.weight_of(("main", "foo")) == 0.0


def test_samples_accumulate_on_same_path():
    cct = CallingContextTree()
    cct.record_sample(("main", "foo"), 1.0)
    cct.record_sample(("main", "foo"), 2.5)
    assert cct.weight_of(("main", "foo")) == 3.5


def test_sibling_paths_are_distinct_nodes():
    cct = CallingContextTree()
    cct.record_sample(("main", "foo"), 1.0)
    cct.record_sample(("main", "bar"), 2.0)
    assert cct.weight_of(("main", "foo")) == 1.0
    assert cct.weight_of(("main", "bar")) == 2.0


def test_same_procedure_in_different_contexts_is_distinct():
    """The defining property of call-path profiling vs call-graph."""
    cct = CallingContextTree()
    cct.record_sample(("main", "foo", "sort"), 1.0)
    cct.record_sample(("main", "bar", "sort"), 9.0)
    assert cct.weight_of(("main", "foo", "sort")) == 1.0
    assert cct.weight_of(("main", "bar", "sort")) == 9.0
    assert cct.by_frame()["sort"] == 10.0


def test_negative_weight_rejected():
    cct = CallingContextTree()
    with pytest.raises(ValueError):
        cct.record_sample(("main",), -1.0)


def test_total_weight_sums_everything():
    cct = CallingContextTree()
    cct.record_sample(("a",), 1.0)
    cct.record_sample(("a", "b"), 2.0)
    cct.record_sample(("c",), 3.0)
    assert cct.total_weight() == pytest.approx(6.0)


def test_inclusive_weight_of_subtree():
    cct = CallingContextTree()
    cct.record_sample(("main",), 1.0)
    cct.record_sample(("main", "foo"), 2.0)
    cct.record_sample(("main", "foo", "bar"), 4.0)
    cct.record_sample(("other",), 8.0)
    assert cct.inclusive_weight_of(("main",)) == pytest.approx(7.0)
    assert cct.inclusive_weight_of(("main", "foo")) == pytest.approx(6.0)


def test_lookup_missing_path():
    cct = CallingContextTree()
    cct.record_sample(("main",), 1.0)
    assert cct.lookup(("nope",)) is None
    assert cct.weight_of(("nope",)) == 0.0
    assert cct.inclusive_weight_of(("nope",)) == 0.0


def test_flatten_returns_only_sampled_paths():
    cct = CallingContextTree()
    cct.record_sample(("main", "foo"), 1.0)
    cct.record_sample(("main", "foo", "bar"), 2.0)
    flat = cct.flatten()
    assert flat == {("main", "foo"): 1.0, ("main", "foo", "bar"): 2.0}


def test_node_path_round_trip():
    cct = CallingContextTree()
    node = cct.record_sample(("a", "b", "c"), 1.0)
    assert cct.lookup(("a", "b", "c")) is node


def test_flatten_branching_three_levels():
    cct = CallingContextTree()
    cct.record_sample(("main", "a", "x"), 1.0)
    cct.record_sample(("main", "a", "y"), 2.0)
    cct.record_sample(("main", "b", "x"), 3.0)
    cct.record_sample(("main", "b"), 4.0)
    cct.record_sample(("other",), 5.0)
    cct.record_call(("main", "c", "z"))
    flat = cct.flatten()
    assert flat == {
        ("main", "a", "x"): 1.0,
        ("main", "a", "y"): 2.0,
        ("main", "b"): 4.0,
        ("main", "b", "x"): 3.0,
        ("other",): 5.0,
    }
    # Pre-order, children in name order — the same order as walk().
    assert list(flat) == [
        ("main", "a", "x"),
        ("main", "a", "y"),
        ("main", "b"),
        ("main", "b", "x"),
        ("other",),
    ]


def test_record_call_counts():
    cct = CallingContextTree()
    cct.record_call(("main", "foo"))
    cct.record_call(("main", "foo"))
    assert cct.lookup(("main", "foo")).call_count == 2
    assert cct.total_weight() == 0.0


def test_merge_accumulates_weights_and_counts():
    a = CallingContextTree("A")
    b = CallingContextTree("B")
    a.record_sample(("main", "x"), 1.0)
    b.record_sample(("main", "x"), 2.0)
    b.record_sample(("main", "y"), 3.0)
    b.record_call(("main", "x"))
    a.merge(b)
    assert a.weight_of(("main", "x")) == 3.0
    assert a.weight_of(("main", "y")) == 3.0
    assert a.lookup(("main", "x")).call_count == 1


def test_copy_is_independent():
    a = CallingContextTree("A")
    a.record_sample(("p",), 1.0)
    clone = a.copy()
    clone.record_sample(("p",), 5.0)
    assert a.weight_of(("p",)) == 1.0
    assert clone.weight_of(("p",)) == 6.0
    assert clone.label == "A"


def test_label_annotation():
    cct = CallingContextTree(("web", "accept"))
    assert cct.label == ("web", "accept")


def test_node_count():
    cct = CallingContextTree()
    cct.record_sample(("a", "b"), 1.0)
    cct.record_sample(("a", "c"), 1.0)
    assert cct.node_count() == 3


def test_walk_visits_children_sorted():
    cct = CallingContextTree()
    cct.record_sample(("b",), 1.0)
    cct.record_sample(("a",), 1.0)
    names = [n.name for n in cct.root.walk()]
    assert names == ["<root>", "a", "b"]


# ----------------------------------------------------------------------
# Property-based: sample conservation
# ----------------------------------------------------------------------
paths = st.lists(
    st.lists(st.sampled_from("pqrs"), min_size=1, max_size=4).map(tuple),
    min_size=1,
    max_size=30,
)
weights = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@given(paths, st.data())
def test_total_weight_equals_sum_of_recorded(paths_list, data):
    cct = CallingContextTree()
    total = 0.0
    for path in paths_list:
        w = data.draw(weights)
        cct.record_sample(path, w)
        total += w
    assert cct.total_weight() == pytest.approx(total)


@given(paths)
def test_flatten_preserves_total(paths_list):
    cct = CallingContextTree()
    for path in paths_list:
        cct.record_sample(path, 1.0)
    assert sum(cct.flatten().values()) == pytest.approx(cct.total_weight())


@given(paths)
def test_merge_preserves_total(paths_list):
    a = CallingContextTree()
    b = CallingContextTree()
    for i, path in enumerate(paths_list):
        (a if i % 2 else b).record_sample(path, 1.0)
    expected = a.total_weight() + b.total_weight()
    a.merge(b)
    assert a.total_weight() == pytest.approx(expected)


# ----------------------------------------------------------------------
# Deep call paths: the tree operations are iterative and must tolerate
# paths far beyond the interpreter's recursion limit.
# ----------------------------------------------------------------------
DEEP = 10_000


def _deep_tree(depth=DEEP, weight=1.0):
    cct = CallingContextTree()
    path = tuple(f"f{level}" for level in range(depth))
    cct.record_sample(path, weight)
    return cct, path


def test_deep_tree_subtree_weight_no_recursion_error():
    cct, path = _deep_tree()
    assert cct.total_weight() == 1.0
    assert cct.inclusive_weight_of(path[:1]) == 1.0


def test_deep_tree_walk_and_flatten_no_recursion_error():
    cct, path = _deep_tree()
    assert cct.node_count() == DEEP
    flat = cct.flatten()
    assert flat == {path: 1.0}


def test_deep_tree_merge_and_copy_no_recursion_error():
    a, path = _deep_tree(weight=1.0)
    b, _ = _deep_tree(weight=2.0)
    a.merge(b)
    assert a.weight_of(path) == 3.0
    clone = a.copy()
    assert clone.weight_of(path) == 3.0


def test_deep_tree_persist_encoding_is_iterative():
    from repro.core.cct import CCTNode
    from repro.core.persist import _decode_cct_node, _encode_cct_node

    cct, path = _deep_tree(depth=5_000)
    encoded = _encode_cct_node(cct.root)
    rebuilt_root = CCTNode("<root>")
    _decode_cct_node(rebuilt_root, encoded)
    rebuilt = CallingContextTree()
    rebuilt.root = rebuilt_root
    assert rebuilt.weight_of(path[:5_000]) == 1.0
