"""Hierarchical two-level profile reduce: shard → group → global.

The flat presentation phase folds every shard profile into one
accumulator.  The two-level reduce partitions the shards into
contiguous *groups*, merges each group into its own accumulator,
spools it as a group artifact, and folds the G ≈ √N artifacts,
streaming them frame by frame instead of loading whole files.  It
runs serially and is kept as the reference grouping the flat fold is
checked against (the ledger's ``postmortem`` workload prices both).

**Exactness is what makes the tree legal.**  Shard profiles share
fully-resolved contexts (that is the point of cross-shard
aggregation), so reducing means adding floats — and float addition is
not associative: ``(a+b)+c`` and ``a+(b+c)`` can differ in the last
ulp, which would make the merged profile depend on the group size.
The reduce therefore never adds weights directly.  Every accumulation
goes through Shewchuk error-free partials (:func:`grow_partials` — the
algorithm inside ``math.fsum``): a node's weight is carried as a short
list of non-overlapping floats whose *exact* real sum equals the exact
sum of every contribution, and is rounded exactly once, at
:meth:`ProfileAccumulator.finalize`, with ``math.fsum``.  Since the
partials represent the exact sum regardless of how contributions were
grouped, **every grouping — including the flat one — produces
byte-identical output** (asserted for every group size in
``tests/parallel/test_reduce.py``).

Group artifacts are framed like v2 profile dumps (magic ``WDR2``): one
tables frame (interned strings, resolution tallies, entry count)
followed by one frame per profile entry, so the parent folds one entry
at a time in bounded memory.
"""

from __future__ import annotations

import math
import os
import tempfile
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.cct import CallingContextTree
from repro.core.context import TransactionContext
from repro.core.persist import (
    _Interner,
    _v2_decode_context,
    _v2_encode_context,
    read_frame,
    write_frame,
)
from repro.core.stitch import StitchedProfile

#: Frame magic for reduce-tree group artifacts (header layout shared
#: with v2 profile dumps: magic, u32 version, u32 payload length).
REDUCE_MAGIC = b"WDR2"
REDUCE_VERSION = 1

#: Group artifact filename pattern inside a spool's ``reduce/`` dir.
GROUP_FILE = "group-{index:04d}.wdr"


def grow_partials(partials: List[float], value: float) -> None:
    """Add ``value`` into Shewchuk partials in place, without error.

    Maintains the invariant that ``sum(partials)`` computed in exact
    real arithmetic equals the exact sum of every value ever grown in
    (the partials are non-overlapping doubles).  This is the
    accumulation loop used by ``math.fsum``; rounding happens only when
    the caller finally collapses the partials with ``fsum``.
    """
    x = value
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    del partials[i:]
    partials.append(x)


class _PartialNode:
    """A CCT node whose weight is exact partials, not one rounded float."""

    __slots__ = ("partials", "call_count", "children")

    def __init__(self):
        self.partials: List[float] = []
        self.call_count = 0
        self.children: Dict[str, "_PartialNode"] = {}

    def child(self, name: str) -> "_PartialNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _PartialNode()
        return node


class ProfileAccumulator:
    """Order-invariant exact accumulation of stitched profiles.

    Feed it whole profiles (:meth:`add_profile`), streamed group-file
    entries (:meth:`absorb_file`), or both; :meth:`finalize` rounds
    each node exactly once.  Any feeding order and any grouping of the
    same contributions produce identical output bytes.
    """

    def __init__(self):
        self.entries: Dict[Tuple[str, TransactionContext], _PartialNode] = {}
        self.synopsis_refs = 0
        self.unresolved_refs = 0

    def _root(self, stage: str, context: TransactionContext) -> _PartialNode:
        key = (stage, context)
        node = self.entries.get(key)
        if node is None:
            node = self.entries[key] = _PartialNode()
        return node

    # -- feeding -------------------------------------------------------
    def add_profile(self, profile: StitchedProfile) -> None:
        for (stage, context), cct in profile.entries.items():
            stack = [(self._root(stage, context), cct.root)]
            while stack:
                node, src = stack.pop()
                if src.self_weight:
                    grow_partials(node.partials, src.self_weight)
                node.call_count += src.call_count
                for name, src_child in src.children.items():
                    stack.append((node.child(name), src_child))
        self.synopsis_refs += profile.synopsis_refs
        self.unresolved_refs += profile.unresolved_refs

    def _absorb_rows(self, root: _PartialNode, parents, names,
                     partials_column, counts) -> None:
        nodes: List[_PartialNode] = []
        for parent, name, partials, count in zip(
            parents, names, partials_column, counts
        ):
            node = root if parent < 0 else nodes[parent].child(name)
            for value in partials:
                grow_partials(node.partials, value)
            node.call_count += count
            nodes.append(node)

    def absorb_file(self, source: str) -> None:
        """Stream one group artifact into the accumulator, frame-wise."""
        with open(source, "rb") as handle:
            header = read_frame(handle, magic=REDUCE_MAGIC,
                                version=REDUCE_VERSION)
            if header is None:
                raise ValueError(f"empty reduce artifact {source!r}")
            strings, synopsis_refs, unresolved_refs, entry_count = header
            self.synopsis_refs += synopsis_refs
            self.unresolved_refs += unresolved_refs
            for _ in range(entry_count):
                entry = read_frame(handle, magic=REDUCE_MAGIC,
                                   version=REDUCE_VERSION)
                if entry is None:
                    raise ValueError(f"truncated reduce artifact {source!r}")
                stage_id, context_cells, parents, name_ids, partials, counts = entry
                self._absorb_rows(
                    self._root(
                        strings[stage_id],
                        _v2_decode_context(context_cells, strings),
                    ),
                    parents,
                    [strings[name_id] for name_id in name_ids],
                    partials,
                    counts,
                )

    # -- persistence ---------------------------------------------------
    @staticmethod
    def _rows(root: _PartialNode):
        """Canonical pre-order rows (children in sorted name order)."""
        rows: List[Tuple[int, str, List[float], int]] = []
        stack: List[Tuple[_PartialNode, str, int]] = [(root, "", -1)]
        while stack:
            node, name, parent = stack.pop()
            index = len(rows)
            rows.append((parent, name, node.partials, node.call_count))
            for child_name in sorted(node.children, reverse=True):
                stack.append((node.children[child_name], child_name, index))
        return rows

    def write(self, destination: str) -> int:
        """Persist as a streamable group artifact; returns bytes written.

        JSON floats round-trip exactly (shortest-repr encode, exact
        decode), so the partials survive the file unrounded.
        """
        strings = _Interner()
        entry_documents: List[List[Any]] = []
        for (stage, context), root in self.entries.items():
            rows = self._rows(root)
            entry_documents.append([
                strings.intern(stage),
                _v2_encode_context(context, strings),
                [row[0] for row in rows],
                [strings.intern(row[1]) for row in rows],
                [row[2] for row in rows],
                [row[3] for row in rows],
            ])
        written = 0
        with open(destination, "wb") as handle:
            written += write_frame(
                handle,
                [strings.values, self.synopsis_refs, self.unresolved_refs,
                 len(entry_documents)],
                magic=REDUCE_MAGIC, version=REDUCE_VERSION,
            )
            for document in entry_documents:
                written += write_frame(handle, document,
                                       magic=REDUCE_MAGIC,
                                       version=REDUCE_VERSION)
        return written

    # -- rounding ------------------------------------------------------
    def finalize(self) -> StitchedProfile:
        """Round every node exactly once and build the merged profile."""
        profile = StitchedProfile()
        for (stage, context), root in self.entries.items():
            cct = CallingContextTree(context)
            stack = [(cct.root, root)]
            while stack:
                dst, src = stack.pop()
                if src.partials:
                    dst.self_weight = math.fsum(src.partials)
                dst.call_count = src.call_count
                for name, src_child in src.children.items():
                    stack.append((dst.child(name), src_child))
            profile.entries[(stage, context)] = cct
        profile.synopsis_refs = self.synopsis_refs
        profile.unresolved_refs = self.unresolved_refs
        return profile


# ----------------------------------------------------------------------
# The reduce tree
# ----------------------------------------------------------------------
def plan_groups(count: int, group_size: int) -> List[List[int]]:
    """Contiguous shard-index groups: ``[[0..g-1], [g..2g-1], ...]``."""
    if group_size < 1:
        raise ValueError("group size must be >= 1")
    return [
        list(range(start, min(start + group_size, count)))
        for start in range(0, count, group_size)
    ]


def default_group_size(count: int) -> int:
    """≈√N groups of ≈√N shards keeps both reduce levels balanced."""
    return max(2, math.ceil(math.sqrt(count)))


def hierarchical_stitch(
    groups: Sequence[Sequence[str]],
    group_size: int = 0,
    strict: bool = True,
) -> StitchedProfile:
    """Two-level reduce over per-shard dump groups.

    Byte-identical to :func:`repro.parallel.stitching.stitch_groups`
    over the same groups, for every ``group_size`` (see module
    docstring).  ``group_size=0`` picks ≈√N.  Each group's merged
    partials are spooled to a temporary artifact, and the artifacts
    are then folded back frame by frame.
    """
    from repro.parallel.stitching import (
        _tag_unresolved,
        stitch_group,
        stitch_groups,
    )

    groups = [list(group) for group in groups]
    if len(groups) <= 1:
        return stitch_groups(groups, strict=strict)
    if not group_size:
        group_size = default_group_size(len(groups))
    with tempfile.TemporaryDirectory(prefix="whodunit-reduce-") as reduce_dir:
        artifacts = []
        for group_index, shard_indices in enumerate(
            plan_groups(len(groups), group_size)
        ):
            accumulator = ProfileAccumulator()
            for shard_index in shard_indices:
                accumulator.add_profile(_tag_unresolved(
                    stitch_group(groups[shard_index], strict),
                    f"@shard{shard_index}",
                ))
            artifacts.append(os.path.join(
                reduce_dir, GROUP_FILE.format(index=group_index)
            ))
            accumulator.write(artifacts[-1])
        accumulator = ProfileAccumulator()
        for path in artifacts:
            accumulator.absorb_file(path)
        return accumulator.finalize()
