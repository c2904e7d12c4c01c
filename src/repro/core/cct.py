"""Calling Context Trees — the call-path profiler core (csprof analog).

A CCT (Ammons/Ball/Larus, PLDI'97) stores one node per distinct call
path; profile samples accumulate on the node for the sampled path.
Whodunit labels each CCT's root with a transaction context, keeping one
CCT per context (§7.1), and stitches CCTs from different stages together
post-mortem.

Samples carry float weights: in deterministic sampling mode a slice of
CPU time contributes its expected sample count ``time * frequency``
directly, which makes profiles exact and tests stable; stochastic mode
records integer sample hits.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


class CCTNode:
    """One calling context (call path) in the tree."""

    __slots__ = ("name", "children", "self_weight", "call_count")

    def __init__(self, name: str):
        self.name = name
        self.children: Dict[str, CCTNode] = {}
        self.self_weight = 0.0
        self.call_count = 0

    def child(self, name: str) -> "CCTNode":
        """Get or create the child for ``name``."""
        node = self.children.get(name)
        if node is None:
            node = CCTNode(name)
            self.children[name] = node
        return node

    def subtree_weight(self) -> float:
        """Inclusive weight: this node plus all descendants.

        Iterative so pathologically deep call paths cannot overflow the
        interpreter stack.
        """
        total = 0.0
        stack = [self]
        while stack:
            node = stack.pop()
            total += node.self_weight
            stack.extend(node.children.values())
        return total

    def walk(self) -> Iterator["CCTNode"]:
        """Pre-order traversal of this subtree (children in name order).

        Uses an explicit stack: deep trees neither recurse nor pay the
        per-level generator-delegation cost of ``yield from`` chains.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            children = node.children
            if children:
                for name in sorted(children, reverse=True):
                    stack.append(children[name])

    def to_rows(self) -> List[Tuple[int, str, float, int]]:
        """Flatten the subtree into pre-order ``(parent, name, w, c)`` rows.

        Row 0 is this node with parent index -1; children are emitted in
        sorted name order, so the row list is canonical for a given tree.
        The flat form nests nothing, which is what lets the compact
        profile format serialise arbitrarily deep call paths without
        hitting the JSON encoder's nesting limit.
        """
        rows: List[Tuple[int, str, float, int]] = []
        stack: List[Tuple["CCTNode", int]] = [(self, -1)]
        while stack:
            node, parent = stack.pop()
            index = len(rows)
            rows.append((parent, node.name, node.self_weight, node.call_count))
            children = node.children
            if children:
                for name in sorted(children, reverse=True):
                    stack.append((children[name], index))
        return rows

    @staticmethod
    def attach_rows(root: "CCTNode", rows: Sequence[Sequence]) -> None:
        """Rebuild a subtree flattened by :meth:`to_rows` onto ``root``.

        Row 0 (parent -1) maps onto ``root`` itself; its persisted name
        is ignored in favour of the existing root's.
        """
        nodes: List[CCTNode] = []
        for parent, name, weight, count in rows:
            if parent < 0:
                node = root
            else:
                node = nodes[parent].child(name)
            node.self_weight = float(weight)
            node.call_count = int(count)
            nodes.append(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CCTNode {self.name} self={self.self_weight:.3f}>"


class CallingContextTree:
    """A CCT whose root is annotated with a transaction-context label."""

    def __init__(self, label: Any = None):
        self.label = label
        self.root = CCTNode("<root>")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_sample(self, path: Sequence[str], weight: float = 1.0) -> CCTNode:
        """Accumulate ``weight`` samples on the node for ``path``."""
        if weight < 0:
            raise ValueError("negative sample weight")
        node = self.root
        for frame_name in path:
            node = node.child(frame_name)
        node.self_weight += weight
        return node

    def record_call(self, path: Sequence[str]) -> CCTNode:
        """Count one invocation of the path's leaf procedure (gprof-style)."""
        node = self.root
        for frame_name in path:
            node = node.child(frame_name)
        node.call_count += 1
        return node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total_weight(self) -> float:
        return self.root.subtree_weight()

    def lookup(self, path: Sequence[str]) -> Optional[CCTNode]:
        """The node for an exact call path, or None."""
        node = self.root
        for frame_name in path:
            node = node.children.get(frame_name)
            if node is None:
                return None
        return node

    def weight_of(self, path: Sequence[str]) -> float:
        """Self weight accumulated exactly at ``path`` (0 if absent)."""
        node = self.lookup(path)
        return node.self_weight if node else 0.0

    def inclusive_weight_of(self, path: Sequence[str]) -> float:
        """Inclusive weight of the subtree rooted at ``path``."""
        node = self.lookup(path)
        return node.subtree_weight() if node else 0.0

    def flatten(self) -> Dict[Tuple[str, ...], float]:
        """Map of call path -> self weight for all sampled paths."""
        out: Dict[Tuple[str, ...], float] = {}
        # Same pre-order as walk(), carrying each node's path with it.
        stack: List[Tuple[CCTNode, Tuple[str, ...]]] = [(self.root, ())]
        while stack:
            node, path = stack.pop()
            if node.self_weight and path:
                out[path] = node.self_weight
            children = node.children
            if children:
                for name in sorted(children, reverse=True):
                    stack.append((children[name], path + (name,)))
        return out

    def by_frame(self) -> Dict[str, float]:
        """Self weight aggregated per frame name, regardless of path."""
        out: Dict[str, float] = {}
        for node in self.root.walk():
            if node is self.root or not node.self_weight:
                continue
            out[node.name] = out.get(node.name, 0.0) + node.self_weight
        return out

    def node_count(self) -> int:
        return sum(1 for _ in self.root.walk()) - 1

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def merge(self, other: "CallingContextTree") -> None:
        """Accumulate another CCT's weights and call counts into this one.

        Iterative (explicit worklist) so merging trees with very deep
        call paths cannot raise ``RecursionError``.
        """
        stack = [(self.root, other.root)]
        while stack:
            dst, src = stack.pop()
            dst.self_weight += src.self_weight
            dst.call_count += src.call_count
            for name, src_child in src.children.items():
                stack.append((dst.child(name), src_child))

    def copy(self) -> "CallingContextTree":
        clone = CallingContextTree(self.label)
        clone.merge(self)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CCT label={self.label!r} nodes={self.node_count()} "
            f"weight={self.total_weight():.3f}>"
        )
