"""Graphviz (dot) export of transactional profiles.

The paper presents its profiles as graphs: solid edges for procedure
calls, dashed edges for transaction contexts established by Whodunit,
triangles with CPU percentages (Figures 8–10).  These functions emit
the same structure as ``.dot`` text for rendering with graphviz.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.core.cct import CCTNode
from repro.core.context import TransactionContext
from repro.core.profiler import LOCAL, StageRuntime


def _quote(label: str) -> str:
    return '"' + label.replace('"', r"\"") + '"'


def _context_id(index: int) -> str:
    return f"ctx{index}"


def stage_profile_dot(stage: StageRuntime, min_share: float = 0.5) -> str:
    """One cluster per transaction context; solid call edges inside,

    dashed edges (the paper's flow edges) linking each context cluster
    to its root.
    """
    total = stage.total_weight()
    title = "stage " + stage.name
    if not stage.ccts:
        title += " (empty profile)"
    lines: List[str] = [
        "digraph transactional_profile {",
        "  rankdir=TB;",
        "  node [shape=box, fontsize=10];",
        f"  label={_quote(title)};",
    ]
    if total == 0:
        lines.append("}")
        return "\n".join(lines)

    ordered = sorted(stage.ccts.items(), key=lambda kv: -kv[1].total_weight())
    for index, (label, cct) in enumerate(ordered):
        share = 100.0 * cct.total_weight() / total if total else 0.0
        if share < min_share:
            continue
        cluster = _context_id(index)
        title = "local" if label == LOCAL else " -> ".join(
            e if isinstance(e, str) else repr(e) for e in label.elements
        )
        lines.append(f"  subgraph cluster_{cluster} {{")
        lines.append(f"    label={_quote(f'{title}  ({share:.1f}%)')};")
        lines.append("    style=dashed;")
        lines.extend(_emit_cct(cct.root, cluster, total, min_share))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _emit_cct(root: CCTNode, prefix: str, total: float, min_share: float) -> List[str]:
    lines: List[str] = []
    counter = [0]
    ids: Dict[int, str] = {}

    def node_id(node: CCTNode) -> str:
        key = id(node)
        if key not in ids:
            ids[key] = f"{prefix}_n{counter[0]}"
            counter[0] += 1
        return ids[key]

    def emit(node: CCTNode) -> None:
        for name in sorted(node.children):
            child = node.children[name]
            share = 100.0 * child.subtree_weight() / total if total else 0.0
            if share < min_share:
                continue
            label = f"{name}\\n{share:.1f}%"
            lines.append(f"    {node_id(child)} [label={_quote(label)}];")
            if node is not root:
                lines.append(f"    {node_id(node)} -> {node_id(child)};")
            emit(child)

    emit(root)
    return lines


def flow_graph_dot(edges: Iterable) -> str:
    """The Fig-7-style cross-stage graph as dot (dashed request edges)."""
    lines = [
        "digraph flow {",
        "  rankdir=LR;",
        "  node [shape=box, fontsize=10];",
    ]
    nodes = {}

    def node_for(stage: str, context: TransactionContext) -> str:
        key = (stage, context)
        if key not in nodes:
            nodes[key] = f"n{len(nodes)}"
            title = " -> ".join(
                e if isinstance(e, str) else repr(e) for e in context.elements
            )
            lines.append(
                f"  {nodes[key]} [label={_quote(stage + chr(10) + title)}];"
            )
        return nodes[key]

    edge_lines = []
    for edge in edges:
        src = node_for(edge.from_stage, edge.from_context)
        dst = node_for(edge.to_stage, edge.to_context)
        edge_lines.append(f"  {src} -> {dst} [style=dashed, label=request];")
    lines.extend(edge_lines)
    lines.append("}")
    return "\n".join(lines)
