"""Text rendering of transactional profiles.

The paper presents its results as annotated call-path trees with dashed
edges for transaction flow (Figures 8–10) and tables for crosstalk
(Table 1).  These functions produce the equivalent plain-text artifacts
from live :class:`~repro.core.profiler.StageRuntime` state or a
stitched profile.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.cct import CallingContextTree, CCTNode
from repro.core.context import TransactionContext
from repro.core.crosstalk import CrosstalkRecorder
from repro.core.profiler import LOCAL, StageRuntime
from repro.core.stitch import StitchedProfile


def _format_context(context: TransactionContext) -> str:
    if context.is_empty:
        return "<local>"
    return " --> ".join(
        element if isinstance(element, str) else repr(element)
        for element in context.elements
    )


def render_cct(
    cct: CallingContextTree,
    total: Optional[float] = None,
    min_share: float = 0.5,
    indent: str = "  ",
) -> str:
    """Render one CCT as an indented tree with inclusive percentages.

    ``total`` sets the denominator (defaults to the CCT's own weight);
    subtrees below ``min_share`` percent are elided.
    """
    denominator = total if total is not None else cct.total_weight()
    if denominator <= 0:
        return "(no samples)"
    lines: List[str] = []

    def visit(node: CCTNode, depth: int) -> None:
        for name in sorted(
            node.children,
            key=lambda n: -node.children[n].subtree_weight(),
        ):
            child = node.children[name]
            share = 100.0 * child.subtree_weight() / denominator
            if share < min_share:
                continue
            self_share = 100.0 * child.self_weight / denominator
            lines.append(
                f"{indent * depth}{name}  [{share:5.1f}%"
                + (f", self {self_share:.1f}%" if child.self_weight else "")
                + "]"
            )
            visit(child, depth + 1)

    visit(cct.root, 0)
    return "\n".join(lines) if lines else "(all subtrees below threshold)"


def render_stage_profile(stage: StageRuntime, min_share: float = 0.5) -> str:
    """Fig 8/9/10-style text: one tree per transaction context, with

    each context's share of the stage's total samples.
    """
    total = stage.total_weight()
    if not stage.ccts:
        return f"=== {stage.name}: (empty profile) ==="
    if total == 0:
        return f"=== {stage.name}: no samples ==="
    blocks: List[str] = [f"=== transactional profile of stage {stage.name} ==="]
    ordered = sorted(
        stage.ccts.items(), key=lambda item: -item[1].total_weight()
    )
    for label, cct in ordered:
        share = 100.0 * cct.total_weight() / total if total else 0.0
        if share < min_share:
            continue
        marker = "(local)" if label == LOCAL else "(flow)"
        blocks.append("")
        blocks.append(
            f"-- context {marker} {_format_context(label)}  [{share:.1f}% of stage]"
        )
        blocks.append(render_cct(cct, total=total, min_share=min_share))
    return "\n".join(blocks)


def render_stitched_profile(profile: StitchedProfile, min_share: float = 0.5) -> str:
    """End-to-end profile: per stage, per fully resolved context.

    A partial stitch (non-strict resolution left ``<unresolved:...>``
    placeholders after crash amnesia or missing dumps) is announced with
    its completeness ratio; a fully resolved profile renders exactly as
    before.
    """
    blocks: List[str] = ["=== end-to-end transactional profile ==="]
    if profile.unresolved_refs:
        blocks.append(
            f"(partial stitch: {profile.unresolved_refs} of "
            f"{profile.synopsis_refs} synopsis references unresolved; "
            f"completeness {100.0 * profile.completeness:.1f}%)"
        )
    if not profile.entries:
        blocks.append("(empty profile)")
        return "\n".join(blocks)
    for stage_name in profile.stages():
        stage_total = profile.stage_weight(stage_name)
        blocks.append("")
        blocks.append(f"## stage {stage_name}")
        if stage_total == 0:
            blocks.append("(no samples)")
            continue
        contexts = sorted(
            profile.contexts_of(stage_name),
            key=lambda c: -profile.cct(stage_name, c).total_weight(),
        )
        for context in contexts:
            cct = profile.cct(stage_name, context)
            share = 100.0 * cct.total_weight() / stage_total if stage_total else 0.0
            if share < min_share:
                continue
            blocks.append(
                f"-- context {_format_context(context)}  [{share:.1f}%]"
            )
            blocks.append(render_cct(cct, total=stage_total, min_share=min_share))
    return "\n".join(blocks)


def render_flow_graph(edges) -> str:
    """Fig 7-style arrows: which stage context invoked which."""
    if not edges:
        return "(no cross-stage flow recorded)"
    lines = ["=== cross-stage request edges ==="]
    for edge in edges:
        lines.append(
            f"{edge.from_stage} [{_format_context(edge.from_context)}]"
        )
        lines.append(
            f"    ==request==> {edge.to_stage} "
            f"[{_format_context(edge.to_context)}]"
        )
    return "\n".join(lines)


def render_fault_report(report: dict) -> str:
    """Fault-injection totals plus per-tier recovery counters."""
    lines = ["=== fault injection report ==="]
    injected = report.get("injected", {})
    if injected:
        lines.append(
            "injected: "
            + ", ".join(f"{key}={injected[key]}" for key in sorted(injected))
        )
    else:
        lines.append("injected: (none)")
    lines.append(
        f"client recovery: resends={report.get('client_resends', 0)} "
        f"reconnects={report.get('client_reconnects', 0)} "
        f"stale_responses={report.get('client_stale_responses', 0)}"
    )
    lines.append(f"db call timeouts: {report.get('db_timeouts', 0)}")
    for key in sorted(report):
        if key.endswith("_retransmits"):
            stage = key[: -len("_retransmits")]
            violations = report.get(f"{stage}_violations", {})
            violations_text = (
                ", ".join(f"{k}={v}" for k, v in sorted(violations.items()))
                or "none"
            )
            lines.append(
                f"stage {stage}: retransmits={report[key]} "
                f"abandoned={report.get(f'{stage}_abandoned', 0)} "
                f"crashes={report.get(f'{stage}_crashes', 0)} "
                f"violations: {violations_text}"
            )
    return "\n".join(lines)


def render_crosstalk(recorder: CrosstalkRecorder, limit: int = 20) -> str:
    """Crosstalk pair table: who waits on whom, for how long.

    ``recorder`` is anything with a ``pair_table()`` of ``(waiter,
    holder, count, mean, max)`` rows, heaviest first: a live
    :class:`CrosstalkRecorder` or a loaded
    :class:`~repro.core.persist.RunProfile`.
    """
    rows = recorder.pair_table()[:limit]
    if not rows:
        return "(no crosstalk recorded)"
    header = f"{'waiting':<24} {'holding':<24} {'count':>6} {'mean ms':>9} {'max ms':>9}"
    lines = [header, "-" * len(header)]
    for waiter, holder, count, mean, peak in rows:
        lines.append(
            f"{str(waiter):<24} {str(holder):<24} {count:>6} "
            f"{1000 * mean:>9.2f} {1000 * peak:>9.2f}"
        )
    return "\n".join(lines)
