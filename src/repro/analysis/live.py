"""Rendering for the online streaming stitcher's live queries.

The batch renderers in :mod:`repro.analysis.render` draw whole
post-mortem profiles; these draw the rolling view a
:class:`~repro.live.LiveCollector` serves *mid-run* — the top-K
transaction contexts, per-stage weight, resolution completeness and
crosstalk pressure at the collector's current virtual time.
"""

from __future__ import annotations

from typing import List

from repro.analysis.render import _format_context


def render_live_top(collector, k: int = 10, min_share: float = 0.0) -> str:
    """A "top contexts right now" table from a live collector.

    Answers without stopping the simulation: the rows come from the
    collector's scalar index, which never touches evicted trees.
    """
    rows = collector.top_contexts(k)
    weights = collector.stage_weights()
    attempted, unresolved = collector.stitch_stats()
    lines: List[str] = [
        f"=== live profile @ t={collector.now:.3f}s "
        f"({collector.samples} samples, {collector.events_absorbed} events) ==="
    ]
    if attempted:
        pct = 100.0 * (attempted - unresolved) / attempted
        lines.append(
            f"(resolution: {attempted - unresolved}/{attempted} synopsis "
            f"references resolvable right now; completeness {pct:.1f}%)"
        )
    lines.append(
        "(resident CCTs: "
        f"{collector.resident_contexts}, peak {collector.peak_resident}, "
        f"{collector.evictions} evicted / {collector.revivals} revived)"
    )
    if not rows:
        lines.append("(no samples yet)")
        return "\n".join(lines)
    lines.append("")
    lines.append(f"{'rank':>4}  {'stage':<12} {'weight':>12} {'share':>7}  context")
    for rank, (stage, context, weight, share) in enumerate(rows, start=1):
        if 100.0 * share < min_share:
            continue
        lines.append(
            f"{rank:>4}  {stage:<12} {weight:>12.1f} {100.0 * share:>6.1f}%  "
            f"{_format_context(context)}"
        )
    if weights:
        lines.append("")
        lines.append("stage totals: " + ", ".join(
            f"{stage}={weight:.1f}" for stage, weight in sorted(weights.items())
        ))
    return "\n".join(lines)


def render_live_crosstalk(collector, limit: int = 10) -> str:
    """The heaviest live crosstalk pairs, Table-1 style."""
    rows = collector.crosstalk_pairs()[: max(0, limit)]
    if not rows:
        return "(no crosstalk observed)"
    lines = [
        f"{'waiter':<28} {'holder':<28} {'count':>7} {'mean ms':>9} {'max ms':>9}"
    ]
    for waiter, holder, count, _total, mean, peak in rows:
        lines.append(
            f"{str(waiter):<28} {str(holder):<28} {count:>7} "
            f"{1e3 * mean:>9.2f} {1e3 * peak:>9.2f}"
        )
    return "\n".join(lines)


def render_live_view(collector, k: int = 10) -> str:
    """The end-of-run live view: the top-``k`` table, then the
    crosstalk pairs if any lock waits were observed."""
    blocks = [render_live_top(collector, k=k)]
    if collector.crosstalk_pairs():
        blocks.append(render_live_crosstalk(collector))
    return "\n\n".join(blocks)
