"""Text summary of a live-telemetry session.

``render_telemetry`` complements the post-mortem profile renderers: a
compact table of span volume by category/stage, trace statistics, and
the headline metrics — what an operator would glance at after (or
during) a run, before loading the full trace into Perfetto.  Its input
is plain data (:func:`span_summary` per session plus one metrics
registry), so a sharded run's summary is the sum of what each shard
returned.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry


def span_summary(recorder) -> Dict[str, Any]:
    """The picklable span statistics :func:`render_telemetry` prints,
    for one span recorder."""
    table: Dict[Tuple[str, str], List[Any]] = {}
    for span in recorder.spans:
        cell = table.setdefault((span.category, span.stage or "<none>"), [0, 0.0])
        cell[0] += 1
        cell[1] += span.duration
    traces = recorder.traces()
    return {
        "completed": recorder.completed,
        "dropped": recorder.dropped,
        "open": recorder.open_spans(),
        "traces": len(traces),
        "multi_span_traces": sum(1 for spans in traces.values() if len(spans) > 1),
        "table": table,
    }


def _span_table(table: Dict[Tuple[str, str], List[Any]]) -> List[str]:
    if not table:
        return ["(no spans recorded)"]
    header = f"{'category':<20} {'stage':<16} {'spans':>8} {'total s':>10}"
    lines = [header, "-" * len(header)]
    for (category, stage), (count, total) in sorted(
        table.items(), key=lambda item: (-item[1][0], item[0])
    ):
        lines.append(f"{category:<20} {stage:<16} {count:>8} {total:>10.4f}")
    return lines


def _metric_lines(metrics: Optional[MetricsRegistry], limit: int) -> List[str]:
    if metrics is None or not len(metrics):
        return ["(metrics disabled — telemetry mode 'spans')"]
    lines = []
    shown = 0
    for metric in metrics.collect():
        if shown >= limit:
            lines.append(f"... ({len(metrics) - shown} more instruments)")
            break
        labels = (
            "{" + ",".join(f"{k}={v}" for k, v in metric.labels) + "}"
            if metric.labels
            else ""
        )
        if isinstance(metric, Histogram):
            lines.append(
                f"{metric.name}{labels}  count={metric.count} "
                f"mean={metric.mean:.6g} sum={metric.sum:.6g}"
            )
        elif isinstance(metric, (Counter, Gauge)):
            lines.append(f"{metric.name}{labels}  {metric.value:.6g}")
        shown += 1
    return lines


def render_telemetry(
    summaries: Sequence[Dict[str, Any]],
    metrics: Optional[MetricsRegistry] = None,
    metric_limit: int = 40,
) -> str:
    """One-page text summary of one or more sessions' spans (their
    :func:`span_summary` dicts, summed) and their metrics (``None`` or
    an empty registry: spans-only telemetry)."""
    totals = dict.fromkeys(
        ("completed", "dropped", "open", "traces", "multi_span_traces"), 0
    )
    table: Dict[Tuple[str, str], List[Any]] = {}
    for summary in summaries:
        for key in totals:
            totals[key] += summary[key]
        for key, (count, total) in summary["table"].items():
            cell = table.setdefault(key, [0, 0.0])
            cell[0] += count
            cell[1] += total
    blocks = [
        "=== live telemetry summary ===",
        f"spans: {totals['completed']} completed"
        + (f" ({totals['dropped']} dropped by ring buffer)" if totals["dropped"] else "")
        + f", {totals['open']} still open",
        f"traces: {totals['traces']} ({totals['multi_span_traces']} spanning "
        "more than one span)",
        "",
    ]
    blocks.extend(_span_table(table))
    blocks.append("")
    blocks.append("-- metrics --")
    blocks.extend(_metric_lines(metrics, metric_limit))
    return "\n".join(blocks)
