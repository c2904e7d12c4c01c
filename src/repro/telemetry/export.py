"""Standard-format exporters for spans and metrics.

Three formats:

- :func:`to_chrome_trace` — Chrome trace-event JSON (the
  ``traceEvents`` array format), loadable in Perfetto / ``chrome://
  tracing``.  Each stage becomes a process (with a process_name
  metadata event); complete spans are ``ph="X"`` events, instants are
  ``ph="i"``; virtual time maps to microseconds.
- :func:`to_otlp_json` — an OTLP-style JSON span dump
  (``resourceSpans`` → ``scopeSpans`` → ``spans`` with hex trace/span
  ids, span links, and nanosecond timestamps).
- :func:`prometheus_text` — Prometheus text exposition of a
  :class:`~repro.telemetry.metrics.MetricsRegistry` snapshot.

Virtual time zero maps to Unix time zero; runs are deterministic, so
keeping timestamps anchored at the virtual epoch makes exports
byte-for-byte reproducible across identical seeds.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.spans import Span, SpanRecorder


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace_events(recorder: SpanRecorder) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for a recorder's completed spans."""
    pids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []

    def pid_for(stage: Any) -> int:
        key = stage if stage is not None else "<none>"
        pid = pids.get(key)
        if pid is None:
            pid = len(pids) + 1
            pids[key] = pid
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "ts": 0,
                    "name": "process_name",
                    "args": {"name": key},
                }
            )
        return pid

    for span in recorder.spans:
        pid = pid_for(span.stage)
        tid = span.thread if span.thread is not None else 0
        args: Dict[str, Any] = {
            "trace": f"{span.trace_id:032x}",
            "span": f"{span.span_id:016x}",
        }
        if span.attrs:
            args.update(span.attrs)
        if span.links:
            args["links"] = [
                {"trace": f"{t:032x}", "span": f"{s:016x}"} for t, s in span.links
            ]
        base = {
            "name": span.name,
            "cat": span.category,
            "pid": pid,
            "tid": tid,
            "ts": span.start * 1e6,
            "args": args,
        }
        if span.is_instant:
            base["ph"] = "i"
            base["s"] = "t"
        else:
            base["ph"] = "X"
            base["dur"] = span.duration * 1e6
        events.append(base)
    return events


def to_chrome_trace(recorder: SpanRecorder) -> Dict[str, Any]:
    return {
        "traceEvents": chrome_trace_events(recorder),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry", "clock": "virtual"},
    }


def write_chrome_trace(path: str, recorder: SpanRecorder) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(recorder), handle, indent=1)


# ----------------------------------------------------------------------
# OTLP-style JSON span dump
# ----------------------------------------------------------------------
def _otlp_attrs(attrs: Dict[str, Any]) -> List[Dict[str, Any]]:
    out = []
    for key, value in attrs.items():
        if isinstance(value, bool):
            typed = {"boolValue": value}
        elif isinstance(value, int):
            typed = {"intValue": str(value)}
        elif isinstance(value, float):
            typed = {"doubleValue": value}
        else:
            typed = {"stringValue": str(value)}
        out.append({"key": key, "value": typed})
    return out


def _otlp_span(span: Span) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "traceId": f"{span.trace_id:032x}",
        "spanId": f"{span.span_id:016x}",
        "name": span.name,
        "kind": "SPAN_KIND_INTERNAL",
        "startTimeUnixNano": str(int(round(span.start * 1e9))),
        "endTimeUnixNano": str(int(round((span.end or span.start) * 1e9))),
        "attributes": _otlp_attrs({"category": span.category, **span.attrs}),
    }
    if span.parent_id:
        record["parentSpanId"] = f"{span.parent_id:016x}"
    if span.links:
        record["links"] = [
            {"traceId": f"{t:032x}", "spanId": f"{s:016x}"} for t, s in span.links
        ]
    return record


def to_otlp_json(recorder: SpanRecorder) -> Dict[str, Any]:
    by_stage: Dict[Any, List[Span]] = {}
    for span in recorder.spans:
        by_stage.setdefault(span.stage or "<none>", []).append(span)
    resource_spans = []
    for stage, spans in sorted(by_stage.items()):
        resource_spans.append(
            {
                "resource": {
                    "attributes": _otlp_attrs({"service.name": stage}),
                },
                "scopeSpans": [
                    {
                        "scope": {"name": "repro.telemetry"},
                        "spans": [_otlp_span(span) for span in spans],
                    }
                ],
            }
        )
    return {"resourceSpans": resource_spans}


def write_otlp_trace(path: str, recorder: SpanRecorder) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_otlp_json(recorder), handle, indent=1)


def write_trace(path: str, recorder: SpanRecorder, trace_format: str) -> None:
    """Write ``recorder``'s spans as ``"chrome"`` or ``"otlp"`` JSON."""
    if trace_format == "otlp":
        write_otlp_trace(path, recorder)
    else:
        write_chrome_trace(path, recorder)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _fmt_labels(labels: Iterable, extra: Dict[str, str] = None) -> str:
    pairs = [f'{k}="{v}"' for k, v in labels]
    for k, v in (extra or {}).items():
        pairs.append(f'{k}="{v}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for name, family in registry.families():
        first = family[0]
        if first.help:
            lines.append(f"# HELP {name} {first.help}")
        lines.append(f"# TYPE {name} {first.kind}")
        for metric in family:
            if isinstance(metric, (Counter, Gauge)):
                lines.append(
                    f"{name}{_fmt_labels(metric.labels)} {_fmt_value(metric.value)}"
                )
            elif isinstance(metric, Histogram):
                for bound, cumulative in metric.cumulative():
                    le = _fmt_labels(metric.labels, {"le": _fmt_value(bound)})
                    lines.append(f"{name}_bucket{le} {cumulative}")
                labels = _fmt_labels(metric.labels)
                lines.append(f"{name}_sum{labels} {_fmt_value(metric.sum)}")
                lines.append(f"{name}_count{labels} {metric.count}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(path: str, registry: MetricsRegistry) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(registry))
