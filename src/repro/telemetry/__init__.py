"""Live telemetry: transaction spans, runtime metrics, trace export.

Whodunit reconstructs transactions *post-mortem*; this package observes
the very same flows *online*.  It reuses the machinery the profiler
already threads through every layer — transaction contexts, 4-byte
synopses, stage runtimes — to emit structured spans (one trace per
transaction, joined across stages by the synopsis chain) and runtime
metrics, streamed to sinks as virtual time advances and exportable as
Chrome trace-event JSON (Perfetto), OTLP-style JSON, or Prometheus
text.

Design rule: **zero cost when off**.  There is a single module-level
switch (:data:`ACTIVE`); instrumented constructors capture it once, so
a disabled run executes at most one ``is None`` test per already-heavy
operation and *nothing at all* in per-event hot loops (the kernel and
CPU capture the switch at construction time).  Enable it *before*
building the simulated system::

    from repro import telemetry
    tele = telemetry.install("full")        # or "spans"
    system = TpcwSystem(...)
    system.run(...)
    export.write_chrome_trace("t.json", tele.spans)
    telemetry.uninstall()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Optional

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import Span, SpanRecorder
from repro.telemetry.sinks import (
    CallbackSink,
    CollectingSink,
    JsonLinesSink,
    TelemetrySink,
)

MODES = ("off", "spans", "full")


class Telemetry:
    """The active telemetry state: a span recorder plus (in ``full``
    mode) a metrics registry with the shared hot-path instruments
    pre-created so instrumentation sites never pay a registry lookup.
    """

    def __init__(self, mode: str = "full", span_capacity: Optional[int] = None):
        if mode not in ("spans", "full"):
            raise ValueError(f"telemetry mode must be 'spans' or 'full', got {mode!r}")
        self.mode = mode
        self.wants_metrics = mode == "full"
        self.spans = SpanRecorder(capacity=span_capacity)
        self.metrics = MetricsRegistry()
        if self.wants_metrics:
            m = self.metrics
            self.channel_messages = m.counter(
                "repro_channel_messages_total", "messages delivered on channels"
            )
            self.channel_bytes = m.counter(
                "repro_channel_bytes_total", "payload bytes delivered on channels"
            )
            self.rpc_requests = m.counter(
                "repro_rpc_requests_total", "RPC requests sent"
            )
            self.rpc_responses = m.counter(
                "repro_rpc_responses_total", "RPC responses sent"
            )
            self.rpc_roundtrip = m.histogram(
                "repro_rpc_roundtrip_seconds", "RPC round-trip virtual time"
            )
            self.spans.pending_gauge = m.gauge(
                "repro_telemetry_pending_synopses",
                "registered send-span synopses awaiting adoption (LRU-bounded)",
            )
            self.spans.error_counter = m.counter(
                "repro_telemetry_sink_errors_total",
                "sinks detached after raising from a telemetry callback",
            )
        else:
            self.channel_messages = None
            self.channel_bytes = None
            self.rpc_requests = None
            self.rpc_responses = None
            self.rpc_roundtrip = None

    def add_sink(self, sink: TelemetrySink) -> None:
        self.spans.add_sink(sink)

    @property
    def sink_errors(self) -> int:
        """Sinks detached after raising from a telemetry callback."""
        return self.spans.sink_errors

    def close(self) -> None:
        """Flush and close every attached sink (idempotent)."""
        self.spans.close_sinks()


# The single module-level switch.  ``None`` = telemetry off.
ACTIVE: Optional[Telemetry] = None


def install(mode: str = "full", span_capacity: Optional[int] = None) -> Optional[Telemetry]:
    """Enable telemetry globally; returns the active :class:`Telemetry`.

    ``mode='off'`` uninstalls and returns ``None``.  Objects built
    *before* install captured the previous switch and stay
    uninstrumented — enable telemetry before constructing the system.
    """
    global ACTIVE
    if mode == "off":
        ACTIVE = None
        return None
    ACTIVE = Telemetry(mode, span_capacity=span_capacity)
    return ACTIVE


def uninstall() -> None:
    """Disable telemetry globally (closing any attached sinks)."""
    global ACTIVE
    previous, ACTIVE = ACTIVE, None
    if previous is not None:
        previous.close()


def active() -> Optional[Telemetry]:
    return ACTIVE


@contextmanager
def enabled(mode: str = "full", span_capacity: Optional[int] = None):
    """Scoped enable (tests): installs on entry, uninstalls on exit."""
    tele = install(mode, span_capacity=span_capacity)
    try:
        yield tele
    finally:
        uninstall()


def admit(stage: str, kernel: Any, attrs: Optional[Dict[str, Any]] = None) -> None:
    """Record a request-admission event at a server's front door.

    Called by the ``apps/*`` accept loops; a no-op when telemetry is
    off.  Emits an instant span and (in full mode) bumps the per-stage
    admission counter.
    """
    tele = ACTIVE
    if tele is None:
        return
    tele.spans.instant("admit", "app.admission", stage, kernel.now, attrs=attrs)
    if tele.wants_metrics:
        tele.metrics.counter(
            "repro_requests_admitted_total", "requests admitted by server", stage=stage
        ).inc()


__all__ = [
    "ACTIVE",
    "DEFAULT_BUCKETS",
    "CallbackSink",
    "CollectingSink",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLinesSink",
    "MetricsRegistry",
    "MODES",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "TelemetrySink",
    "active",
    "admit",
    "enabled",
    "install",
    "uninstall",
]
