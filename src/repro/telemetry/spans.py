"""Structured spans: one trace per transaction, live, in virtual time.

A :class:`Span` is a named interval of virtual time attributed to a
stage and (optionally) a simulated thread.  Spans form traces exactly
the way Whodunit's transaction contexts do: when a stage sends a
request it registers the 4-byte synopsis it piggy-backed, and when the
callee's receive wrapper adopts that synopsis the hop span *joins the
sender's trace* and records a span link back to the send span.  The
synopsis chain therefore doubles as the trace id — no second
propagation mechanism is needed, which is the whole point of building
telemetry on top of the paper's context machinery.

Completed spans are delivered to streaming sinks the moment they end
(i.e. as virtual time advances), not at teardown; the recorder also
retains them (optionally ring-buffered) for batch exporters.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple


class Span:
    """One interval (or instant) of virtual time in a trace."""

    __slots__ = (
        "span_id",
        "trace_id",
        "parent_id",
        "name",
        "category",
        "stage",
        "thread",
        "start",
        "end",
        "_attrs",
        "_links",
    )

    def __init__(
        self,
        span_id: int,
        trace_id: int,
        name: str,
        category: str,
        stage: Optional[str],
        thread: Optional[int],
        start: float,
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.stage = stage
        self.thread = thread
        self.start = start
        self.end: Optional[float] = None
        # attrs/links materialise lazily: most spans carry neither, and
        # a dict plus a list per span is the dominant allocation cost of
        # spans-mode telemetry.
        self._attrs = attrs
        self._links: Optional[List[Tuple[int, int]]] = None

    @property
    def attrs(self) -> Dict[str, Any]:
        attrs = self._attrs
        if attrs is None:
            attrs = self._attrs = {}
        return attrs

    @property
    def links(self) -> List[Tuple[int, int]]:
        """(trace_id, span_id) pairs — e.g. the send span a synopsis
        chain joined this span to."""
        links = self._links
        if links is None:
            links = self._links = []
        return links

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def is_instant(self) -> bool:
        return self.end is not None and self.end == self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} cat={self.category} trace={self.trace_id} "
            f"id={self.span_id} [{self.start:.6f}..{self.end}]>"
        )


class SpanRecorder:
    """Collects spans as the simulation runs.

    ``capacity`` bounds the retained completed-span list (a ring buffer
    of the most recent spans; ``None`` retains everything).  Streaming
    sinks see every span regardless of retention.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        synopsis_capacity: Optional[int] = 65536,
    ):
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._next_span_id = 1
        self._next_trace_id = 1
        # Per-thread stacks of open spans: parentage for nested work.
        self._stacks: Dict[int, List[Span]] = {}
        # (origin stage, synopsis value) -> (trace_id, span_id) of the
        # send span, so the receiving hop joins the sender's trace.
        # LRU-bounded: a workload minting contexts forever (and hence
        # fresh synopsis values forever) must not grow this map without
        # bound; the least-recently-touched registration is retired once
        # ``synopsis_capacity`` is exceeded (None = unbounded).  A plain
        # dict is the LRU: insertion order is recency (delete+reinsert
        # refreshes), eviction pops the oldest key — measurably cheaper
        # per touch than OrderedDict.move_to_end.
        self._synopsis_index: Dict[Tuple[str, int], Tuple[int, int]] = {}
        self._synopsis_capacity = synopsis_capacity
        self.synopses_evicted = 0
        # Size gauge, installed by the telemetry hub when metrics are on.
        self.pending_gauge: Optional[Any] = None
        # Sink-error counter, installed by the hub when metrics are on.
        self.error_counter: Optional[Any] = None
        self._sinks: List[Any] = []
        self.dropped = 0
        self.completed = 0
        self.sink_errors = 0

    # ------------------------------------------------------------------
    # Sinks
    # ------------------------------------------------------------------
    def add_sink(self, sink: Any) -> None:
        """Attach a streaming sink (see :mod:`repro.telemetry.sinks`)."""
        self._sinks.append(sink)

    def detach_sink(self, sink: Any) -> None:
        """Remove a sink (no-op if absent)."""
        if sink in self._sinks:
            self._sinks.remove(sink)

    def _quarantine(self, failed: List[Any]) -> None:
        """Detach sinks that raised; the hot path must survive them."""
        for sink in failed:
            self.sink_errors += 1
            if self.error_counter is not None:
                self.error_counter.inc()
            self.detach_sink(sink)
            try:
                sink.close()
            except Exception:
                pass

    def _emit(self, span: Span) -> None:
        self.completed += 1
        spans = self._spans
        if len(spans) == spans.maxlen:
            self.dropped += 1
        spans.append(span)
        sinks = self._sinks
        if sinks:
            failed = None
            for sink in sinks:
                try:
                    sink.on_span(span)
                except Exception:
                    if failed is None:
                        failed = []
                    failed.append(sink)
            if failed is not None:
                self._quarantine(failed)

    def flush_sinks(self) -> None:
        """Flush every attached sink (errors detach, never propagate)."""
        failed = None
        for sink in list(self._sinks):
            try:
                sink.flush()
            except Exception:
                if failed is None:
                    failed = []
                failed.append(sink)
        if failed is not None:
            self._quarantine(failed)

    def close_sinks(self) -> None:
        """Close every attached sink once; errors are counted, not raised."""
        sinks, self._sinks = self._sinks, []
        for sink in sinks:
            try:
                sink.close()
            except Exception:
                self.sink_errors += 1
                if self.error_counter is not None:
                    self.error_counter.inc()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def new_trace_id(self) -> int:
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        return trace_id

    def begin(
        self,
        name: str,
        category: str,
        stage: Optional[str],
        t: float,
        thread: Optional[int] = None,
        trace_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span at virtual time ``t``.

        When ``thread`` is given the span nests under that thread's
        innermost open span (inheriting its trace) and is pushed on the
        thread's stack; close it with :meth:`end`.
        """
        parent_id = None
        if thread is not None:
            stack = self._stacks.get(thread)
            if stack:
                parent = stack[-1]
                parent_id = parent.span_id
                if trace_id is None:
                    trace_id = parent.trace_id
        if trace_id is None:
            trace_id = self.new_trace_id()
        span = Span(
            self._next_span_id, trace_id, name, category, stage, thread, t,
            parent_id=parent_id, attrs=attrs,
        )
        self._next_span_id += 1
        if thread is not None:
            self._stacks.setdefault(thread, []).append(span)
        return span

    def end(self, span: Span, t: float) -> Span:
        """Close ``span`` at virtual time ``t`` and stream it to sinks."""
        span.end = t
        if span.thread is not None:
            stack = self._stacks.get(span.thread)
            if stack and span in stack:
                # Tolerate out-of-order ends on exception paths: drop
                # the span and everything stacked above it.
                while stack and stack[-1] is not span:
                    stack.pop()
                if stack:
                    stack.pop()
                if not stack:
                    self._stacks.pop(span.thread, None)
        self._emit(span)
        return span

    def instant(
        self,
        name: str,
        category: str,
        stage: Optional[str],
        t: float,
        thread: Optional[int] = None,
        trace_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
        adopt: Optional[Tuple[str, int]] = None,
    ) -> Span:
        """Record a zero-duration span (an event) at virtual time ``t``.

        ``adopt=(origin, synopsis)`` joins the span to the trace that
        registered that synopsis *before* it is streamed to sinks, so
        live consumers never see a hop without its link.
        """
        parent_id = None
        if thread is not None:
            stack = self._stacks.get(thread)
            if stack:
                parent = stack[-1]
                parent_id = parent.span_id
                if trace_id is None:
                    trace_id = parent.trace_id
        if trace_id is None:
            trace_id = self.new_trace_id()
        span = Span(
            self._next_span_id, trace_id, name, category, stage, thread, t,
            parent_id=parent_id, attrs=attrs,
        )
        self._next_span_id += 1
        if adopt is not None:
            self.adopt_synopsis(adopt[0], adopt[1], span)
        span.end = t
        self._emit(span)
        return span

    # ------------------------------------------------------------------
    # Synopsis chains as trace ids (§7.4 meets tracing)
    # ------------------------------------------------------------------
    def register_synopsis(self, origin: str, value: int, span: Span) -> None:
        """Remember that ``span`` sent synopsis ``value`` from ``origin``.

        A later :meth:`adopt_synopsis` at the receiving stage joins the
        receiver's span into this span's trace.
        """
        index = self._synopsis_index
        key = (origin, value)
        if key in index:
            # Delete-then-reinsert moves the key to the recent end of
            # the dict's insertion order (the recency order).
            del index[key]
        index[key] = (span.trace_id, span.span_id)
        capacity = self._synopsis_capacity
        if capacity is not None and len(index) > capacity:
            del index[next(iter(index))]
            self.synopses_evicted += 1
        if self.pending_gauge is not None:
            self.pending_gauge.set(len(index))

    def adopt_synopsis(self, origin: str, value: int, span: Span) -> bool:
        """Join ``span`` to the trace that sent ``(origin, value)``.

        Returns True when the synopsis was known: the span switches to
        the sender's trace id and records a link to the send span.
        Unknown synopses (e.g. the sender's recorder was off, or the
        registration was LRU-retired) leave the span in its own trace.
        The entry stays registered — the same synopsis value is adopted
        once per request reusing its context — but is marked recently
        used so hot synopses outlive idle ones.
        """
        index = self._synopsis_index
        key = (origin, value)
        found = index.get(key)
        if found is None:
            return False
        del index[key]
        index[key] = found
        trace_id, send_span_id = found
        span.trace_id = trace_id
        links = span._links
        if links is None:
            links = span._links = []
        links.append((trace_id, send_span_id))
        return True

    @property
    def pending_synopses(self) -> int:
        """Registered send-span synopses awaiting (re-)adoption."""
        return len(self._synopsis_index)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Completed spans, oldest first."""
        return list(self._spans)

    def by_category(self, category: str) -> List[Span]:
        # Snapshot before filtering: a GC-time finalizer that emits a
        # span must not invalidate the deque iterator under our feet.
        return [s for s in tuple(self._spans) if s.category == category]

    def traces(self) -> Dict[int, List[Span]]:
        """Completed spans grouped by trace id."""
        out: Dict[int, List[Span]] = {}
        for span in tuple(self._spans):
            out.setdefault(span.trace_id, []).append(span)
        return out

    def open_spans(self) -> int:
        return sum(len(stack) for stack in self._stacks.values())

    def __len__(self) -> int:
        return len(self._spans)
