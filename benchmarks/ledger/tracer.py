"""Harness spans: the ledger's view of the program from outside.

A span is recorded around every call the harness makes into a layer and
around every ladder rung: name, start, end, the span that caused it,
the workload and the repeat.  Spans stay in memory and are written as
JSON only when the run ends.  A layer's self time is its span's
duration minus the part its child spans cover.

With tracing off ``span()`` hands back one shared no-op context, so the
untraced end-to-end run pays a method call and nothing else.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "repeat", "slowdown")

    def __init__(self, index: int, name: str, parent: Optional[int], repeat: str):
        self.index = index
        self.name = name
        self.parent = parent
        self.repeat = repeat
        self.start = 0.0
        self.end = 0.0
        #: Host slowdown around the repeat the span belongs to.
        self.slowdown = 1.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def nominal(self) -> float:
        """Duration at the nominal host speed (see hostspeed.py)."""
        return (self.end - self.start) / self.slowdown


@contextmanager
def _no_span() -> Iterator[None]:
    yield None


class Tracer:
    """Records nested harness spans for one workload."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Label of the repeat or rung being run; stamped on new spans.
        self.repeat = ""

    def span(self, name: str):
        """Context manager timing one call; yields the :class:`Span`."""
        if not self.enabled:
            return _no_span()
        return self._record(name)

    @contextmanager
    def _record(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.repeat)
        self.spans.append(span)
        self._stack.append(span.index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def stamp(self, mark: int, slowdown: float) -> None:
        """Every span recorded since ``mark`` ran at this host speed."""
        for span in self.spans[mark:]:
            span.slowdown = slowdown

    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus its direct children's durations."""
        out = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.duration
        return out

    def durations(self, name: str, repeat: Optional[str] = None) -> List[float]:
        """Nominal-speed durations (s) of every span called ``name``
        (recorded under the label ``repeat``)."""
        return [
            span.nominal
            for span in self.spans
            if span.name == name and (repeat is None or span.repeat == repeat)
        ]

    def total(self, name: str, repeat: Optional[str] = None) -> float:
        return sum(self.durations(name, repeat))

    def to_json(self) -> List[Dict[str, Any]]:
        self_times = self.self_times()
        return [
            {
                "id": span.index,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "workload": self.workload,
                "repeat": span.repeat,
                "slowdown": span.slowdown,
                "self_s": self_times[span.index],
            }
            for span in self.spans
        ]
