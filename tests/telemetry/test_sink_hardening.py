"""Sink fan-out hardening and the explicit sink lifecycle contract.

Satellite guarantees from the observability PR: a sink that raises
from any telemetry callback is detached and counted (``sink_errors``),
never crashing the simulation hot path; ``JsonLinesSink`` has an
explicit, idempotent ``flush()``/``close()`` contract and works as a
context manager; full-mode runs surface detachments as the
``repro_telemetry_sink_errors_total`` metric.
"""

import io
import json

import pytest

from repro import telemetry
from repro.apps.tpcw import TpcwSystem
from repro.telemetry.sinks import (
    CallbackSink,
    CollectingSink,
    JsonLinesSink,
    TelemetrySink,
)
from repro.telemetry.spans import SpanRecorder


@pytest.fixture(autouse=True)
def _telemetry_teardown():
    yield
    telemetry.uninstall()


class _ExplodingSink(TelemetrySink):
    def __init__(self, explode_after=0):
        self.calls = 0
        self.explode_after = explode_after
        self.closed = False

    def _maybe_explode(self):
        self.calls += 1
        if self.calls > self.explode_after:
            raise RuntimeError("sink detonated")

    def on_span(self, span):
        self._maybe_explode()

    def close(self):
        self.closed = True


def test_raising_sink_is_detached_counted_and_closed():
    recorder = SpanRecorder()
    bad = _ExplodingSink()
    good = CollectingSink()
    recorder.add_sink(bad)
    recorder.add_sink(good)
    span = recorder.begin("op", "test", "stage", 0.0)
    recorder.end(span, 1.0)  # bad raises -> quarantined
    assert recorder.sink_errors == 1
    assert bad.closed
    assert bad not in recorder._sinks
    # The surviving sink saw the span despite its neighbor's failure.
    assert len(good.spans) == 1
    # Once detached, the bad sink never hears from the recorder again.
    span = recorder.begin("op2", "test", "stage", 1.0)
    recorder.end(span, 2.0)
    assert bad.calls == 1
    assert len(good.spans) == 2 and recorder.sink_errors == 1


def test_raising_profile_sink_never_crashes_the_run():
    tele = telemetry.install("full")
    bad = _ExplodingSink(explode_after=5)
    tele.add_sink(bad)
    system = TpcwSystem(clients=6, seed=11)
    system.run(duration=4.0, warmup=0.5)  # must not raise
    assert tele.sink_errors == 1
    assert bad.closed
    # Full mode also surfaces the detachment as a metric.
    metric = tele.metrics.counter(
        "repro_telemetry_sink_errors_total",
        "sinks detached after raising from a telemetry callback",
    )
    assert metric.value == 1
    # The profiler kept emitting after quarantine: spans still flowed.
    assert len(tele.spans.spans) > bad.calls


def test_flush_and_close_errors_are_counted_not_raised():
    recorder = SpanRecorder()

    class _BadFlush(CollectingSink):
        def flush(self):
            raise OSError("disk full")

    class _BadClose(CollectingSink):
        def close(self):
            raise OSError("already gone")

    recorder.add_sink(_BadFlush())
    recorder.add_sink(_BadClose())
    recorder.flush_sinks()  # detaches the bad flusher
    assert recorder.sink_errors == 1
    recorder.close_sinks()  # close error counted, not raised
    assert recorder.sink_errors == 2
    assert recorder._sinks == []


def test_jsonlines_sink_lifecycle_contract(tmp_path):
    path = tmp_path / "trace.jsonl"
    recorder = SpanRecorder()
    sink = JsonLinesSink(str(path))
    recorder.add_sink(sink)
    span = recorder.begin("op", "test", "stage", 0.0)
    recorder.end(span, 1.5)
    assert sink.lines_written == 1 and not sink.closed
    sink.flush()
    sink.flush()  # idempotent
    line = json.loads(path.read_text().splitlines()[0])
    assert line["name"] == "op" and line["end"] == 1.5
    sink.close()
    sink.close()  # idempotent
    assert sink.closed
    # A closed sink silently ignores further spans instead of writing
    # to a closed file (the recorder may still be mid-teardown).
    span = recorder.begin("late", "test", "stage", 2.0)
    recorder.end(span, 3.0)
    assert sink.lines_written == 1
    assert recorder.sink_errors == 0


def test_jsonlines_sink_as_context_manager():
    buffer = io.StringIO()
    with JsonLinesSink(buffer) as sink:
        recorder = SpanRecorder()
        recorder.add_sink(sink)
        span = recorder.begin("op", "test", "stage", 0.0)
        recorder.end(span, 1.0)
    assert sink.closed
    # The sink did not own the handle, so the buffer stays usable.
    assert not buffer.closed
    assert json.loads(buffer.getvalue())["name"] == "op"


def test_uninstall_closes_attached_sinks(tmp_path):
    tele = telemetry.install("spans")
    sink = JsonLinesSink(str(tmp_path / "t.jsonl"))
    tele.add_sink(sink)
    telemetry.uninstall()
    assert sink.closed


def test_callback_sink_exception_detaches():
    recorder = SpanRecorder()
    recorder.add_sink(CallbackSink(lambda span: 1 / 0))
    span = recorder.begin("op", "test", "stage", 0.0)
    recorder.end(span, 1.0)
    assert recorder.sink_errors == 1
    assert recorder._sinks == []
