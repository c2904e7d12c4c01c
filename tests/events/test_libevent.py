"""Tests for the event loop's transaction-context tracking (Fig 4)."""

import pytest

from repro.channels import Endpoint, Listener, Message, Send
from repro.core.context import TransactionContext
from repro.core.profiler import OverheadModel, ProfilerMode, StageRuntime, work

ZERO = OverheadModel(0.0, 0.0, 0.0, 0.0)
from repro.events import Event, EventLoop
from repro.sim import CPU, Delay, Kernel


def ctxt(*elements):
    return TransactionContext(elements)


def make_loop(kernel, **kwargs):
    stage = StageRuntime("evsrv", mode=ProfilerMode.WHODUNIT, overhead=ZERO)
    loop = EventLoop(kernel, **kwargs)
    thread = kernel.spawn(loop.run(), name="loop", stage=stage)
    return loop, stage, thread


def test_initial_event_context_is_empty():
    kernel = Kernel()
    loop, stage, _ = make_loop(kernel)
    seen = {}

    def handler(lp, ev):
        seen["ctxt"] = lp.curr_tran_ctxt
        lp.stop()
        return
        yield  # pragma: no cover

    loop.event_add(Event("accept_handler", handler))
    kernel.run()
    assert seen["ctxt"] == ctxt("accept_handler")


def test_context_chains_through_continuations():
    kernel = Kernel()
    loop, stage, _ = make_loop(kernel)
    contexts = []

    def accept_handler(lp, ev):
        contexts.append(lp.curr_tran_ctxt)
        lp.event_add(Event("read_handler", read_handler))
        return
        yield  # pragma: no cover

    def read_handler(lp, ev):
        contexts.append(lp.curr_tran_ctxt)
        lp.event_add(Event("write_handler", write_handler))
        return
        yield  # pragma: no cover

    def write_handler(lp, ev):
        contexts.append(lp.curr_tran_ctxt)
        lp.stop()
        return
        yield  # pragma: no cover

    loop.event_add(Event("accept_handler", accept_handler))
    kernel.run()
    assert contexts == [
        ctxt("accept_handler"),
        ctxt("accept_handler", "read_handler"),
        ctxt("accept_handler", "read_handler", "write_handler"),
    ]


def test_consecutive_same_handler_collapses():
    """A read handler scheduled repeatedly appears once in the context."""
    kernel = Kernel()
    loop, stage, _ = make_loop(kernel)
    contexts = []
    remaining = [3]

    def read_handler(lp, ev):
        contexts.append(lp.curr_tran_ctxt)
        remaining[0] -= 1
        if remaining[0] > 0:
            lp.event_add(Event("read_handler", read_handler))
        else:
            lp.stop()
        return
        yield  # pragma: no cover

    def accept_handler(lp, ev):
        lp.event_add(Event("read_handler", read_handler))
        return
        yield  # pragma: no cover

    loop.event_add(Event("accept_handler", accept_handler))
    kernel.run()
    assert contexts == [ctxt("accept_handler", "read_handler")] * 3


def test_persistent_connection_loop_pruned():
    """[accept, read, write] + read prunes back to [accept, read]."""
    kernel = Kernel()
    loop, stage, _ = make_loop(kernel)
    contexts = []
    requests = [2]

    def accept_handler(lp, ev):
        lp.event_add(Event("read_handler", read_handler))
        return
        yield  # pragma: no cover

    def read_handler(lp, ev):
        contexts.append(lp.curr_tran_ctxt)
        lp.event_add(Event("write_handler", write_handler))
        return
        yield  # pragma: no cover

    def write_handler(lp, ev):
        contexts.append(lp.curr_tran_ctxt)
        requests[0] -= 1
        if requests[0] > 0:
            lp.event_add(Event("read_handler", read_handler))
        else:
            lp.stop()
        return
        yield  # pragma: no cover

    loop.event_add(Event("accept_handler", accept_handler))
    kernel.run()
    assert contexts == [
        ctxt("accept_handler", "read_handler"),
        ctxt("accept_handler", "read_handler", "write_handler"),
        ctxt("accept_handler", "read_handler"),
        ctxt("accept_handler", "read_handler", "write_handler"),
    ]


def test_prune_disabled_grows_context():
    kernel = Kernel()
    loop, stage, _ = make_loop(kernel, prune_loops=False)
    contexts = []

    def a(lp, ev):
        lp.event_add(Event("b", b))
        return
        yield  # pragma: no cover

    def b(lp, ev):
        contexts.append(lp.curr_tran_ctxt)
        if len(contexts) < 2:
            lp.event_add(Event("a", a2))
        else:
            lp.stop()
        return
        yield  # pragma: no cover

    def a2(lp, ev):
        lp.event_add(Event("b", b))
        return
        yield  # pragma: no cover

    loop.event_add(Event("a", a))
    kernel.run()
    assert contexts[1].elements == ("a", "b", "a", "b")


def test_waitable_event_fires_when_data_arrives():
    kernel = Kernel()
    loop, stage, _ = make_loop(kernel)
    endpoint = Endpoint(kernel)
    got = []

    def on_readable(lp, ev):
        got.append((ev.waitable.try_recv().payload, kernel.now))
        lp.stop()
        return
        yield  # pragma: no cover

    loop.event_add(Event("read_handler", on_readable, waitable=endpoint))

    def sender():
        yield Delay(2.0)
        yield Send(endpoint, Message("data"))

    kernel.spawn(sender())
    kernel.run()
    assert got == [("data", 2.0)]


def test_two_events_watching_one_endpoint_both_fire():
    """One message readies every event watching the endpoint: each
    watch unregisters itself when it fires, which must not skip the
    watch registered after it."""
    kernel = Kernel()
    loop, stage, _ = make_loop(kernel)
    endpoint = Endpoint(kernel)
    ran = []

    def on_readable(lp, ev):
        message = ev.waitable.try_recv()
        ran.append((ev.name, message.payload if message else None))
        return
        yield  # pragma: no cover

    loop.event_add(Event("first", on_readable, waitable=endpoint))
    loop.event_add(Event("second", on_readable, waitable=endpoint))

    def sender():
        yield Delay(1.0)
        yield Send(endpoint, Message("data"))
        yield Delay(1.0)
        loop.stop()

    kernel.spawn(sender())
    kernel.run()
    assert ran == [("first", "data"), ("second", None)]
    assert endpoint.observers == []
    assert loop._watches == []


def test_waitable_already_readable_fires_immediately():
    kernel = Kernel()
    loop, stage, _ = make_loop(kernel)
    endpoint = Endpoint(kernel)
    endpoint.send(Message("early"))
    got = []

    def on_readable(lp, ev):
        got.append(ev.waitable.try_recv().payload)
        lp.stop()
        return
        yield  # pragma: no cover

    loop.event_add(Event("h", on_readable, waitable=endpoint))
    kernel.run()
    assert got == ["early"]


def test_listener_as_waitable():
    kernel = Kernel()
    loop, stage, _ = make_loop(kernel)
    listener = Listener(kernel)
    got = []

    def on_connect(lp, ev):
        got.append(ev.waitable.try_accept() is not None)
        lp.stop()
        return
        yield  # pragma: no cover

    loop.event_add(Event("httpAccept", on_connect, waitable=listener))

    def client():
        yield Delay(1.0)
        listener.connect()

    kernel.spawn(client())
    kernel.run()
    assert got == [True]


def test_samples_annotated_with_event_context():
    kernel = Kernel()
    cpu = CPU(kernel)
    loop, stage, thread = make_loop(kernel)

    def accept_handler(lp, ev):
        t = lp_thread()
        yield work(t, cpu, 0.1)
        lp.event_add(Event("read_handler", read_handler))

    def read_handler(lp, ev):
        t = lp_thread()
        yield work(t, cpu, 0.3)
        lp.stop()

    def lp_thread():
        return thread

    loop.event_add(Event("accept_handler", accept_handler))
    kernel.run()

    accept_cct = stage.ccts[ctxt("accept_handler")]
    read_cct = stage.ccts[ctxt("accept_handler", "read_handler")]
    hz = stage.sampling_hz
    assert accept_cct.total_weight() == pytest.approx(0.1 * hz)
    assert read_cct.total_weight() == pytest.approx(0.3 * hz)
    # Sample call paths run through the loop frame and the handler frame.
    assert accept_cct.weight_of(("event_loop", "accept_handler")) > 0


def test_handler_exception_resets_context_state():
    kernel = Kernel()
    loop, stage, thread = make_loop(kernel)

    def bad_handler(lp, ev):
        raise ValueError("handler bug")
        yield  # pragma: no cover

    loop.event_add(Event("bad", bad_handler))
    with pytest.raises(ValueError):
        kernel.run()
    assert loop.curr_tran_ctxt == TransactionContext.empty()


def test_dispatch_counter():
    kernel = Kernel()
    loop, stage, _ = make_loop(kernel)

    def h(lp, ev):
        if lp.dispatched >= 3:
            lp.stop()
        else:
            lp.event_add(Event("h", h))
        return
        yield  # pragma: no cover

    loop.event_add(Event("h", h))
    kernel.run()
    assert loop.dispatched == 3
