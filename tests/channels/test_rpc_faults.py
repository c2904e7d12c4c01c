"""The hardened synopsis protocol under a lossy transport.

Covers the recv timeout, foreign/stale/malformed response validation,
retry recovery under message drop, and retry-budget exhaustion.
"""

import pytest

from repro import telemetry
from repro.apps.tpcw import TpcwSystem
from repro.channels import Connection, Endpoint, Message, Recv, Send, TIMED_OUT
from repro.channels.rpc import (
    RetryPolicy,
    RpcTimeout,
    call,
    recv_request,
    recv_response,
    send_response,
)
from repro.core.context import TransactionContext
from repro.core.profiler import ProfilerMode, StageRuntime
from repro.core.synopsis import CompositeSynopsis
from repro.faults import install_faults
from repro.sim import CurrentThread, Delay, Kernel
from repro.sim.process import frame
from tests.sim.later import call_later


def test_retry_policy_validation_and_backoff():
    policy = RetryPolicy(timeout=0.1, retries=2, backoff=2.0, max_timeout=0.3)
    assert policy.timeout_for(0) == pytest.approx(0.1)
    assert policy.timeout_for(1) == pytest.approx(0.2)
    assert policy.timeout_for(2) == pytest.approx(0.3)  # capped
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=1.0, max_timeout=0.5)


def test_recv_timeout_returns_sentinel():
    kernel = Kernel()
    conn = Connection(kernel)
    log = {}

    def client():
        yield CurrentThread()
        log["got"] = yield Recv(conn.to_client, timeout=0.5)
        log["at"] = kernel.now

    kernel.spawn(client())
    kernel.run()
    assert log["got"] is TIMED_OUT
    assert log["at"] == pytest.approx(0.5)


def test_recv_timer_cancelled_on_delivery():
    kernel = Kernel()
    conn = Connection(kernel)
    log = {}

    def client():
        yield CurrentThread()
        log["got"] = yield Recv(conn.to_client, timeout=5.0)

    def sender():
        yield Delay(0.1)
        yield Send(conn.to_client, Message("data", 4))

    kernel.spawn(client())
    kernel.spawn(sender())
    end = kernel.run()
    assert log["got"].payload == "data"
    # The cancelled timeout timer does not stretch the run to t=5.
    assert end == pytest.approx(0.1)


@pytest.mark.parametrize("latency", [0.0, 1.0])
def test_served_recv_leaves_pending_events_where_it_was(latency):
    """The delivery withdraws the receive's timeout: from the wheel when
    it arrives early, from the batch in flight when it is due at the
    timeout's own instant (latency 1.0: scheduled first, it fires first)."""
    kernel = Kernel()
    endpoint = Endpoint(kernel, latency)
    got = []

    def receiver():
        got.append((yield Recv(endpoint, timeout=1.0)).payload)
        got.append((yield Delay(0.5)))

    call_later(kernel, 9.0, lambda: None)  # unrelated, pending throughout
    before = kernel.pending_events()
    if latency:
        endpoint.send(Message("data", 4))
    kernel.spawn(receiver())
    kernel.run(until=0.5)
    assert kernel.pending_events() == before + 1 + (latency > 0)
    if not latency:
        endpoint.send(Message("data", 4))
    kernel.run(until=5.0)
    assert got == ["data", None]
    assert kernel.pending_events() == before
    assert sorted(kernel._wheel) == [9.0]  # whitebox: no timeout left behind


def test_heap_gauge_equals_pending_events_after_a_lossy_run():
    """Withdrawn receive timeouts leave the wheel at once, so the gauge
    counts exactly the entries still due."""
    with telemetry.enabled("full") as tele:
        system = TpcwSystem(
            clients=20,
            seed=7,
            fault_plan="drop=0.05,dup=0.02,reorder=0.05:0.005",
            fault_seed=3,
            retry=RetryPolicy(timeout=0.3, retries=3, backoff=2.0),
        )
        kernel = system.kernel
        system.start()
        readings = []
        for tenth in range(5, 55, 5):
            call_later(kernel, tenth / 10 - kernel.now, kernel.stop)
            kernel.run()
            gauge = tele.metrics.gauge("repro_sim_event_heap_size").value
            readings.append((gauge, kernel.pending_events()))
        cancelled = tele.metrics.counter("repro_sim_events_cancelled_total").value
    assert cancelled > 0
    assert [gauge for gauge, _ in readings] == [pending for _, pending in readings]


def test_a_horizon_exit_refreshes_the_kernel_gauges():
    """run(until=...) stopping at its horizon leaves the gauges reading
    the clock it stopped at and the entries still due."""
    with telemetry.enabled("full") as tele:
        system = TpcwSystem(
            clients=20,
            seed=7,
            fault_plan="drop=0.05,dup=0.02,reorder=0.05:0.005",
            fault_seed=3,
            retry=RetryPolicy(timeout=0.3, retries=3, backoff=2.0),
        )
        kernel = system.kernel
        system.start()
        assert kernel.run(until=5.0) == 5.0
        metrics = tele.metrics
        assert metrics.gauge("repro_sim_virtual_time_seconds").value == 5.0
        assert (metrics.gauge("repro_sim_event_heap_size").value
                == kernel.pending_events() > 0)
        assert metrics.gauge("repro_sim_time_drift").value > 0


def test_call_with_retry_recovers_from_dropped_request():
    """The first copy of the request is dropped; the retransmit gets
    through and the caller adopts the response for the original
    request synopsis — one transaction, stitched normally."""
    kernel = Kernel()
    faults = install_faults(kernel, "drop=1.0,match=to_server")
    conn = Connection(kernel)
    web = StageRuntime("web", mode=ProfilerMode.WHODUNIT)
    db = StageRuntime("db", mode=ProfilerMode.WHODUNIT)
    log = {}

    # Drop exactly the first send on the request channel (the endpoint
    # captured its fault state at construction; swap in a deterministic
    # one-shot stand-in with the same deliveries() contract).
    class DropOnce:
        def __init__(self, injector):
            self.injector = injector
            self.dropped_once = False

        def deliveries(self, message):
            self.injector.messages_seen += 1
            if not self.dropped_once:
                self.dropped_once = True
                self.injector.dropped += 1
                return []
            return [0.0]

    conn.to_server._faults = DropOnce(faults)

    def client():
        thread = yield CurrentThread()
        with frame(thread, "main"):
            response = yield from call(
                thread,
                conn.to_server,
                conn.to_client,
                "query",
                100,
                retry=RetryPolicy(timeout=0.25, retries=3),
            )
        log["response"] = response

    def server():
        thread = yield CurrentThread()
        thread.daemon = True
        while True:
            request = yield from recv_request(thread, conn.to_server)
            with frame(thread, "svc"):
                yield from send_response(
                    thread, conn.to_client, request, "rows", 10
                )

    kernel.spawn(client(), stage=web)
    kernel.spawn(server(), stage=db)
    kernel.run()

    assert log["response"].payload == "rows"
    assert web.retransmits == 1
    assert web.abandoned_requests == 0
    assert faults.dropped == 1
    # The retransmit reused the request synopsis: nothing dangles.
    assert not web._sent_requests


def test_call_exhausting_retries_raises_and_abandons():
    kernel = Kernel()
    install_faults(kernel, "drop=1.0,match=to_server")
    conn = Connection(kernel)
    web = StageRuntime("web", mode=ProfilerMode.WHODUNIT)
    log = {}

    def client():
        thread = yield CurrentThread()
        with frame(thread, "main"):
            try:
                yield from call(
                    thread,
                    conn.to_server,
                    conn.to_client,
                    "query",
                    100,
                    retry=RetryPolicy(timeout=0.1, retries=2, backoff=2.0),
                )
            except RpcTimeout as exc:
                log["error"] = exc

    kernel.spawn(client(), stage=web)
    kernel.run()

    error = log["error"]
    assert error.attempts == 3
    # 0.1 + 0.2 + 0.4 of capped exponential backoff.
    assert error.waited == pytest.approx(0.7)
    assert web.retransmits == 2
    assert web.abandoned_requests == 1
    assert not web._sent_requests  # bookkeeping released


def test_foreign_response_counted_not_adopted():
    """A composite whose prefix this stage never allocated is a protocol
    violation; with an expected synopsis the caller keeps waiting."""
    kernel = Kernel()
    conn = Connection(kernel)
    web = StageRuntime("web", mode=ProfilerMode.WHODUNIT)
    other = StageRuntime("other", mode=ProfilerMode.WHODUNIT)
    foreign_prefix = other.synopses.synopsis(TransactionContext(("elsewhere",)))
    log = {}

    def client():
        thread = yield CurrentThread()
        with frame(thread, "main"):
            expected = web.send_request(thread)
            log["got"] = yield from recv_response(
                thread, conn.to_client, expected=expected, timeout=1.0
            )

    def sender():
        yield Delay(0.1)
        yield Send(
            conn.to_client,
            Message("foreign", 4, origin="other",
                    synopsis=CompositeSynopsis(foreign_prefix, 1)),
        )

    kernel.spawn(client(), stage=web)
    kernel.spawn(sender())
    kernel.run()

    assert log["got"] is TIMED_OUT  # discarded, then the budget expired
    assert web.protocol_violations == {"foreign-response": 1}


def test_stale_own_response_discarded_then_fresh_adopted():
    """A response to an *earlier* request (own prefix, wrong synopsis)
    is discarded; the matching response is then adopted."""
    kernel = Kernel()
    conn = Connection(kernel)
    web = StageRuntime("web", mode=ProfilerMode.WHODUNIT)
    db = StageRuntime("db", mode=ProfilerMode.WHODUNIT)
    log = {}

    def client():
        thread = yield CurrentThread()
        with frame(thread, "old"):
            stale_synopsis = web.send_request(thread)
        with frame(thread, "new"):
            expected = web.send_request(thread)
            log["stale"] = stale_synopsis
            log["expected"] = expected
            message = yield from recv_response(
                thread, conn.to_client, expected=expected, timeout=1.0
            )
            log["got"] = message

    def sender():
        yield Delay(0.1)
        # The stale response lands first...
        yield Send(
            conn.to_client,
            Message("stale", 4, origin="db",
                    synopsis=db.synopses.make_response(
                        log["stale"], TransactionContext(("svc",)))),
        )
        yield Delay(0.1)
        # ...then the one the caller is waiting for.
        yield Send(
            conn.to_client,
            Message("fresh", 4, origin="db",
                    synopsis=db.synopses.make_response(
                        log["expected"], TransactionContext(("svc",)))),
        )

    kernel.spawn(client(), stage=web)
    kernel.spawn(sender())
    kernel.run()

    assert log["got"].payload == "fresh"
    assert web.protocol_violations == {"stale-response": 1}


def test_malformed_response_counted():
    """A bare int where a composite belongs is flagged, not adopted."""
    kernel = Kernel()
    conn = Connection(kernel)
    web = StageRuntime("web", mode=ProfilerMode.WHODUNIT)
    log = {}

    def client():
        thread = yield CurrentThread()
        with frame(thread, "main"):
            log["got"] = yield from recv_response(thread, conn.to_client)

    def sender():
        yield Delay(0.1)
        yield Send(conn.to_client, Message("junk", 4, origin="x", synopsis=12345))

    kernel.spawn(client(), stage=web)
    kernel.spawn(sender())
    kernel.run()

    assert log["got"].payload == "junk"
    assert web.protocol_violations == {"malformed-response": 1}


def test_duplicate_response_discarded_as_stale():
    """dup=1.0 on the response channel: the second copy of the adopted
    response must not corrupt the next call's context."""
    kernel = Kernel()
    install_faults(kernel, "dup=1.0,match=to_client")
    # With 5ms propagation each way, q0's duplicate (extra delay in
    # [0, 10ms)) always lands while the caller is waiting for q1.
    conn = Connection(kernel, latency=0.005)
    web = StageRuntime("web", mode=ProfilerMode.WHODUNIT)
    db = StageRuntime("db", mode=ProfilerMode.WHODUNIT)
    log = {"replies": []}

    def client():
        thread = yield CurrentThread()
        with frame(thread, "main"):
            for i in range(2):
                with frame(thread, f"step{i}"):
                    response = yield from call(
                        thread,
                        conn.to_server,
                        conn.to_client,
                        f"q{i}",
                        10,
                        retry=RetryPolicy(timeout=0.5, retries=1),
                    )
                    log["replies"].append(response.payload)

    def server():
        thread = yield CurrentThread()
        thread.daemon = True
        while True:
            request = yield from recv_request(thread, conn.to_server)
            with frame(thread, "svc"):
                yield from send_response(
                    thread, conn.to_client, request, request.payload + "-ok", 10
                )

    kernel.spawn(client(), stage=web)
    kernel.spawn(server(), stage=db)
    kernel.run()

    assert log["replies"] == ["q0-ok", "q1-ok"]
    # The duplicate of q0's response arrived while waiting for q1's and
    # was discarded as stale (own prefix, wrong request synopsis).
    assert web.protocol_violations.get("stale-response", 0) >= 1
    assert not web._sent_requests


def test_dead_receiver_does_not_swallow_delivery():
    """A message delivered to a crashed thread's endpoint goes to the
    next live receiver (or the buffer), never into the void."""
    kernel = Kernel()
    conn = Connection(kernel)
    log = {}

    def doomed():
        yield Recv(conn.to_client)

    def survivor():
        yield Delay(0.0)
        log["got"] = yield Recv(conn.to_client)

    doomed_thread = kernel.spawn(doomed())

    def killer_then_send():
        yield Delay(0.1)
        doomed_thread.finish(None)
        yield Send(conn.to_client, Message("payload", 7))

    kernel.spawn(survivor())
    kernel.spawn(killer_then_send())
    kernel.run()
    assert log["got"].payload == "payload"
