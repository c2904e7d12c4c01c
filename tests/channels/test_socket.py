"""Tests for simulated sockets: endpoints, connections, listeners."""

import pytest

from repro.channels import (
    TIMED_OUT,
    Accept,
    Connection,
    Endpoint,
    Listener,
    Message,
    Recv,
    Send,
)
from repro.sim import Delay, Kernel


def test_send_then_recv_same_time_with_zero_latency():
    kernel = Kernel()
    endpoint = Endpoint(kernel)
    got = []

    def sender():
        yield Send(endpoint, Message("hello", 10))

    def receiver():
        msg = yield Recv(endpoint)
        got.append((msg.payload, kernel.now))

    kernel.spawn(sender())
    kernel.spawn(receiver())
    kernel.run()
    assert got == [("hello", 0.0)]


def test_latency_delays_delivery():
    kernel = Kernel()
    endpoint = Endpoint(kernel, latency=0.5)
    got = []

    def sender():
        yield Send(endpoint, Message("x"))

    def receiver():
        msg = yield Recv(endpoint)
        got.append(kernel.now)

    kernel.spawn(receiver())
    kernel.spawn(sender())
    kernel.run()
    assert got == [0.5]


def test_recv_blocks_until_data():
    kernel = Kernel()
    endpoint = Endpoint(kernel)
    got = []

    def receiver():
        msg = yield Recv(endpoint)
        got.append((msg.payload, kernel.now))

    def sender():
        yield Delay(2.0)
        yield Send(endpoint, Message("late"))

    kernel.spawn(receiver())
    kernel.spawn(sender())
    kernel.run()
    assert got == [("late", 2.0)]


def test_messages_preserve_fifo_order():
    kernel = Kernel()
    endpoint = Endpoint(kernel)
    got = []

    def sender():
        for i in range(5):
            yield Send(endpoint, Message(i))

    def receiver():
        for _ in range(5):
            msg = yield Recv(endpoint)
            got.append(msg.payload)

    kernel.spawn(sender())
    kernel.spawn(receiver())
    kernel.run()
    assert got == [0, 1, 2, 3, 4]


def test_multiple_receivers_served_fifo():
    kernel = Kernel()
    endpoint = Endpoint(kernel)
    got = []

    def receiver(tag):
        msg = yield Recv(endpoint)
        got.append((tag, msg.payload))

    def sender():
        yield Delay(1.0)
        yield Send(endpoint, Message("a"))
        yield Send(endpoint, Message("b"))

    kernel.spawn(receiver("r1"))
    kernel.spawn(receiver("r2"))
    kernel.spawn(sender())
    kernel.run()
    assert got == [("r1", "a"), ("r2", "b")]


def test_timed_out_receiver_is_removed_and_next_receiver_served():
    kernel = Kernel()
    endpoint = Endpoint(kernel)
    got = []

    def receiver(tag, timeout=None):
        msg = yield Recv(endpoint, timeout=timeout)
        got.append((tag, msg if msg is TIMED_OUT else msg.payload, kernel.now))

    def sender():
        yield Delay(1.0)
        yield Send(endpoint, Message("a"))
        yield Send(endpoint, Message("b"))

    kernel.spawn(receiver("r1"))
    kernel.spawn(receiver("r2", timeout=0.5))  # leaves from mid-queue
    kernel.spawn(receiver("r3"))
    kernel.spawn(sender())
    kernel.run()
    assert got == [("r2", TIMED_OUT, 0.5), ("r1", "a", 1.0), ("r3", "b", 1.0)]
    assert not endpoint._receivers


def test_dead_receiver_is_skipped():
    kernel = Kernel()
    endpoint = Endpoint(kernel)
    got = []

    def receiver(tag):
        msg = yield Recv(endpoint)
        got.append((tag, msg.payload))

    def sender():
        yield Delay(1.0)
        yield Send(endpoint, Message("a"))
        yield Send(endpoint, Message("b"))

    dead = kernel.spawn(receiver("dead"))
    kernel.spawn(receiver("live"))
    kernel.spawn(sender())
    kernel.run(until=0.5)
    dead.finish(None)  # killed while parked, as a stage crash does
    kernel.run()
    # The dead thread takes nothing; with no receiver left, "b" buffers.
    assert got == [("live", "a")]
    assert endpoint.try_recv().payload == "b"


def test_try_recv_returns_buffered_messages_in_order():
    kernel = Kernel()
    endpoint = Endpoint(kernel)
    for i in range(4):
        endpoint.send(Message(i))
    assert endpoint.readable
    assert [endpoint.try_recv().payload for _ in range(4)] == [0, 1, 2, 3]
    assert endpoint.try_recv() is None
    assert not endpoint.readable


def test_observers_fire_on_buffered_data():
    kernel = Kernel()
    endpoint = Endpoint(kernel)
    fired = []
    endpoint.observers.append(lambda ep: fired.append(ep.readable))

    def sender():
        yield Send(endpoint, Message("x"))

    kernel.spawn(sender())
    kernel.run()
    assert fired == [True]
    assert endpoint.try_recv().payload == "x"
    assert endpoint.try_recv() is None


def test_self_removing_observers_all_fire_on_one_message():
    """An observer that unregisters itself while observers run must not
    make the next one be skipped."""
    kernel = Kernel()
    endpoint = Endpoint(kernel)
    fired = []

    def one_shot(tag):
        def observer(ep):
            ep.observers.remove(observer)
            fired.append(tag)

        return observer

    endpoint.observers.extend([one_shot("a"), one_shot("b")])

    def sender():
        yield Send(endpoint, Message("x"))

    kernel.spawn(sender())
    kernel.run()
    assert fired == ["a", "b"]
    assert endpoint.observers == []


def test_self_removing_listener_observers_all_fire():
    kernel = Kernel()
    listener = Listener(kernel)
    fired = []

    def one_shot(tag):
        def observer(lst):
            lst.observers.remove(observer)
            fired.append(tag)

        return observer

    listener.observers.extend([one_shot("a"), one_shot("b")])
    listener.connect()
    assert fired == ["a", "b"]
    assert listener.observers == []


def test_observer_not_fired_when_receiver_waiting():
    kernel = Kernel()
    endpoint = Endpoint(kernel)
    fired = []
    endpoint.observers.append(lambda ep: fired.append(1))

    def receiver():
        yield Recv(endpoint)

    def sender():
        yield Delay(1.0)
        yield Send(endpoint, Message("x"))

    kernel.spawn(receiver())
    kernel.spawn(sender())
    kernel.run()
    assert fired == []


def test_bandwidth_limits_delivery_time():
    kernel = Kernel()
    endpoint = Endpoint(kernel, latency=0.1, bandwidth=1_000_000)  # 1 MB/s
    got = []

    def sender():
        yield Send(endpoint, Message("big", 500_000))  # 0.5s transmit

    def receiver():
        yield Recv(endpoint)
        got.append(kernel.now)

    kernel.spawn(sender())
    kernel.spawn(receiver())
    kernel.run()
    assert got == [pytest.approx(0.6)]


def test_bandwidth_serialises_back_to_back_sends():
    kernel = Kernel()
    endpoint = Endpoint(kernel, bandwidth=1_000_000)
    got = []

    def sender():
        yield Send(endpoint, Message("a", 1_000_000))  # 1s
        yield Send(endpoint, Message("b", 1_000_000))  # queued behind a

    def receiver():
        for _ in range(2):
            msg = yield Recv(endpoint)
            got.append((msg.payload, kernel.now))

    kernel.spawn(sender())
    kernel.spawn(receiver())
    kernel.run()
    assert got[0] == ("a", pytest.approx(1.0))
    assert got[1] == ("b", pytest.approx(2.0))


def test_invalid_bandwidth_rejected():
    with pytest.raises(ValueError):
        Endpoint(Kernel(), bandwidth=0)


def test_byte_accounting():
    kernel = Kernel()
    endpoint = Endpoint(kernel)

    def sender():
        yield Send(endpoint, Message("a", 100))
        yield Send(endpoint, Message("b", 50))

    kernel.spawn(sender())
    kernel.run()
    assert endpoint.delivered_messages == 2
    assert endpoint.delivered_bytes == 150


def test_listener_accept_before_connect():
    kernel = Kernel()
    listener = Listener(kernel)
    got = []

    def server():
        conn = yield Accept(listener)
        got.append(conn.conn_id)

    def client():
        yield Delay(1.0)
        listener.connect()

    kernel.spawn(server())
    kernel.spawn(client())
    kernel.run()
    assert len(got) == 1
    assert listener.accepted_count == 1


def test_listener_backlog_and_observers():
    kernel = Kernel()
    listener = Listener(kernel)
    fired = []
    listener.observers.append(lambda lst: fired.append(1))
    conn = listener.connect()
    assert listener.readable
    assert fired == [1]
    assert listener.try_accept() is conn
    assert listener.try_accept() is None


def test_connection_endpoints_are_independent():
    kernel = Kernel()
    conn = Connection(kernel)
    got = []

    def client():
        yield Send(conn.to_server, Message("req"))
        resp = yield Recv(conn.to_client)
        got.append(resp.payload)

    def server():
        req = yield Recv(conn.to_server)
        yield Send(conn.to_client, Message(req.payload + "-resp"))

    kernel.spawn(client())
    kernel.spawn(server())
    kernel.run()
    assert got == ["req-resp"]


def test_message_negative_size_rejected():
    with pytest.raises(ValueError):
        Message("x", -1)


def test_message_context_bytes():
    from repro.core.synopsis import CompositeSynopsis

    assert Message("x", 10).context_bytes() == 0
    assert Message("x", 10, synopsis=7).context_bytes() == 4
    assert Message("x", 10, synopsis=CompositeSynopsis(1, 2)).context_bytes() == 9
