"""The Squid analog: an event-driven caching proxy (§8.2).

One event-loop thread drives the same five handlers the paper names:

- ``httpAccept`` — accept an incoming client connection;
- ``clientReadRequest`` — read one request off the connection;
- ``commConnectHandle`` — open a connection to the origin server
  (cache miss);
- ``httpReadReply`` — receive reply chunks from the origin (repeats for
  large bodies — the consecutive occurrences §4.1 collapses);
- ``commHandleWrite`` — write the response back to the client.

The transactional profile therefore shows ``commHandleWrite`` under two
distinct contexts — ``[httpAccept, clientReadRequest]`` for cache hits
and ``[httpAccept, clientReadRequest, httpReadReply]`` for misses —
which is precisely Fig 9's headline distinction.  Persistent
connections re-register ``clientReadRequest`` after a write; loop
pruning keeps the contexts finite.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro import telemetry
from repro.apps.proxy.cache import LruCache
from repro.channels.message import Message
from repro.channels.rpc import send_request
from repro.channels.socket import Connection, Listener, Send
from repro.core.profiler import OverheadModel, ProfilerMode, StageRuntime, work
from repro.events import Event, EventLoop
from repro.sim import CPU, Kernel
from repro.workloads.clients import CLOSE

FORWARD_REQUEST_BYTES = 350


class SquidConfig:
    """Cost model of the simulated Squid (seconds of CPU)."""

    def __init__(
        self,
        accept_cost: float = 12e-6,
        read_request_cost: float = 25e-6,
        cache_lookup_cost: float = 8e-6,
        connect_cost: float = 30e-6,
        reply_base_cost: float = 15e-6,
        reply_per_byte_cost: float = 1.2e-9,
        write_base_cost: float = 20e-6,
        write_per_byte_cost: float = 1.8e-9,
        cache_bytes: int = 32 * 1024 * 1024,
        client_latency: float = 100e-6,
    ):
        self.accept_cost = accept_cost
        self.read_request_cost = read_request_cost
        self.cache_lookup_cost = cache_lookup_cost
        self.connect_cost = connect_cost
        self.reply_base_cost = reply_base_cost
        self.reply_per_byte_cost = reply_per_byte_cost
        self.write_base_cost = write_base_cost
        self.write_per_byte_cost = write_per_byte_cost
        self.cache_bytes = cache_bytes
        self.client_latency = client_latency


class _ClientState:
    """Per-client-connection bookkeeping carried on event payloads."""

    __slots__ = (
        "connection",
        "key",
        "origin_connection",
        "received",
        "size",
        "body",
    )

    def __init__(self, connection: Connection):
        self.connection = connection
        self.key: Any = None
        self.origin_connection: Optional[Connection] = None
        self.received = 0
        self.size = 0
        self.body: Any = None


class SquidProxy:
    """Event-driven caching proxy in front of an origin listener."""

    def __init__(
        self,
        kernel: Kernel,
        origin_listener: Listener,
        mode: ProfilerMode = ProfilerMode.WHODUNIT,
        config: Optional[SquidConfig] = None,
        overhead: Optional[OverheadModel] = None,
        cacheable: Callable[[Any], bool] = lambda key: True,
        name: str = "squid",
    ):
        self.kernel = kernel
        self.origin_listener = origin_listener
        self.config = config or SquidConfig()
        self.cacheable = cacheable
        self.stage = StageRuntime(name, mode=mode, overhead=overhead)
        self.cpu = CPU(kernel, name=f"{name}-cpu")
        self.listener = Listener(
            kernel, latency=self.config.client_latency, name=f"{name}-listen"
        )
        self.loop = EventLoop(kernel, name=name, loop_frame="comm_poll")
        self.cache = LruCache(self.config.cache_bytes)
        # Idle persistent connections to the origin; reusing them means
        # commConnectHandle only runs for the first miss on each, which
        # is why Fig 9 shows it with a tiny share (1.1%) and most
        # httpReadReply executions directly under clientReadRequest.
        self._origin_pool: list = []
        self.bytes_to_clients = 0
        self.responses_sent = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.kernel.spawn(self.loop.run(), name="squid-loop", stage=self.stage)
        self.loop.event_add(
            Event("httpAccept", self._http_accept, waitable=self.listener)
        )

    @property
    def thread(self):
        return self.loop.thread

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _http_accept(self, loop: EventLoop, event: Event) -> Iterator:
        connection = self.listener.try_accept()
        yield work(self.thread, self.cpu, self.config.accept_cost)
        if connection is not None:
            telemetry.admit(self.stage.name, self.kernel)
            state = _ClientState(connection)
            loop.event_add(
                Event(
                    "clientReadRequest",
                    self._client_read_request,
                    payload=state,
                    waitable=connection.to_server,
                )
            )
        # Keep listening: re-registered from the accept context, but the
        # accept handler's own context is the initial one each time.
        loop.event_add(
            Event("httpAccept", self._http_accept, waitable=self.listener)
        )

    def _client_read_request(self, loop: EventLoop, event: Event) -> Iterator:
        state: _ClientState = event.payload
        message = state.connection.to_server.try_recv()
        yield work(self.thread, self.cpu, self.config.read_request_cost)
        if message is None:
            return
        verb = message.payload[0] if isinstance(message.payload, tuple) else None
        if verb == CLOSE:
            return
        state.key = message.payload
        yield work(self.thread, self.cpu, self.config.cache_lookup_cost)
        entry = (
            self.cache.lookup(state.key) if self.cacheable(state.key) else None
        )
        if entry is not None:
            body, size = entry
            state.size = size
            state.body = body
            loop.event_add(
                Event("commHandleWrite", self._comm_handle_write, payload=state)
            )
        elif self._origin_pool:
            # Reuse a persistent origin connection: forward right away.
            state.origin_connection = self._origin_pool.pop()
            yield from self._forward_to_origin(loop, state)
        else:
            loop.event_add(
                Event("commConnectHandle", self._comm_connect_handle, payload=state)
            )

    def _comm_connect_handle(self, loop: EventLoop, event: Event) -> Iterator:
        state: _ClientState = event.payload
        yield work(self.thread, self.cpu, self.config.connect_cost)
        state.origin_connection = self.origin_listener.connect()
        yield from self._forward_to_origin(loop, state)

    def _forward_to_origin(self, loop: EventLoop, state: "_ClientState") -> Iterator:
        state.received = 0
        yield from send_request(
            self.thread,
            state.origin_connection.to_server,
            state.key,
            FORWARD_REQUEST_BYTES,
        )
        loop.event_add(
            Event(
                "httpReadReply",
                self._http_read_reply,
                payload=state,
                waitable=state.origin_connection.to_client,
            )
        )

    def _http_read_reply(self, loop: EventLoop, event: Event) -> Iterator:
        state: _ClientState = event.payload
        chunk = state.origin_connection.to_client.try_recv()
        if chunk is None:
            # Spurious wakeup; wait for the next chunk.
            loop.event_add(
                Event(
                    "httpReadReply",
                    self._http_read_reply,
                    payload=state,
                    waitable=state.origin_connection.to_client,
                )
            )
            return
        yield work(
            self.thread,
            self.cpu,
            self.config.reply_base_cost
            + chunk.size * self.config.reply_per_byte_cost,
        )
        state.received += chunk.size
        state.body = chunk.payload
        if not chunk.last:
            loop.event_add(
                Event(
                    "httpReadReply",
                    self._http_read_reply,
                    payload=state,
                    waitable=state.origin_connection.to_client,
                )
            )
            return
        state.size = state.received
        self._origin_pool.append(state.origin_connection)
        state.origin_connection = None
        if self.cacheable(state.key):
            self.cache.insert(state.key, state.body, state.size)
        loop.event_add(
            Event("commHandleWrite", self._comm_handle_write, payload=state)
        )

    def _comm_handle_write(self, loop: EventLoop, event: Event) -> Iterator:
        state: _ClientState = event.payload
        yield work(
            self.thread,
            self.cpu,
            self.config.write_base_cost
            + state.size * self.config.write_per_byte_cost,
        )
        yield Send(state.connection.to_client, Message(state.body, state.size))
        self.bytes_to_clients += state.size
        self.responses_sent += 1
        # Persistent connection: wait for the next request.
        loop.event_add(
            Event(
                "clientReadRequest",
                self._client_read_request,
                payload=state,
                waitable=state.connection.to_server,
            )
        )

    # ------------------------------------------------------------------
    def throughput_mbps(self, since: float = 0.0) -> float:
        elapsed = self.kernel.now - since
        if elapsed <= 0:
            return 0.0
        return self.bytes_to_clients * 8 / elapsed / 1e6
