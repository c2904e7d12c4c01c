"""A simple threaded origin server behind the proxy.

Serves any request forwarded by the proxy: the response size comes from
a ``size_of`` callable (backed by the web trace, or by a servlet tier in
the TPC-W setup).  Large bodies are streamed in chunks so the proxy's
``httpReadReply`` handler runs repeatedly for one reply — the repeated
consecutive handler executions that §4.1 collapses.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from repro.channels.message import Message
from repro.channels.socket import Accept, Listener, Recv, Send
from repro.core.profiler import ProfilerMode, StageRuntime, work
from repro.sim import CPU, Kernel
from repro.sim.process import CurrentThread, frame

CHUNK_BYTES = 64 * 1024


class OriginServer:
    """Thread-per-connection static-content origin."""

    def __init__(
        self,
        kernel: Kernel,
        size_of: Callable[[object], int],
        mode: ProfilerMode = ProfilerMode.OFF,
        per_byte_cost: float = 1.5e-9,
        base_cost: float = 30e-6,
        latency: float = 150e-6,
        name: str = "origin",
    ):
        self.kernel = kernel
        self.size_of = size_of
        self.per_byte_cost = per_byte_cost
        self.base_cost = base_cost
        self.stage = StageRuntime(name, mode=mode)
        self.cpu = CPU(kernel, name=f"{name}-cpu")
        self.listener = Listener(kernel, latency=latency, name=f"{name}-listen")
        self.requests_served = 0

    def start(self) -> None:
        acceptor = self.kernel.spawn(
            self._accept_loop(), name="origin-acceptor", stage=self.stage
        )
        acceptor.daemon = True

    def _accept_loop(self) -> Iterator:
        yield CurrentThread()
        while True:
            connection = yield Accept(self.listener)
            handler = self.kernel.spawn(
                self._serve(connection), name="origin-conn", stage=self.stage
            )
            handler.daemon = True

    def _serve(self, connection) -> Iterator:
        thread = yield CurrentThread()
        with frame(thread, "origin_serve"):
            while True:
                request = yield Recv(connection.to_server)
                key = request.payload
                size = self.size_of(key)
                yield work(
                    thread, self.cpu, self.base_cost + size * self.per_byte_cost
                )
                chunks = max(1, math.ceil(size / CHUNK_BYTES))
                remaining = size
                for index in range(chunks):
                    chunk_size = min(CHUNK_BYTES, remaining)
                    remaining -= chunk_size
                    yield Send(
                        connection.to_client,
                        Message(key, chunk_size, last=index == chunks - 1),
                    )
                self.requests_served += 1
