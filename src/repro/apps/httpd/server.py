"""The Apache 2.x analog: listener + worker pool over a shared queue.

Transactions flow through shared memory exactly as in §2.2/§8.1: the
listener thread accepts a connection and pushes it into the shared
``fd_queue`` (a VM critical section, Fig 1); a worker thread pops it and
processes the connection's requests.  Whodunit's flow detector hands the
listener's transaction context (its call path through ``ap_queue_push``)
to the worker, so all worker samples are annotated with the flow —
Fig 8's dashed edge.

The server also exercises a synchronized memory allocator (its
``apr_pools`` analog, Fig 3) on every request; the detector must
classify it no-flow (§8.1: "Whodunit also detects a synchronized memory
allocator in Apache, but it does not satisfy the rules of transaction
flow").
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro import telemetry
from repro.channels.message import Message
from repro.channels.shared_queue import SharedMemoryRegion, SharedQueue
from repro.channels.socket import Accept, Connection, Listener, Recv, Send
from repro.core.profiler import OverheadModel, ProfilerMode, StageRuntime, work
from repro.sim import CPU, Kernel
from repro.sim.process import CurrentThread, SimThread, frame
from repro.sim.sync import Acquire, Mutex, Release
from repro.vm.programs import FreeListAllocator
from repro.workloads.clients import CLOSE
from repro.workloads.webtrace import WebTrace


class HttpdConfig:
    """Cost model of the simulated Apache (seconds of CPU)."""

    def __init__(
        self,
        workers: int = 8,
        queue_capacity: int = 256,
        accept_cost: float = 15e-6,
        parse_cost: float = 25e-6,
        response_base_cost: float = 20e-6,
        per_byte_cost: float = 2.2e-9,
        network_latency: float = 100e-6,
        allocator_blocks: int = 32,
        use_allocator: bool = True,
    ):
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.accept_cost = accept_cost
        self.parse_cost = parse_cost
        self.response_base_cost = response_base_cost
        self.per_byte_cost = per_byte_cost
        self.network_latency = network_latency
        self.allocator_blocks = allocator_blocks
        self.use_allocator = use_allocator


class HttpdServer:
    """A threaded web server serving a static corpus from a trace."""

    def __init__(
        self,
        kernel: Kernel,
        trace: WebTrace,
        mode: ProfilerMode = ProfilerMode.WHODUNIT,
        config: Optional[HttpdConfig] = None,
        overhead: Optional[OverheadModel] = None,
        name: str = "httpd",
    ):
        self.kernel = kernel
        self.trace = trace
        self.config = config or HttpdConfig()
        self.stage = StageRuntime(name, mode=mode, overhead=overhead)
        self.cpu = CPU(kernel, name=f"{name}-cpu")
        self.listener_socket = Listener(
            kernel, latency=self.config.network_latency, name=f"{name}-listen"
        )
        self.region = SharedMemoryRegion(self.cpu)
        self.queue = SharedQueue(
            self.region, capacity=self.config.queue_capacity, name=name
        )
        self.alloc_mutex = Mutex(f"{name}.pool_mutex")
        self.allocator = FreeListAllocator(
            self.region.machine.memory, blocks=self.config.allocator_blocks
        )
        self._connections: Dict[int, Connection] = {}
        self._next_sd = 1000
        self._next_pool = 1
        self.bytes_sent = 0
        self.requests_served = 0
        self.connections_accepted = 0
        self.threads: List[SimThread] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        listener = self.kernel.spawn(
            self._listener_loop(), name="httpd-listener", stage=self.stage
        )
        listener.daemon = True
        self.threads.append(listener)
        for i in range(self.config.workers):
            worker = self.kernel.spawn(
                self._worker_loop(), name=f"httpd-worker-{i}", stage=self.stage
            )
            worker.daemon = True
            self.threads.append(worker)

    # ------------------------------------------------------------------
    # Listener thread: accept + ap_queue_push (the producer of Fig 1)
    # ------------------------------------------------------------------
    def _listener_loop(self) -> Iterator:
        thread = yield CurrentThread()
        with frame(thread, "main"):
            with frame(thread, "listener_thread"):
                while True:
                    with frame(thread, "apr_socket_accept"):
                        connection = yield Accept(self.listener_socket)
                        yield work(thread, self.cpu, self.config.accept_cost)
                    sd = self._register(connection)
                    pool = self._next_pool
                    self._next_pool += 1
                    self.connections_accepted += 1
                    telemetry.admit(self.stage.name, self.kernel, {"sd": sd})
                    with frame(thread, "ap_queue_push"):
                        yield from self.queue.push(thread, sd, pool)

    def _register(self, connection: Connection) -> int:
        sd = self._next_sd
        self._next_sd += 1
        self._connections[sd] = connection
        return sd

    # ------------------------------------------------------------------
    # Worker threads: ap_queue_pop + ap_process_connection (the consumer)
    # ------------------------------------------------------------------
    def _worker_loop(self) -> Iterator:
        thread = yield CurrentThread()
        with frame(thread, "main"):
            with frame(thread, "worker_thread"):
                while True:
                    thread.tran_ctxt = None
                    with frame(thread, "ap_queue_pop"):
                        sd, _pool = yield from self.queue.pop(thread)
                    connection = self._connections.pop(sd)
                    with frame(thread, "ap_process_connection"):
                        yield from self._process_connection(thread, connection)

    def _process_connection(self, thread: SimThread, connection: Connection) -> Iterator:
        while True:
            message = yield Recv(connection.to_server)
            verb, object_id = message.payload
            if verb == CLOSE:
                return
            block = None
            if self.config.use_allocator:
                block = yield from self._apr_palloc(thread)
            with frame(thread, "ap_process_http_request"):
                yield work(thread, self.cpu, self.config.parse_cost)
            size = self.trace.size_of(object_id)
            with frame(thread, "sendfile"):
                yield work(
                    thread,
                    self.cpu,
                    self.config.response_base_cost + size * self.config.per_byte_cost,
                )
                yield Send(connection.to_client, Message(object_id, size))
            self.bytes_sent += size
            self.requests_served += 1
            if block:  # NULL (exhausted pool) is never freed
                yield from self._apr_pfree(thread, block)

    # ------------------------------------------------------------------
    # The apr_pools-like synchronized allocator (Fig 3 pattern)
    # ------------------------------------------------------------------
    def _apr_palloc(self, thread: SimThread) -> Iterator:
        with frame(thread, "apr_palloc"):
            yield Acquire(self.alloc_mutex)
            window = yield from self.region.run_critical_section(
                thread, self.alloc_mutex, self.allocator.alloc_program, ()
            )
            block = self.region.registers_of(thread).read(0)
            yield Release(self.alloc_mutex)
            yield from self.region.run_use_window(
                thread, window, self.allocator.use_program
            )
        return block

    def _apr_pfree(self, thread: SimThread, block: int) -> Iterator:
        with frame(thread, "apr_pool_destroy"):
            yield Acquire(self.alloc_mutex)
            yield from self.region.run_critical_section(
                thread, self.alloc_mutex, self.allocator.free_program, (block,)
            )
            yield Release(self.alloc_mutex)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def throughput_mbps(self, since: float = 0.0) -> float:
        elapsed = self.kernel.now - since
        if elapsed <= 0:
            return 0.0
        return self.bytes_sent * 8 / elapsed / 1e6
