"""The Haboob analog: a SEDA web server (§8.3).

The stage graph matches Fig 10:

    ListenStage → HttpServer → ReadStage → HttpRecv → CacheStage
        CacheStage → WriteStage                (cache hit)
        CacheStage → MissStage → FileIOStage → WriteStage  (cache miss)

Each stage is a :class:`~repro.seda.SedaStage`; the SEDA middleware
stamps every queue element with the enqueuing thread's transaction
context, so ``WriteStage`` accumulates samples under two distinct
contexts — the hit path and the miss path — which is exactly the
separation Fig 10 reports (37.65% vs 46.58% of total CPU).  After
writing a response the connection re-enters ``ReadStage``; loop pruning
keeps contexts finite across persistent connections.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro import telemetry
from repro.apps.proxy.cache import LruCache
from repro.channels.message import Message
from repro.channels.socket import Accept, Connection, Listener, Recv, Send
from repro.core.profiler import OverheadModel, ProfilerMode, StageRuntime, work
from repro.seda import SedaStage
from repro.sim import CPU, Kernel
from repro.sim.disk import Disk, ReadDisk
from repro.sim.process import CurrentThread, frame
from repro.workloads.clients import CLOSE
from repro.workloads.webtrace import WebTrace


class HaboobConfig:
    """Cost model of the simulated Haboob (seconds of CPU)."""

    def __init__(
        self,
        accept_cost: float = 15e-6,
        http_server_cost: float = 10e-6,
        read_cost: float = 20e-6,
        parse_cost: float = 15e-6,
        cache_lookup_cost: float = 10e-6,
        miss_cost: float = 25e-6,
        disk_latency: float = 4e-3,
        disk_per_byte_cost: float = 1.2e-9,
        write_base_cost: float = 60e-6,
        write_per_byte_cost: float = 18e-9,
        cache_bytes: int = 16 * 1024 * 1024,
        client_latency: float = 100e-6,
        read_workers: int = 32,
        stage_workers: int = 4,
    ):
        self.accept_cost = accept_cost
        self.http_server_cost = http_server_cost
        self.read_cost = read_cost
        self.parse_cost = parse_cost
        self.cache_lookup_cost = cache_lookup_cost
        self.miss_cost = miss_cost
        self.disk_latency = disk_latency
        self.disk_per_byte_cost = disk_per_byte_cost
        self.write_base_cost = write_base_cost
        self.write_per_byte_cost = write_per_byte_cost
        self.cache_bytes = cache_bytes
        self.client_latency = client_latency
        self.read_workers = read_workers
        self.stage_workers = stage_workers


class _RequestState:
    __slots__ = ("connection", "object_id", "size")

    def __init__(self, connection: Connection, object_id: Optional[int] = None, size: int = 0):
        self.connection = connection
        self.object_id = object_id
        self.size = size


class HaboobServer:
    """SEDA web server serving a static corpus from a trace."""

    def __init__(
        self,
        kernel: Kernel,
        trace: WebTrace,
        mode: ProfilerMode = ProfilerMode.WHODUNIT,
        config: Optional[HaboobConfig] = None,
        overhead: Optional[OverheadModel] = None,
        name: str = "haboob",
    ):
        self.kernel = kernel
        self.trace = trace
        self.config = config or HaboobConfig()
        self.stage_runtime = StageRuntime(name, mode=mode, overhead=overhead)
        self.cpu = CPU(kernel, name=f"{name}-cpu")
        self.disk = Disk(
            kernel,
            positioning_time=self.config.disk_latency,
            name=f"{name}-disk",
        )
        self.listener = Listener(
            kernel, latency=self.config.client_latency, name=f"{name}-listen"
        )
        self.page_cache = LruCache(self.config.cache_bytes)
        self.bytes_sent = 0
        self.responses_sent = 0

        cfg = self.config
        mk = lambda stage_name, handler, workers: SedaStage(
            kernel, stage_name, handler, workers=workers,
            stage_runtime=self.stage_runtime,
        )
        self.listen_stage = mk("ListenStage", self._listen_handler, 1)
        self.http_server = mk("HttpServer", self._http_server_handler, cfg.stage_workers)
        self.read_stage = mk("ReadStage", self._read_handler, cfg.read_workers)
        self.http_recv = mk("HttpRecv", self._http_recv_handler, cfg.stage_workers)
        self.cache_stage = mk("CacheStage", self._cache_handler, cfg.stage_workers)
        self.miss_stage = mk("MissStage", self._miss_handler, cfg.stage_workers)
        self.file_io = mk("FileIOStage", self._file_io_handler, cfg.stage_workers)
        self.write_stage = mk("WriteStage", self._write_handler, cfg.stage_workers)
        self.stages = [
            self.listen_stage,
            self.http_server,
            self.read_stage,
            self.http_recv,
            self.cache_stage,
            self.miss_stage,
            self.file_io,
            self.write_stage,
        ]

    # ------------------------------------------------------------------
    @property
    def stages_by_name(self):
        """Profile runtimes keyed by stage name (scale-out spooling).

        Haboob is one process — one :class:`StageRuntime` shared by all
        SEDA stages — so the dump set has a single entry.
        """
        return {self.stage_runtime.name: self.stage_runtime}

    def save_profiles(self, directory: str, profile_format: str = "v2"):
        """Dump the server's profile into ``directory`` (see harness)."""
        import os

        from repro.core.persist import save_stage

        suffix = ".profile.wdp" if profile_format == "v2" else ".profile.json"
        os.makedirs(directory, exist_ok=True)
        paths = {}
        for name, stage in self.stages_by_name.items():
            path = os.path.join(directory, f"{name}{suffix}")
            save_stage(stage, path, profile_format=profile_format)
            paths[name] = path
        return paths

    def start(self) -> None:
        for stage in self.stages:
            stage.start()
        acceptor = self.kernel.spawn(
            self._acceptor(), name="haboob-acceptor", stage=self.stage_runtime
        )
        acceptor.daemon = True

    def _acceptor(self) -> Iterator:
        """Socket-level accept loop feeding the ListenStage queue."""
        thread = yield CurrentThread()
        with frame(thread, "accept_loop"):
            while True:
                connection = yield Accept(self.listener)
                telemetry.admit(self.stage_runtime.name, self.kernel)
                self.listen_stage.inject(connection)

    # ------------------------------------------------------------------
    # Stage handlers (Fig 10's graph)
    # ------------------------------------------------------------------
    def _listen_handler(self, stage: SedaStage, thread, connection) -> Iterator:
        yield work(thread, self.cpu, self.config.accept_cost)
        stage.enqueue(thread, self.http_server.input_queue, connection)

    def _http_server_handler(self, stage: SedaStage, thread, connection) -> Iterator:
        yield work(thread, self.cpu, self.config.http_server_cost)
        stage.enqueue(
            thread, self.read_stage.input_queue, _RequestState(connection)
        )

    def _read_handler(self, stage: SedaStage, thread, state: _RequestState) -> Iterator:
        message = yield Recv(state.connection.to_server)
        yield work(thread, self.cpu, self.config.read_cost)
        verb, object_id = message.payload
        if verb == CLOSE:
            return
        state.object_id = object_id
        stage.enqueue(thread, self.http_recv.input_queue, state)

    def _http_recv_handler(self, stage: SedaStage, thread, state: _RequestState) -> Iterator:
        yield work(thread, self.cpu, self.config.parse_cost)
        stage.enqueue(thread, self.cache_stage.input_queue, state)

    def _cache_handler(self, stage: SedaStage, thread, state: _RequestState) -> Iterator:
        yield work(thread, self.cpu, self.config.cache_lookup_cost)
        entry = self.page_cache.lookup(state.object_id)
        if entry is not None:
            _, state.size = entry
            stage.enqueue(thread, self.write_stage.input_queue, state)
        else:
            stage.enqueue(thread, self.miss_stage.input_queue, state)

    def _miss_handler(self, stage: SedaStage, thread, state: _RequestState) -> Iterator:
        yield work(thread, self.cpu, self.config.miss_cost)
        stage.enqueue(thread, self.file_io.input_queue, state)

    def _file_io_handler(self, stage: SedaStage, thread, state: _RequestState) -> Iterator:
        size = self.trace.size_of(state.object_id)
        yield ReadDisk(self.disk, size)
        yield work(thread, self.cpu, size * self.config.disk_per_byte_cost)
        state.size = size
        self.page_cache.insert(state.object_id, state.object_id, size)
        stage.enqueue(thread, self.write_stage.input_queue, state)

    def _write_handler(self, stage: SedaStage, thread, state: _RequestState) -> Iterator:
        yield work(
            thread,
            self.cpu,
            self.config.write_base_cost
            + state.size * self.config.write_per_byte_cost,
        )
        yield Send(
            state.connection.to_client, Message(state.object_id, state.size)
        )
        self.bytes_sent += state.size
        self.responses_sent += 1
        # Persistent connection: wait for the next request.
        fresh = _RequestState(state.connection)
        stage.enqueue(thread, self.read_stage.input_queue, fresh)

    # ------------------------------------------------------------------
    def throughput_mbps(self, since: float = 0.0) -> float:
        elapsed = self.kernel.now - since
        if elapsed <= 0:
            return 0.0
        return self.bytes_sent * 8 / elapsed / 1e6
