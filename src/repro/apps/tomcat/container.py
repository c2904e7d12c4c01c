"""The Tomcat analog: a servlet container (§8.4).

One handler thread per (persistent) upstream connection dispatches
requests to :class:`Servlet` objects.  Each TPC-W interaction is a
separate servlet, so each has a distinct call path — which is what lets
Whodunit extend a separate transaction context from Tomcat into MySQL
per interaction (§8.4).

The container owns a :class:`ServletCache` implementing the TPC-W
clause-6.3.3.1 result caching the paper adds as its optimisation: when
``caching`` is enabled and a servlet declares its results cacheable,
execution is skipped on a fresh cache entry.  The container also serves
static objects (book images) without servlet dispatch.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.channels.rpc import call as rpc_call
from repro import telemetry
from repro.channels.rpc import RetryPolicy, RpcTimeout, recv_request, send_response
from repro.channels.socket import Accept, Connection, Listener
from repro.core.profiler import OverheadModel, ProfilerMode, StageRuntime, work
from repro.sim import CPU, Kernel
from repro.sim.pool import Get, ResourcePool
from repro.sim.process import CurrentThread, SimThread, frame

DB_REQUEST_BYTES = 400


class Servlet:
    """Base servlet: override :meth:`run` with the interaction logic.

    ``run`` is a generator yielding simulation syscalls and returning
    ``(payload, size_bytes)`` for the HTTP response.
    """

    name = "Servlet"
    cacheable = False
    cache_ttl: Optional[float] = None  # None = cache forever

    def cache_key(self, param: Any) -> Any:
        return (self.name, param)

    def cache_ttl_for(self, param: Any) -> Optional[float]:
        """TTL for one key; None means the entry never expires."""
        return self.cache_ttl

    def run(self, container: "TomcatServer", thread: SimThread, param: Any) -> Iterator:
        raise NotImplementedError
        yield  # pragma: no cover


class ServletCache:
    """TTL result cache for servlet output (clause 6.3.3.1 of TPC-W)."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._entries: Dict[Any, Tuple[Any, int, Optional[float]]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Any) -> Optional[Tuple[Any, int]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        payload, size, expires = entry
        if expires is not None and self.kernel.now >= expires:
            del self._entries[key]
            self.misses += 1
            return None
        self.hits += 1
        return payload, size

    def insert(self, key: Any, payload: Any, size: int, ttl: Optional[float]) -> None:
        expires = None if ttl is None else self.kernel.now + ttl
        self._entries[key] = (payload, size, expires)

    def __len__(self) -> int:
        return len(self._entries)


class TomcatServer:
    """Servlet container with a database connection pool."""

    def __init__(
        self,
        kernel: Kernel,
        servlets: Dict[str, Servlet],
        db_listener: Optional[Listener] = None,
        db_connections: int = 24,
        caching: bool = False,
        mode: ProfilerMode = ProfilerMode.WHODUNIT,
        overhead: Optional[OverheadModel] = None,
        static_size_of: Callable[[Any], int] = lambda key: 8192,
        static_cost: float = 60e-6,
        listen_latency: float = 100e-6,
        name: str = "tomcat",
        db_retry: Optional[RetryPolicy] = None,
    ):
        self.kernel = kernel
        self.servlets = dict(servlets)
        self.caching = caching
        self.db_retry = db_retry
        self.db_timeouts = 0
        self.stage = StageRuntime(name, mode=mode, overhead=overhead)
        self.cpu = CPU(kernel, name=f"{name}-cpu")
        self.listener = Listener(kernel, latency=listen_latency, name=f"{name}-listen")
        self.cache = ServletCache(kernel)
        self.static_size_of = static_size_of
        self.static_cost = static_cost
        self.requests_served = 0
        self.db_calls = 0
        self.db_pool: Optional[ResourcePool] = None
        self._db_listener = db_listener
        self._db_connections = db_connections

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._db_listener is not None:
            connections = [
                self._db_listener.connect() for _ in range(self._db_connections)
            ]
            self.db_pool = ResourcePool(self.kernel, connections, name="db-pool")
        acceptor = self.kernel.spawn(
            self._accept_loop(), name="tomcat-acceptor", stage=self.stage
        )
        acceptor.daemon = True

    def _accept_loop(self) -> Iterator:
        yield CurrentThread()
        count = 0
        while True:
            connection = yield Accept(self.listener)
            count += 1
            telemetry.admit(self.stage.name, self.kernel, {"connection": count})
            handler = self.kernel.spawn(
                self._connection_loop(connection),
                name=f"tomcat-conn-{count}",
                stage=self.stage,
            )
            handler.daemon = True

    # ------------------------------------------------------------------
    def _connection_loop(self, connection: Connection) -> Iterator:
        thread = yield CurrentThread()
        with frame(thread, "http_processor"):
            while True:
                request = yield from recv_request(thread, connection.to_server)
                payload = request.payload
                kind = payload[0]
                if kind == "close":
                    return
                with frame(thread, "service"):
                    if kind == "IMG":
                        body, size = yield from self._serve_static(thread, payload[1])
                    else:
                        body, size = yield from self._dispatch(
                            thread, payload[1], payload[2] if len(payload) > 2 else None
                        )
                yield from send_response(thread, connection.to_client, request, body, size)
                self.requests_served += 1
                thread.tran_ctxt = None

    def _serve_static(self, thread: SimThread, key: Any) -> Iterator:
        size = self.static_size_of(key)
        with frame(thread, "default_servlet"):
            yield work(thread, self.cpu, self.static_cost)
        return ("IMG", key), size

    def _dispatch(self, thread: SimThread, servlet_name: str, param: Any) -> Iterator:
        servlet = self.servlets.get(servlet_name)
        if servlet is None:
            yield work(thread, self.cpu, self.static_cost)
            return ("404", servlet_name), 512
        with frame(thread, servlet.name):
            if self.caching and servlet.cacheable:
                cached = self.cache.lookup(servlet.cache_key(param))
                if cached is not None:
                    payload, size = cached
                    # Serving from cache still renders the page body.
                    yield work(thread, self.cpu, 0.3e-3)
                    return payload, size
            payload, size = yield from servlet.run(self, thread, param)
            if self.caching and servlet.cacheable:
                self.cache.insert(
                    servlet.cache_key(param),
                    payload,
                    size,
                    servlet.cache_ttl_for(param),
                )
        return payload, size

    # ------------------------------------------------------------------
    # Services for servlets
    # ------------------------------------------------------------------
    def query(self, thread: SimThread, plan) -> Iterator:
        """Issue one database query through the connection pool.

        With a ``db_retry`` policy, a lost request or response is
        retransmitted by the RPC layer; exhausting the retry budget
        yields an error response instead of raising, so one lossy query
        degrades the page it belongs to rather than killing the
        connection-handler thread.  A pooled connection whose stale
        response is still in flight is safe to reuse: the RPC layer
        validates each response against the request synopsis of the call
        in flight and discards mismatches.
        """
        if self.db_pool is None:
            raise RuntimeError("container started without a database")
        connection = yield Get(self.db_pool)
        # Not ``finally``: a thread still suspended here when the run
        # ends is closed by the garbage collector (GeneratorExit), and a
        # put would then wake a pool waiter mid-collection, resurrecting
        # the whole finished system until the next one.
        try:
            with frame(thread, "executeQuery"):
                response = yield from rpc_call(
                    thread,
                    connection.to_server,
                    connection.to_client,
                    plan,
                    DB_REQUEST_BYTES,
                    retry=self.db_retry,
                )
        except RpcTimeout:
            self.db_pool.put(connection)
            self.db_timeouts += 1
            self.db_calls += 1
            return ("error", "db-timeout", plan.name)
        except Exception:
            self.db_pool.put(connection)
            raise
        self.db_pool.put(connection)
        self.db_calls += 1
        return response
