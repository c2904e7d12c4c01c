"""The database engine and its network front-end.

:class:`Database` executes :class:`QueryPlan`\\ s: it parses, takes the
locks the touched tables' engines require, burns the plan's CPU cost
under descriptive frames (``do_select``, ``filesort`` for the heavy
sorting queries of BestSellers/SearchResult/AdminConfirm), bumps a
shared statistics counter through a VM critical section (the pattern
§8.1 reports Whodunit finding — and correctly rejecting — in MySQL),
and releases.

Crucially for crosstalk, the locks are held *across* the CPU burst: on a
saturated database CPU a MyISAM table lock is therefore held for the
queueing delay too, which is what makes AdminConfirm's exclusive lock on
``item`` so expensive for everyone else (Table 1) and the InnoDB
conversion so effective (Fig 11).

:class:`DatabaseServer` is the MySQL network front: one server thread
per client connection (MySQL's thread-per-connection model), speaking
the RPC protocol of :mod:`repro.channels.rpc` so transaction contexts
arrive as synopses from the application server.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.apps.db.locks import Table, acquire_all, release_all
from repro import telemetry
from repro.channels.rpc import recv_request, send_response
from repro.channels.shared_queue import SharedMemoryRegion
from repro.channels.socket import Accept, Listener
from repro.core.profiler import OverheadModel, ProfilerMode, StageRuntime, work
from repro.sim import CPU, Kernel
from repro.sim.process import CurrentThread, SimThread, frame
from repro.sim.sync import Acquire, Mutex, Release
from repro.vm.programs import SharedCounter


class QueryPlan:
    """A declarative description of one SQL statement's execution."""

    def __init__(
        self,
        name: str,
        reads: Tuple[str, ...] = (),
        writes: Tuple[Tuple[str, int], ...] = (),
        cpu_cost: float = 1e-3,
        frames: Tuple[str, ...] = ("do_select",),
        response_bytes: int = 2000,
    ):
        self.name = name
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.cpu_cost = cpu_cost
        self.frames = tuple(frames)
        self.response_bytes = response_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueryPlan {self.name} cost={self.cpu_cost:.4f}s>"


class Database:
    """The storage engine of one database process."""

    PARSE_COST = 40e-6
    STATS_COST_GUARD = 5e-6

    def __init__(
        self,
        kernel: Kernel,
        mode: ProfilerMode = ProfilerMode.WHODUNIT,
        overhead: Optional[OverheadModel] = None,
        name: str = "mysql",
        type_of: Optional[Callable] = None,
    ):
        self.kernel = kernel
        self.stage = StageRuntime(name, mode=mode, overhead=overhead, type_of=type_of)
        self.cpu = CPU(kernel, name=f"{name}-cpu")
        self.tables: Dict[str, Table] = {}
        self.crosstalk = self.stage.crosstalk
        # The shared statistics counter (queries served), §8.1.
        self.region = SharedMemoryRegion(self.cpu)
        self.stats_mutex = Mutex(f"{name}.stats_mutex")
        self.stats_counter = SharedCounter(self.region.machine.memory)
        self.queries_executed = 0

    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> Table:
        self.tables[table.name] = table
        self.crosstalk.observe(table.table_lock)
        return table

    def table(self, name: str) -> Table:
        return self.tables[name]

    # ------------------------------------------------------------------
    def execute(self, thread: SimThread, plan: QueryPlan) -> Iterator:
        """Run one query to completion on behalf of ``thread``."""
        with frame(thread, "mysql_parse"):
            yield work(thread, self.cpu, self.PARSE_COST)

        shared: List[Mutex] = []
        for table_name in sorted(set(plan.reads)):
            shared.extend(self.tables[table_name].read_locks())
        exclusive: List[Mutex] = []
        write_rows: Dict[str, List[int]] = {}
        for table_name, row_id in plan.writes:
            write_rows.setdefault(table_name, []).append(row_id)
        for table_name in sorted(write_rows):
            exclusive.extend(
                self.tables[table_name].write_locks(write_rows[table_name])
            )
        # A table locked exclusively need not also be locked shared.
        exclusive_set = set(exclusive)
        shared = [lock for lock in shared if lock not in exclusive_set]

        # No try/finally here: a yield inside finally breaks generator
        # close() on simulation teardown, and a failed query aborts the
        # whole simulation anyway.
        held = yield from acquire_all(thread, shared, exclusive)
        with frame(thread, "mysql_execute_command"):
            inner = list(plan.frames) or ["do_select"]
            yield from self._burn(thread, inner, plan.cpu_cost)
        yield from release_all(held)

        yield from self._bump_stats(thread)
        self.queries_executed += 1

    def _burn(self, thread: SimThread, frames: List[str], cost: float) -> Iterator:
        name = frames[0]
        with frame(thread, name):
            if len(frames) == 1:
                yield work(thread, self.cpu, cost)
            else:
                yield from self._burn(thread, frames[1:], cost)

    def _bump_stats(self, thread: SimThread) -> Iterator:
        """Increment the shared query counter inside a VM critical

        section — the Fig 2 pattern, for the detector to classify.
        """
        yield Acquire(self.stats_mutex)
        yield from self.region.run_critical_section(
            thread, self.stats_mutex, self.stats_counter.increment_program, ()
        )
        yield Release(self.stats_mutex)


class DatabaseServer:
    """MySQL's network layer: thread-per-connection over the RPC channel."""

    def __init__(self, database: Database, latency: float = 100e-6):
        self.database = database
        self.kernel = database.kernel
        self.listener = Listener(self.kernel, latency=latency, name="mysql-listen")
        self.connections_served = 0

    def start(self) -> None:
        acceptor = self.kernel.spawn(
            self._accept_loop(), name="mysql-acceptor", stage=self.database.stage
        )
        acceptor.daemon = True

    def _accept_loop(self) -> Iterator:
        thread = yield CurrentThread()
        with frame(thread, "main"):
            while True:
                connection = yield Accept(self.listener)
                self.connections_served += 1
                telemetry.admit(
                    self.database.stage.name,
                    self.kernel,
                    {"connection": self.connections_served},
                )
                handler = self.kernel.spawn(
                    self._connection_loop(connection),
                    name=f"mysql-conn-{self.connections_served}",
                    stage=self.database.stage,
                )
                handler.daemon = True

    def _connection_loop(self, connection) -> Iterator:
        thread = yield CurrentThread()
        database = self.database
        with frame(thread, "main"):
            with frame(thread, "handle_connection"):
                while True:
                    request = yield from recv_request(thread, connection.to_server)
                    plan = request.payload
                    if plan is None:  # connection close
                        return
                    yield from database.execute(thread, plan)
                    with frame(thread, "net_send_ok"):
                        yield from send_response(
                            thread,
                            connection.to_client,
                            request,
                            ("rows", plan.name),
                            plan.response_bytes,
                        )
                    thread.tran_ctxt = None
