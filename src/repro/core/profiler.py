"""The per-stage Whodunit runtime (§7).

Each process of a multi-tier application — the web server, the
application server, the database — owns one :class:`StageRuntime`.  It
holds the stage's synopsis table, its dictionary of CCTs labeled by
transaction context, the crosstalk recorder, and the profiler overhead
model used to reproduce the paper's §9 measurements.

Threads are attached to a stage at spawn time (``kernel.spawn(...,
stage=runtime)``); the CPU resource then reports every completed service
slice to :meth:`StageRuntime.on_cpu`, which is where sampling happens:
the slice's expected sample count is attributed to the thread's current
call path in the CCT selected by the thread's transaction context.
"""

from __future__ import annotations

import enum
import math
import random as _random
import zlib
from typing import Any, Callable, Dict, Mapping, Optional, TYPE_CHECKING

from repro import telemetry as _telemetry
from repro.core.cct import CallingContextTree
from repro.core.context import SynopsisRef, TransactionContext
from repro.core.crosstalk import CrosstalkRecorder
from repro.core.synopsis import CompositeSynopsis, SynopsisTable
from repro.sim.cpu import CPU, UseCPU
from repro.sim.process import SimThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class ProfilerMode(enum.Enum):
    """Which profiler (if any) is attached to a stage.

    Mirrors the four columns of Table 2: no profiling, csprof (plain
    call-path sampling), Whodunit (sampling + transaction tracking), and
    gprof (per-call instrumentation + sampling).
    """

    OFF = "off"
    CSPROF = "csprof"
    WHODUNIT = "whodunit"
    GPROF = "gprof"


class OverheadModel:
    """CPU costs charged by each profiler mechanism.

    All values are seconds of extra CPU.  Defaults are calibrated so the
    simulated TPC-W reproduces Table 2's shape: sampling at gprof's
    default 666 Hz costs a few percent, per-call counting costs ~24%,
    and Whodunit's additions on top of csprof are <0.1%.

    ``call_density`` models the procedure-call rate of the instrumented
    binary (calls per second of useful CPU): our simulated applications
    only push a handful of explicit frames per transaction, but a real
    binary under gprof pays ``mcount`` on *every* call, so gprof's cost
    is charged as ``useful_cpu * call_density * call_cost`` on top of
    the explicit frame pushes.
    """

    def __init__(
        self,
        sample_cost: float = 40e-6,
        call_cost: float = 0.7e-6,
        synopsis_cost: float = 2e-6,
        switch_cost: float = 0.5e-6,
        call_density: float = 300_000.0,
    ):
        self.sample_cost = sample_cost
        self.call_cost = call_cost
        self.synopsis_cost = synopsis_cost
        self.switch_cost = switch_cost
        self.call_density = call_density


LOCAL = TransactionContext.empty()

#: The attached online stitcher (:func:`repro.live.attach_collector`),
#: or ``None``.  A stage runtime built while one is attached hands it
#: its CCT dictionary at construction, so attach before building the
#: system; whoever attaches a collector closes it, which empties the slot.
COLLECTOR: Optional[Any] = None


class StageRuntime:
    """Whodunit state for one stage (process) of the application."""

    def __init__(
        self,
        name: str,
        mode: ProfilerMode = ProfilerMode.WHODUNIT,
        sampling_hz: float = 666.0,
        overhead: Optional[OverheadModel] = None,
        type_of: Optional[Callable[[TransactionContext], Any]] = None,
        deterministic: bool = True,
        seed: int = 0,
        crosstalk_capacity: Optional[int] = None,
        live: bool = True,
    ):
        self.name = name
        self.sampling_hz = sampling_hz
        # Deterministic mode attributes each CPU slice's *expected*
        # sample count; stochastic mode draws the integer number of
        # sample hits per slice (Poisson), as a real timer-based
        # profiler would observe.  Expected totals agree; see the
        # sampling ablation benchmark.
        self.deterministic = deterministic
        # CRC32, not hash(): string hashing is randomised per process.
        self._sample_rng = _random.Random(seed ^ zlib.crc32(name.encode()))
        self.overhead = overhead or OverheadModel()
        # Assigning ``mode`` (a property) caches the per-mode guard
        # flags the hot paths test instead of enum comparisons.
        self.mode = mode
        self.synopses = SynopsisTable(name)
        if crosstalk_capacity is None:
            self.crosstalk = CrosstalkRecorder(type_of=type_of, owner=name)
        else:
            self.crosstalk = CrosstalkRecorder(
                type_of=type_of, event_capacity=crosstalk_capacity, owner=name
            )
        # Map synopsis value -> [caller context active at send time,
        # in-flight count], so a response switches back to the CCT the
        # request originated from (§7.4 step 2 of the receive wrapper).
        # Entries are reference-counted and popped when the matching
        # response arrives: the map tracks only in-flight requests
        # instead of growing forever, and a stale prefix from a long-gone
        # request can no longer be spuriously matched.
        self._sent_requests: Dict[int, list] = {}
        # Per-thread pending overhead seconds, folded into the next CPU
        # demand by work().
        self._pending: Dict[int, float] = {}
        # Communication accounting for §9.1.  The *_full counter tracks
        # what shipping whole contexts instead of synopses would cost
        # (the synopsis ablation).
        self.comm_data_bytes = 0
        self.comm_context_bytes = 0
        self.comm_context_bytes_full = 0
        # Call counting (gprof) is global per stage.
        self.total_calls = 0
        # Context adoptions via a received synopsis — one per stage hop
        # into this stage.  Always maintained (a plain int) so the live
        # telemetry's hop spans can be validated against it.
        self.hops_received = 0
        # Synopsis-protocol violations observed at the receive wrappers
        # (foreign, stale or malformed composites) — counted, never
        # adopted.  Keyed by violation kind.
        self.protocol_violations: Dict[str, int] = {}
        # Recovery accounting: idempotent request retransmissions issued
        # by the RPC layer, and requests abandoned after retry exhaustion.
        self.retransmits = 0
        self.abandoned_requests = 0
        # Crash-and-restart events injected into this stage.
        self.crashes = 0
        # Telemetry, captured once at construction (zero-cost when off).
        tele = _telemetry.ACTIVE
        self._tele = tele
        # The live collector owning this stage's CCTs (see repro.live):
        # the one attached when the runtime is built, unless ``live`` is
        # False (a stage rebuilt from a dump for analysis).  Without one
        # the CCTs are a plain dict and a sample pays one ``is None``.
        self.ccts: Mapping[TransactionContext, CallingContextTree] = {}
        self._live = None
        if live and COLLECTOR is not None:
            COLLECTOR.adopt(self)
        if tele is not None and tele.wants_metrics:
            m = tele.metrics
            self._tele_samples = m.counter(
                "repro_profiler_samples_total", "sample events attributed", stage=name
            )
            self._tele_sample_weight = m.counter(
                "repro_profiler_sample_weight_total",
                "expected sample weight attributed",
                stage=name,
            )
            self._tele_overhead = m.counter(
                "repro_profiler_overhead_seconds_total",
                "CPU seconds charged by the overhead model",
                stage=name,
            )
            self._tele_hops = m.counter(
                "repro_profiler_hops_total",
                "transaction contexts adopted from a received synopsis",
                stage=name,
            )
            self._tele_inflight = m.gauge(
                "repro_profiler_inflight_requests",
                "sent requests awaiting a matched response",
                stage=name,
            )
        else:
            self._tele_samples = None
            self._tele_sample_weight = None
            self._tele_overhead = None
            self._tele_hops = None
            self._tele_inflight = None

    # ------------------------------------------------------------------
    # Profiling state
    # ------------------------------------------------------------------
    @property
    def mode(self) -> ProfilerMode:
        return self._mode

    @mode.setter
    def mode(self, value: ProfilerMode) -> None:
        # The guard flags are tested on every CPU slice and every
        # message hop; caching them here keeps the hot paths to one
        # attribute load instead of a property call plus enum identity
        # comparison.
        self._mode = value
        self._profiling = value is not ProfilerMode.OFF
        self._tracking = value is ProfilerMode.WHODUNIT
        self._gprof = value is ProfilerMode.GPROF

    @property
    def profiling(self) -> bool:
        return self._profiling

    @property
    def tracking(self) -> bool:
        """Whether transaction tracking (Whodunit proper) is active."""
        return self._tracking

    def cct_for(self, label: TransactionContext) -> CallingContextTree:
        """The CCT labeled with ``label``, created on first use (§7.1),
        for the caller to change."""
        if self._live is not None:
            return self._live.tree_for_update(self.ccts, label)
        cct = self.ccts.get(label)
        if cct is None:
            cct = CallingContextTree(label)
            self.ccts[label] = cct
        return cct

    # ------------------------------------------------------------------
    # Hooks from the simulation substrate
    # ------------------------------------------------------------------
    def on_cpu(self, thread: SimThread, amount: float) -> None:
        """Attribute a completed CPU slice as profile samples.

        Deterministic (expected-value) sampling: a slice of ``amount``
        seconds at frequency f contributes ``amount * f`` samples to the
        thread's current call path, annotated with its transaction
        context.
        """
        if not self._profiling or amount <= 0:
            return
        if self._tracking:
            ctxt = thread.tran_ctxt
            label = ctxt if isinstance(ctxt, TransactionContext) else LOCAL
        else:
            label = LOCAL
        expected = amount * self.sampling_hz
        if self.deterministic:
            weight = expected
        else:
            weight = float(self._poisson(expected))
            if weight == 0.0:
                return
        path = tuple(thread.call_stack)
        live = self._live
        if live is None:
            cct = self.ccts.get(label)
            if cct is None:
                cct = self.ccts[label] = CallingContextTree(label)
            cct.record_sample(path, weight)
        else:
            live.on_sample(self.ccts, label, path, weight, thread.kernel.now)
        if self._tele_samples is not None:
            self._tele_samples.inc()
            self._tele_sample_weight.inc(weight)

    def _poisson(self, mean: float) -> int:
        """Poisson sample via inversion (mean values here are small)."""
        if mean > 50:
            # Gaussian approximation for long slices.
            return max(0, round(self._sample_rng.gauss(mean, mean ** 0.5)))
        level = self._sample_rng.random()
        threshold = math.exp(-mean)
        count = 0
        cumulative = threshold
        while level > cumulative:
            count += 1
            threshold *= mean / count
            cumulative += threshold
        return count

    def on_call(self, thread: SimThread) -> None:
        """Procedure-entry hook; gprof's instrumentation lives here."""
        if self._gprof:
            self.total_calls += 1
            self.add_pending(thread, self.overhead.call_cost)
            label = LOCAL
            self.cct_for(label).record_call(thread.call_path())

    # ------------------------------------------------------------------
    # Overhead plumbing
    # ------------------------------------------------------------------
    def add_pending(self, thread: SimThread, seconds: float) -> None:
        """Queue overhead CPU to be charged with the thread's next work."""
        self._pending[thread.tid] = self._pending.get(thread.tid, 0.0) + seconds
        if self._tele_overhead is not None:
            self._tele_overhead.inc(seconds)

    def take_pending(self, thread: SimThread) -> float:
        return self._pending.pop(thread.tid, 0.0)

    def on_thread_exit(self, thread: SimThread) -> None:
        """Teardown hook from :meth:`SimThread.finish` / ``fail``.

        A thread that exits with queued overhead never runs work() again,
        so its pending entry would otherwise be retained forever.
        """
        self._pending.pop(thread.tid, None)

    def inflate(self, thread: SimThread, seconds: float) -> float:
        """Total CPU demand for ``seconds`` of useful work on ``thread``.

        The float expression order is load-bearing: it must match the
        historical ``seconds * hz * cost`` evaluation exactly or
        regenerated runs drift from the golden canonical profiles.
        """
        demand = seconds
        if self._profiling:
            demand += seconds * self.sampling_hz * self.overhead.sample_cost
        if self._gprof:
            # mcount instrumentation on every call of the real binary.
            demand += seconds * self.overhead.call_density * self.overhead.call_cost
        pending = self._pending
        if pending:
            demand += pending.pop(thread.tid, 0.0)
        return demand

    # ------------------------------------------------------------------
    # Context propagation across messages (§5, §7.4)
    # ------------------------------------------------------------------
    def context_at_send(self, thread: SimThread) -> TransactionContext:
        """The transaction context at a send point: any inherited prefix

        context followed by the thread's current call path.
        """
        prefix = thread.tran_ctxt or LOCAL
        return prefix.extend_path(thread.call_path())

    def send_request(self, thread: SimThread) -> Optional[int]:
        """Send-wrapper bookkeeping; returns the synopsis to piggy-back.

        Returns None when tracking is off (nothing is piggy-backed).
        """
        if not self._tracking:
            return None
        context = self.context_at_send(thread)
        live = self._live
        if live is None:
            value = self.synopses.synopsis(context)
        else:
            # Tell the collector only when this send actually allocated
            # a new synopsis: it logs the table's changes, not the
            # traffic.
            before = self.synopses.next_value
            value = self.synopses.synopsis(context)
            if self.synopses.next_value != before:
                live.on_mint(self.ccts, value, context, thread.kernel.now)
        entry = self._sent_requests.get(value)
        if entry is None:
            self._sent_requests[value] = [thread.tran_ctxt, 1]
        else:
            # Identical in-flight sends share one entry; count them so
            # each response can match before the entry is dropped.
            entry[0] = thread.tran_ctxt
            entry[1] += 1
        self.add_pending(thread, self.overhead.synopsis_cost)
        self.comm_context_bytes_full += context.wire_size()
        if self._tele_inflight is not None:
            self._tele_inflight.set(len(self._sent_requests))
        return value

    def receive_request(self, thread: SimThread, origin: str, synopsis: Optional[int]) -> None:
        """Receive-wrapper at the callee: adopt the sender's context."""
        if not self._tracking or synopsis is None:
            return
        thread.tran_ctxt = TransactionContext((SynopsisRef(origin, synopsis),))
        self.add_pending(thread, self.overhead.synopsis_cost + self.overhead.switch_cost)
        self.hops_received += 1
        tele = self._tele
        if tele is not None:
            # One instant span per stage hop; joined to the sender's
            # trace through the synopsis it piggy-backed.
            tele.spans.instant(
                f"{origin}->{self.name}",
                "transaction.hop",
                self.name,
                thread.kernel.now,
                thread=thread.tid,
                attrs={"origin": origin, "synopsis": synopsis},
                adopt=(origin, synopsis),
            )
            if self._tele_hops is not None:
                self._tele_hops.inc()

    def send_response(self, thread: SimThread, request_synopsis: Optional[int]) -> Optional[CompositeSynopsis]:
        """Send-wrapper for a response: ``synopsis(α)#synopsis(β)``."""
        if not self._tracking or request_synopsis is None:
            return None
        local = TransactionContext.from_call_path(thread.call_path())
        self.add_pending(thread, self.overhead.synopsis_cost)
        self.comm_context_bytes_full += local.wire_size()
        live = self._live
        if live is None:
            return self.synopses.make_response(request_synopsis, local)
        before = self.synopses.next_value
        composite = self.synopses.make_response(request_synopsis, local)
        if self.synopses.next_value != before:
            live.on_mint(self.ccts, composite.suffix, local, thread.kernel.now)
        return composite

    def receive_response(self, thread: SimThread, composite: Optional[CompositeSynopsis]) -> bool:
        """Receive-wrapper at the caller.

        If the composite's prefix originated here, switch the thread back
        to the context the request was sent from and return True.
        """
        if not self._tracking or composite is None:
            return False
        entry = self._sent_requests.get(composite.prefix)
        if entry is None:
            return False
        context, in_flight = entry
        if in_flight <= 1:
            del self._sent_requests[composite.prefix]
        else:
            entry[1] = in_flight - 1
        thread.tran_ctxt = context
        self.add_pending(thread, self.overhead.switch_cost)
        if self._tele_inflight is not None:
            self._tele_inflight.set(len(self._sent_requests))
        return True

    def note_violation(self, kind: str) -> None:
        """Count a synopsis-protocol violation (never adopt the context)."""
        self.protocol_violations[kind] = self.protocol_violations.get(kind, 0) + 1
        tele = self._tele
        if tele is not None and tele.wants_metrics:
            tele.metrics.counter(
                "repro_rpc_protocol_violations_total",
                "foreign/stale/malformed response synopses rejected",
                stage=self.name,
                kind=kind,
            ).inc()

    def note_retransmit(self, thread: SimThread) -> None:
        """Account an idempotent re-send of an in-flight request."""
        self.retransmits += 1
        self.add_pending(thread, self.overhead.synopsis_cost)

    def abandon_request(self, synopsis: Optional[int]) -> None:
        """Drop the in-flight entry for a request whose retries are
        exhausted, so a lossy run cannot grow the map without bound."""
        if synopsis is None:
            return
        self.abandoned_requests += 1
        entry = self._sent_requests.get(synopsis)
        if entry is None:
            return
        if entry[1] <= 1:
            del self._sent_requests[synopsis]
        else:
            entry[1] -= 1
        if self._tele_inflight is not None:
            self._tele_inflight.set(len(self._sent_requests))

    def crash(self, restart_after: Optional[float] = None) -> int:
        """Crash-and-restart amnesia: lose the synopsis dictionary.

        Models a stage process dying and coming straight back (the
        thread-per-connection tiers restart transparently): the in-memory
        synopsis table and in-flight request map are volatile and lost,
        while sampled profile data — which Whodunit spills to disk — is
        kept.  Pre-crash synopses held by remote stages become
        unresolvable and surface through partial stitching.
        ``restart_after`` is accepted for interface parity with
        :meth:`~repro.seda.stage.SedaStage.crash` and ignored: a bare
        runtime has no threads to restart.  Returns the number of
        synopsis mappings lost.
        """
        self.crashes += 1
        self._sent_requests.clear()
        self._pending.clear()
        if self._tele_inflight is not None:
            self._tele_inflight.set(0)
        lost = self.synopses.clear_mappings()
        if self._live is not None:
            # The collector logs the clear for its checkpoints' replay.
            self._live.on_crash(self.ccts, lost)
        return lost

    @property
    def in_flight_requests(self) -> int:
        """Requests sent whose responses have not yet been matched."""
        return len(self._sent_requests)

    def account_message(self, data_bytes: int, context_bytes: int) -> None:
        """Track §9.1's data-vs-context communication volumes."""
        self.comm_data_bytes += data_bytes
        self.comm_context_bytes += context_bytes

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def total_weight(self) -> float:
        return sum(cct.total_weight() for cct in self.ccts.values())

    def labels(self):
        return list(self.ccts.keys())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StageRuntime {self.name} mode={self.mode.value} ccts={len(self.ccts)}>"


def work(thread: SimThread, cpu: CPU, seconds: float) -> UseCPU:
    """The CPU demand for ``seconds`` of useful work, plus profiler overhead.

    The standard way application code burns CPU::

        yield work(thread, cpu, 0.0015)

    The syscall's result is the demand served.  When the thread's stage
    profiles, the demand is inflated by the overhead model, which is
    how Table 2 and §9.2/9.3's throughput deltas arise.
    """
    stage = thread.stage
    return UseCPU(cpu, stage.inflate(thread, seconds) if stage is not None else seconds)
