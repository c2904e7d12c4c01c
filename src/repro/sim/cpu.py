"""Contended CPU resource with preemptive round-robin scheduling.

Every unit of work in a simulated application is expressed as a CPU
*service demand* in seconds on a :class:`CPU`.  Cores serve demands in
round-robin time slices (default quantum 1 ms, as on a contemporary
Linux kernel); when all cores are busy, threads queue.  Preemption
matters: a thread holding a table lock across a long CPU burst must be
able to make *other* threads block on the lock rather than on the CPU —
that interleaving is where the paper's crosstalk numbers (Table 1) come
from.

As an optimisation (and to keep uncontended timing exact), a job that
has no competitors runs to completion in a single scheduled event; if
new work arrives meanwhile, the extended slice is preempted and
round-robin slicing takes over.  Pass ``quantum=None`` for
run-to-completion FCFS with no preemption.

Under contention a single-core CPU does not put every quantum on the
kernel's wheel.  A quantum that completes nothing only moves its job to
the back of the run queue, so the rotation is walked forward in
arithmetic — the same ``t + quantum`` / ``remaining - quantum`` float
steps the per-quantum events would take — and one event is scheduled for
the first slice that completes a job (or, after ``_LOOKAHEAD`` quanta,
for an ordinary requeue slice).  The skipped quanta are applied when
that event fires, or when an arrival or a counter read needs them
earlier.  An arrival at *exactly* a skipped boundary's timestamp is
queued before the job that boundary requeues.

On completion of each demand the CPU notifies the owning thread's stage
runtime, which is where the sampling profiler attributes profile samples
(annotated by call path and transaction context).
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Deque, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.process import Syscall, SimThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

_EPSILON = 1e-12
_INF = float("inf")

# Most quanta one walk skips.  Bounds the arithmetic an arrival that
# invalidates the plan can throw away: a storm of arrivals against very
# long jobs re-plans at most this many steps each.
_LOOKAHEAD = 64


class _Job:
    __slots__ = ("thread", "remaining", "total")

    def __init__(self, thread: SimThread, amount: float):
        self.thread = thread
        self.remaining = amount
        self.total = amount


class _Slice:
    """One slice on the kernel's wheel, preceded by ``skipped`` unscheduled quanta.

    The slice is its own wheel entry: ``cpu.kernel.wake_at(due, slice)``
    fires :meth:`step` at ``due``, and ``unwake(due, slice)`` withdraws
    it.  With ``skipped == 0`` this is the slice of ``job`` that began
    at ``started_at`` and ends at ``due``.  With ``skipped > 0``
    (single-core round-robin only) ``job`` and ``started_at`` describe
    the quantum in flight, ``skipped`` full quanta — that one included —
    rotate through the run queue without completing anything, and
    ``due`` / ``length`` belong to the slice after them.
    """

    __slots__ = ("cpu", "job", "due", "started_at", "length", "extended", "skipped")

    def __init__(
        self, cpu: "CPU", job: _Job, started_at: float, length: float, extended: bool
    ):
        self.cpu = cpu
        self.job = job
        self.due = 0.0
        self.started_at = started_at
        self.length = length
        self.extended = extended
        self.skipped = 0

    def step(self, value: None = None) -> None:
        """The slice has ended: complete or requeue its job."""
        cpu = self.cpu
        if not self.extended or cpu._run_queue:
            cpu._slice_done(self)
            return
        # A run-to-completion slice with nobody waiting: its job is done
        # and there is nothing to dispatch, so this is _slice_done and
        # _complete inlined for the commonest slice end.
        cpu._slices.remove(self)
        cpu._busy += self.length
        cpu.completed_jobs += 1
        job = self.job
        thread = job.thread
        if thread.stage is not None:
            thread.stage.on_cpu(thread, job.total)
        cpu.kernel.resume(thread, job.total)


class CPU:
    """A bank of identical cores serving CPU demands round-robin.

    Parameters
    ----------
    kernel:
        Owning kernel.
    cores:
        Number of cores (1 reproduces the paper's single bottleneck CPU
        per tier).
    quantum:
        Time-slice length in seconds under contention; ``None`` disables
        preemption entirely (run-to-completion FCFS).
    name:
        For diagnostics and utilization reports.
    clock_hz:
        Cycle-to-seconds conversion for work expressed in cycles (the VM
        emulator reports costs in cycles).  The paper's testbed is a
        2.4 GHz Xeon.
    """

    def __init__(
        self,
        kernel: "Kernel",
        cores: int = 1,
        quantum: Optional[float] = 1e-3,
        name: str = "cpu",
        clock_hz: float = 2.4e9,
    ):
        if cores < 1:
            raise ValueError("need at least one core")
        if quantum is not None and quantum <= 0:
            raise ValueError("quantum must be positive or None")
        self.kernel = kernel
        self.cores = cores
        self.quantum = quantum
        self.name = name
        self.clock_hz = clock_hz
        self._run_queue: Deque[_Job] = deque()
        self._slices: List[_Slice] = []
        self._busy = 0.0
        self.total_demand = 0.0
        self.completed_jobs = 0

    # ------------------------------------------------------------------
    def seconds_for_cycles(self, cycles: float) -> float:
        """Convert a cycle count into seconds at this CPU's clock."""
        return cycles / self.clock_hz

    def submit(self, thread: SimThread, amount: float) -> None:
        """Request ``amount`` seconds of service for ``thread``."""
        if amount < 0:
            raise ValueError("negative CPU demand")
        if amount != amount or amount == _INF:
            # NaN slips past ``amount < 0`` and, like +inf, never gets
            # down to ``remaining <= _EPSILON``: it would be sliced forever.
            raise ValueError("CPU demand must be finite (amount=%r)" % amount)
        self.total_demand += amount
        job = _Job(thread, amount)
        slices = self._slices
        if len(slices) < self.cores and not self._run_queue:
            # An idle core and nobody waiting: run to completion now.
            kernel = self.kernel
            current = _Slice(self, job, kernel.now, amount, True)
            current.due = due = kernel.now + amount
            kernel.wake_at(due, current)
            slices.append(current)
            return
        if slices and slices[0].skipped:
            self._join_rotation(slices[0], job)
            return
        self._run_queue.append(job)
        if len(slices) >= self.cores and self.quantum is not None:
            self._preempt_extended_slices()
        self._dispatch()

    # ------------------------------------------------------------------
    def _preempt_extended_slices(self) -> None:
        """Cut short run-to-completion slices so new arrivals get served."""
        for running in list(self._slices):
            if not running.extended:
                continue
            self.kernel.unwake(running.due, running)
            self._slices.remove(running)
            elapsed = self.kernel.now - running.started_at
            self._busy += elapsed
            running.job.remaining -= elapsed
            if running.job.remaining <= _EPSILON:
                self._complete(running.job)
            else:
                self._run_queue.append(running.job)

    def _dispatch(self) -> None:
        slices = self._slices
        run_queue = self._run_queue
        cores = self.cores
        kernel = self.kernel
        while len(slices) < cores and run_queue:
            job = run_queue.popleft()
            if self.quantum is None or not run_queue:
                # With no competitors (and for quantum=None CPUs), run
                # to completion — exact timing, one event.
                current = _Slice(self, job, kernel.now, job.remaining, True)
                current.due = due = kernel.now + job.remaining
                kernel.wake_at(due, current)
            elif cores == 1:
                current = _Slice(self, job, kernel.now, 0.0, False)
                self._plan(current)
            else:
                # Several cores rotate one queue at staggered times;
                # serve one quantum per event and requeue.
                length = min(self.quantum, job.remaining)
                current = _Slice(self, job, kernel.now, length, False)
                current.due = due = kernel.now + length
                kernel.wake_at(due, current)
            slices.append(current)

    def _plan(self, current: _Slice) -> None:
        """Schedule the first slice from ``current`` on that needs an event.

        Walks the rotation from the quantum in flight, past every
        quantum that would only requeue its job, without touching the
        jobs or the run queue: ``requeued`` stands in for the tail of
        the queue the skipped quanta will have appended by then.
        """
        quantum = self.quantum
        remaining = current.job.remaining
        starts_at = current.started_at
        skipped = 0
        requeued: List[float] = []
        # A list iterator sees later appends: after the waiting jobs,
        # turns come round again in the order the walk requeued them.
        turns = chain((job.remaining for job in self._run_queue), requeued)
        while skipped < _LOOKAHEAD:
            left = remaining - quantum
            if left <= _EPSILON:
                break
            skipped += 1
            starts_at += quantum
            requeued.append(left)
            remaining = next(turns)
        length = min(quantum, remaining)
        current.skipped = skipped
        current.length = length
        current.due = due = starts_at + length
        self.kernel.wake_at(due, current)

    def _apply_skipped(self, current: _Slice, before: float) -> None:
        """Serve ``current``'s skipped quanta that end before ``before``."""
        quantum = self.quantum
        run_queue = self._run_queue
        job = current.job
        started_at = current.started_at
        skipped = current.skipped
        busy = self._busy
        while skipped:
            ended_at = started_at + quantum
            if ended_at >= before:
                break
            busy += quantum
            job.remaining -= quantum
            run_queue.append(job)
            job = run_queue.popleft()
            started_at = ended_at
            skipped -= 1
        current.job = job
        current.started_at = started_at
        current.skipped = skipped
        self._busy = busy

    def _join_rotation(self, current: _Slice, job: _Job) -> None:
        """Queue ``job`` while ``current`` still has quanta to skip."""
        # Strictly before now: an arrival at exactly a boundary's
        # timestamp queues ahead of the job that boundary requeues.
        self._apply_skipped(current, self.kernel.now)
        run_queue = self._run_queue
        run_queue.append(job)
        # The arrival's first turn comes after one pass over the jobs
        # already waiting; a planned slice inside that pass still stands.
        if current.skipped >= len(run_queue):
            self.kernel.unwake(current.due, current)
            self._plan(current)

    def _slice_done(self, current: _Slice) -> None:
        # The slice is its own wheel entry, so no end-time scan is
        # needed; _slices is at most ``cores`` entries.
        if current.skipped:
            self._apply_skipped(current, _INF)
        self._slices.remove(current)
        self._busy += current.length
        job = current.job
        job.remaining -= current.length
        if job.remaining <= _EPSILON:
            self._complete(job)
        else:
            self._run_queue.append(job)
        self._dispatch()

    def _complete(self, job: _Job) -> None:
        self.completed_jobs += 1
        thread = job.thread
        if thread.stage is not None:
            thread.stage.on_cpu(thread, job.total)
        self.kernel.resume(thread, job.total)

    # ------------------------------------------------------------------
    def _served(self) -> Tuple[float, float]:
        """Seconds in slices that have ended by now, and in those in flight.

        A skipped quantum whose end has passed counts as ended, so the
        split is the one per-quantum events would have produced.
        """
        now = self.kernel.now
        quantum = self.quantum
        ended = self._busy
        in_flight = 0.0
        for current in self._slices:
            started_at = current.started_at
            for _ in range(current.skipped):
                ended_at = started_at + quantum
                if ended_at > now:
                    break
                ended += quantum
                started_at = ended_at
            in_flight += now - started_at
        return ended, in_flight

    @property
    def busy_time(self) -> float:
        """Core-seconds served by the slices that have ended."""
        return self._served()[0]

    def utilization(self) -> float:
        """Fraction of core-time spent busy so far, slices in flight included."""
        now = self.kernel.now
        if now <= 0:
            return 0.0
        ended, in_flight = self._served()
        return min(1.0, (ended + in_flight) / (now * self.cores))

    @property
    def queue_length(self) -> int:
        """Jobs waiting for a core (running slices excluded)."""
        return len(self._run_queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CPU {self.name} cores={self.cores} running={len(self._slices)}>"


class UseCPU(Syscall):
    """Consume ``amount`` seconds of CPU service on ``cpu``.

    The thread blocks until its full demand has been served (possibly
    across many time slices).  The syscall result is the amount served.
    """

    __slots__ = ("cpu", "amount")

    def __init__(self, cpu: CPU, amount: float):
        self.cpu = cpu
        self.amount = amount

    def execute(self, kernel: "Kernel", thread: SimThread) -> None:
        thread.blocked_on = self
        self.cpu.submit(thread, self.amount)

    def __repr__(self) -> str:
        return f"UseCPU({self.cpu.name}, {self.amount:.6g}s)"
