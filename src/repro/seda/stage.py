"""The SEDA middleware analog: stages, stage queues, context tracking.

This is Fig 5 of the paper, executable.  Stage queues carry a
transaction-context field on every element; a stage worker thread
dequeues an element, computes its current context by appending the
stage's name (collapsing repeats and pruning loops exactly as for
events), runs the stage handler, and any element it enqueues downstream
inherits its current context.  Applications built on this middleware —
the Haboob-like server of :mod:`repro.apps.haboob` — need no
modification for transactional profiling.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Iterator, List, Optional, TYPE_CHECKING

from repro import telemetry as _telemetry
from repro.core.context import TransactionContext
from repro.sim.process import CurrentThread, SimThread, Syscall, frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class StageEvent:
    """A queue element with its transaction-context field (Fig 5).

    ``enqueued_at`` is stamped by telemetry-enabled queues so the
    dequeuing worker can report queue wait time; it stays ``None`` when
    telemetry is off.
    """

    __slots__ = ("payload", "tran_ctxt", "enqueued_at")

    def __init__(self, payload: Any, tran_ctxt: Optional[TransactionContext] = None):
        self.payload = payload
        self.tran_ctxt = TransactionContext.empty() if tran_ctxt is None else tran_ctxt
        self.enqueued_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StageEvent {self.payload!r} ctxt={self.tran_ctxt!r}>"


class StageQueue:
    """A FIFO queue connecting consecutive stages.

    With ``capacity=None`` the queue is unbounded.  A bounded queue
    implements SEDA's admission control: when full, :meth:`enqueue`
    rejects the element (returns False) so the upstream stage can shed
    load instead of letting queues grow without bound — the mechanism
    behind SEDA's "well-conditioned" behaviour under overload.
    """

    __slots__ = (
        "kernel",
        "name",
        "capacity",
        "_elements",
        "_waiters",
        "enqueued",
        "rejected",
        "_tele",
        "_tele_depth",
        "_tele_enqueued",
        "_tele_rejected",
    )

    def __init__(
        self,
        kernel: "Kernel",
        name: str = "stage_queue",
        capacity: Optional[int] = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.kernel = kernel
        self.name = name
        self.capacity = capacity
        self._elements: Deque[StageEvent] = deque()
        self._waiters: Deque[SimThread] = deque()
        self.enqueued = 0
        self.rejected = 0
        # Captured once: a queue built while telemetry is off costs
        # nothing per element.
        tele = _telemetry.ACTIVE
        self._tele = tele
        if tele is not None and tele.wants_metrics:
            m = tele.metrics
            self._tele_depth = m.gauge(
                "repro_seda_queue_depth", "buffered elements", queue=name
            )
            self._tele_enqueued = m.counter(
                "repro_seda_enqueued_total", "elements admitted", queue=name
            )
            self._tele_rejected = m.counter(
                "repro_seda_rejected_total",
                "elements rejected by admission control",
                queue=name,
            )
        else:
            self._tele_depth = None
            self._tele_enqueued = None
            self._tele_rejected = None

    def enqueue(self, element: StageEvent) -> bool:
        """Fig 5's ``enqueue``: deliver to a blocked worker or buffer.

        Returns False (and drops the element) when a bounded queue is
        full — SEDA admission control.
        """
        tele_enqueued = self._tele_enqueued
        if self._tele is not None:
            element.enqueued_at = self.kernel.now
        waiters = self._waiters
        while waiters:
            waiter = waiters.popleft()
            if not waiter.alive:
                # The worker crashed while blocked here; the element must
                # go to a surviving worker (or the buffer), not vanish.
                continue
            self.enqueued += 1
            if tele_enqueued is not None:
                tele_enqueued.inc()
            self.kernel.resume(waiter, element)
            return True
        elements = self._elements
        if self.capacity is not None and len(elements) >= self.capacity:
            self.rejected += 1
            if self._tele_rejected is not None:
                self._tele_rejected.inc()
            return False
        self.enqueued += 1
        elements.append(element)
        if tele_enqueued is not None:
            tele_enqueued.inc()
            self._tele_depth.set(len(elements))
        return True

    def __len__(self) -> int:
        return len(self._elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StageQueue {self.name} depth={len(self._elements)}>"


class Dequeue(Syscall):
    """Block until the stage queue has an element; result is the element.

    With ``batch > 1`` a non-empty queue yields a *list* of up to
    ``batch`` buffered elements in FIFO order — one worker wakeup
    drains a run of ready items instead of paying a schedule/resume
    round trip per element.  ``share`` is the stage's worker-pool
    size: a worker only takes its fair share of the backlog
    (``len // share``, at least one element) so one wakeup never
    starves sibling workers of ready elements and stage parallelism
    is preserved.  A worker parked on an empty queue is still handed
    a single element by :meth:`StageQueue.enqueue`, so batch
    consumers must accept both shapes (see
    :meth:`SedaStage._worker_loop`).
    """

    __slots__ = ("queue", "batch", "share")

    def __init__(self, queue: StageQueue, batch: int = 1, share: int = 1):
        self.queue = queue
        self.batch = batch
        self.share = share if share > 0 else 1

    def execute(self, kernel: "Kernel", thread: SimThread) -> None:
        queue = self.queue
        elements = queue._elements
        if elements:
            batch = self.batch
            if batch > 1 and len(elements) > 1:
                take = len(elements) // self.share
                if take < 1:
                    take = 1
                elif take > batch:
                    take = batch
                if take > 1:
                    result = [elements.popleft() for _ in range(take)]
                else:
                    result = elements.popleft()
            else:
                result = elements.popleft()
            if queue._tele_depth is not None:
                queue._tele_depth.set(len(elements))
            kernel.resume(thread, result)
        else:
            thread.blocked_on = self
            queue._waiters.append(thread)

    def __repr__(self) -> str:
        return f"Dequeue({self.queue.name})"


class SedaStage:
    """One SEDA stage: an input queue and a pool of worker threads.

    The handler is a generator ``handler(stage, thread, payload)``
    yielding simulation syscalls.  It sends work downstream with
    :meth:`enqueue`, which stamps the element with the worker's current
    transaction context (Fig 5 line 12).
    """

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        handler: Callable[["SedaStage", SimThread, Any], Iterator],
        workers: int = 1,
        stage_runtime: Any = None,
        prune_loops: bool = True,
        queue_capacity: Optional[int] = None,
        dequeue_batch: int = 8,
    ):
        self.kernel = kernel
        self.name = name
        self.handler = handler
        self.workers = workers
        self.stage_runtime = stage_runtime
        self.prune_loops = prune_loops
        # Max ready elements one worker wakeup drains (1 = classic
        # element-per-wakeup dispatch).
        self.dequeue_batch = max(1, dequeue_batch)
        self.input_queue = StageQueue(kernel, f"{name}.in", capacity=queue_capacity)
        self.threads: List[SimThread] = []
        self.processed = 0
        self.crashes = 0
        self.restarts = 0
        self.lost_elements = 0
        tele = _telemetry.ACTIVE
        self._tele = tele
        if tele is not None and tele.wants_metrics:
            m = tele.metrics
            self._tele_wait = m.histogram(
                "repro_seda_queue_wait_seconds",
                "virtual time an element waits in the stage input queue",
                stage=name,
            )
            self._tele_service = m.histogram(
                "repro_seda_service_seconds",
                "virtual time a worker spends handling one element",
                stage=name,
            )
        else:
            self._tele_wait = None
            self._tele_service = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the stage's worker threads."""
        for i in range(self.workers):
            thread = self.kernel.spawn(
                self._worker_loop(),
                name=f"{self.name}-{i}",
                stage=self.stage_runtime,
            )
            thread.daemon = True
            self.threads.append(thread)

    def _worker_loop(self) -> Iterator:
        thread = yield CurrentThread()
        tele = self._tele
        queue = self.input_queue
        prune = self.prune_loops
        name = self.name
        # One reusable (stateless) Dequeue syscall per worker: the
        # per-element allocation was measurable on stage-heavy runs.
        deq = Dequeue(queue, batch=self.dequeue_batch, share=self.workers)
        with frame(thread, "stage_loop"):
            while True:
                batch = yield deq
                if batch.__class__ is not list:
                    batch = (batch,)
                index = 0
                try:
                    for index, element in enumerate(batch):
                        # Fig 5 lines 5-6: current context = concat(
                        # element context, current stage), normalised
                        # per §4.1/§4.2.
                        thread.tran_ctxt = element.tran_ctxt.append(
                            name, prune=prune
                        )
                        self.processed += 1
                        span = None
                        if tele is not None:
                            now = self.kernel.now
                            wait = (
                                now - element.enqueued_at
                                if element.enqueued_at is not None
                                else 0.0
                            )
                            if self._tele_wait is not None:
                                self._tele_wait.observe(wait)
                            span = tele.spans.begin(
                                name,
                                "seda.stage",
                                name,
                                now,
                                thread=thread.tid,
                                attrs={"queue_wait": wait},
                            )
                        closing = False
                        try:
                            with frame(thread, name):
                                yield from self.handler(
                                    self, thread, element.payload
                                )
                        except GeneratorExit:
                            # The worker is being destroyed while
                            # suspended — a stage crash, or the
                            # interpreter finalizing the generator at
                            # garbage-collection time.  The element
                            # never completed, and GC can fire at an
                            # arbitrary point of the host program (even
                            # mid-iteration of the span recorder's own
                            # structures), so emitting telemetry from
                            # here would both fake a completion and
                            # mutate live state out of virtual time.
                            closing = True
                            raise
                        finally:
                            thread.tran_ctxt = None
                            if span is not None and not closing:
                                tele.spans.end(span, self.kernel.now)
                                if self._tele_service is not None:
                                    self._tele_service.observe(span.duration)
                except GeneratorExit:
                    # Killed mid-batch: the unprocessed tail returns to
                    # the queue front (the in-flight element is lost,
                    # as in element-per-wakeup dispatch), so crash
                    # accounting counts exactly the same losses.
                    for rest in reversed(batch[index + 1 :]):
                        queue._elements.appendleft(rest)
                    raise

    # ------------------------------------------------------------------
    def crash(self, restart_after: Optional[float] = None) -> None:
        """Fail-stop the stage: kill every worker thread mid-flight.

        Elements buffered in the input queue (the crashed process's
        memory) are lost, and the attached profiler runtime loses its
        volatile bookkeeping — in particular the synopsis-table
        mappings, which is what makes pre-crash synopses *unresolvable*
        during stitching rather than aliasable.  With ``restart_after``
        a fresh worker pool is spawned that much virtual time later;
        the lost mappings stay lost (restart is not recovery).

        Limitation: a worker killed while holding a simulated mutex
        never releases it; crash points should sit at stage boundaries,
        not inside critical sections.
        """
        self.crashes += 1
        for thread in self.threads:
            if thread.alive:
                thread.finish(None)
        self.threads = []
        queue = self.input_queue
        self.lost_elements += len(queue._elements)
        queue._elements.clear()
        # Dead workers parked in Dequeue must not linger in the waiter
        # list: enqueue() skips them but never frees them, so repeated
        # crash/restart cycles would grow the deque without bound.
        if queue._waiters:
            queue._waiters = deque(w for w in queue._waiters if w.alive)
        if queue._tele_depth is not None:
            queue._tele_depth.set(0)
        runtime = self.stage_runtime
        if runtime is not None:
            runtime_crash = getattr(runtime, "crash", None)
            if runtime_crash is not None:
                runtime_crash()
        if restart_after is not None:
            self.kernel.schedule(restart_after, self.restart)

    def restart(self) -> None:
        """Spawn a fresh worker pool after a crash."""
        self.restarts += 1
        self.start()

    # ------------------------------------------------------------------
    def enqueue(self, thread: SimThread, queue: StageQueue, payload: Any) -> bool:
        """Fig 5's ``enqueue_elem``: stamp and enqueue downstream work.

        Returns False when the downstream queue rejected the element
        (admission control on a bounded queue).
        """
        return queue.enqueue(StageEvent(payload, thread.tran_ctxt))

    def inject(self, payload: Any) -> bool:
        """Enqueue external work (no transaction context yet)."""
        return self.input_queue.enqueue(StageEvent(payload))
