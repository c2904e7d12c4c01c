"""Simulation kernel: virtual clock, indexed timer wheel, thread scheduler.

The kernel owns a timestamp-indexed timer wheel of wakeups and a
registry of live :class:`~repro.sim.process.SimThread` coroutines.  All
application code in this repository runs on top of it; nothing ever
reads the wall clock, so a given seed always produces the same
execution, event for event.

Event-queue design (the "kernel raw-speed overhaul")
----------------------------------------------------

The original kernel kept one binary heap of callback objects ordered by
a Python-level ``__lt__``; every push and pop paid ``O(log n)``
*interpreted* comparisons, and same-timestamp storms (every resume)
re-entered the heap per event.  The rewrite is a two-level structure —
a hashed timing wheel with an exact-time cursor:

- ``_wheel``: a dict mapping each *exact* pending timestamp to the list
  of entries scheduled at it (its bucket).  Scheduling is an O(1) dict
  append, so a bucket is in insertion order.  Every entry is a bare
  ``(target, value)`` pair that fires as ``target.step(value)``: a
  thread wakeup (spawn, resume, ``Delay``), a CPU slice, a message
  delivery, a receive timeout, a disk completion (:meth:`Kernel.wake_at`).
- ``_times``: a heap of the distinct pending timestamps (plain floats,
  so every comparison runs in C).  One heap operation per *timestamp*,
  not per event: a bucket of ten thousand same-time events costs one
  pop, and the whole run of events drains in a tight loop — the batched
  same-timestamp dispatch.

One more level sits in front of the wheel: ``_ready``, a single slot
for the most common entry of all, a thread woken at the very instant it
is running (a CPU completion, a send, a delivery to a blocked receiver,
a SEDA enqueue).  :meth:`Kernel.resume` stores the ``(thread, value)``
pair there when the slot is empty and no bucket exists at ``now``, and
:meth:`Kernel.run` fires it before popping the next timestamp — no
bucket list, no heap push, no heap pop of a float that is already
``now``.  The slot is exactly the head of the next same-time bucket:
anything scheduled at ``now`` after it lands in a bucket behind it, a
multi-event batch in flight finishes first (its entries were scheduled
earlier), and every exit from ``run()`` (``stop()``, a raising handler)
moves a filled slot back to the head of the bucket at ``now`` before
the tail of an interrupted batch is requeued ahead of it.

Withdrawal (:meth:`Kernel.unwake`) takes the entry out of its bucket
at once, dropping the bucket when it empties; the bucket's timestamp
stays in the heap and is skipped when it comes up.  An entry whose
batch is already in flight is taken out of that batch, so it neither
fires nor counts.  Nothing is left behind to purge, which keeps the
dominant set-then-withdraw pattern (an RPC ``RetryPolicy`` timeout
withdrawn by the arriving response) cheap: no heap traffic for the
entry itself, only for its (often shared, often already pending)
timestamp.

A classical *hierarchical* timer wheel quantises time into ticks; this
kernel deliberately does not, because runs must be byte-reproducible and
virtual timestamps are exact floats — rounding a timeout to a tick
boundary would change simulation results.  Indexing on the exact
timestamp keeps O(1) scheduling and withdrawal while preserving exact
(time, insertion-order) firing semantics.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Dict, Iterator, List, Optional

from repro import telemetry as _telemetry
from repro.sim.process import SimThread

# With telemetry on, refresh the kernel gauges every this many events
# rather than on every pop.
_TELEMETRY_GAUGE_INTERVAL = 64

_INF = float("inf")

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(Exception):
    """Raised for misuse of simulation primitives (double release, etc.)."""


class Deadlock(SimulationError):
    """Raised when the event queue drains while threads are still blocked."""


class _Throw:
    """Wheel target that raises the fired value inside ``thread``."""

    __slots__ = ("thread",)

    def __init__(self, thread: SimThread):
        self.thread = thread

    def step(self, exc: BaseException) -> None:
        self.thread.throw(exc)


class Kernel:
    """Discrete-event simulation kernel.

    Typical use::

        kernel = Kernel()
        kernel.spawn(my_generator(), name="worker")
        kernel.run(until=10.0)

    Parameters
    ----------
    strict:
        When true (the default), :meth:`run` raises :class:`Deadlock` if
        the event queue empties while spawned threads remain blocked.
    """

    __slots__ = (
        "now",
        "strict",
        "livelock_limit",
        "_same_time_events",
        "_ready",
        "_in_flight",
        "_wheel",
        "_times",
        "_num_events",
        "_threads",
        "_next_tid",
        "_stopped",
        "faults",
        "_tele_events",
        "_tele_cancelled",
        "_tele_heap",
        "_tele_threads",
        "_tele_vtime",
        "_tele_drift",
    )

    def __init__(self, strict: bool = True, livelock_limit: int = 2_000_000):
        self.now: float = 0.0
        self.strict = strict
        # A model bug (e.g. a zero-cost request loop against a
        # zero-latency server) can fire events forever without advancing
        # virtual time; fail loudly instead of spinning silently.
        self.livelock_limit = livelock_limit
        self._same_time_events = 0
        # Timer wheel: exact timestamp -> FIFO bucket of ``(target,
        # value)`` entries, plus a float heap of the distinct pending
        # timestamps (see module docstring).  ``_num_events`` counts
        # every entry in the wheel.
        self._wheel: Dict[float, List[tuple]] = {}
        self._times: List[float] = []
        self._num_events = 0
        # At most one bare wakeup due at ``now``, ahead of the wheel (see
        # module docstring); not counted in ``_num_events``.
        self._ready: Optional[tuple] = None
        # The unfired entries of the batch run() is dispatching, in
        # reverse (the batch pops from the end), for unwake() to find
        # entries that have left the wheel but not fired yet.
        self._in_flight: Optional[list] = None
        # Only live threads: finished/failed threads are reaped (see
        # :meth:`reap`), so deadlock checks and live_threads stay O(live)
        # however many short-lived threads a run spawns.
        self._threads: Dict[int, SimThread] = {}
        self._next_tid = 0
        self._stopped = False
        # Fault injector (repro.faults.install_faults); endpoints capture
        # their per-rule state from it at construction.  None = lossless.
        self.faults: Any = None
        # Telemetry is captured once at construction so a disabled run
        # pays nothing in the event loop (no global lookups per event).
        tele = _telemetry.ACTIVE
        if tele is not None and tele.wants_metrics:
            m = tele.metrics
            self._tele_events = m.counter(
                "repro_sim_events_fired_total", "kernel events executed"
            )
            self._tele_cancelled = m.counter(
                "repro_sim_events_cancelled_total", "scheduled events cancelled"
            )
            self._tele_heap = m.gauge(
                "repro_sim_event_heap_size", "entries in the kernel timer wheel"
            )
            self._tele_threads = m.gauge(
                "repro_sim_live_threads", "live simulated threads (runnable queue)"
            )
            self._tele_vtime = m.gauge(
                "repro_sim_virtual_time_seconds", "current virtual time"
            )
            self._tele_drift = m.gauge(
                "repro_sim_time_drift",
                "wall-clock seconds consumed per virtual second",
            )
        else:
            self._tele_events = None
            self._tele_cancelled = None
            self._tele_heap = None
            self._tele_threads = None
            self._tele_vtime = None
            self._tele_drift = None

    def _refresh_telemetry_gauges(self) -> None:
        self._tele_heap.set(self.pending_events())
        self._tele_threads.set(len(self._threads))
        self._tele_vtime.set(self.now)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def wake_at(self, when: float, target: Any, value: Any = None) -> None:
        """Call ``target.step(value)`` at the absolute virtual time ``when``.

        The caller withdraws the entry, if at all, with :meth:`unwake`.
        ``when`` is taken bit for bit: a caller with a relative delay
        passes ``kernel.now + delay``, one that computed an absolute time
        passes it as is (``now + (when - now)`` is not ``when`` in
        floats).
        """
        if when < self.now:
            raise ValueError(
                "cannot schedule into the past (when=%r, now=%r)" % (when, self.now)
            )
        if when != when or when == _INF:
            # NaN slips past ``when < now`` (all comparisons are False)
            # and, like +inf, would corrupt the wheel's time ordering.
            raise ValueError("time must be finite (when=%r)" % when)
        self._num_events += 1
        bucket = self._wheel.get(when)
        if bucket is None:
            self._wheel[when] = [(target, value)]
            _heappush(self._times, when)
        else:
            bucket.append((target, value))

    def unwake(self, when: float, target: Any) -> None:
        """Withdraw ``target``'s first pending :meth:`wake_at` entry at ``when``.

        An emptied bucket is dropped; its timestamp stays in the heap
        and :meth:`run` skips it.  An entry whose batch is already in
        flight is not on the wheel: it is taken out of the batch, which
        then neither fires nor counts it (and, having left the wheel,
        it is not counted as cancelled either).
        """
        bucket = self._wheel.get(when)
        if bucket is not None:
            for index, entry in enumerate(bucket):
                if entry[0] is target:
                    del bucket[index]
                    self._num_events -= 1
                    if not bucket:
                        del self._wheel[when]
                    if self._tele_cancelled is not None:
                        self._tele_cancelled.inc()
                    return
        batch = self._in_flight
        if batch is not None:
            # Reversed: the next entry to fire is the last one.
            for index in range(len(batch) - 1, -1, -1):
                if batch[index][0] is target:
                    del batch[index]
                    return
        raise SimulationError("no pending wakeup of %r at %r" % (target, when))

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------
    def spawn(
        self,
        generator: Iterator,
        name: Optional[str] = None,
        stage: Any = None,
    ) -> SimThread:
        """Create a thread from a generator and start it immediately.

        ``stage`` attaches the thread to a profiling stage runtime (see
        :mod:`repro.core.profiler`); it may be ``None`` for unprofiled
        threads such as client emulators.
        """
        tid = self._next_tid
        self._next_tid += 1
        thread = SimThread(self, generator, tid, name, stage)
        self._threads[tid] = thread
        # Inlined wake_at(now, thread): spawn is the thread-churn hot
        # path, and ``now`` needs no validation.
        when = self.now
        self._num_events += 1
        bucket = self._wheel.get(when)
        if bucket is None:
            self._wheel[when] = [(thread, None)]
            _heappush(self._times, when)
        else:
            bucket.append((thread, None))
        return thread

    def reap(self, thread: SimThread) -> None:
        """Drop a finished thread from the registry.

        Called from :meth:`SimThread.finish` / ``fail``; keeps
        ``live_threads`` and the deadlock check proportional to the
        number of *live* threads instead of every thread ever spawned.
        """
        self._threads.pop(thread.tid, None)

    def resume(self, thread: SimThread, value: Any = None) -> None:
        """Unblock ``thread``, delivering ``value`` as the result of the

        syscall it is blocked on.  The thread runs at the current time.
        """
        # Inlined wake_at(now, thread, value) — the hottest kernel entry
        # point after the event loop itself.  The first wakeup at a
        # fresh instant takes the ready slot instead of a new bucket;
        # anything already at ``now`` must fire first.
        when = self.now
        bucket = self._wheel.get(when)
        if bucket is None:
            if self._ready is None:
                self._ready = (thread, value)
                return
            self._wheel[when] = [(thread, value)]
            _heappush(self._times, when)
        else:
            bucket.append((thread, value))
        self._num_events += 1

    def _unready(self) -> None:
        """Move a filled ready slot to the head of the bucket at ``now``.

        That is where the wakeup would sit had it gone to the wheel: the
        slot only fills while no bucket exists at ``now``, so everything
        in that bucket was scheduled after it.
        """
        ready = self._ready
        if ready is None:
            return
        self._ready = None
        when = self.now
        self._num_events += 1
        bucket = self._wheel.get(when)
        if bucket is None:
            self._wheel[when] = [ready]
            _heappush(self._times, when)
        else:
            bucket.insert(0, ready)

    def throw_in(self, thread: SimThread, exc: BaseException) -> None:
        """Raise ``exc`` inside ``thread`` at its current yield point."""
        self.wake_at(self.now, _Throw(thread), exc)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _livelock(self) -> SimulationError:
        return SimulationError(
            f"livelock: {self.livelock_limit} events fired "
            f"at t={self.now} without the clock advancing"
        )

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the virtual time at which the run stopped.  ``until``
        must be finite and not before ``now``.
        """
        if until is not None:
            if until < self.now:
                raise ValueError(
                    "cannot run into the past (until=%r, now=%r)" % (until, self.now)
                )
            if until != until or until == _INF:
                # NaN would drain the whole wheel as if unbounded, and
                # +inf would leave the clock at inf for the next wake_at().
                raise ValueError("horizon must be finite (until=%r)" % until)
        self._stopped = False
        # A previous horizon-bounded run() may have returned mid-batch
        # of same-timestamp events; the livelock counter is per-run
        # state and must not leak across segments.
        self._same_time_events = 0
        wheel = self._wheel
        times = self._times
        pop_bucket = wheel.pop
        heappop = _heappop
        horizon = _INF if until is None else until
        livelock_limit = self.livelock_limit
        tele_events = self._tele_events
        if tele_events is not None:
            wall_start = time.perf_counter()
            virtual_start = self.now
            fired_total = 0
        now = self.now
        try:
            while True:
                ready = self._ready
                if ready is not None:
                    if now in wheel:
                        # Something was scheduled at ``now`` after the
                        # wakeup: it heads that bucket and fires in its
                        # batch, as it would have on the wheel.
                        self._unready()
                    else:
                        # A one-event bucket at ``now``: the fast path
                        # below, without the wheel round trip.
                        self._ready = None
                        same = self._same_time_events + 1
                        self._same_time_events = same
                        if same > livelock_limit:
                            raise self._livelock()
                        ready[0].step(ready[1])
                        if tele_events is not None:
                            tele_events.inc()
                            fired_total += 1
                            if fired_total % _TELEMETRY_GAUGE_INTERVAL == 0:
                                self._refresh_telemetry_gauges()
                        if self._stopped:
                            break
                        continue
                if not times:
                    break
                when = heappop(times)
                if when > horizon:
                    # Leave the bucket for a later run() call and stop the
                    # clock exactly at the horizon.
                    _heappush(times, when)
                    self.now = until
                    return until
                if when < now:
                    raise SimulationError("time went backwards")
                batch = pop_bucket(when, None)
                if batch is None:
                    # Every entry at this timestamp was withdrawn.
                    continue
                if len(batch) == 1:
                    # Fast path: one entry at this timestamp (the common
                    # case for distinct timer deadlines).  Nothing runs
                    # between its pop and its firing, so nothing can
                    # withdraw it, and nothing is ever requeued.
                    target, value = batch[0]
                    self._num_events -= 1
                    if when > now:
                        self.now = now = when
                        self._same_time_events = 0
                    else:
                        same = self._same_time_events + 1
                        self._same_time_events = same
                        if same > livelock_limit:
                            raise self._livelock()
                    target.step(value)
                    if tele_events is not None:
                        tele_events.inc()
                        fired_total += 1
                        if fired_total % _TELEMETRY_GAUGE_INTERVAL == 0:
                            self._refresh_telemetry_gauges()
                    if self._stopped:
                        break
                    continue
                # Batched dispatch: the whole bucket leaves the wheel and
                # fires from the end of the reversed list, so what is
                # left in it is always exactly the unfired tail.
                self._num_events -= len(batch)
                if when > now:
                    self.now = now = when
                    same = -1  # the first event at a new time resets the count
                else:
                    same = self._same_time_events
                fired = 0
                batch.reverse()
                pop = batch.pop
                self._in_flight = batch
                try:
                    while batch:
                        target, value = pop()
                        target.step(value)
                        fired += 1
                        if tele_events is not None:
                            tele_events.inc()
                            fired_total += 1
                            if fired_total % _TELEMETRY_GAUGE_INTERVAL == 0:
                                self._refresh_telemetry_gauges()
                        if self._stopped:
                            break
                except BaseException:
                    # The raising entry is consumed; the tail goes back
                    # below so a later run() resumes exactly there.
                    self._same_time_events = max(same + fired, 0)
                    raise
                finally:
                    self._in_flight = None
                    if batch:
                        # Stopped or raised mid-batch: a slot filled
                        # during the batch goes behind its unfired tail.
                        self._unready()
                        self._requeue(when, batch)
                same += fired
                self._same_time_events = max(same, 0)
                if same > livelock_limit:
                    raise self._livelock()
                if self._stopped:
                    break
        except BaseException:
            # A wakeup a raising handler left in the slot stays pending.
            self._unready()
            raise
        # stop() may leave a wakeup in the slot for the next run().
        self._unready()
        if tele_events is not None:
            elapsed_virtual = self.now - virtual_start
            if elapsed_virtual > 0:
                self._tele_drift.set(
                    (time.perf_counter() - wall_start) / elapsed_virtual
                )
            self._refresh_telemetry_gauges()
        if until is not None and not self._stopped:
            self.now = max(self.now, until)
        if self.strict and not self._stopped and until is None:
            # Bounded runs legitimately leave server threads blocked on
            # accept queues; only an unbounded run that drains the event
            # queue with blocked non-daemon threads is a deadlock.
            blocked = [
                t
                for t in self._threads.values()
                if t.alive and t.blocked_on and not t.daemon
            ]
            if blocked and not self._wheel:
                names = ", ".join(
                    f"{t.name} on {t.blocked_on}" for t in blocked[:8]
                )
                raise Deadlock(f"all events drained with blocked threads: {names}")
        return self.now

    def _requeue(self, when: float, rest: List[tuple]) -> None:
        """Put the unfired tail of an interrupted batch back on the wheel.

        ``rest`` is that tail reversed, as the dispatch leaves it; it
        goes back in order, ahead of any same-timestamp entries
        scheduled while the batch ran.
        """
        rest.reverse()
        self._num_events += len(rest)
        existing = self._wheel.get(when)
        if existing is None:
            _heappush(self._times, when)
        else:
            rest.extend(existing)
        self._wheel[when] = rest

    def stop(self) -> None:
        """Stop :meth:`run` after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live_threads(self) -> List[SimThread]:
        """Threads that have not yet finished."""
        return [t for t in self._threads.values() if t.alive]

    def pending_events(self) -> int:
        """Number of entries waiting to fire, the ready slot included (O(1))."""
        return self._num_events + (self._ready is not None)
