"""The libevent analog: an event loop that tracks transaction contexts.

This is Fig 4 of the paper, executable.  Every :class:`Event` carries an
``ev_tran_ctxt`` field, filled in from the loop's current transaction
context when the event is registered (``event_add``, line 12).  Before a
handler is invoked, the loop computes the current context by appending
the handler's name to the event's context (lines 5–6), collapsing
consecutive repeats and pruning loops as described in §4.1.  A program
built on this loop — like the Squid-like proxy in
:mod:`repro.apps.proxy` — needs no modification at all for transactional
profiling.

Events may be *immediate* (ready as soon as added) or tied to a
*waitable* — any object with a ``readable`` property and an
``observers`` list, i.e. the endpoints and listeners of
:mod:`repro.channels.socket`.  Waitable events are one-shot: handlers
re-register interest explicitly, as with ``select()``-style loops.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Iterator, Optional, TYPE_CHECKING

from repro.core.context import TransactionContext
from repro.sim.process import CurrentThread, SimThread, Syscall, frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class Event:
    """An event/continuation with its transaction-context field."""

    __slots__ = ("name", "handler", "ev_tran_ctxt", "waitable", "payload")

    def __init__(
        self,
        name: str,
        handler: Callable[["EventLoop", "Event"], Iterator],
        payload: Any = None,
        waitable: Any = None,
    ):
        self.name = name
        self.handler = handler
        self.payload = payload
        self.waitable = waitable
        self.ev_tran_ctxt: TransactionContext = TransactionContext.empty()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Event {self.name} ctxt={self.ev_tran_ctxt!r}>"


class Park(Syscall):
    """Block the loop thread until :meth:`EventLoop.wake` is called."""

    __slots__ = ("loop",)

    def __init__(self, loop: "EventLoop"):
        self.loop = loop

    def execute(self, kernel: "Kernel", thread: SimThread) -> None:
        if self.loop._ready:
            kernel.resume(thread, None)
        else:
            thread.blocked_on = self
            self.loop._parked = thread

    def __repr__(self) -> str:
        return f"Park({self.loop.name})"


class _Watch:
    """A one-shot observer that readies ``event`` when ``waitable`` fills.

    An object, not a closure: a closure that unregisters itself names
    itself, and every fired watch would be left to the cyclic collector.
    """

    __slots__ = ("loop", "waitable", "event")

    def __init__(self, loop: "EventLoop", waitable: Any, event: Event):
        self.loop = loop
        self.waitable = waitable
        self.event = event

    def __call__(self, _source: Any) -> None:
        loop = self.loop
        self.waitable.observers.remove(self)
        loop._watches.remove(self)
        loop._make_ready(self.event)


class EventLoop:
    """A single-threaded event loop with transaction-context tracking."""

    __slots__ = (
        "kernel",
        "name",
        "loop_frame",
        "prune_loops",
        "collapse_repeats",
        "_ready",
        "_parked",
        "_stopped",
        "curr_tran_ctxt",
        "_in_handler",
        "dispatched",
        "thread",
        "_watches",
    )

    def __init__(
        self,
        kernel: "Kernel",
        name: str = "event_loop",
        loop_frame: str = "event_loop",
        prune_loops: bool = True,
        collapse_repeats: bool = True,
    ):
        self.kernel = kernel
        self.name = name
        self.loop_frame = loop_frame
        self.prune_loops = prune_loops
        self.collapse_repeats = collapse_repeats
        self._ready: Deque[Event] = deque()
        self._parked: Optional[SimThread] = None
        self._stopped = False
        # Fig 4's global current-transaction-context list.
        self.curr_tran_ctxt = TransactionContext.empty()
        self._in_handler = False
        self.dispatched = 0
        # The loop's SimThread, available to handlers once run() starts.
        self.thread: Optional[SimThread] = None
        # Outstanding waitable watches, so stop() can un-register them.
        self._watches: list = []

    # ------------------------------------------------------------------
    # Registration (Fig 4, event_add)
    # ------------------------------------------------------------------
    def event_add(self, event: Event) -> None:
        """Register an event; captures the current transaction context."""
        event.ev_tran_ctxt = self.curr_tran_ctxt
        waitable = event.waitable
        if waitable is None or waitable.readable:
            self._make_ready(event)
        else:
            self._watch(waitable, event)

    def event_add_timer(self, event: Event, delay: float) -> None:
        """Register a timer event: ready after ``delay`` virtual seconds.

        The context is captured now (at registration), like event_add.
        """
        if delay < 0:
            raise ValueError("negative timer delay")
        event.ev_tran_ctxt = self.curr_tran_ctxt
        kernel = self.kernel
        kernel.wake_at(kernel.now + delay, self, event)

    def _watch(self, waitable: Any, event: Event) -> None:
        if self._stopped:
            # A stopped loop will never dispatch the event; registering
            # the observer would only recreate the leak stop() purges.
            return
        watch = _Watch(self, waitable, event)
        self._watches.append(watch)
        waitable.observers.append(watch)

    def _make_ready(self, event: Event) -> None:
        self._ready.append(event)
        self.wake()

    # A timer's wheel entry (event_add_timer) fires here.
    step = _make_ready

    def wake(self) -> None:
        if self._parked is not None:
            parked, self._parked = self._parked, None
            self.kernel.resume(parked, None)

    def stop(self) -> None:
        self._stopped = True
        # Un-register outstanding waitable watches: a stopped loop will
        # never dispatch them, and a still-attached observer pins the
        # loop and its captured events for the waitable's lifetime.
        for watch in self._watches:
            watch.waitable.observers.remove(watch)
        self._watches.clear()
        self.wake()

    # ------------------------------------------------------------------
    # The loop (Fig 4, event_loop)
    # ------------------------------------------------------------------
    def run(self) -> Iterator:
        """The loop body; spawn it as a thread of the stage's process."""
        thread = yield CurrentThread()
        thread.daemon = True
        self.thread = thread
        ready = self._ready
        collapse = self.collapse_repeats
        prune = self.prune_loops
        with frame(thread, self.loop_frame):
            while not self._stopped:
                while not ready:
                    yield Park(self)
                    if self._stopped:
                        return
                event = ready.popleft()
                # Lines 5-6: current context = concat(event ctxt, handler),
                # with repeat-collapsing and loop pruning (§4.1).
                context = event.ev_tran_ctxt.append(
                    event.name, collapse=collapse, prune=prune
                )
                self.curr_tran_ctxt = context
                thread.tran_ctxt = context
                self._in_handler = True
                self.dispatched += 1
                try:
                    with frame(thread, event.name):
                        yield from event.handler(self, event)
                finally:
                    self._in_handler = False
                    thread.tran_ctxt = None
                    self.curr_tran_ctxt = TransactionContext.empty()
