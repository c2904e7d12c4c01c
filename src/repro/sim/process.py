"""Threads as coroutines and the syscall protocol.

A simulated thread is a Python generator that ``yield``s *syscall*
objects — requests to the kernel such as :class:`Delay`, CPU use, mutex
operations or channel sends.  The kernel (or the object implementing
the syscall) later resumes the generator with the syscall's result.
Subroutines compose with plain ``yield from``.

Each thread also carries the state Whodunit needs: an explicit call
stack of frame names (the call-path profiler reads it at each sample)
and the thread's current transaction context.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel

_INF = float("inf")


class Syscall:
    """Base class for requests a thread yields to the kernel.

    Subclasses implement :meth:`execute`.  An implementation either
    resumes the thread immediately via ``kernel.resume(thread, value)``
    or records the thread as blocked and arranges for something else to
    resume it later.
    """

    # Without slots on the base class, every syscall instance would
    # carry a ``__dict__`` no matter what its subclass declares — and
    # syscalls are allocated on nearly every simulated operation.
    __slots__ = ()

    def execute(self, kernel: "Kernel", thread: "SimThread") -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return type(self).__name__


class Delay(Syscall):
    """Sleep for ``dt`` units of virtual time (no CPU consumed)."""

    __slots__ = ("dt",)

    def __init__(self, dt: float):
        if dt < 0:
            raise ValueError("negative delay")
        if dt != dt or dt == _INF:
            # NaN slips past ``dt < 0`` and, like +inf, would corrupt
            # the kernel wheel's time ordering when the sleep fires.
            raise ValueError("delay must be finite (dt=%r)" % dt)
        self.dt = dt

    def execute(self, kernel: "Kernel", thread: "SimThread") -> None:
        # A sleep is the single most common timer and nothing ever
        # withdraws it: the thread itself is the wheel entry's target.
        thread.blocked_on = self
        kernel.wake_at(kernel.now + self.dt, thread)

    def __repr__(self) -> str:
        return f"Delay({self.dt})"


class Exit(Syscall):
    """Terminate the current thread immediately."""

    __slots__ = ()

    def execute(self, kernel: "Kernel", thread: "SimThread") -> None:
        thread.finish(None)


class Join(Syscall):
    """Block until another thread finishes; result is its return value."""

    __slots__ = ("target",)

    def __init__(self, target: "SimThread"):
        self.target = target

    def execute(self, kernel: "Kernel", thread: "SimThread") -> None:
        if not self.target.alive:
            kernel.resume(thread, self.target.result)
        else:
            thread.blocked_on = self
            self.target.joiners.append(thread)

    def __repr__(self) -> str:
        return f"Join({self.target.name})"


class Spawn(Syscall):
    """Spawn a child thread; result is the new :class:`SimThread`.

    The child inherits the spawner's stage unless one is given.
    """

    __slots__ = ("generator", "name", "stage")

    def __init__(self, generator: Iterator, name: Optional[str] = None, stage: Any = None):
        self.generator = generator
        self.name = name
        self.stage = stage

    def execute(self, kernel: "Kernel", thread: "SimThread") -> None:
        stage = self.stage if self.stage is not None else thread.stage
        child = kernel.spawn(self.generator, name=self.name, stage=stage)
        kernel.resume(thread, child)


class CurrentThread(Syscall):
    """Yield this to obtain the running :class:`SimThread` object.

    The idiomatic first line of a thread body::

        def worker():
            thread = yield CurrentThread()
    """

    __slots__ = ()

    def execute(self, kernel: "Kernel", thread: "SimThread") -> None:
        kernel.resume(thread, thread)


class SimThread:
    """A simulated thread of execution.

    Attributes
    ----------
    call_stack:
        Explicit stack of frame names; the profiler snapshots it when a
        sample lands on this thread.
    tran_ctxt:
        The thread's current transaction context (an opaque value owned
        by :mod:`repro.core`), or ``None`` when the thread is not
        executing on behalf of any transaction.
    stage:
        The profiling stage runtime this thread belongs to, or ``None``.
    """

    __slots__ = (
        "kernel",
        "generator",
        "tid",
        "_name",
        "stage",
        "daemon",
        "alive",
        "result",
        "failure",
        "blocked_on",
        "joiners",
        "call_stack",
        "tran_ctxt",
    )

    def __init__(
        self,
        kernel: "Kernel",
        generator: Iterator,
        tid: int,
        name: Optional[str] = None,
        stage: Any = None,
    ):
        self.kernel = kernel
        self.generator = generator
        self.tid = tid
        self._name = name
        self.stage = stage
        self.daemon = False
        self.alive = True
        self.result: Any = None
        self.failure: Optional[BaseException] = None
        self.blocked_on: Optional[Syscall] = None
        self.joiners: List["SimThread"] = []
        self.call_stack: List[str] = []
        self.tran_ctxt: Any = None

    @property
    def name(self) -> str:
        """Thread name, derived lazily from the tid when not given.

        Anonymous request/session threads dominate churn-heavy runs;
        deferring the f-string keeps it off the spawn() path for them.
        """
        name = self._name
        if name is None:
            name = self._name = f"thread-{self.tid}"
        return name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, value: Any = None) -> None:
        """Advance the coroutine with ``value`` until the next syscall."""
        if not self.alive:
            return
        self.blocked_on = None
        try:
            syscall = self.generator.send(value)
        except StopIteration as stop:
            # Inlined finish(): the generator just returned, so it is
            # already exhausted and close() would be a no-op — thread
            # death is the churn hot path and the extra frames are
            # measurable.
            self.alive = False
            result = self.result = stop.value
            joiners = self.joiners
            if joiners:
                kernel = self.kernel
                for joiner in joiners:
                    kernel.resume(joiner, result)
                joiners.clear()
            stage = self.stage
            if stage is not None:
                try:
                    on_exit = stage.on_thread_exit
                except AttributeError:
                    pass
                else:
                    on_exit(self)
            self.kernel.reap(self)
            return
        except BaseException as exc:
            self.fail(exc)
            raise
        # Inlined _dispatch: step() runs once per scheduled event on
        # every thread, so the extra frame is pure overhead.
        if isinstance(syscall, Syscall):
            syscall.execute(self.kernel, self)
        else:
            self.fail(TypeError(f"{self.name} yielded non-syscall {syscall!r}"))
            raise TypeError(f"{self.name} yielded non-syscall {syscall!r}")

    def throw(self, exc: BaseException) -> None:
        """Raise ``exc`` at the thread's current yield point."""
        if not self.alive:
            return
        self.blocked_on = None
        try:
            syscall = self.generator.throw(exc)
        except StopIteration as stop:
            self.finish(stop.value)
            return
        except BaseException as raised:
            if raised is exc:
                # The thread did not handle it: record and terminate.
                self.fail(exc)
                return
            self.fail(raised)
            raise
        self._dispatch(syscall)

    def _dispatch(self, syscall: Any) -> None:
        if not isinstance(syscall, Syscall):
            self.fail(TypeError(f"{self.name} yielded non-syscall {syscall!r}"))
            raise TypeError(f"{self.name} yielded non-syscall {syscall!r}")
        syscall.execute(self.kernel, self)

    def finish(self, result: Any) -> None:
        """Mark the thread finished and wake its joiners."""
        self.alive = False
        self.result = result
        self.generator.close()
        for joiner in self.joiners:
            self.kernel.resume(joiner, result)
        self.joiners.clear()
        self._teardown()

    def fail(self, exc: BaseException) -> None:
        self.alive = False
        self.failure = exc
        for joiner in self.joiners:
            self.kernel.throw_in(joiner, exc)
        self.joiners.clear()
        self._teardown()

    def _teardown(self) -> None:
        """Release per-thread state held elsewhere once the thread dies.

        The stage drops any queued-but-uncharged profiler overhead (the
        thread will never run work() again) and the kernel reaps the
        thread from its registry so long runs spawning millions of
        short-lived request threads stay bounded.
        """
        stage = self.stage
        if stage is not None:
            try:
                on_exit = stage.on_thread_exit
            except AttributeError:
                pass
            else:
                on_exit(self)
        self.kernel.reap(self)

    # ------------------------------------------------------------------
    # Profiler support
    # ------------------------------------------------------------------
    def call_path(self) -> tuple:
        """The current call path as an immutable tuple of frame names."""
        return tuple(self.call_stack)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<SimThread {self.name} tid={self.tid} {state}>"


class frame:
    """Context manager marking a profiled procedure on a thread.

    Usage inside a thread generator::

        with frame(thread, "ap_process_connection"):
            yield UseCPU(cpu, 0.002)

    Works across ``yield`` because generator frames suspend and resume
    with the ``with`` block intact.
    """

    __slots__ = ("thread", "name")

    def __init__(self, thread: SimThread, name: str):
        self.thread = thread
        self.name = name

    def __enter__(self) -> "frame":
        thread = self.thread
        thread.call_stack.append(self.name)
        stage = thread.stage
        if stage is not None:
            # gprof's call-count hook.
            stage.on_call(thread)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On exception paths the stack may already have been unwound
        # past this frame; only pop when the frame is still on top.
        stack = self.thread.call_stack
        if stack and stack[-1] == self.name:
            stack.pop()
