"""Simulated stream sockets: endpoints, connections, listeners.

An :class:`Endpoint` is one direction of a connection: senders enqueue
messages that become visible to the receiver after the channel latency;
receivers block until data arrives.  :class:`Connection` pairs two
endpoints; :class:`Listener` is a server socket with an accept queue.
Endpoints support data observers so event loops (Squid) can be woken by
arriving data instead of blocking a thread per connection.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, TYPE_CHECKING

from repro import telemetry as _telemetry
from repro.channels.message import Message
from repro.sim.process import SimThread, Syscall

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class _TimedOut:
    """Sentinel a :class:`Recv` with a timeout resolves to on expiry."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TIMED_OUT"


#: Returned by ``yield Recv(endpoint, timeout=...)`` when the timeout
#: fires before a message arrives.
TIMED_OUT = _TimedOut()


class Endpoint:
    """One direction of a simulated stream channel.

    ``latency`` models propagation delay; ``bandwidth`` (bytes/second,
    ``None`` = infinite) models link capacity: transmissions serialise
    on the link, so a large body delays everything queued behind it.
    """

    __slots__ = (
        "kernel",
        "latency",
        "bandwidth",
        "_name",
        "_buffer",
        "_receivers",
        "_link_free_at",
        "observers",
        "delivered_messages",
        "delivered_bytes",
        "_tele_messages",
        "_tele_bytes",
        "_faults",
    )

    def __init__(
        self,
        kernel: "Kernel",
        latency: float = 0.0,
        name: object = "endpoint",
        bandwidth: Optional[float] = None,
    ):
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError("bandwidth must be positive or None")
        self.kernel = kernel
        self.latency = latency
        self.bandwidth = bandwidth
        self._name = name
        # Plain lists, not deques: each queue holds a few entries at
        # most, and an empty deque is 760 bytes to a list's 56.
        self._buffer: List[Message] = []
        self._receivers: List[SimThread] = []
        self._link_free_at = 0.0
        self.observers: List[Callable[["Endpoint"], None]] = []
        self.delivered_messages = 0
        self.delivered_bytes = 0
        # Shared (unlabeled) channel counters, captured at construction
        # so delivery costs one None-check when telemetry is off.
        tele = _telemetry.ACTIVE
        if tele is not None and tele.wants_metrics:
            self._tele_messages = tele.channel_messages
            self._tele_bytes = tele.channel_bytes
        else:
            self._tele_messages = None
            self._tele_bytes = None
        # Fault injection, captured once like telemetry: a fault-free
        # run pays a single None-check per send.
        faults = getattr(kernel, "faults", None)
        self._faults = faults.attach(self) if faults is not None else None

    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Enqueue a message; it becomes receivable after transmission

        (if bandwidth-limited) plus the propagation latency.
        """
        kernel = self.kernel
        delay = self.latency
        if self.bandwidth is not None:
            now = kernel.now
            start = self._link_free_at
            if now > start:
                start = now
            free = start + message.size / self.bandwidth
            self._link_free_at = free
            delay = (free - now) + self.latency
        faults = self._faults
        if faults is not None:
            for extra in faults.deliveries(message):
                kernel.wake_at(kernel.now + (delay + extra), self, message)
            return
        if delay > 0:
            kernel.wake_at(kernel.now + delay, self, message)
        else:
            self.step(message)

    def step(self, message: Message) -> None:
        """Deliver ``message`` (the endpoint's wheel entries fire here)."""
        self.delivered_messages += 1
        self.delivered_bytes += message.size
        tele_messages = self._tele_messages
        if tele_messages is not None:
            tele_messages.inc()
            self._tele_bytes.inc(message.size)
        receivers = self._receivers
        while receivers:
            receiver = receivers.pop(0)
            if not receiver.alive:
                # A crashed thread consumes nothing: fall through to the
                # next live receiver, or buffer the message.
                continue
            blocked = receiver.blocked_on
            timer = getattr(blocked, "timer", None)
            if timer is not None:
                self.kernel.unwake(timer, blocked)
            self.kernel.resume(receiver, message)
            return
        self._buffer.append(message)
        for observer in tuple(self.observers):
            observer(self)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Endpoint name, built lazily for connection-owned endpoints.

        :class:`Connection` passes a ``(base, conn_id, suffix)`` tuple
        instead of a formatted string — session-per-connection workloads
        open connections by the hundreds of thousands and the names are
        only ever read by reprs and error messages.
        """
        name = self._name
        if name.__class__ is not str:
            base, conn_id, suffix = name
            name = self._name = f"{base}#{conn_id}{suffix}"
        return name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    @property
    def readable(self) -> bool:
        return bool(self._buffer)

    def try_recv(self) -> Optional[Message]:
        """Non-blocking receive (event loops poll with this)."""
        if self._buffer:
            return self._buffer.pop(0)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Endpoint {self.name} buffered={len(self._buffer)}>"


class Send(Syscall):
    """Send a message on an endpoint (never blocks: infinite buffers)."""

    __slots__ = ("endpoint", "message")

    def __init__(self, endpoint: Endpoint, message: Message):
        self.endpoint = endpoint
        self.message = message

    def execute(self, kernel: "Kernel", thread: SimThread) -> None:
        self.endpoint.send(self.message)
        kernel.resume(thread, None)

    def __repr__(self) -> str:
        return f"Send({self.endpoint.name})"


class Recv(Syscall):
    """Block until a message is available on the endpoint.

    With ``timeout`` (virtual seconds), the wait is bounded by a wheel
    entry: the ``Recv`` itself, due at ``timer``.  If nothing arrives in
    time the thread is resumed with the :data:`TIMED_OUT` sentinel
    instead of a message.  A delivery withdraws the entry
    (``Kernel.unwake``), so a served receive leaves nothing pending.
    """

    __slots__ = ("endpoint", "timeout", "timer")

    def __init__(self, endpoint: Endpoint, timeout: Optional[float] = None):
        if timeout is not None and timeout < 0:
            raise ValueError("negative receive timeout")
        self.endpoint = endpoint
        self.timeout = timeout
        self.timer = None

    def execute(self, kernel: "Kernel", thread: SimThread) -> None:
        message = self.endpoint.try_recv()
        if message is not None:
            kernel.resume(thread, message)
            return
        thread.blocked_on = self
        self.endpoint._receivers.append(thread)
        if self.timeout is not None:
            self.timer = when = kernel.now + self.timeout
            kernel.wake_at(when, self, thread)

    def step(self, thread: SimThread) -> None:
        """The timeout has expired: resume ``thread`` with TIMED_OUT."""
        # Identity check: the thread may since have been resumed and be
        # blocked on a different (even same-endpoint) syscall.
        if thread.blocked_on is not self:
            return
        try:
            self.endpoint._receivers.remove(thread)
        except ValueError:  # pragma: no cover - defensive
            pass
        self.endpoint.kernel.resume(thread, TIMED_OUT)

    def __repr__(self) -> str:
        if self.timeout is not None:
            return f"Recv({self.endpoint.name}, timeout={self.timeout})"
        return f"Recv({self.endpoint.name})"


class Connection:
    """A bidirectional connection between a client and a server.

    The client sends on / the server receives from ``to_server``, and
    vice versa for ``to_client``.
    """

    __slots__ = ("conn_id", "_base", "_name", "to_server", "to_client")

    _next_id = 0

    def __init__(self, kernel: "Kernel", latency: float = 0.0, name: str = "conn"):
        conn_id = self.conn_id = Connection._next_id
        Connection._next_id = conn_id + 1
        # Names are derived lazily (see Endpoint.name): a connect is a
        # hot operation in session-per-connection workloads and the
        # three per-connection f-strings dominated its cost.
        self._base = name
        self._name = None
        self.to_server = Endpoint(kernel, latency, (name, conn_id, ".to_server"))
        self.to_client = Endpoint(kernel, latency, (name, conn_id, ".to_client"))

    @property
    def name(self) -> str:
        name = self._name
        if name is None:
            name = self._name = f"{self._base}#{self.conn_id}"
        return name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Connection {self.name}>"


class Listener:
    """A listening server socket with an accept queue."""

    __slots__ = (
        "kernel",
        "latency",
        "name",
        "_backlog",
        "_acceptors",
        "observers",
        "accepted_count",
    )

    def __init__(self, kernel: "Kernel", latency: float = 0.0, name: str = "listener"):
        self.kernel = kernel
        self.latency = latency
        self.name = name
        self._backlog: Deque[Connection] = deque()
        self._acceptors: Deque[SimThread] = deque()
        self.observers: List[Callable[["Listener"], None]] = []
        self.accepted_count = 0

    def connect(self) -> Connection:
        """Client side: create a new connection and queue it for accept."""
        connection = Connection(self.kernel, self.latency, self.name)
        if self._acceptors:
            acceptor = self._acceptors.popleft()
            self.accepted_count += 1
            self.kernel.resume(acceptor, connection)
        else:
            self._backlog.append(connection)
            for observer in tuple(self.observers):
                observer(self)
        return connection

    @property
    def readable(self) -> bool:
        return bool(self._backlog)

    def try_accept(self) -> Optional[Connection]:
        if self._backlog:
            self.accepted_count += 1
            return self._backlog.popleft()
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Listener {self.name} backlog={len(self._backlog)}>"


class Accept(Syscall):
    """Block until a client connects; result is the :class:`Connection`."""

    __slots__ = ("listener",)

    def __init__(self, listener: Listener):
        self.listener = listener

    def execute(self, kernel: "Kernel", thread: SimThread) -> None:
        connection = self.listener.try_accept()
        if connection is not None:
            kernel.resume(thread, connection)
        else:
            thread.blocked_on = self
            self.listener._acceptors.append(thread)

    def __repr__(self) -> str:
        return f"Accept({self.listener.name})"
