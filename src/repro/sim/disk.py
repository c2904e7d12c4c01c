"""A simple disk model: positioning time + transfer, FCFS queue.

Haboob's File I/O stage reads page content from disk on cache misses;
modeling the disk as a queued resource (rather than a fixed delay)
makes miss-path latency grow under load, as on the paper's testbed.
Defaults approximate a 2005-era 7200 rpm SATA disk: ~8 ms average
positioning, ~60 MB/s sequential transfer.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple, TYPE_CHECKING

from repro.sim.process import Syscall, SimThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class Disk:
    """One spindle serving reads FCFS."""

    def __init__(
        self,
        kernel: "Kernel",
        positioning_time: float = 8e-3,
        transfer_rate: float = 60e6,
        name: str = "disk",
    ):
        if positioning_time < 0 or transfer_rate <= 0:
            raise ValueError("invalid disk parameters")
        self.kernel = kernel
        self.positioning_time = positioning_time
        self.transfer_rate = transfer_rate
        self.name = name
        self._busy = False
        self._queue: Deque[Tuple[SimThread, int]] = deque()
        # (size, duration) of the one read in service while busy.
        self._in_service: Tuple[int, float] = (0, 0.0)
        self.reads_served = 0
        self.bytes_read = 0
        self.busy_time = 0.0

    # ------------------------------------------------------------------
    def service_time(self, size_bytes: int) -> float:
        return self.positioning_time + size_bytes / self.transfer_rate

    def submit(self, thread: SimThread, size_bytes: int) -> None:
        if size_bytes < 0:
            raise ValueError("negative read size")
        self._queue.append((thread, size_bytes))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        thread, size = self._queue.popleft()
        duration = self.service_time(size)
        self._in_service = (size, duration)
        kernel = self.kernel
        kernel.wake_at(kernel.now + duration, self, thread)

    def step(self, thread: SimThread) -> None:
        """The read in service completes (the disk's wheel entry)."""
        size, duration = self._in_service
        self.reads_served += 1
        self.bytes_read += size
        self.busy_time += duration
        self.kernel.resume(thread, size)
        self._start_next()

    def utilization(self) -> float:
        elapsed = self.kernel.now
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Disk {self.name} busy={self._busy} queued={len(self._queue)}>"


class ReadDisk(Syscall):
    """Read ``size_bytes`` from the disk; blocks until the I/O completes."""

    __slots__ = ("disk", "size_bytes")

    def __init__(self, disk: Disk, size_bytes: int):
        self.disk = disk
        self.size_bytes = size_bytes

    def execute(self, kernel: "Kernel", thread: SimThread) -> None:
        thread.blocked_on = self
        self.disk.submit(thread, self.size_bytes)

    def __repr__(self) -> str:
        return f"ReadDisk({self.disk.name}, {self.size_bytes}B)"
