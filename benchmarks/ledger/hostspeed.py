"""Host-speed reference: a fixed interpreter loop timed beside the work.

This sandbox shares its cores.  The same seeded repeat was measured at
anything from 1.05 s to 1.40 s of host wall within four minutes, in
bursts of under a second and in shifts that last minutes, with process
CPU time inflated by the same factor and no steal time reported; no
statistic over a 20-second run removes a shift that outlasts the run.
A fixed loop of plain interpreter work slows by the same factor, so a
half-millisecond sample of it is taken every ~10 ms *inside* every
repeat (between slices of ``kernel.run``, between calls of the
presentation phase).  The samples' own time is taken out of the
repeat's wall and CPU time, and every host-time number the ledger
reports is divided by the repeat's ``slowdown``: the samples' mean over
``NOMINAL_S``.  Measured on ``tpcw-closed``, spread between 20-second
windows of one recording: raw 11-24%; sampled only before and after
each 1.5 s repeat 4-7%; 52 samples inside the repeat 3.9%; 209 samples
1.5%.

The numbers therefore read "host seconds at the nominal speed"; raw
values are printed beside them.  Simulated and counted metrics are
never touched.  The loop lives outside ``src/``, so no change to the
program can speed it up, and changing the loop or ``NOMINAL_S``
re-bases every host-time metric: that is a change to the benchmark,
not to the program.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import List

#: Seconds ``reference_loop`` takes on this sandbox when nothing else
#: runs (the lower decile of 5000 samples).
NOMINAL_S = 0.00050

_ROUNDS = 1700


class _Cell:
    __slots__ = ("count", "weight")

    def __init__(self):
        self.count = 0
        self.weight = 0.0


def reference_loop() -> float:
    """Host seconds for a fixed mix of dict, heap, attribute and float
    operations: the interpreter work the simulator is made of."""
    cell = _Cell()
    table: dict = {}
    heap: List[int] = []
    start = time.perf_counter()
    for i in range(_ROUNDS):
        key = i & 63
        table[key] = table.get(key, 0) + 1
        heappush(heap, (i * 7919) % 1013)
        if i & 1:
            cell.count += heappop(heap)
        cell.weight += 0.5 * key
    return time.perf_counter() - start


class Probe:
    """Host-speed samples taken beside one piece of measured work."""

    def __init__(self):
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.samples.append(reference_loop())

    def spent(self) -> float:
        """Host seconds the samples themselves took (not the work's)."""
        return sum(self.samples)

    def slowdown(self) -> float:
        """How much slower than nominal the host ran (1.0 = nominal)."""
        return sum(self.samples) / (len(self.samples) * NOMINAL_S)
