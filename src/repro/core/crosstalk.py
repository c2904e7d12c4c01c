"""Transaction crosstalk: interference between concurrent transactions (§6).

Crosstalk is lock-contention wait time *attributed to transactions*: for
every acquisition that had to wait we record how long the waiter waited
and which transaction was holding the lock.  Aggregation is per ordered
pair (waiting type, holding type), plus per-waiting-type totals used for
Table 1's "mean crosstalk wait time" column.

Transaction *types* are derived from transaction contexts by a
classifier callable; by default the context itself is the type.  The
TPC-W application classifies by servlet name, so crosstalk reads
"BuyConfirm waited 68ms on AdminConfirm".
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro import telemetry as _telemetry
from repro.core.context import TransactionContext
from repro.sim.process import SimThread
from repro.sim.sync import Mutex

# Raw-event retention limit.  Aggregates (pairs, by_waiter) are exact
# regardless; only the per-event trail is a ring buffer, so a week-long
# run cannot exhaust memory on raw wait records.
DEFAULT_EVENT_CAPACITY = 1 << 20


def _identity_classifier(ctxt: Any) -> Any:
    """Default classifier: the context is its own type.

    A module-level function, not a lambda, so a recorder (inside a
    loaded StageRuntime) can cross process-pool boundaries — the
    parallel presentation phase pickles decoded stages back to the
    parent.
    """
    return ctxt


class PairStats:
    """Wait-time accumulator for one ordered (waiter, holder) pair."""

    __slots__ = ("count", "total", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, wait: float) -> None:
        self.count += 1
        self.total += wait
        if wait > self.max:
            self.max = wait

    def add_stats(self, other: "PairStats") -> None:
        """Fold another accumulator's totals into this one."""
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class CrosstalkRecorder:
    """Collects crosstalk events and aggregates them by transaction type.

    ``event_capacity`` bounds the raw wait-event trail (a ring buffer
    keeping the most recent events; ``None`` retains everything).  The
    per-pair and per-waiter aggregates are accumulated separately and
    stay exact however long the run.
    """

    def __init__(
        self,
        type_of: Optional[Callable[[Any], Any]] = None,
        event_capacity: Optional[int] = DEFAULT_EVENT_CAPACITY,
        owner: Optional[str] = None,
    ):
        self._type_of = type_of or _identity_classifier
        self.owner = owner
        self.pairs: Dict[Tuple[Any, Any], PairStats] = {}
        self.by_waiter: Dict[Any, PairStats] = {}
        self._events: Deque[Tuple[Any, Any, float]] = deque(maxlen=event_capacity)
        # Telemetry captured at construction; ``owner`` labels the
        # contention metrics and the lock-wait spans.
        tele = _telemetry.ACTIVE
        self._tele = tele
        if tele is not None and tele.wants_metrics:
            self._tele_wait = tele.metrics.histogram(
                "repro_crosstalk_wait_seconds",
                "lock-contention wait attributed to transactions",
                stage=owner or "<anonymous>",
            )
        else:
            self._tele_wait = None

    @property
    def events(self) -> List[Tuple[Any, Any, float]]:
        """The retained raw ``(waiter, holder, wait)`` events, oldest first."""
        return list(self._events)

    @property
    def event_capacity(self) -> Optional[int]:
        return self._events.maxlen

    def set_classifier(self, type_of: Callable[[Any], Any]) -> None:
        """Replace the context-to-type classifier (e.g. once the other

        stages, whose synopsis tables resolve remote contexts, exist).
        """
        self._type_of = type_of

    # ------------------------------------------------------------------
    def classify(self, context: Any) -> Any:
        if context is None:
            return None
        return self._type_of(context)

    def _pair_stats(self, key: Tuple[Any, Any]) -> PairStats:
        stats = self.pairs.get(key)
        if stats is None:
            stats = PairStats()
            self.pairs[key] = stats
        return stats

    def _waiter_stats(self, waiter_type: Any) -> PairStats:
        stats = self.by_waiter.get(waiter_type)
        if stats is None:
            stats = PairStats()
            self.by_waiter[waiter_type] = stats
        return stats

    def record(self, waiter_type: Any, holder_type: Any, wait: float) -> None:
        """Record one wait of ``wait`` seconds of ``waiter`` on ``holder``."""
        self._pair_stats((waiter_type, holder_type)).add(wait)
        self._waiter_stats(waiter_type).add(wait)
        self._events.append((waiter_type, holder_type, wait))
        if self._tele_wait is not None:
            self._tele_wait.observe(wait)

    # ------------------------------------------------------------------
    # Mutex integration
    # ------------------------------------------------------------------
    def observe(self, mutex: Mutex) -> None:
        """Attach this recorder to a mutex's wait observers."""
        mutex.observers.append(self._on_wait)

    def _on_wait(
        self,
        mutex: Mutex,
        waiter: SimThread,
        holders: Tuple,
        mode: str,
        wait_time: float,
    ) -> None:
        if wait_time <= 0:
            return
        tele = self._tele
        if tele is not None:
            # The wait interval just ended: it started wait_time before
            # the acquisition instant (now).
            now = waiter.kernel.now
            span = tele.spans.begin(
                f"lock.wait:{mutex.name}",
                "lock.wait",
                self.owner,
                now - wait_time,
                thread=waiter.tid,
                attrs={"lock": mutex.name, "mode": mode},
            )
            tele.spans.end(span, now)
        waiter_type = self.classify(self._context_of(waiter))
        if not holders:
            # Lock was handed over before we ran; attribute to unknown.
            self.record(waiter_type, None, wait_time)
            return
        share = wait_time / len(holders)
        for _, holder_ctxt in holders:
            self.record(waiter_type, self.classify(holder_ctxt), share)

    @staticmethod
    def _context_of(thread: SimThread) -> Optional[TransactionContext]:
        ctxt = thread.tran_ctxt
        return ctxt if isinstance(ctxt, TransactionContext) else None

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def mean_wait(self, waiter_type: Any, holder_type: Any) -> float:
        stats = self.pairs.get((waiter_type, holder_type))
        return stats.mean if stats else 0.0

    def total_wait_of(self, waiter_type: Any) -> float:
        stats = self.by_waiter.get(waiter_type)
        return stats.total if stats else 0.0

    def pair_table(self) -> List[Tuple[Any, Any, int, float, float]]:
        """Rows ``(waiter, holder, count, mean, max)``, heaviest first."""
        rows = [
            (waiter, holder, stats.count, stats.mean, stats.max)
            for (waiter, holder), stats in self.pairs.items()
        ]
        rows.sort(key=lambda row: row[2] * row[3], reverse=True)
        return rows

    def merge(self, other: "CrosstalkRecorder") -> None:
        """Fold another recorder's data into this one.

        Aggregates merge from the other recorder's exact accumulators —
        not by replaying its raw events — so the result stays correct
        even when the other's ring buffer has dropped old events.
        """
        for key, stats in other.pairs.items():
            self._pair_stats(key).add_stats(stats)
        for waiter_type, stats in other.by_waiter.items():
            self._waiter_stats(waiter_type).add_stats(stats)
        self._events.extend(other._events)
