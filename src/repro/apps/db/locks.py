"""Storage-engine locking: MyISAM table locks vs InnoDB row locks.

§8.4's optimisation hinges on exactly this difference: MyISAM supports
only table-wide locking — readers take the table lock shared, writers
exclusive — while InnoDB locks individual rows and serves reads from a
consistent snapshot without blocking.  Converting the ``item`` table
from MyISAM to InnoDB is what cuts AdminConfirm's response time by
9–72% in Fig 11.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.sim.process import SimThread
from repro.sim.sync import READER_PRIORITY, Acquire, Mutex, Release

MYISAM = "myisam"
INNODB = "innodb"

# How long a MyISAM writer may be bypassed by new readers before the
# server stops admitting them (MySQL eventually boosts starving
# writers; unbounded starvation would never let AdminConfirm finish).
WRITER_STARVATION_LIMIT = 4.0


class Table:
    """One database table with its engine-specific locking.

    The MyISAM table lock uses the reader-priority policy: concurrent
    readers stream past a queued writer, so under a read-heavy mix a
    writer (AdminConfirm's item update) can wait a very long time —
    the pathology the paper's InnoDB conversion fixes.
    """

    def __init__(self, name: str, rows: int = 1000, engine: str = MYISAM):
        if engine not in (MYISAM, INNODB):
            raise ValueError(f"unknown engine {engine!r}")
        self.name = name
        self.rows = rows
        self.engine = engine
        self.table_lock = Mutex(
            f"{name}.table_lock",
            policy=READER_PRIORITY,
            writer_starvation_limit=WRITER_STARVATION_LIMIT,
        )
        self._row_locks: Dict[int, Mutex] = {}

    # ------------------------------------------------------------------
    def row_lock(self, row_id: int) -> Mutex:
        lock = self._row_locks.get(row_id)
        if lock is None:
            lock = Mutex(f"{self.name}.row[{row_id}]")
            self._row_locks[lock_key(row_id)] = lock
        return lock

    def convert(self, engine: str) -> None:
        """ALTER TABLE ... ENGINE=... (the paper's optimisation)."""
        if engine not in (MYISAM, INNODB):
            raise ValueError(f"unknown engine {engine!r}")
        self.engine = engine

    # ------------------------------------------------------------------
    # Lock acquisition plans
    # ------------------------------------------------------------------
    def read_locks(self) -> List[Mutex]:
        """Locks a reading query must hold (shared)."""
        if self.engine == MYISAM:
            return [self.table_lock]
        return []  # InnoDB: consistent non-locking reads

    def write_locks(self, row_ids: List[int]) -> List[Mutex]:
        """Locks a writing query must hold (exclusive)."""
        if self.engine == MYISAM:
            return [self.table_lock]
        return [self.row_lock(row_id) for row_id in sorted(set(row_ids))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Table {self.name} engine={self.engine} rows={self.rows}>"


def lock_key(row_id: int) -> int:
    return int(row_id)


def acquire_all(thread: SimThread, shared: List[Mutex], exclusive: List[Mutex]) -> Iterator:
    """Acquire a query's locks in a global deterministic order.

    Ordering by lock name prevents deadlock between concurrent queries
    that touch the same tables in different textual orders.
    """
    plan = [(lock, True) for lock in shared] + [(lock, False) for lock in exclusive]
    plan.sort(key=lambda pair: pair[0].name)
    for lock, is_shared in plan:
        yield Acquire(lock, shared=is_shared)
    return [lock for lock, _ in plan]


def release_all(locks: List[Mutex]) -> Iterator:
    for lock in reversed(locks):
        yield Release(lock)
