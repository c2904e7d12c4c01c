"""WDR2-framed checkpoints and spill log for the online streaming stitcher.

A live collector (:mod:`repro.live.collector`) periodically persists
the profiling state it owns so that a crash never loses more than one
checkpoint interval (plus the gap to the next sample, which is what
triggers the write), and appends the trees its LRU evicts to a spill
log those checkpoints reference.  Both reuse the framing primitives
from :mod:`repro.core.persist` (``write_frame``/``read_frame``: magic +
version + length over a ``mtime=0`` gzip JSON document,
byte-deterministic for identical documents) under the reduce-artifact
magic ``WDR2`` with their own version numbers, so the three on-disk
artifact families (profile dumps, reduce-tree groups, live checkpoints)
stay mutually unmistakable.

Checkpoint semantics
--------------------

Every document is *superseding per key*, never additive:

* CCT snapshots are **cumulative** — the latest copy of a label's tree
  (a cell of the document, or the spill-log frame it references)
  replaces any earlier copy outright.  Re-summing per-interval deltas
  would re-associate float additions and break the collector's
  byte-identical-to-post-mortem guarantee; copying the latest exact
  tree cannot.
* Synopsis tables are persisted as an **op log** (mints and crash
  clears, in order) because a mint → crash → mint sequence within one
  interval is not expressible as a set snapshot.
* Crosstalk aggregates and counters are cumulative snapshots.

Replaying all files of a directory in sequence order therefore
reconstructs the collector's state as of the last completed interval.
A ``kind="full"`` document (written by compaction) resets all state
before applying itself, so a compacted directory replays from that
single file.

Writes go through a temp file + ``os.replace`` so a torn write can
never corrupt the replay chain — a partially written checkpoint simply
does not exist.

The spill log
-------------

Trees the collector's LRU evicts do not go into the chain.  They go to
one append-only file beside it (:class:`SpillLog`, ``spill.wdr2``): one
frame per dirty eviction, holding that tree's cumulative snapshot cell,
addressed by the byte offset :meth:`SpillLog.append` returned.  Reviving
a tree seeks to its offset and decodes that one frame.

The log carries no replay semantics of its own; the chain gives it
them.  Each interval document lists, per stage, ``spilled`` pairs
``[label, offset]`` for the labels whose newest snapshot was appended
since the previous document.  An evicted tree cannot change until it
is revived, so at checkpoint time its last frame *is* its state.  The
collector flushes the log before it writes the document, so a document
never names bytes that are not on disk, and frames appended after the
last completed document are named by nothing: a torn tail or a few
orphan frames cost no correctness, and recovery still lands exactly on
the last completed interval.  Superseded frames are reclaimed only by
compaction, which writes the ``kind="full"`` document (every tree in
cells) and then deletes the log with the superseded chain.
"""

from __future__ import annotations

import os
from typing import IO, Any, Dict, List, Optional

from repro.core.cct import CCTNode, CallingContextTree
from repro.core.crosstalk import PairStats
from repro.core.persist import (
    decode_context,
    decode_crosstalk_type,
    encode_context,
    encode_crosstalk_type,
    read_frame,
    write_frame,
)

#: Same magic as the reduce-tree artifacts (both are WDR2-framed
#: presentation-phase state); the version field tells them apart.
CHECKPOINT_MAGIC = b"WDR2"
CHECKPOINT_VERSION = 2

CHECKPOINT_PREFIX = "ckpt-"
CHECKPOINT_SUFFIX = ".wdr2"

#: Spill-log frames share the magic; their own version keeps a frame
#: from ever being taken for a checkpoint document.
SPILL_VERSION = 3
SPILL_NAME = "spill" + CHECKPOINT_SUFFIX


def checkpoint_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"{CHECKPOINT_PREFIX}{seq:08d}{CHECKPOINT_SUFFIX}")


def list_checkpoints(directory: str) -> List[str]:
    """Checkpoint files of ``directory`` in sequence (replay) order."""
    if not os.path.isdir(directory):
        return []
    names = [
        name
        for name in os.listdir(directory)
        if name.startswith(CHECKPOINT_PREFIX) and name.endswith(CHECKPOINT_SUFFIX)
    ]
    names.sort()
    return [os.path.join(directory, name) for name in names]


def write_checkpoint(directory: str, seq: int, document: Dict[str, Any]) -> str:
    """Atomically persist one checkpoint document; returns its path."""
    os.makedirs(directory, exist_ok=True)
    path = checkpoint_path(directory, seq)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        write_frame(
            handle, document, magic=CHECKPOINT_MAGIC, version=CHECKPOINT_VERSION
        )
    os.replace(tmp, path)
    return path


def read_checkpoint(path: str) -> Dict[str, Any]:
    with open(path, "rb") as handle:
        document = read_frame(
            handle, magic=CHECKPOINT_MAGIC, version=CHECKPOINT_VERSION
        )
    if document is None:
        raise ValueError(f"empty checkpoint file {path!r}")
    return document


def remove_checkpoints(paths: List[str]) -> None:
    """Delete superseded checkpoint files (compaction)."""
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


class SpillLog:
    """Append-only log of evicted trees, one frame per snapshot cell.

    The file is created, and a handle kept, from the first
    :meth:`append`; until then :meth:`read` opens it read-only for the
    one frame, so a recovered collector that is only queried leaves the
    directory untouched and nothing for anyone to close.  Offsets are
    absolute, so bytes nobody references (a torn tail, frames newer
    than the last checkpoint) are simply skipped over.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, SPILL_NAME)
        self._handle: Optional[IO[bytes]] = None

    def append(self, cell: List[Any]) -> int:
        """Append one snapshot cell; returns the offset to read it by."""
        if self._handle is None:
            os.makedirs(self.directory, exist_ok=True)
            self._handle = open(self.path, "a+b")
        # The seek also drops what a read() buffered: a buffered file
        # must not go from reading to writing without one.
        offset = self._handle.seek(0, os.SEEK_END)
        write_frame(
            self._handle, cell, magic=CHECKPOINT_MAGIC, version=SPILL_VERSION
        )
        return offset

    def read(self, offset: int) -> List[Any]:
        """Decode exactly the frame at ``offset``."""
        handle = self._handle or open(self.path, "rb")
        try:
            handle.seek(offset)
            cell = read_frame(
                handle, magic=CHECKPOINT_MAGIC, version=SPILL_VERSION
            )
        finally:
            if handle is not self._handle:
                handle.close()
        if cell is None:
            raise ValueError(f"no frame at offset {offset} of {self.path!r}")
        return cell

    def flush(self) -> None:
        """Hand every appended frame to the file (before a checkpoint
        document references it)."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def remove(self) -> None:
        """Close and delete the log (compaction superseded it)."""
        self.close()
        remove_checkpoints([self.path])


# ----------------------------------------------------------------------
# Document cells
# ----------------------------------------------------------------------
def encode_cct(label: Any, cct: CallingContextTree) -> List[Any]:
    """One cumulative CCT snapshot cell: ``[label, parents, names,
    weights, counts]`` (columnar pre-order rows; floats round-trip
    exactly through JSON's shortest-repr encoding)."""
    rows = cct.root.to_rows()
    return [
        encode_context(label),
        [row[0] for row in rows],
        [row[1] for row in rows],
        [row[2] for row in rows],
        [row[3] for row in rows],
    ]


def decode_cct(cell: List[Any]) -> CallingContextTree:
    label = decode_context(cell[0])
    cct = CallingContextTree(label)
    CCTNode.attach_rows(cct.root, list(zip(cell[1], cell[2], cell[3], cell[4])))
    return cct


def cct_cell_label(cell: List[Any]):
    return decode_context(cell[0])


def cct_cell_weights(cell: List[Any]) -> List[float]:
    """The raw per-node weight column of a snapshot cell (for scalar
    accounting without materialising the tree)."""
    return cell[3]


def encode_syn_op(op: Any) -> List[Any]:
    """Synopsis op-log entries: ``["s", value, context]`` for a mint,
    ``["c", lost]`` for a crash clear."""
    if op[0] == "s":
        return ["s", op[1], encode_context(op[2])]
    return ["c", op[1]]


def decode_syn_op(cell: List[Any]) -> Any:
    if cell[0] == "s":
        return ("s", cell[1], decode_context(cell[2]))
    return ("c", cell[1])


def encode_crosstalk(pairs: Dict[Any, PairStats]) -> List[List[Any]]:
    """Cumulative crosstalk aggregate: rows ``[waiter, holder, count,
    total, max]`` keyed by ordered type pair."""
    return [
        [
            encode_crosstalk_type(waiter),
            encode_crosstalk_type(holder),
            stats.count,
            stats.total,
            stats.max,
        ]
        for (waiter, holder), stats in pairs.items()
    ]


def decode_crosstalk(rows: List[List[Any]]) -> Dict[Any, PairStats]:
    pairs = {}
    for waiter, holder, count, total, peak in rows:
        stats = pairs[
            (decode_crosstalk_type(waiter), decode_crosstalk_type(holder))
        ] = PairStats()
        stats.count, stats.total, stats.max = count, total, peak
    return pairs
