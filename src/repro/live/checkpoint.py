"""The live collector's on-disk log: one append-only file per directory.

A live collector (:mod:`repro.live.collector`) keeps everything it
persists in one file, ``live.wdr2``, as a sequence of frames built
from the framing primitives of :mod:`repro.core.persist`
(``write_frame``/``read_frame``: magic + version + length over a
``mtime=0`` gzip JSON document, byte-deterministic for identical
documents).  The frame version tells the two kinds apart:

* a **tree** frame holds one tree's cumulative snapshot cell (see
  :func:`encode_cct`);
* a **commit** frame closes an interval: counters, the labels first
  seen and the synopsis op log since the previous commit, crosstalk,
  and ``[label, offset]`` for every tree frame appended since the
  previous commit (per label, the newest).

Commit semantics
----------------

Commits are *superseding per key*, never additive:

* a tree's newest frame replaces any earlier copy outright.  Re-summing
  per-interval deltas would re-associate float additions and break the
  collector's byte-identical-to-post-mortem guarantee; copying the
  latest exact tree cannot.  An evicted tree cannot change until it is
  revived, so the frame written at eviction *is* its state;
* synopsis tables are an **op log** (mints and crash clears, in order)
  because a mint → crash → mint sequence within one interval is not
  expressible as a set snapshot;
* crosstalk aggregates and counters are cumulative snapshots.

Replaying every commit in file order therefore rebuilds the
collector's state as of the last one.  Compaction writes every tree
and one commit holding absolute state (every label, the whole synopsis
table) to a temp file, then ``os.replace``-s it over the log, so a
compacted log replays from that one commit.

Crash claims
------------

A commit follows every tree frame it names, so every prefix of the
file is a valid log and two claims hold:

* recovery from any prefix of the log is the state at its last
  complete commit: a torn tail (a header or payload cut short by the
  end of the file) and tree frames no commit names yet cost nothing;
* a crash during compaction leaves the old log whole (at most a
  ``live.wdr2.tmp`` beside it, which nothing reads and the next
  compaction overwrites); after the replace, recovery is the compacted
  state.

Nothing calls ``fsync``: both claims are about a process crash, not
about power loss.
"""

from __future__ import annotations

import os
from typing import IO, Any, Dict, Iterator, List, Tuple

from repro.core.cct import CCTNode, CallingContextTree
from repro.core.crosstalk import PairStats
from repro.core.persist import (
    FRAME_HEADER_SIZE,
    decode_context,
    decode_crosstalk_type,
    encode_context,
    encode_crosstalk_type,
    read_frame,
    read_frame_header,
    write_frame,
)

#: Same magic as the other WDR2-framed presentation-phase state; the
#: versions tell the frames apart (2 was the retired chain document,
#: so one is never read as a commit).
LOG_MAGIC = b"WDR2"
TREE_VERSION = 3
COMMIT_VERSION = 4

LOG_NAME = "live.wdr2"


def log_path(directory: str) -> str:
    return os.path.join(directory, LOG_NAME)


def append_frame(handle: IO[bytes], document: Any, version: int) -> int:
    """Append one frame; returns the offset to read it by."""
    # The seek also drops what a read buffered: a buffered file must
    # not go from reading to writing without one.
    offset = handle.seek(0, os.SEEK_END)
    write_frame(handle, document, magic=LOG_MAGIC, version=version)
    return offset


def read_tree(handle: IO[bytes], offset: int) -> List[Any]:
    """Decode exactly the tree frame at ``offset``."""
    handle.seek(offset)
    cell = read_frame(handle, magic=LOG_MAGIC, version=TREE_VERSION)
    if cell is None:
        raise ValueError(f"no frame at offset {offset} of {handle.name!r}")
    return cell


def read_commits(path: str) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Each complete commit of the log at ``path``, in file order, with
    the offset just past it.

    Tree frames are skipped by their header, undecoded.  A torn tail
    ends the scan; any other frame that is not one of this log's
    raises a ``ValueError`` naming the file.  A missing file holds no
    commits.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return
    with handle:
        size = os.fstat(handle.fileno()).st_size
        start = 0
        # Fewer bytes left than a header: the end, or a torn header.
        while size - start >= FRAME_HEADER_SIZE:
            magic, version, length = read_frame_header(handle)
            if magic != LOG_MAGIC or version not in (TREE_VERSION, COMMIT_VERSION):
                raise ValueError(f"no live-log frame at offset {start} of {path!r}")
            end = start + FRAME_HEADER_SIZE + length
            if end > size:  # a torn payload
                return
            if version == COMMIT_VERSION:
                handle.seek(start)
                yield end, read_frame(handle)
            start = handle.seek(end)


def holds_commit(directory: str) -> bool:
    """Whether ``directory``'s log holds a complete commit."""
    commits = read_commits(log_path(directory))
    try:
        return next(commits, None) is not None
    finally:
        commits.close()


# ----------------------------------------------------------------------
# Frame contents
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
