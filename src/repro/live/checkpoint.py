"""The live collector's on-disk log: one append-only file per directory.

A live collector (:mod:`repro.live.collector`) keeps everything it
persists in one file, ``live.wdr2``, as a sequence of frames built
from the framing primitives of :mod:`repro.core.persist`
(``write_frame``/``read_frame``: magic + version + length over a
``mtime=0`` gzip JSON document, byte-deterministic for identical
documents).  Each frame is one v2 document: its own interned string
and context tables (:class:`~repro.core.persist.TableEncoder`), then
cells that name their entries by index — the stage dumps' encoding.
The frame version tells the two kinds apart:

* a **tree** frame (version 5) holds one tree's cumulative snapshot,
  ``[strings, contexts, cct_cell]`` with the v2 CCT cell
  ``[label_id, parents, name_ids, weights, counts]``;
* a **commit** frame (version 7) closes an interval with the
  collector's absolute state: ``{"t", "counters", "strings",
  "contexts", "stages"}``, where each stage's entry holds
  ``[label_id, offset]`` for every tree, in first-seen label order
  (the entry's newest frame, or the frame appended just before this
  commit), the whole synopsis table ``[base, next_value, crashes,
  [[value, context_id], ...]]`` and the crosstalk rows ``[waiter,
  holder, count, total, max]`` over v2 type cells.

Versions 3 and 4 were the same two frames in an encoding of their own,
and version 6 was a commit holding only what changed since the
previous one; a log holding any of them is refused, with a
``ValueError`` naming the file.

Commit semantics
----------------

A commit names everything, so recovery decodes the last complete
commit and no earlier one:

* a tree's newest frame replaces any earlier copy outright.  Re-summing
  per-interval deltas would re-associate float additions and break the
  collector's byte-identical-to-post-mortem guarantee; copying the
  latest exact tree cannot.  An evicted tree cannot change until it is
  revived, so the frame written at eviction *is* its state;
* synopsis tables, crash counts, crosstalk aggregates and counters are
  the stages' and the collector's own values at the commit.  The
  presentation phase needs only each stage's table as it stands
  (§7.4), so the mints and crash clears that led to it are not logged.

Compaction writes every tree and one commit to a temp file, then
``os.replace``-s it over the log.

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

import gzip
import os
import zlib
from typing import IO, Any, Dict, Iterator, List, Tuple

from repro.core.cct import CCTNode, CallingContextTree
from repro.core.context import TransactionContext
from repro.core.persist import (
    FRAME_HEADER_SIZE,
    TableDecoder,
    TableEncoder,
    read_frame,
    read_frame_header,
    write_frame,
)

#: Same magic as the other WDR2-framed presentation-phase state; the
#: versions tell the frames apart (2 was the retired chain document,
#: 3 and 4 the frames before they shared the v2 encoding, 6 the
#: incremental commit, so none of them is ever read as one of these).
LOG_MAGIC = b"WDR2"
TREE_VERSION = 5
COMMIT_VERSION = 7

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


def commit_frames(path: str) -> Iterator[Tuple[int, int]]:
    """``(start, end)`` of each complete commit of the log at ``path``,
    in file order.

    Tree frames are skipped by their header; a commit's payload is
    checked (gzip's CRC) but not parsed.  A torn tail ends the scan;
    any other frame that is not one of this log's, or a damaged
    commit, raises a ``ValueError`` naming the file: a file damaged
    before its end is not one the collector wrote.  A missing file
    holds no commits.
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
                raise ValueError(
                    f"no live-log frame at offset {start} of {path!r} "
                    f"(magic {magic!r}, version {version})"
                )
            end = start + FRAME_HEADER_SIZE + length
            if end > size:  # a torn payload
                return
            if version == COMMIT_VERSION:
                try:
                    gzip.decompress(handle.read(length))
                except (zlib.error, EOFError, gzip.BadGzipFile) as error:
                    raise ValueError(
                        f"corrupt commit at offset {start} of {path!r}: {error}"
                    ) from error
                yield start, end
            start = handle.seek(end)


def read_commit(handle: IO[bytes], start: int) -> Dict[str, Any]:
    """Decode the commit frame at ``start``."""
    handle.seek(start)
    return read_frame(handle, magic=LOG_MAGIC, version=COMMIT_VERSION)


def read_commits(path: str) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Each complete commit of the log at ``path``, decoded, in file
    order, with the offset just past it (see :func:`commit_frames`)."""
    for start, end in commit_frames(path):
        with open(path, "rb") as handle:
            commit = read_commit(handle, start)
        yield end, commit


def holds_commit(directory: str) -> bool:
    """Whether ``directory``'s log holds a complete commit."""
    commits = commit_frames(log_path(directory))
    try:
        return next(commits, None) is not None
    finally:
        commits.close()


# ----------------------------------------------------------------------
# Frame contents
# ----------------------------------------------------------------------
def tree_frame(label: TransactionContext, cct: CallingContextTree) -> List[Any]:
    """One tree's cumulative snapshot as a tree frame's document."""
    encoder = TableEncoder()
    cell = encoder.cct_cell(label, cct)
    strings, contexts = encoder.tables()
    return [strings, contexts, cell]


def decode_tree(document: List[Any]) -> CallingContextTree:
    strings, contexts, cell = document
    label, rows = TableDecoder(strings, contexts).cct_rows(cell)
    cct = CallingContextTree(label)
    CCTNode.attach_rows(cct.root, rows)
    return cct


def tree_weights(document: List[Any]) -> List[float]:
    """The raw per-node weight column of a tree frame (for scalar
    accounting without materialising the tree)."""
    return document[2][3]
