"""Profile persistence: dump per-stage profiles to disk, stitch later.

This mirrors Whodunit's actual workflow (§7.1): "When the program exits,
Whodunit finalizes its state and writes the profile data to disk.  In a
final presentation phase, Whodunit stitches together the profiles from
the application stages."  Each stage serialises its CCT dictionary, its
synopsis table and its crosstalk records; the presentation phase loads
any number of stage dumps and runs the normal stitching.

Two on-disk formats are read; v2 is the one written:

- **v2** — the compact interned format (see ``docs/performance.md``):
  every string (frame names, stage names, context
  elements) is stored once in a label table and referenced by integer
  ID, transaction contexts are themselves interned, CCTs are flattened
  into pre-order parent-pointer *columns* (no nesting, so depth is
  unbounded; columnar so gzip sees homogeneous runs), synopsis values
  are delta-encoded (they are base-prefixed sequential integers), and
  the whole document is gzip-compressed behind a tiny length-prefixed
  binary frame.  Dumps are typically 5-10x smaller than v1.  The live
  collector's log (:mod:`repro.live.checkpoint`) uses the same
  :class:`TableEncoder` / :class:`TableDecoder`.
- **v1** — human-greppable JSON, one object per stage.  Read for old
  dumps; written only by the benchmark ledger (``profile_format="v1"``).

``load_stage`` reads either format transparently (v2 is recognised by
its magic bytes; anything else is parsed as v1 JSON).

Both formats persist the stage's salted synopsis base and allocation
cursor: a stitch running in a fresh process must *restore* the base the
run used, never re-derive it, because collision salting in
:mod:`repro.core.synopsis` depends on registration order.

Only profile *data* is persisted — locks, threads and other live
simulation state are not serialisable and not needed post-mortem.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import struct
import zlib
from typing import Any, Dict, IO, List, Optional, Tuple, Union

from repro.core.cct import CCTNode
from repro.core.context import SynopsisRef, TransactionContext, UnresolvedRef
from repro.core.profiler import ProfilerMode, StageRuntime

FORMAT_VERSION = 1
FORMAT_VERSION_V2 = 2

#: Accepted values for the ``profile_format`` argument of ``save_stage``.
PROFILE_FORMATS = ("v1", "v2")

#: v2 binary frame: magic, big-endian u32 version, u32 payload length,
#: then the gzip-compressed JSON document.
V2_MAGIC = b"WDP2"
_V2_HEADER = struct.Struct(">4sII")
#: The bytes of a frame header: magic, version, payload length.
FRAME_HEADER_SIZE = _V2_HEADER.size

#: Compact separators for every JSON dump (default separators add ~20%
#: whitespace bloat).
JSON_SEPARATORS = (",", ":")

PathOrFile = Union[str, IO]


# ----------------------------------------------------------------------
# v1 encoding (verbose JSON)
# ----------------------------------------------------------------------
def _encode_element(element: Any) -> Any:
    if isinstance(element, str):
        return element
    if isinstance(element, SynopsisRef):
        return {"$syn": [element.origin, element.value]}
    if isinstance(element, UnresolvedRef):
        return {"$unres": [element.origin, element.value]}
    raise TypeError(f"cannot persist context element {element!r}")


def _decode_element(data: Any) -> Any:
    if isinstance(data, str):
        return data
    if isinstance(data, dict) and "$syn" in data:
        origin, value = data["$syn"]
        return SynopsisRef(origin, value)
    if isinstance(data, dict) and "$unres" in data:
        origin, value = data["$unres"]
        return UnresolvedRef(origin, value)
    raise ValueError(f"bad context element {data!r}")


def encode_context(context: TransactionContext) -> List[Any]:
    return [_encode_element(e) for e in context.elements]


def decode_context(data: List[Any]) -> TransactionContext:
    return TransactionContext(tuple(_decode_element(e) for e in data))


def _encode_cct_node(node: CCTNode) -> Dict[str, Any]:
    # Iterative: deep call paths must not overflow the encoder's stack
    # (the JSON serialiser bounds nesting separately).
    root: Dict[str, Any] = {}
    stack = [(node, root)]
    while stack:
        current, encoded = stack.pop()
        if current.self_weight:
            encoded["w"] = current.self_weight
        if current.call_count:
            encoded["c"] = current.call_count
        if current.children:
            children: Dict[str, Any] = {}
            encoded["k"] = children
            for name, child in current.children.items():
                child_encoded: Dict[str, Any] = {}
                children[name] = child_encoded
                stack.append((child, child_encoded))
    return root


def _decode_cct_node(node: CCTNode, data: Dict[str, Any]) -> None:
    stack = [(node, data)]
    while stack:
        current, encoded = stack.pop()
        current.self_weight = encoded.get("w", 0.0)
        current.call_count = encoded.get("c", 0)
        for name, child_data in encoded.get("k", {}).items():
            stack.append((current.child(name), child_data))


def _encode_type(value: Any) -> Any:
    """Crosstalk transaction types: strings, None, or contexts."""
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, TransactionContext):
        return {"$ctx": encode_context(value)}
    return {"$repr": repr(value)}


def _decode_type(data: Any) -> Any:
    if data is None or isinstance(data, str):
        return data
    if isinstance(data, dict) and "$ctx" in data:
        return decode_context(data["$ctx"])
    if isinstance(data, dict) and "$repr" in data:
        return data["$repr"]
    raise ValueError(f"bad crosstalk type {data!r}")


def encode_stage(stage: StageRuntime) -> Dict[str, Any]:
    """The JSON-serialisable v1 dump of one stage's profile state."""
    return {
        "version": FORMAT_VERSION,
        "name": stage.name,
        "mode": stage.mode.value,
        "sampling_hz": stage.sampling_hz,
        # The salted synopsis base and allocation cursor: restored, not
        # re-derived, by decode_stage (see module docstring).
        "synopsis_base": stage.synopses.base,
        "synopsis_next": stage.synopses.next_value,
        "ccts": [
            {"label": encode_context(label), "tree": _encode_cct_node(cct.root)}
            for label, cct in stage.ccts.items()
        ],
        "synopses": [
            {"context": encode_context(context), "value": value}
            for context, value in stage.synopses.items()
        ],
        "crosstalk": [
            {
                "waiter": _encode_type(waiter),
                "holder": _encode_type(holder),
                "wait": wait,
            }
            for waiter, holder, wait in stage.crosstalk.events
        ],
        "comm": {
            "data_bytes": stage.comm_data_bytes,
            "context_bytes": stage.comm_context_bytes,
        },
    }


def decode_stage(data: Dict[str, Any]) -> StageRuntime:
    """Rebuild a StageRuntime carrying a persisted v1 profile dump.

    The result is for post-mortem analysis (stitching, rendering,
    aggregation); it is not attached to any simulation.
    """
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported profile format {data.get('version')!r}")
    stage = StageRuntime(
        data["name"],
        mode=ProfilerMode(data["mode"]),
        sampling_hz=data["sampling_hz"],
        live=False,
    )
    for entry in data["ccts"]:
        label = decode_context(entry["label"])
        cct = stage.cct_for(label)
        _decode_cct_node(cct.root, entry["tree"])
    for entry in data["synopses"]:
        stage.synopses.register(decode_context(entry["context"]), entry["value"])
    for entry in data["crosstalk"]:
        stage.crosstalk.record(
            _decode_type(entry["waiter"]),
            _decode_type(entry["holder"]),
            entry["wait"],
        )
    stage.comm_data_bytes = data["comm"]["data_bytes"]
    stage.comm_context_bytes = data["comm"]["context_bytes"]
    # Dumps written before the snapshot keys existed fall back to the
    # constructor-derived base (pre-snapshot behaviour).
    if "synopsis_base" in data:
        stage.synopses.restore_snapshot(
            data["synopsis_base"], data.get("synopsis_next", 1)
        )
    return stage


# ----------------------------------------------------------------------
# v2 encoding (compact interned format)
# ----------------------------------------------------------------------
class _Interner:
    """Assigns dense integer IDs to values, storing each exactly once."""

    __slots__ = ("values", "_index")

    def __init__(self):
        self.values: List[Any] = []
        self._index: Dict[Any, int] = {}

    def intern(self, value: Any) -> int:
        index = self._index.get(value)
        if index is None:
            index = len(self.values)
            self.values.append(value)
            self._index[value] = index
        return index


def _v2_encode_context(
    context: TransactionContext, strings: _Interner
) -> List[Any]:
    """Elements as compact cells: int = interned string, 2-list =
    SynopsisRef ``[origin_id, value]``, 3-list = UnresolvedRef."""
    out: List[Any] = []
    for element in context.elements:
        if isinstance(element, str):
            out.append(strings.intern(element))
        elif isinstance(element, SynopsisRef):
            out.append([strings.intern(element.origin), element.value])
        elif isinstance(element, UnresolvedRef):
            out.append([strings.intern(element.origin), element.value, 1])
        else:
            raise TypeError(f"cannot persist context element {element!r}")
    return out


def _v2_decode_context(cells: List[Any], strings: List[str]) -> TransactionContext:
    elements: List[Any] = []
    for cell in cells:
        if isinstance(cell, int):
            elements.append(strings[cell])
        elif len(cell) == 2:
            elements.append(SynopsisRef(strings[cell[0]], cell[1]))
        elif len(cell) == 3:
            elements.append(UnresolvedRef(strings[cell[0]], cell[1]))
        else:
            raise ValueError(f"bad v2 context cell {cell!r}")
    return TransactionContext(elements)


def _v2_delta_contexts(contexts: List[List[Any]]) -> List[List[Any]]:
    """Delta-encode synopsis values in the context table, per origin.

    Synopsis values are a 12-bit stage base over a sequential counter,
    so consecutive references to the same origin differ by tiny amounts;
    storing the running difference turns 10-digit integers into one or
    two digits.  Cells are visited in table order — the decoder replays
    the identical walk, so the transform is exactly invertible.
    """
    last: Dict[int, int] = {}
    out: List[List[Any]] = []
    for cells in contexts:
        row: List[Any] = []
        for cell in cells:
            if isinstance(cell, list):
                origin, value = cell[0], cell[1]
                row.append([origin, value - last.get(origin, 0)] + cell[2:])
                last[origin] = value
            else:
                row.append(cell)
        out.append(row)
    return out


def _v2_undelta_contexts(contexts: List[List[Any]]) -> List[List[Any]]:
    last: Dict[int, int] = {}
    out: List[List[Any]] = []
    for cells in contexts:
        row: List[Any] = []
        for cell in cells:
            if isinstance(cell, list):
                origin = cell[0]
                value = cell[1] + last.get(origin, 0)
                last[origin] = value
                row.append([origin, value] + cell[2:])
            else:
                row.append(cell)
        out.append(row)
    return out


class TableEncoder:
    """One v2 document's interned string and context tables, and the
    cells that name their entries by index.  Call :meth:`tables` after
    the last cell."""

    __slots__ = ("strings", "_contexts", "_context_ids")

    def __init__(self):
        self.strings = _Interner()
        self._contexts: List[List[Any]] = []
        self._context_ids: Dict[TransactionContext, int] = {}

    def context(self, context: TransactionContext) -> int:
        """``context``'s index in the context table."""
        index = self._context_ids.get(context)
        if index is None:
            index = len(self._contexts)
            self._contexts.append(_v2_encode_context(context, self.strings))
            self._context_ids[context] = index
        return index

    def type_cell(self, value: Any) -> Any:
        """A crosstalk transaction type: null, int = string, 1-list =
        context index; any other value is stored as its ``repr``."""
        if value is None:
            return None
        if isinstance(value, str):
            return self.strings.intern(value)
        if isinstance(value, TransactionContext):
            return [self.context(value)]
        return self.strings.intern(repr(value))

    def cct_cell(self, label: TransactionContext, cct) -> List[Any]:
        """``[label_id, parents, name_ids, weights, counts]``: columnar
        pre-order rows (homogeneous arrays gzip far better than row
        tuples)."""
        label_id = self.context(label)
        rows = cct.root.to_rows()
        intern = self.strings.intern
        return [
            label_id,
            [row[0] for row in rows],
            [intern(row[1]) for row in rows],
            [row[2] for row in rows],
            [row[3] for row in rows],
        ]

    def tables(self) -> Tuple[List[str], List[List[Any]]]:
        """``(strings, contexts)``, the contexts' synopsis values
        delta-encoded."""
        return self.strings.values, _v2_delta_contexts(self._contexts)


class TableDecoder:
    """Reads the cells of one v2 document against its tables."""

    __slots__ = ("strings", "contexts")

    def __init__(self, strings: List[str], context_cells: List[List[Any]]):
        self.strings = strings
        self.contexts: List[TransactionContext] = [
            _v2_decode_context(cells, strings)
            for cells in _v2_undelta_contexts(context_cells)
        ]

    def type(self, cell: Any) -> Any:
        if cell is None:
            return None
        if isinstance(cell, int):
            return self.strings[cell]
        if isinstance(cell, list) and len(cell) == 1:
            return self.contexts[cell[0]]
        raise ValueError(f"bad v2 crosstalk type cell {cell!r}")

    def cct_rows(self, cell: List[Any]) -> Tuple[TransactionContext, List[Tuple]]:
        """A :meth:`TableEncoder.cct_cell` tree as its label and its
        :meth:`~repro.core.cct.CCTNode.attach_rows` rows."""
        label_id, parents, names, weights, counts = cell
        strings = self.strings
        rows = list(zip(parents, [strings[name_id] for name_id in names],
                        weights, counts))
        return self.contexts[label_id], rows


def encode_stage_v2(stage: StageRuntime) -> List[Any]:
    """The interned document for one stage: a positional 12-slot array
    ``[version, name, mode, hz, base, next, strings, contexts, ccts,
    synopses, crosstalk, comm]`` (see module docstring)."""
    encoder = TableEncoder()
    base = stage.synopses.base
    ccts = [encoder.cct_cell(label, cct) for label, cct in stage.ccts.items()]
    # The stage's own synopsis values all carry its base in the high
    # bits; store just the sequential remainder.
    synopses = [
        [encoder.context(context), value - base]
        for context, value in stage.synopses.items()
    ]
    crosstalk = [
        [encoder.type_cell(waiter), encoder.type_cell(holder), wait]
        for waiter, holder, wait in stage.crosstalk.events
    ]
    strings, contexts = encoder.tables()
    return [
        FORMAT_VERSION_V2,
        stage.name,
        stage.mode.value,
        stage.sampling_hz,
        base,
        stage.synopses.next_value,
        strings,
        contexts,
        ccts,
        synopses,
        crosstalk,
        [stage.comm_data_bytes, stage.comm_context_bytes],
    ]


def decode_stage_v2(data: List[Any]) -> StageRuntime:
    """Rebuild a StageRuntime from a v2 interned document."""
    if not isinstance(data, list) or len(data) != 12:
        raise ValueError("malformed v2 profile document")
    (version, name, mode, hz, base, next_value,
     strings, context_cells, ccts, synopses, crosstalk, comm) = data
    if version != FORMAT_VERSION_V2:
        raise ValueError(f"unsupported profile format {version!r}")
    decoder = TableDecoder(strings, context_cells)
    contexts = decoder.contexts
    stage = StageRuntime(
        name, mode=ProfilerMode(mode), sampling_hz=hz, live=False
    )
    for cell in ccts:
        label, rows = decoder.cct_rows(cell)
        CCTNode.attach_rows(stage.cct_for(label).root, rows)
    for ctx_id, remainder in synopses:
        stage.synopses.register(contexts[ctx_id], base + remainder)
    for waiter, holder, wait in crosstalk:
        stage.crosstalk.record(decoder.type(waiter), decoder.type(holder), wait)
    stage.comm_data_bytes, stage.comm_context_bytes = comm
    stage.synopses.restore_snapshot(base, next_value)
    return stage


# ----------------------------------------------------------------------
# Generic framing (shared by stage dumps and the reduce-tree artifacts)
# ----------------------------------------------------------------------
def write_frame(
    handle: IO,
    document: Any,
    magic: bytes = V2_MAGIC,
    version: int = FORMAT_VERSION_V2,
) -> int:
    """Append one framed, gzipped JSON document to a binary stream.

    ``mtime=0`` keeps gzip output byte-deterministic for identical
    documents, which the shard-determinism proof relies on.  Returns
    the number of bytes written.  Frames are self-delimiting, so any
    number can be concatenated into one spool file and streamed back
    with :func:`read_frame`.
    """
    payload = gzip.compress(
        json.dumps(document, separators=JSON_SEPARATORS).encode("utf-8"),
        compresslevel=9,
        mtime=0,
    )
    handle.write(_V2_HEADER.pack(magic, version, len(payload)))
    handle.write(payload)
    return _V2_HEADER.size + len(payload)


def read_frame_header(handle: IO) -> Optional[Tuple[bytes, int, int]]:
    """The next frame's ``(magic, version, payload length)``, or None at
    clean EOF; raises ``ValueError`` on a header cut short by the end of
    the stream."""
    header = handle.read(_V2_HEADER.size)
    if not header:
        return None
    if len(header) < _V2_HEADER.size:
        raise ValueError("truncated frame header")
    return _V2_HEADER.unpack(header)


def read_frame(
    handle: IO,
    magic: Optional[bytes] = None,
    version: Optional[int] = None,
) -> Optional[Any]:
    """Read the next frame from a binary stream, or None at clean EOF.

    Reads exactly header + payload bytes — never the rest of the file —
    so arbitrarily long multi-frame spools stream in bounded memory.
    """
    header = read_frame_header(handle)
    if header is None:
        return None
    got_magic, got_version, length = header
    if magic is not None and got_magic != magic:
        raise ValueError(f"bad frame magic {got_magic!r} (wanted {magic!r})")
    if version is not None and got_version != version:
        raise ValueError(f"unsupported frame version {got_version!r}")
    payload = handle.read(length)
    if len(payload) != length:
        raise ValueError("truncated frame payload")
    try:
        return json.loads(gzip.decompress(payload))
    except (zlib.error, EOFError, gzip.BadGzipFile) as error:
        raise ValueError(
            f"corrupt {got_magic!r} frame in "
            f"{getattr(handle, 'name', '<stream>')!r}: {error}"
        ) from error


def dumps_stage_v2(stage: StageRuntime) -> bytes:
    """The complete framed v2 dump as bytes."""
    buffer = io.BytesIO()
    write_frame(buffer, encode_stage_v2(stage))
    return buffer.getvalue()


def loads_stage_v2(blob: bytes) -> StageRuntime:
    """Decode a framed v2 dump produced by :func:`dumps_stage_v2`."""
    document = read_frame(io.BytesIO(blob), magic=V2_MAGIC,
                          version=FORMAT_VERSION_V2)
    if document is None:
        raise ValueError("truncated v2 profile dump")
    return decode_stage_v2(document)


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def save_stage(
    stage: StageRuntime,
    destination: PathOrFile,
    profile_format: str = "v2",
) -> None:
    """Write one stage's profile dump in the requested format.

    ``destination`` is a path or an open file: binary-mode for v2,
    text-mode for v1 (a path is opened with the right mode either
    way).
    """
    if profile_format not in PROFILE_FORMATS:
        raise ValueError(
            f"unknown profile format {profile_format!r}; one of {PROFILE_FORMATS}"
        )
    if profile_format == "v2":
        blob = dumps_stage_v2(stage)
        if isinstance(destination, str):
            with open(destination, "wb") as handle:
                handle.write(blob)
        else:
            destination.write(blob)
        return
    # dumps, not dump: the C encoder, not the streaming pure-Python one.
    text = json.dumps(encode_stage(stage), separators=JSON_SEPARATORS)
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        destination.write(text)


def _read_dump(handle: IO, every: bool) -> List[StageRuntime]:
    """The first stage (or with ``every``, each stage) of the dump
    ``handle`` reads from its start: v2 frames, read one header and
    payload at a time, or else v1 JSON from a binary or text handle."""
    probe = handle.read(len(V2_MAGIC))
    if probe == V2_MAGIC:
        handle.seek(0)
        stages = []
        while not stages or every:
            document = read_frame(handle, magic=V2_MAGIC,
                                  version=FORMAT_VERSION_V2)
            if document is None:
                break
            stages.append(decode_stage_v2(document))
        return stages
    text = probe + handle.read()
    data = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    if every and isinstance(data, list):
        return [decode_stage(item) for item in data]
    return [decode_stage(data)]


def load_stage(source: PathOrFile) -> StageRuntime:
    """Load one stage's profile dump, sniffing the format (v1 or v2).

    A path is read in place; an open file is read whole first.
    """
    if isinstance(source, str):
        with open(source, "rb") as handle:
            return _read_dump(handle, every=False)[0]
    data = source.read()
    return _read_dump(
        io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data),
        every=False,
    )[0]


def dump_size(stage: StageRuntime, profile_format: str = "v2") -> int:
    """The exact on-disk size of ``stage``'s dump in the given format."""
    if profile_format == "v2":
        return len(dumps_stage_v2(stage))
    buffer = io.StringIO()
    save_stage(stage, buffer, profile_format=profile_format)
    return len(buffer.getvalue().encode("utf-8"))


# ----------------------------------------------------------------------
# Run loading (shared by `repro stitch`, `repro diff`, the CI gates)
# ----------------------------------------------------------------------
#: File suffixes recognised as stage profile dumps when loading a plain
#: directory of dumps (no spool manifest, no live checkpoints).
DUMP_SUFFIXES = (".json", ".wdp", ".wdp2", ".profile", ".dump")

#: The manifest a sharded run writes at the root of its spool directory
#: (defined here, below the parallel package, so loading a single dump
#: file never drags that package in).
MANIFEST_NAME = "manifest.json"

#: Pair table value: ``(count, total_wait, max_wait)``.
CrosstalkTable = Dict[Tuple[str, str], Tuple[int, float, float]]


class RunProfile:
    """One run's loaded analysis inputs, however they were persisted.

    ``profile`` is the stitched end-to-end profile.  ``crosstalk`` is
    the run's merged crosstalk pair table in a source-independent
    shape — ``(waiter, holder)`` display strings mapping to ``(count,
    total_wait, max_wait)`` — so two runs align regardless of which
    on-disk format each used.
    """

    __slots__ = ("source", "kind", "profile", "crosstalk")

    def __init__(self, source, kind: str, profile, crosstalk):
        self.source = source
        self.kind = kind
        self.profile = profile
        self.crosstalk: CrosstalkTable = crosstalk

    def pair_table(self) -> List[Tuple[str, str, int, float, float]]:
        """Rows ``(waiter, holder, count, mean, max)``, heaviest first
        (the :meth:`~repro.core.crosstalk.CrosstalkRecorder.pair_table`
        shape)."""
        rows = [
            (waiter, holder, count, total / count, peak)
            for (waiter, holder), (count, total, peak) in self.crosstalk.items()
        ]
        rows.sort(key=lambda row: row[2] * row[3], reverse=True)
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RunProfile {self.kind} {self.source!r} "
            f"entries={len(self.profile.entries)}>"
        )


def _add_pair(table: CrosstalkTable, key: Tuple[str, str], count: int,
              total: float, peak: float) -> None:
    have = table.get(key)
    if have is None:
        table[key] = (count, total, peak)
    else:
        table[key] = (have[0] + count, have[1] + total, max(have[2], peak))


def fold_crosstalk(table: CrosstalkTable, stages) -> CrosstalkTable:
    """Merge per-stage crosstalk pair stats into the running ``table``.

    Keys are display strings (transaction types are already strings for
    classified apps like TPC-W; raw contexts stringify via ``repr``), so
    tables from different runs — and different dump formats — align.
    Folding the stages in batches yields the same table, items and
    order, as folding them all at once.
    """
    for stage in stages:
        for (waiter, holder), stats in stage.crosstalk.pairs.items():
            _add_pair(table, (str(waiter), str(holder)), int(stats.count),
                      stats.total, stats.max)
    return table


def crosstalk_table(stages) -> CrosstalkTable:
    """One aligned crosstalk table over ``stages`` (see
    :func:`fold_crosstalk`)."""
    return fold_crosstalk({}, stages)


def load_stages(path: str) -> List[StageRuntime]:
    """Every stage dump in one file.

    A v2 file may hold any number of concatenated WDP2 frames (one
    stage each); a v1 JSON file holds either a single stage object or a
    list of them.  A whole run can therefore travel as one file.
    """
    with open(path, "rb") as handle:
        return _read_dump(handle, every=True)


def _dump_files_in(directory: str) -> List[str]:
    out = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if (
            os.path.isfile(path)
            and name.endswith(DUMP_SUFFIXES)
            and name != MANIFEST_NAME
        ):
            out.append(path)
    return out


def live_directories(directory: str) -> List[Tuple[Optional[int], str]]:
    """The collector directories of a live checkpoint directory.

    ``(shard_index, path)`` per ``shard-NNNN/`` subdirectory, in shard
    order; a directory holding none is its own collector directory
    (index ``None``).  It is a live checkpoint directory only if some
    collector's log holds a complete commit; then every shard counts,
    one with no commit yet recovering empty, so the fold does not
    depend on which shards have committed.  ``[]``: not a live
    checkpoint directory.
    """
    from repro.live.checkpoint import holds_commit

    candidates = [
        (int(name.split("-", 1)[1]), os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
        if name.startswith("shard-")
        and os.path.isdir(os.path.join(directory, name))
    ] or [(None, directory)]
    if any(holds_commit(path) for _index, path in candidates):
        return candidates
    return []


def live_collectors(directory: str):
    """Recover the collectors of a live checkpoint directory:
    ``(shard_index, collector)`` per :func:`live_directories` entry,
    each log's commits replayed once."""
    from repro.live import LiveCollector

    return [
        (index, LiveCollector.recover(path))
        for index, path in live_directories(directory)
    ]


def fold_live_run(source, collectors, strict: bool = False) -> RunProfile:
    """One run from recovered collectors (:func:`live_collectors`).

    The same fold as the sharded post-mortem reduce
    (:func:`repro.parallel.stitching.stitch_groups`): one collector's
    profile is returned as stitched; several go through the exact
    accumulator in shard order, their UnresolvedRefs qualified with
    their shard so they can never spuriously merge.
    """
    from repro.parallel.reduce import ProfileAccumulator
    from repro.parallel.stitching import _tag_unresolved

    crosstalk: CrosstalkTable = {}
    accumulator = ProfileAccumulator()
    for index, collector in collectors:
        for waiter, holder, count, total, _mean, peak in (
            collector.crosstalk_pairs()
        ):
            _add_pair(crosstalk, (str(waiter), str(holder)), count, total,
                      peak)
        profile = collector.stitched_profile(strict=strict)
        if len(collectors) > 1:
            accumulator.add_profile(_tag_unresolved(profile, f"@shard{index}"))
    if len(collectors) > 1:
        profile = accumulator.finalize()
    return RunProfile(source, "live", profile, crosstalk)


def load_run(source, strict: bool = False) -> RunProfile:
    """Load one run's profile from any persisted shape.

    ``source`` may be:

    - a single stage dump file (v1 JSON or framed v2; a v2 file may
      hold a whole run as concatenated frames, a v1 file a list of
      stage objects),
    - a list/tuple of dump files (one run's tiers),
    - a spool directory written by a sharded run (``manifest.json``),
    - a live checkpoint directory (``live.wdr2`` holding a commit, or
      a parent of ``shard-NNNN/`` collector directories), or
    - any other directory holding stage dump files.

    Dumps go through :func:`repro.parallel.stitching.stitch_groups`:
    a spool one shard at a time, anything else as one group.  Loading
    is non-strict by default: partial runs yield a partial profile
    with an explicit completeness ratio, and a run that kept nothing
    at all yields a valid empty profile (completeness 0.0) instead of a
    traceback — the contract `repro diff` relies on.
    """
    from repro.parallel.stitching import spool_groups, stitch_groups

    kind = "dumps"
    if isinstance(source, (list, tuple)):
        source = list(source)
        groups = [source]
    elif not os.path.isdir(source):
        return load_run([source], strict=strict)
    elif os.path.isfile(os.path.join(source, MANIFEST_NAME)):
        kind = "spool"
        groups = spool_groups(source)
    elif live_directories(source):
        return fold_live_run(source, live_collectors(source), strict)
    else:
        groups = [_dump_files_in(source)]
        if not groups[0]:
            raise ValueError(f"no profile dumps found in {source!r}")
    crosstalk: CrosstalkTable = {}
    profile = stitch_groups(groups, strict=strict, crosstalk=crosstalk)
    return RunProfile(source, kind, profile, crosstalk)
