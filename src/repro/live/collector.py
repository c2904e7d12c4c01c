"""The online streaming stitcher: live profiles without post-mortem dumps.

Whodunit's presentation phase is batch: run, dump per-stage profiles,
stitch.  :class:`LiveCollector` is the continuous-profiling version —
a long-lived listener on the profiler's raw event stream
(:data:`repro.core.profiler.PROFILE_LISTENERS`: CPU samples, synopsis
mints, crash amnesia, crosstalk waits) that maintains *shadow*
per-stage profiling state incrementally and can answer "top contexts
right now" at any virtual time, while the simulation keeps running.
It needs no telemetry: spans are neither built nor read for it.

Equivalence guarantee
---------------------

The collector does not approximate: it replays the exact per-stage
operations the real :class:`~repro.core.profiler.StageRuntime` applied,
in the same order, with the same floats — shadow CCTs receive the same
``record_sample`` calls, shadow synopsis tables the same mints and the
same crash clears.  Final compaction therefore feeds
:func:`repro.core.stitch.stitch_profiles` bit-identical inputs, and
the compacted profile serialises to the *same bytes*
(:func:`repro.parallel.stitching.canonical_profile_bytes`) as the
post-mortem stitch of the same seeded run.  Eviction round-trips
(``to_rows``/``attach_rows`` through JSON) are float-exact, so bounded
memory does not weaken the guarantee.

Bounded memory
--------------

Resident CCTs live in an LRU; when the resident count exceeds
``max_resident`` the coldest trees are dropped, the dirty ones first
appended to the directory's spill log (one frame per tree, a
cumulative snapshot superseding its earlier frames — see
:mod:`repro.live.checkpoint`), then faulted back in on their next
sample by decoding that one frame.  Scalar per-context weight
aggregates stay resident regardless, so live queries never touch
evicted trees.  Periodic interval checkpoints — the replay chain —
persist every dirty resident tree and reference the log for the
evicted ones.  A sample whose virtual time has reached the next
checkpoint triggers it, so a collector crash loses at most one
interval plus the gap to the next sample;
:meth:`LiveCollector.recover` rebuilds the shadow state (cold — trees
stay on disk) by replaying the directory.

Absorption and failures
-----------------------

``on_profile_event`` is O(1): append + a counter check + a clock
check.  Absorption runs in batches, *inline in the producer's call*
once the pending buffer reaches ``batch`` events or a checkpoint falls
due — the producer pays for absorption instead of growing an unbounded
queue.  Nothing catches what absorption raises: a failed spill append
or checkpoint write propagates out of the simulation step that emitted
the event, so a run never finishes with a silently partial live
profile.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.core import profiler as _profiler
from repro.core.cct import CallingContextTree
from repro.core.context import TransactionContext, UnresolvedRef
from repro.core.stitch import StitchStats, resolve_context, stitch_profiles
from repro.live import checkpoint as _ckpt

__all__ = ["LiveCollector", "attach_collector"]


class _ShadowSynopses:
    """Mirror of a stage's synopsis table, fed by mint/crash events.

    Duck-types the slice of :class:`~repro.core.synopsis.SynopsisTable`
    the resolver uses (``resolve``), so shadow stages drop straight
    into :func:`resolve_context` / :func:`stitch_profiles`.
    """

    __slots__ = ("stage_name", "by_value")

    def __init__(self, stage_name: str):
        self.stage_name = stage_name
        self.by_value: Dict[int, TransactionContext] = {}

    def resolve(self, value: int) -> TransactionContext:
        try:
            return self.by_value[value]
        except KeyError:
            raise KeyError(
                f"stage {self.stage_name!r} has no synopsis {value:#010x}"
            ) from None


class _Entry:
    """Per-(stage, label) shadow state: the CCT (or None when spilled)
    plus the scalar aggregates that never leave memory."""

    __slots__ = ("cct", "weight", "dirty", "resolved")

    def __init__(self):
        self.cct: Optional[CallingContextTree] = None
        self.weight = 0.0
        self.dirty = False
        self.resolved: Optional[TransactionContext] = None


class _ShadowStage:
    """Shadow of one StageRuntime's profile state."""

    __slots__ = (
        "name", "synopses", "labels", "order", "new_labels",
        "pending_ops", "crosstalk", "crashes",
    )

    def __init__(self, name: str):
        self.name = name
        self.synopses = _ShadowSynopses(name)
        self.labels: Dict[TransactionContext, _Entry] = {}
        # First-seen label order — replayed at compaction so the shadow
        # ccts dict iterates exactly like the real stage's.
        self.order: List[TransactionContext] = []
        # Order of labels first seen since the last checkpoint write.
        self.new_labels: List[TransactionContext] = []
        # Synopsis op log since the last checkpoint write.
        self.pending_ops: List[Any] = []
        # Cumulative (count, total, max) per ordered type pair.
        self.crosstalk: Dict[Tuple[Any, Any], List[Any]] = {}
        self.crashes = 0


class LiveCollector:
    """Consumes the raw profile-event stream; answers live queries.

    Attach via :func:`attach_collector` (or :meth:`attach`) *before*
    constructing the simulated system — stage runtimes capture the
    profile listeners at construction.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        interval: float = 5.0,
        max_resident: Optional[int] = 512,
        batch: int = 512,
    ):
        if directory is None and max_resident is not None:
            # Nowhere to spill: eviction would lose samples.
            max_resident = None
        self.directory = directory
        self.interval = interval
        self.max_resident = max_resident
        self.batch = max(1, batch)
        self._pending: List[Tuple[Any, ...]] = []
        self._stages: Dict[str, _ShadowStage] = {}
        # LRU over resident (stage, label) entries, coldest first.
        self._lru: "OrderedDict[Tuple[str, TransactionContext], _Entry]" = (
            OrderedDict()
        )
        # Where each non-resident label's newest cumulative tree is: an
        # offset into the spill log (int), or the path of the chain
        # document holding it as a cell (str).
        self._spill_index: Dict[
            Tuple[str, TransactionContext], Union[int, str]
        ] = {}
        self._spill = _ckpt.SpillLog(directory) if directory is not None else None
        # Log offsets no chain document references yet.
        self._unreferenced: Dict[Tuple[str, TransactionContext], int] = {}
        self._doc_cache: Tuple[Optional[str], Any] = (None, None)
        # Incremental resolution state for the live query index.
        self._cache: Dict[TransactionContext, TransactionContext] = {}
        self._missing: set = set()
        self._resolved_weights: Dict[Tuple[str, TransactionContext], float] = {}
        self._index_dirty = False
        # Virtual time of the newest absorbed event.
        self.now = 0.0
        self._seq = 0
        # Virtual time the next interval checkpoint falls due (never,
        # without a directory).
        self._next_ckpt = interval if directory is not None else math.inf
        # Cumulative counters (checkpointed, restored on recovery).
        self.samples = 0
        self.sample_weight = 0.0
        self.synopses_minted = 0
        self.synopses_lost = 0
        self.crashes = 0
        self.crosstalk_events = 0
        self.spans_seen = 0
        self.hops_seen = 0
        self.events_absorbed = 0
        self.evictions = 0
        self.revivals = 0
        self.checkpoints_written = 0
        self.peak_resident = 0
        self.recovered_from = 0
        # Absorption method table: one dict hit per event replaces the
        # string-compare chain drain() used to run per event kind.
        self._absorb = {
            "sample": self._on_sample,
            "synopsis": self._on_synopsis,
            "crash": self._on_crash,
            "crosstalk": self._on_crosstalk,
        }

    # ------------------------------------------------------------------
    # Listener and span-sink entry points (hot path)
    # ------------------------------------------------------------------
    def attach(self, tele: Any) -> "LiveCollector":
        """Start listening on the profile-event channel.

        With a ``tele`` hub the collector also becomes one of its span
        sinks — it counts spans and hops, and ``telemetry.uninstall()``
        closes it, which ends the subscription.  Without one, the caller
        closes it.  Returns the collector.
        """
        _profiler.PROFILE_LISTENERS.append(self.on_profile_event)
        if tele is not None:
            tele.add_sink(self)
        return self

    def on_span(self, span: Any) -> None:
        self.spans_seen += 1
        if span.category == "transaction.hop":
            self.hops_seen += 1

    def on_profile_event(self, event: Tuple[Any, ...]) -> None:
        pending = self._pending
        pending.append(event)
        # Samples carry the clock; crash and crosstalk events carry no
        # time and ride the batch.
        if len(pending) >= self.batch or (
            event[0] == "sample" and event[5] >= self._next_ckpt
        ):
            self.drain()

    # ------------------------------------------------------------------
    # Absorption
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Absorb every pending event into the shadow state."""
        absorb = self._absorb
        while self._pending:
            batch, self._pending = self._pending, []
            for event in batch:
                handler = absorb.get(event[0])
                if handler is not None:
                    handler(event)
            self.events_absorbed += len(batch)
        if self.now >= self._next_ckpt:
            self.checkpoint()

    def _stage(self, name: str) -> _ShadowStage:
        shadow = self._stages.get(name)
        if shadow is None:
            shadow = self._stages[name] = _ShadowStage(name)
        return shadow

    def _on_sample(self, event) -> None:
        _, stage_name, label, path, weight, t = event
        self.now = t
        self.samples += 1
        self.sample_weight += weight
        shadow = self._stage(stage_name)
        entry = shadow.labels.get(label)
        key = (stage_name, label)
        if entry is None:
            entry = _Entry()
            shadow.labels[label] = entry
            shadow.order.append(label)
            shadow.new_labels.append(label)
            entry.cct = CallingContextTree(label)
            self._admit(key, entry)
            entry.resolved = self._resolve_label(label)
        elif entry.cct is None:
            self._revive(key, entry, shadow)
        else:
            self._lru.move_to_end(key)
        entry.cct.record_sample(path, weight)
        entry.dirty = True
        entry.weight += weight
        if not self._index_dirty and entry.resolved is not None:
            rkey = (stage_name, entry.resolved)
            self._resolved_weights[rkey] = (
                self._resolved_weights.get(rkey, 0.0) + weight
            )

    def _on_synopsis(self, event) -> None:
        _, stage_name, value, context, t = event
        self.now = t
        self.synopses_minted += 1
        shadow = self._stage(stage_name)
        shadow.synopses.by_value[value] = context
        shadow.pending_ops.append(("s", value, context))
        if (stage_name, value) in self._missing:
            # A reference that previously failed to resolve just became
            # resolvable; re-bucket the scalar index on next query.
            self._index_dirty = True

    def _on_crash(self, event) -> None:
        _, stage_name, lost = event
        self.crashes += 1
        self.synopses_lost += lost
        shadow = self._stage(stage_name)
        shadow.crashes += 1
        shadow.synopses.by_value.clear()
        shadow.pending_ops.append(("c", lost))
        # Earlier resolutions may have read mappings that no longer
        # exist; queries resolve against *current* tables, like the
        # post-mortem pass resolves against end-of-run tables.
        self._index_dirty = True

    def _on_crosstalk(self, event) -> None:
        _, stage_name, waiter, holder, wait = event
        self.crosstalk_events += 1
        shadow = self._stage(stage_name or "<anonymous>")
        stats = shadow.crosstalk.get((waiter, holder))
        if stats is None:
            shadow.crosstalk[(waiter, holder)] = [1, wait, wait]
        else:
            stats[0] += 1
            stats[1] += wait
            if wait > stats[2]:
                stats[2] = wait

    # ------------------------------------------------------------------
    # LRU + spill
    # ------------------------------------------------------------------
    @property
    def resident_contexts(self) -> int:
        return len(self._lru)

    def _admit(self, key, entry: _Entry) -> None:
        limit = self.max_resident
        if limit is not None and len(self._lru) >= limit:
            self._evict(max(1, limit // 4))
        self._lru[key] = entry
        if len(self._lru) > self.peak_resident:
            self.peak_resident = len(self._lru)

    def _evict(self, count: int) -> None:
        """Drop the coldest ``count`` resident trees, appending the
        dirty ones to the spill log first."""
        victims: List[Tuple[Tuple[str, TransactionContext], _Entry]] = []
        for key in list(self._lru):
            if len(victims) >= count:
                break
            victims.append((key, self._lru[key]))
        for key, entry in victims:
            if entry.dirty:
                offset = self._spill.append(_ckpt.encode_cct(key[1], entry.cct))
                self._spill_index[key] = self._unreferenced[key] = offset
            entry.cct = None
            entry.dirty = False
            del self._lru[key]
            self.evictions += 1

    def _revive(self, key, entry: _Entry, shadow: _ShadowStage) -> None:
        """Fault a spilled tree back in from its latest snapshot."""
        entry.cct = self._load_tree(key)
        self._admit(key, entry)
        self.revivals += 1

    def _load_tree(self, key) -> CallingContextTree:
        stage_name, label = key
        where = self._spill_index.get(key)
        if where is None:
            # Never persisted (clean empty entry from recovery edge
            # cases): start a fresh tree.
            return CallingContextTree(label)
        if isinstance(where, int):
            cct = _ckpt.decode_cct(self._spill.read(where))
            if cct.label != label:
                raise ValueError(
                    f"spill log {self._spill.path!r} holds {cct.label!r} at "
                    f"offset {where}, not {stage_name!r} label {label!r}"
                )
            return cct
        # The newest snapshot is a cell of a chain document (a clean
        # tree evicted after an interval checkpoint, or recovered).
        cached_path, cached_doc = self._doc_cache
        if cached_path == where:
            doc = cached_doc
        else:
            doc = _ckpt.read_checkpoint(where)
            self._doc_cache = (where, doc)
        for cell in doc["stages"].get(stage_name, {}).get("ccts", []):
            if _ckpt.cct_cell_label(cell) == label:
                return _ckpt.decode_cct(cell)
        raise ValueError(
            f"checkpoint {where!r} lost the snapshot for {stage_name!r} "
            f"label {label!r}"
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _counters_doc(self) -> Dict[str, Any]:
        stats = self._fresh_stats()
        return {
            "samples": self.samples,
            "sample_weight": self.sample_weight,
            "synopses_minted": self.synopses_minted,
            "synopses_lost": self.synopses_lost,
            "crashes": self.crashes,
            "crosstalk_events": self.crosstalk_events,
            "spans_seen": self.spans_seen,
            "hops_seen": self.hops_seen,
            "events_absorbed": self.events_absorbed,
            "evictions": self.evictions,
            "revivals": self.revivals,
            "attempted": stats.attempted,
            "unresolved": stats.unresolved,
        }

    def _write_doc(
        self,
        snapshot_keys: Iterable[Tuple[str, TransactionContext]],
        kind: str = "interval",
    ) -> str:
        """Persist one superseding checkpoint document (see
        :mod:`repro.live.checkpoint` for the replay semantics)."""
        stages_doc: Dict[str, Any] = {}
        by_stage: Dict[str, List[TransactionContext]] = {}
        for key in snapshot_keys:
            by_stage.setdefault(key[0], []).append(key[1])
            self._unreferenced.pop(key, None)
        # What is left sits evicted, so its last frame is its state.
        spilled: Dict[str, List[Any]] = {}
        for (stage_name, label), offset in self._unreferenced.items():
            spilled.setdefault(stage_name, []).append(
                [_ckpt.encode_context(label), offset]
            )
        self._unreferenced = {}
        for name, shadow in self._stages.items():
            cct_cells = []
            for label in by_stage.get(name, []):
                entry = shadow.labels[label]
                cct_cells.append(_ckpt.encode_cct(label, entry.cct))
            stages_doc[name] = {
                "new_labels": [
                    _ckpt.encode_context(label) for label in shadow.new_labels
                ],
                "syn_ops": [_ckpt.encode_syn_op(op) for op in shadow.pending_ops],
                "ccts": cct_cells,
                "spilled": spilled.get(name, []),
                "crosstalk": _ckpt.encode_crosstalk(shadow.crosstalk),
            }
            shadow.new_labels = []
            shadow.pending_ops = []
        document = {
            "seq": self._seq,
            "t": self.now,
            "kind": kind,
            "counters": self._counters_doc(),
            "stages": stages_doc,
        }
        # Frames first: a document never names bytes not yet on disk.
        self._spill.flush()
        path = _ckpt.write_checkpoint(self.directory, self._seq, document)
        self._seq += 1
        self.checkpoints_written += 1
        self._doc_cache = (None, None)
        for key in snapshot_keys:
            self._spill_index[key] = path
            entry = self._stages[key[0]].labels[key[1]]
            entry.dirty = False
        return path

    def checkpoint(self) -> Optional[str]:
        """Write an interval checkpoint of everything dirty.

        After this returns, a collector crash loses only events newer
        than the write.  A sample at or past the due time triggers the
        next one, so that is at most one checkpoint interval plus the
        gap to the next sample.
        """
        if self.directory is None:
            return None
        dirty = [
            (name, label)
            for name, shadow in self._stages.items()
            for label, entry in shadow.labels.items()
            if entry.dirty and entry.cct is not None
        ]
        path = self._write_doc(dirty)
        self._next_ckpt = self.now + self.interval
        return path

    def finalize(self) -> Optional[str]:
        """Absorb everything pending and write a final interval
        checkpoint (the end-of-run flush path for shard runners)."""
        self.drain()
        if self.directory is None:
            return None
        return self.checkpoint()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: str,
        interval: float = 5.0,
        max_resident: Optional[int] = 512,
        batch: int = 512,
    ) -> "LiveCollector":
        """Rebuild a collector from a checkpoint directory.

        State is reconstructed *cold*: synopsis tables and scalar
        aggregates come back resident, CCTs stay on disk until touched.
        Everything newer than the last completed checkpoint is gone
        (at most one interval plus the gap to the next sample) — the
        bounded-loss guarantee, not a bug.  Spill-log frames newer than
        that checkpoint are referenced by nothing and ignored.  The
        directory is only read.
        """
        collector = cls(
            directory=directory,
            interval=interval,
            max_resident=max_resident,
            batch=batch,
        )
        paths = _ckpt.list_checkpoints(directory)
        for path in paths:
            collector._replay(_ckpt.read_checkpoint(path), path)
        for key, offset in collector._spill_index.items():
            if isinstance(offset, int):
                entry = collector._stages[key[0]].labels[key[1]]
                entry.weight = math.fsum(
                    _ckpt.cct_cell_weights(collector._spill.read(offset))
                )
        if paths:
            collector.recovered_from = len(paths)
            collector._next_ckpt = collector.now + interval
            collector._index_dirty = True
        return collector

    def _replay(self, doc: Dict[str, Any], path: str) -> None:
        if doc.get("kind") == "full":
            # A full snapshot is absolute: drop anything replayed from
            # older files (compaction normally deletes them anyway).
            self._stages.clear()
            self._lru.clear()
            self._spill_index.clear()
        self._seq = doc["seq"] + 1
        self.now = doc["t"]
        counters = doc["counters"]
        self.samples = counters["samples"]
        self.sample_weight = counters["sample_weight"]
        self.synopses_minted = counters["synopses_minted"]
        self.synopses_lost = counters["synopses_lost"]
        self.crashes = counters["crashes"]
        self.crosstalk_events = counters["crosstalk_events"]
        self.spans_seen = counters["spans_seen"]
        self.hops_seen = counters["hops_seen"]
        self.events_absorbed = counters["events_absorbed"]
        self.evictions = counters["evictions"]
        self.revivals = counters["revivals"]
        for name, stage_doc in doc["stages"].items():
            shadow = self._stage(name)
            for cells in stage_doc["new_labels"]:
                label = _ckpt.decode_context(cells)
                if label not in shadow.labels:
                    shadow.labels[label] = _Entry()
                    shadow.order.append(label)
            for cell in stage_doc["syn_ops"]:
                op = _ckpt.decode_syn_op(cell)
                if op[0] == "s":
                    shadow.synopses.by_value[op[1]] = op[2]
                else:
                    shadow.synopses.by_value.clear()
                    shadow.crashes += 1
            for cell in stage_doc["ccts"]:
                label = _ckpt.cct_cell_label(cell)
                entry = shadow.labels.get(label)
                if entry is None:
                    entry = shadow.labels[label] = _Entry()
                    shadow.order.append(label)
                entry.cct = None
                entry.dirty = False
                entry.weight = math.fsum(_ckpt.cct_cell_weights(cell))
                self._spill_index[(name, label)] = path
            # Absent from documents written before the spill log.
            for cells, offset in stage_doc.get("spilled", ()):
                # The label is known (evicted means sampled before) and
                # cold already; recover() weighs the frames that are
                # still the newest once the whole chain is replayed.
                self._spill_index[(name, _ckpt.decode_context(cells))] = offset
            if stage_doc["crosstalk"]:
                shadow.crosstalk = {
                    key: list(stats)
                    for key, stats in _ckpt.decode_crosstalk(
                        stage_doc["crosstalk"]
                    ).items()
                }

    # ------------------------------------------------------------------
    # Live queries
    # ------------------------------------------------------------------
    def _stage_map(self) -> Dict[str, _ShadowStage]:
        return self._stages

    def _resolve_label(self, label: TransactionContext) -> TransactionContext:
        resolved = resolve_context(
            label, self._stages, self._cache, strict=False
        )
        for element in resolved:
            if isinstance(element, UnresolvedRef):
                self._missing.add((element.origin, element.value))
        return resolved

    def _fresh_stats(self) -> StitchStats:
        """One non-strict resolve pass over every label against the
        *current* tables (exactly what the post-mortem pass would count
        on the same state)."""
        stats = StitchStats()
        cache: Dict[TransactionContext, TransactionContext] = {}
        for shadow in self._stages.values():
            for label in shadow.order:
                resolve_context(label, self._stages, cache, False, stats)
        return stats

    def _refresh_index(self) -> None:
        if not self._index_dirty:
            return
        self._cache = {}
        self._missing.clear()
        self._resolved_weights = {}
        for name, shadow in self._stages.items():
            for label in shadow.order:
                entry = shadow.labels[label]
                entry.resolved = self._resolve_label(label)
                if entry.weight:
                    rkey = (name, entry.resolved)
                    self._resolved_weights[rkey] = (
                        self._resolved_weights.get(rkey, 0.0) + entry.weight
                    )
        self._index_dirty = False

    def top_contexts(
        self, k: int = 10
    ) -> List[Tuple[str, TransactionContext, float, float]]:
        """The ``k`` heaviest (stage, resolved context) entries right
        now: rows ``(stage, context, weight, share-of-stage)``.

        Served from the scalar index — never touches spilled trees, so
        a query mid-run is cheap at any memory pressure.
        """
        self.drain()
        self._refresh_index()
        totals = self.stage_weights()
        rows = sorted(
            self._resolved_weights.items(),
            key=lambda item: (-item[1], item[0][0], repr(item[0][1])),
        )
        return [
            (stage, context, weight, weight / totals[stage] if totals[stage] else 0.0)
            for (stage, context), weight in rows[: max(0, k)]
        ]

    def stage_weights(self) -> Dict[str, float]:
        """Total sample weight per stage, at the current virtual time."""
        self.drain()
        return {
            name: math.fsum(entry.weight for entry in shadow.labels.values())
            for name, shadow in self._stages.items()
        }

    def completeness(self) -> float:
        """Fraction of synopsis references resolvable *right now*."""
        self.drain()
        return self._fresh_stats().completeness

    def stitch_stats(self) -> Tuple[int, int]:
        """Current ``(attempted, unresolved)`` resolution tallies."""
        self.drain()
        stats = self._fresh_stats()
        return stats.attempted, stats.unresolved

    def crosstalk_pairs(self) -> List[Tuple[Any, Any, int, float, float, float]]:
        """Crosstalk aggregated across stages: rows ``(waiter, holder,
        count, total, mean, max)``, heaviest total first."""
        self.drain()
        folded: Dict[Tuple[Any, Any], List[Any]] = {}
        for shadow in self._stages.values():
            for key, stats in shadow.crosstalk.items():
                acc = folded.get(key)
                if acc is None:
                    folded[key] = list(stats)
                else:
                    acc[0] += stats[0]
                    acc[1] += stats[1]
                    if stats[2] > acc[2]:
                        acc[2] = stats[2]
        rows = [
            (waiter, holder, count, total, total / count if count else 0.0, peak)
            for (waiter, holder), (count, total, peak) in folded.items()
        ]
        rows.sort(key=lambda row: -row[3])
        return rows

    # ------------------------------------------------------------------
    # Compaction: the live profile, byte-identical to post-mortem
    # ------------------------------------------------------------------
    class _StitchView:
        """Duck-typed StageRuntime slice for :func:`stitch_profiles`."""

        __slots__ = ("name", "ccts", "synopses")

        def __init__(self, name, ccts, synopses):
            self.name = name
            self.ccts = ccts
            self.synopses = synopses

    def _views(self) -> List["LiveCollector._StitchView"]:
        views = []
        for name, shadow in self._stages.items():
            ccts: Dict[TransactionContext, CallingContextTree] = {}
            for label in shadow.order:
                entry = shadow.labels[label]
                if entry.cct is not None:
                    ccts[label] = entry.cct
                else:
                    ccts[label] = self._load_tree((name, label))
            views.append(self._StitchView(name, ccts, shadow.synopses))
        return views

    def stitched_profile(self, strict: bool = False):
        """The full end-to-end profile of everything absorbed so far.

        Materialises every spilled tree (this is the end-of-run path —
        bounded-memory queries should use :meth:`top_contexts` /
        :meth:`stage_weights` instead) and runs the very same
        :func:`stitch_profiles` the post-mortem presentation phase
        runs, on bit-identical inputs.
        """
        self.drain()
        return stitch_profiles(self._views(), strict=strict)

    def compact(self, strict: bool = False):
        """Finalize: stitch, then collapse the checkpoint directory to
        a single ``kind="full"`` snapshot superseding all others.

        Returns the stitched profile.  After compaction the directory
        replays from one file — the spill log goes with the superseded
        chain, the full document holding every tree as a cell;
        :func:`repro.cli` exposes this as ``repro live-report``.
        """
        self.drain()
        if self.directory is None:
            return self.stitched_profile(strict=strict)
        # The full document needs every tree resident; fault them in
        # first so the stitch reads each one once, from memory.
        keys = [
            (name, label)
            for name, shadow in self._stages.items()
            for label in shadow.order
        ]
        for key in keys:
            entry = self._stages[key[0]].labels[key[1]]
            if entry.cct is None:
                entry.cct = self._load_tree(key)
                self._lru[key] = entry
        profile = self.stitched_profile(strict=strict)
        older = _ckpt.list_checkpoints(self.directory)
        for shadow in self._stages.values():
            # Full documents carry absolute state: every label in
            # first-seen order, the whole current synopsis table.
            shadow.new_labels = list(shadow.order)
            shadow.pending_ops = [
                ("s", value, context)
                for value, context in shadow.synopses.by_value.items()
            ]
        final = self._write_doc(keys, kind="full")
        _ckpt.remove_checkpoints([p for p in older if p != final])
        self._spill.remove()
        return profile

    def flush(self) -> None:
        self.drain()

    def close(self) -> None:
        """Stop listening: leave the profile-event channel, drain, and
        release the spill log's file handle (held from the first dirty
        eviction on).

        Idempotent.  The collector stays queryable and reopens the log
        at its next eviction; systems built while it listened still
        hold its emitter.
        """
        listeners = _profiler.PROFILE_LISTENERS
        if self.on_profile_event in listeners:
            listeners.remove(self.on_profile_event)
        try:
            self.drain()
        finally:
            if self._spill is not None:
                self._spill.close()


def attach_collector(
    tele: Any,
    directory: Optional[str] = None,
    interval: float = 5.0,
    max_resident: Optional[int] = 512,
    batch: int = 512,
) -> LiveCollector:
    """Create a LiveCollector listening on the profile-event channel.

    Must run before the simulated system is built (stage runtimes
    capture the listeners at construction).  ``tele`` may be ``None``;
    see :meth:`LiveCollector.attach` for what a hub adds, and who then
    closes the collector.
    """
    collector = LiveCollector(
        directory=directory,
        interval=interval,
        max_resident=max_resident,
        batch=batch,
    )
    return collector.attach(tele)
