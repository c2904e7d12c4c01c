"""The online streaming stitcher: live profiles without post-mortem dumps.

Whodunit's presentation phase is batch: run, dump per-stage profiles,
stitch.  :class:`LiveCollector` is the continuous-profiling version.
It *owns* the CCT dictionaries of the stage runtimes built while it is
attached (:data:`repro.core.profiler.COLLECTOR`): each sample reaches
it as one direct call, and it can answer "top contexts right now" at
any virtual time while the simulation keeps running.  It needs no
telemetry: spans are neither built nor read for it.

Equivalence
-----------

There is no second copy to keep equal.  An adopted stage's ``ccts`` is
the collector's :class:`StageTrees` — a mapping, in first-seen label
order, over the very trees each sample is recorded into once — and the
synopsis tables, crash counts and crosstalk aggregates the collector
commits, resolves against and reports are the runtimes' own: queries
read them when asked, so nothing has to keep a derived index in step
with them.  Compaction runs
:func:`repro.core.stitch.stitch_profiles` on the runtimes themselves,
so the compacted profile serialises to the same bytes
(:func:`repro.parallel.stitching.canonical_profile_bytes`) as the
post-mortem stitch of the same run by construction.  Eviction round
trips (``to_rows``/``attach_rows`` through JSON) are float-exact, so
bounded memory does not weaken that.

Bounded memory
--------------

Resident trees of every adopted stage share one LRU.  Before admitting
a tree past ``max_resident`` the coldest ones are dropped, the dirty
ones first appended to the directory's log (one tree frame each, a
cumulative snapshot superseding its earlier frames — see
:mod:`repro.live.checkpoint`).  Nothing else holds a stage's trees, so
the bound holds for the process, not just for the collector.  A sample
on an evicted tree revives it by decoding that one frame, and so does
a change through :meth:`~repro.core.profiler.StageRuntime.cct_for`
(gprof's call counts).  Reading the mapping (reports, the stitch)
decodes an evicted tree for the reader without making it resident, so
reads never move the LRU or its counters.  Each label's scalar weight
stays resident regardless, so live queries never touch evicted trees.

A periodic interval checkpoint appends every dirty resident tree to
the same log, then one commit holding the collector's absolute state:
every tree by offset, every synopsis table and the crosstalk
aggregates.  A sample whose virtual time has reached the next
checkpoint triggers it, so a collector crash loses at most one
interval plus the gap to the next sample;
:meth:`LiveCollector.recover` rebuilds the state (cold — trees stay on
disk) from the last complete commit into fresh, unattached stage
runtimes.

Nothing catches what the collector raises: a failed append propagates
out of the simulation step that recorded the sample, so a run never
finishes with a silently partial live profile.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from collections.abc import Mapping
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple

from repro.core import profiler as _profiler
from repro.core.cct import CallingContextTree
from repro.core.context import TransactionContext
from repro.core.crosstalk import PairStats
from repro.core.persist import TableDecoder, TableEncoder, crosstalk_table
from repro.core.profiler import StageRuntime
from repro.core.stitch import StitchStats, resolve_context, stitch_profiles
from repro.live import checkpoint as _ckpt

__all__ = ["LiveCollector", "StageTrees", "attach_collector"]


class _Entry:
    """One (stage, label): its tree (None while evicted), where its
    newest snapshot is, and its scalar weight, which never leaves
    memory."""

    __slots__ = ("stage", "label", "cct", "weight", "dirty", "where")

    def __init__(self, stage: str, label: TransactionContext):
        self.stage = stage
        self.label = label
        self.cct: Optional[CallingContextTree] = None
        self.weight = 0.0
        self.dirty = False
        # The log offset of the newest persisted snapshot (None: never
        # persisted).
        self.where: Optional[int] = None


class StageTrees(Mapping):
    """An adopted stage's ``ccts``: label -> tree, in first-seen order.

    Reading an evicted tree decodes its newest snapshot for the reader
    and leaves the LRU alone; changes go through the collector
    (samples, and :meth:`~repro.core.profiler.StageRuntime.cct_for`).
    """

    __slots__ = ("collector", "name", "entries")

    def __init__(self, collector: "LiveCollector", name: str):
        self.collector = collector
        self.name = name
        self.entries: Dict[TransactionContext, _Entry] = {}

    def __getitem__(self, label: TransactionContext) -> CallingContextTree:
        entry = self.entries[label]
        if entry.cct is not None:
            return entry.cct
        return self.collector._load_tree(entry)

    def __contains__(self, label: object) -> bool:
        return label in self.entries

    def __iter__(self) -> Iterator[TransactionContext]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class LiveCollector:
    """Owns the CCTs of the stages built while attached; answers live
    queries.

    Attach via :func:`attach_collector` (or :meth:`attach`) *before*
    constructing the simulated system: a stage runtime is adopted at
    construction.  One collector is attached at a time.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        interval: float = 5.0,
        max_resident: Optional[int] = 512,
    ):
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError(
                f"interval must be a finite number of seconds > 0, got {interval!r}"
            )
        if max_resident is not None and max_resident < 1:
            raise ValueError(
                f"max_resident must be >= 1 (None: unbounded), got {max_resident!r}"
            )
        if directory is None:
            # Nowhere to spill: eviction would lose samples.
            max_resident = None
        self.directory = directory
        self.interval = interval
        self.max_resident = max_resident
        # The adopted stage runtimes by name, in adoption order (after
        # recover(), the ones rebuilt from the directory).
        self._stages: Dict[str, StageRuntime] = {}
        # LRU over resident entries, coldest first.
        self._lru: "OrderedDict[_Entry, None]" = OrderedDict()
        # The log, opened for appending at the first write; until then
        # a read opens it read-only for the one frame, so a recovered
        # collector that is only queried leaves the directory alone.
        self._log: Optional[IO[bytes]] = None
        # The bytes of the log the state rests on: opening the log for a
        # write cuts the file back to them, so a fresh collector starts
        # it afresh, a recovered one drops what followed its last
        # commit, and a closed one carries on where it stopped.
        self._log_end = 0
        # Virtual time of the newest sample.
        self.now = 0.0
        # Virtual time the next interval checkpoint falls due (never,
        # without a directory).
        self._next_ckpt = interval if directory is not None else math.inf
        # Cumulative counters (committed, restored on recovery).
        self.samples = 0
        self.sample_weight = 0.0
        self.evictions = 0
        self.revivals = 0
        self.checkpoints_written = 0
        self.peak_resident = 0
        # Complete commits in the log recovery read (0: not recovered).
        self.recovered_from = 0

    @property
    def synopses_minted(self) -> int:
        """Synopses the stages allocated (values are sequential from 1,
        and a crash clear does not rewind them)."""
        return sum(
            stage.synopses.next_value - 1 for stage in self._stages.values()
        )

    @property
    def crashes(self) -> int:
        """Crash clears of the stages' synopsis tables."""
        return sum(stage.crashes for stage in self._stages.values())

    @property
    def events_absorbed(self) -> int:
        """Samples, synopsis mints, crash clears and lock waits so far."""
        waits = sum(
            stats.count
            for stage in self._stages.values()
            for stats in stage.crosstalk.pairs.values()
        )
        return self.samples + self.synopses_minted + self.crashes + waits

    @property
    def stages(self) -> List[StageRuntime]:
        """The adopted stage runtimes, in adoption order."""
        return list(self._stages.values())

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, tele: Any) -> "LiveCollector":
        """Take the collector slot: stage runtimes built from now on
        are adopted.

        With a ``tele`` hub the collector also becomes one of its span
        sinks, so ``telemetry.uninstall()`` closes it, which empties the
        slot.  Without one, the caller closes it.  Raises ``ValueError``
        while another collector is attached.  Returns the collector.
        """
        if _profiler.COLLECTOR is not None:
            raise ValueError("a live collector is already attached")
        _profiler.COLLECTOR = self
        if tele is not None:
            tele.add_sink(self)
        return self

    def adopt(self, stage: StageRuntime) -> None:
        """Take over ``stage``'s CCTs (its constructor calls this while
        the collector is attached)."""
        if stage.name in self._stages:
            raise ValueError(
                f"the live collector already holds a stage named {stage.name!r}"
            )
        self._stages[stage.name] = stage
        stage.ccts = StageTrees(self, stage.name)
        stage._live = self

    def on_span(self, span: Any) -> None:
        """Span-sink protocol: spans are not read."""

    # ------------------------------------------------------------------
    # The adopted stages' calls (hot path)
    # ------------------------------------------------------------------
    def on_sample(
        self,
        trees: StageTrees,
        label: TransactionContext,
        path: Tuple[str, ...],
        weight: float,
        t: float,
    ) -> None:
        entry = self._touch(trees, label)
        entry.cct.record_sample(path, weight)
        entry.weight += weight
        self.samples += 1
        self.sample_weight += weight
        self.now = t
        if t >= self._next_ckpt:
            self.checkpoint()

    def tree_for_update(
        self, trees: StageTrees, label: TransactionContext
    ) -> CallingContextTree:
        """``label``'s tree, resident and marked dirty, for a change
        that is not a sample (gprof's call counts)."""
        return self._touch(trees, label).cct

    # ------------------------------------------------------------------
    # LRU + log
    # ------------------------------------------------------------------
    @property
    def resident_contexts(self) -> int:
        return len(self._lru)

    def _touch(self, trees: StageTrees, label: TransactionContext) -> _Entry:
        """Make ``label``'s tree resident and most recently used, and
        mark it dirty: the caller is about to change it."""
        entry = trees.entries.get(label)
        if entry is None:
            entry = trees.entries[label] = _Entry(trees.name, label)
            self._admit(entry)
            entry.cct = CallingContextTree(label)
        elif entry.cct is None:
            self._admit(entry)
            entry.cct = self._load_tree(entry)
            self.revivals += 1
        else:
            self._lru.move_to_end(entry)
        entry.dirty = True
        return entry

    def _admit(self, entry: _Entry) -> None:
        lru = self._lru
        limit = self.max_resident
        if limit is not None and len(lru) >= limit:
            self._evict(max(1, limit // 4))
        lru[entry] = None
        if len(lru) > self.peak_resident:
            self.peak_resident = len(lru)

    def _evict(self, count: int) -> None:
        """Drop the coldest ``count`` resident trees, appending the
        dirty ones to the log first."""
        lru = self._lru
        for _ in range(min(count, len(lru))):
            entry = next(iter(lru))
            if entry.dirty:
                entry.where = _ckpt.append_frame(
                    self._writer(), _ckpt.tree_frame(entry.label, entry.cct),
                    _ckpt.TREE_VERSION,
                )
            entry.cct = None
            entry.dirty = False
            del lru[entry]
            self.evictions += 1

    def _load_tree(self, entry: _Entry) -> CallingContextTree:
        """Decode ``entry``'s newest snapshot."""
        handle = self._log or open(_ckpt.log_path(self.directory), "rb")
        try:
            cct = _ckpt.decode_tree(_ckpt.read_tree(handle, entry.where))
        finally:
            if handle is not self._log:
                handle.close()
        if cct.label != entry.label:
            raise ValueError(
                f"{handle.name!r} holds {cct.label!r} at offset {entry.where}, "
                f"not {entry.stage!r} label {entry.label!r}"
            )
        return cct

    def _writer(self) -> IO[bytes]:
        """The log, open for appending."""
        if self._log is None:
            os.makedirs(self.directory, exist_ok=True)
            self._log = open(_ckpt.log_path(self.directory), "a+b")
            self._log.truncate(self._log_end)
        return self._log

    def _entries(self) -> Iterator[_Entry]:
        for stage in self._stages.values():
            yield from stage.ccts.entries.values()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _commit(
        self, handle: IO[bytes], snapshot: List[_Entry]
    ) -> Dict[_Entry, int]:
        """Append ``snapshot``'s trees, then one commit holding the
        collector's absolute state (see :mod:`repro.live.checkpoint`).

        Returns the offset of each tree appended, and changes nothing
        in memory: :meth:`_settle` does, once the commit is in the log,
        so a failed write leaves the collector as it was.
        """
        appended = {
            entry: _ckpt.append_frame(
                handle, _ckpt.tree_frame(entry.label, entry.cct),
                _ckpt.TREE_VERSION,
            )
            for entry in snapshot
        }
        encoder = TableEncoder()
        context_id, type_cell = encoder.context, encoder.type_cell
        stages_doc: Dict[str, Any] = {}
        for name, stage in self._stages.items():
            synopses = stage.synopses
            stages_doc[name] = {
                "trees": [
                    [context_id(label), appended.get(entry, entry.where)]
                    for label, entry in stage.ccts.entries.items()
                ],
                "synopses": [
                    synopses.base, synopses.next_value, stage.crashes,
                    [[value, context_id(context)]
                     for context, value in synopses.items()],
                ],
                "crosstalk": [
                    [type_cell(waiter), type_cell(holder), stats.count,
                     stats.total, stats.max]
                    for (waiter, holder), stats in stage.crosstalk.pairs.items()
                ],
            }
        strings, contexts = encoder.tables()
        commit = {
            "t": self.now,
            "counters": {
                "samples": self.samples,
                "sample_weight": self.sample_weight,
                "evictions": self.evictions,
                "revivals": self.revivals,
            },
            "strings": strings,
            "contexts": contexts,
            "stages": stages_doc,
        }
        _ckpt.append_frame(handle, commit, _ckpt.COMMIT_VERSION)
        handle.flush()
        return appended

    def _settle(self, appended: Dict[_Entry, int]) -> None:
        """Make a commit :meth:`_commit` wrote the collector's state."""
        for entry, offset in appended.items():
            entry.where = offset
            entry.dirty = False
        self.checkpoints_written += 1

    def checkpoint(self) -> None:
        """Write an interval checkpoint of every dirty resident tree.

        After this returns, a collector crash loses only samples newer
        than the write.  A sample at or past the due time triggers the
        next one, so that is at most one checkpoint interval plus the
        gap to the next sample.
        """
        if self.directory is None:
            return
        snapshot = [entry for entry in self._lru if entry.dirty]
        self._settle(self._commit(self._writer(), snapshot))
        self._next_ckpt = self.now + self.interval

    def finalize(self) -> None:
        """Write a final interval checkpoint (the end-of-run flush path
        for shard runners)."""
        self.checkpoint()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: str,
        interval: float = 5.0,
        max_resident: Optional[int] = 512,
    ) -> "LiveCollector":
        """Rebuild a collector from a checkpoint directory.

        State is reconstructed *cold*, from the log's last complete
        commit, into fresh stage runtimes that no simulation drives:
        synopsis tables, crash counts, crosstalk aggregates and scalar
        weights come back resident, CCTs stay on disk until read.
        Everything newer than that commit is gone (at most one interval
        plus the gap to the next sample) — the bounded-loss guarantee,
        not a bug.  The directory is only read; the collector's first
        write cuts the log back to that commit.
        """
        collector = cls(
            directory=directory, interval=interval, max_resident=max_resident
        )
        path = _ckpt.log_path(directory)
        commits = list(_ckpt.commit_frames(path))
        if not commits:
            return collector
        start, collector._log_end = commits[-1]
        collector.recovered_from = len(commits)
        with open(path, "rb") as handle:
            collector._restore(_ckpt.read_commit(handle, start))
            for entry in collector._entries():
                entry.weight = math.fsum(_ckpt.tree_weights(
                    _ckpt.read_tree(handle, entry.where)
                ))
        collector._next_ckpt = collector.now + interval
        return collector

    def _restore(self, commit: Dict[str, Any]) -> None:
        self.now = commit["t"]
        counters = commit["counters"]
        self.samples = counters["samples"]
        self.sample_weight = counters["sample_weight"]
        self.evictions = counters["evictions"]
        self.revivals = counters["revivals"]
        decoder = TableDecoder(commit["strings"], commit["contexts"])
        contexts = decoder.contexts
        for name, stage_doc in commit["stages"].items():
            stage = StageRuntime(name, live=False)
            self.adopt(stage)
            entries = stage.ccts.entries
            for label_id, offset in stage_doc["trees"]:
                label = contexts[label_id]
                entry = entries[label] = _Entry(name, label)
                entry.where = offset
            base, next_value, stage.crashes, mappings = stage_doc["synopses"]
            stage.synopses.restore_snapshot(base, next_value)
            for value, context_id in mappings:
                stage.synopses.register(contexts[context_id], value)
            for waiter, holder, *stats in stage_doc["crosstalk"]:
                pair = PairStats()
                pair.count, pair.total, pair.max = stats
                stage.crosstalk.pairs[
                    (decoder.type(waiter), decoder.type(holder))
                ] = pair

    # ------------------------------------------------------------------
    # Live queries: each reads the stages' current state when asked
    # ------------------------------------------------------------------
    def _fresh_stats(self) -> StitchStats:
        """One non-strict resolve pass over every label against the
        *current* tables (exactly what the post-mortem pass would count
        on the same state)."""
        stats = StitchStats()
        cache: Dict[TransactionContext, TransactionContext] = {}
        for entry in self._entries():
            resolve_context(entry.label, self._stages, cache, False, stats)
        return stats

    def top_contexts(
        self, k: int = 10
    ) -> List[Tuple[str, TransactionContext, float, float]]:
        """The ``k`` heaviest (stage, resolved context) entries right
        now: rows ``(stage, context, weight, share-of-stage)``.

        One non-strict resolve pass over the labels' scalar weights
        against the current tables — never touches evicted trees, so a
        query mid-run is cheap at any memory pressure.
        """
        weights: Dict[Tuple[str, TransactionContext], float] = {}
        cache: Dict[TransactionContext, TransactionContext] = {}
        for entry in self._entries():
            if entry.weight:
                key = (entry.stage, resolve_context(
                    entry.label, self._stages, cache, False
                ))
                weights[key] = weights.get(key, 0.0) + entry.weight
        totals = self.stage_weights()
        rows = sorted(
            weights.items(),
            key=lambda item: (-item[1], item[0][0], repr(item[0][1])),
        )
        return [
            (stage, context, weight, weight / totals[stage] if totals[stage] else 0.0)
            for (stage, context), weight in rows[: max(0, k)]
        ]

    def stage_weights(self) -> Dict[str, float]:
        """Total sample weight per stage, at the current virtual time."""
        return {
            name: math.fsum(entry.weight for entry in stage.ccts.entries.values())
            for name, stage in self._stages.items()
        }

    def completeness(self) -> float:
        """Fraction of synopsis references resolvable *right now*."""
        return self._fresh_stats().completeness

    def stitch_stats(self) -> Tuple[int, int]:
        """Current ``(attempted, unresolved)`` resolution tallies."""
        stats = self._fresh_stats()
        return stats.attempted, stats.unresolved

    def crosstalk_pairs(self) -> List[Tuple[str, str, int, float, float, float]]:
        """Crosstalk aggregated across stages
        (:func:`~repro.core.persist.crosstalk_table`): rows ``(waiter,
        holder, count, total, mean, max)``, heaviest total first."""
        rows = [
            (waiter, holder, count, total, total / count, peak)
            for (waiter, holder), (count, total, peak)
            in crosstalk_table(self._stages.values()).items()
        ]
        rows.sort(key=lambda row: -row[3])
        return rows

    # ------------------------------------------------------------------
    # Compaction: the live profile, byte-identical to post-mortem
    # ------------------------------------------------------------------
    def stitched_profile(self, strict: bool = False):
        """The full end-to-end profile of everything recorded so far.

        Runs the very same :func:`stitch_profiles` the post-mortem
        presentation phase runs, on the adopted runtimes themselves;
        every evicted tree is decoded once for it (this is the
        end-of-run path — bounded-memory queries should use
        :meth:`top_contexts` / :meth:`stage_weights` instead).
        """
        return stitch_profiles(self._stages.values(), strict=strict)

    def compact(self, strict: bool = False):
        """Finalize: stitch, then rewrite the log as every tree plus
        one commit.

        Returns the stitched profile.  The new log is written beside
        the old one and replaces it in one ``os.replace``, so a crash
        leaves one or the other; :func:`repro.cli` exposes this as
        ``repro live-report``.
        """
        if self.directory is None:
            return self.stitched_profile(strict=strict)
        # The rewrite needs every tree resident; fault them in first so
        # the stitch reads each one once, from memory.  This is not a
        # sample: the LRU's counters do not move.
        everything = list(self._entries())
        for entry in everything:
            if entry.cct is None:
                entry.cct = self._load_tree(entry)
                self._lru[entry] = None
        profile = self.stitched_profile(strict=strict)
        self._release_log()
        os.makedirs(self.directory, exist_ok=True)
        path = _ckpt.log_path(self.directory)
        with open(path + ".tmp", "wb") as handle:
            # The new file names only its own frames.
            appended = self._commit(handle, everything)
            end = handle.tell()
        os.replace(path + ".tmp", path)
        self._settle(appended)
        self._log_end = end
        return profile

    def flush(self) -> None:
        """Span-sink protocol: nothing is buffered."""

    def _release_log(self) -> None:
        if self._log is not None:
            self._log_end = self._log.seek(0, os.SEEK_END)
            self._log.close()
            self._log = None

    def close(self) -> None:
        """Detach, and release the log's file handle (held from the
        first write on).

        Idempotent.  Empties the collector slot if this collector holds
        it, so systems built afterwards keep plain CCT dicts.  The
        collector stays queryable, and stages it adopted keep recording
        into it; it reopens the log at its next write and appends
        to it.
        """
        if _profiler.COLLECTOR is self:
            _profiler.COLLECTOR = None
        self._release_log()


def attach_collector(
    tele: Any,
    directory: Optional[str] = None,
    interval: float = 5.0,
    max_resident: Optional[int] = 512,
) -> LiveCollector:
    """Create a LiveCollector and attach it (see
    :meth:`LiveCollector.attach`).

    Must run before the simulated system is built (stage runtimes are
    adopted at construction).  ``tele`` may be ``None``; see
    :meth:`LiveCollector.attach` for what a hub adds, and who then
    closes the collector.
    """
    collector = LiveCollector(
        directory=directory, interval=interval, max_resident=max_resident
    )
    return collector.attach(tele)
