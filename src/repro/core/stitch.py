"""Post-mortem stitching of per-stage profiles (§5, §7.1).

At run time each stage only knows remote contexts as opaque 4-byte
synopses.  After the run, the presentation phase resolves every
:class:`~repro.core.context.SynopsisRef` against the originating stage's
synopsis dictionary — recursively, since a web server's context may in
turn reference a proxy's — producing, per stage, CCTs labeled with fully
expanded end-to-end transaction contexts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.cct import CallingContextTree
from repro.core.context import SynopsisRef, TransactionContext, UnresolvedRef
from repro.core.profiler import StageRuntime

ResolutionCache = Dict[TransactionContext, TransactionContext]


class StitchError(Exception):
    """Raised on unresolvable or cyclic synopsis references."""


class StitchStats:
    """Resolution bookkeeping for one presentation-phase pass.

    ``attempted`` counts every synopsis reference the resolver tried to
    expand (cache hits expand nothing and count nothing — each distinct
    context is counted once per pass); ``unresolved`` counts those that
    could not be expanded and were kept as
    :class:`~repro.core.context.UnresolvedRef` placeholders.
    """

    __slots__ = ("attempted", "unresolved")

    def __init__(self):
        self.attempted = 0
        self.unresolved = 0

    @property
    def completeness(self) -> float:
        """Fraction of attempted synopsis resolutions that succeeded."""
        if self.attempted == 0:
            return 1.0
        return (self.attempted - self.unresolved) / self.attempted


def resolve_context(
    context: TransactionContext,
    stages: Dict[str, StageRuntime],
    cache: Optional[ResolutionCache] = None,
    strict: bool = True,
    stats: Optional[StitchStats] = None,
    _active: Optional[Set[Tuple[str, int]]] = None,
    _chain: Optional[List[SynopsisRef]] = None,
) -> TransactionContext:
    """Expand every SynopsisRef in ``context`` into the context it names.

    Cycles among synopsis references are detected with a visited set, so
    arbitrarily deep legitimate chains resolve while a genuine cycle
    raises :class:`StitchError` naming the offending chain.

    With ``strict=False`` an unresolvable reference — unknown stage,
    synopsis missing from the origin's table (crash amnesia, uncollected
    dump), or a cyclic chain — does not abort the analysis: it becomes
    an :class:`~repro.core.context.UnresolvedRef` element that keeps the
    profile weight attached to its (partially expanded) context, and is
    tallied in ``stats``.

    ``cache`` maps already-resolved contexts to their expansions.  Pass
    the same dict across calls (as :func:`stitch_profiles` and
    :func:`flow_graph` do) to resolve each synopsis once instead of once
    per referencing label; entries are only ever added for fully
    resolved contexts, so a shared cache stays correct.  Do not share a
    cache between ``strict`` and non-strict passes: a non-strict pass
    caches partial expansions.
    """
    if cache is not None:
        cached = cache.get(context)
        if cached is not None:
            return cached
    if _active is None:
        _active = set()
        _chain = []
    elements: List = []
    for element in context:
        if not isinstance(element, SynopsisRef):
            elements.append(element)
            continue
        if stats is not None:
            stats.attempted += 1
        origin = stages.get(element.origin)
        if origin is None:
            if strict:
                raise StitchError(
                    f"context references unknown stage {element.origin!r}"
                )
            if stats is not None:
                stats.unresolved += 1
            elements.append(UnresolvedRef(element.origin, element.value))
            continue
        key = (element.origin, element.value)
        if key in _active:
            if strict:
                chain = " -> ".join(repr(ref) for ref in _chain + [element])
                raise StitchError(f"cyclic synopsis reference chain: {chain}")
            if stats is not None:
                stats.unresolved += 1
            elements.append(UnresolvedRef(element.origin, element.value))
            continue
        try:
            remote = origin.synopses.resolve(element.value)
        except KeyError:
            if strict:
                raise
            if stats is not None:
                stats.unresolved += 1
            elements.append(UnresolvedRef(element.origin, element.value))
            continue
        _active.add(key)
        _chain.append(element)
        try:
            expanded = resolve_context(
                remote, stages, cache, strict, stats, _active, _chain
            )
        finally:
            _active.discard(key)
            _chain.pop()
        elements.extend(expanded.elements)
    resolved = TransactionContext(elements)
    if cache is not None:
        cache[context] = resolved
    return resolved


class StitchedProfile:
    """The end-to-end transactional profile of a multi-tier application."""

    def __init__(self):
        # (stage name, fully resolved context) -> CCT
        self.entries: Dict[Tuple[str, TransactionContext], CallingContextTree] = {}
        # stage name -> memoized total weight; without it, context_share
        # re-walks every CCT of the stage per queried context (quadratic
        # over contexts).  Invalidated by add(); call invalidate_weights()
        # after mutating a returned CCT directly.
        self._stage_weights: Dict[str, float] = {}
        # Resolution tallies from the stitch pass that built the profile
        # (see StitchStats): how many synopsis references were attempted
        # and how many remain as UnresolvedRef placeholders.
        self.synopsis_refs = 0
        self.unresolved_refs = 0

    @property
    def completeness(self) -> float:
        """Fraction of synopsis references the stitch pass resolved.

        A profile with entries but no cross-stage references is fully
        stitched (1.0).  A profile with *nothing* in it — every dump
        dropped, every sample lost — reports 0.0: an empty profile is
        "nothing was stitched", not "everything was".
        """
        if self.synopsis_refs == 0:
            return 1.0 if self.entries else 0.0
        return (self.synopsis_refs - self.unresolved_refs) / self.synopsis_refs

    def add(self, stage: str, context: TransactionContext,
            cct: CallingContextTree, adopt: bool = False) -> None:
        """Merge ``cct`` in under ``(stage, context)`` — as a snapshot
        copy, or with ``adopt`` as the entry itself (relabelled, and
        mutated by later merges): only for a caller that built the tree
        and drops every other reference to it."""
        self._stage_weights.pop(stage, None)
        existing = self.entries.get((stage, context))
        if existing is None:
            if not adopt:
                cct = cct.copy()
            cct.label = context
            self.entries[(stage, context)] = cct
        else:
            existing.merge(cct)

    def invalidate_weights(self, stage: Optional[str] = None) -> None:
        """Drop memoized stage weights (for one stage, or all)."""
        if stage is None:
            self._stage_weights.clear()
        else:
            self._stage_weights.pop(stage, None)

    # ------------------------------------------------------------------
    def stages(self) -> List[str]:
        return sorted({stage for stage, _ in self.entries})

    def contexts_of(self, stage: str) -> List[TransactionContext]:
        return [ctxt for (s, ctxt) in self.entries if s == stage]

    def cct(self, stage: str, context: TransactionContext) -> CallingContextTree:
        return self.entries[(stage, context)]

    def stage_weight(self, stage: str) -> float:
        cached = self._stage_weights.get(stage)
        if cached is None:
            cached = sum(
                cct.total_weight()
                for (s, _), cct in self.entries.items()
                if s == stage
            )
            self._stage_weights[stage] = cached
        return cached

    def total_weight(self) -> float:
        return sum(self.stage_weight(stage) for stage in self.stages())

    def context_share(self, stage: str, context: TransactionContext) -> float:
        """Fraction of the stage's samples under one transaction context."""
        total = self.stage_weight(stage)
        if total == 0:
            return 0.0
        return self.entries[(stage, context)].total_weight() / total


class FlowEdge:
    """A request edge between stages in the stitched profile (Fig 7).

    ``from_stage``'s transaction at context ``from_context`` issued the
    request that ``to_stage`` executed under ``to_context`` (both fully
    resolved).
    """

    __slots__ = ("from_stage", "from_context", "to_stage", "to_context")

    def __init__(self, from_stage, from_context, to_stage, to_context):
        self.from_stage = from_stage
        self.from_context = from_context
        self.to_stage = to_stage
        self.to_context = to_context

    def __eq__(self, other):
        return isinstance(other, FlowEdge) and (
            self.from_stage,
            self.from_context,
            self.to_stage,
            self.to_context,
        ) == (
            other.from_stage,
            other.from_context,
            other.to_stage,
            other.to_context,
        )

    def __hash__(self):
        return hash(
            (self.from_stage, self.from_context, self.to_stage, self.to_context)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.from_stage}:{self.from_context!r} ==> "
            f"{self.to_stage}:{self.to_context!r}"
        )


def flow_graph(
    stages: Iterable[StageRuntime],
    cache: Optional[ResolutionCache] = None,
    strict: bool = True,
) -> List[FlowEdge]:
    """The request edges of the end-to-end profile (Fig 7's arrows).

    Every CCT label starting with a synopsis reference names the stage
    whose send created it; the edge connects the sender's context (the
    resolved referenced context) to the receiver's resolved context.

    With ``strict=False`` an edge whose sender synopsis is unresolvable
    (crash amnesia) is dropped; the receiver's contexts still appear,
    partially resolved, in the stitched profile.

    ``cache`` is a resolution cache shared with other presentation-phase
    passes (e.g. the :func:`stitch_profiles` call over the same stages,
    with the same ``strict``).
    """
    by_name = {stage.name: stage for stage in stages}
    if cache is None:
        cache = {}
    edges: List[FlowEdge] = []
    seen = set()
    for stage in by_name.values():
        for label in stage.ccts:
            for element in label:
                if not isinstance(element, SynopsisRef):
                    continue
                origin = by_name.get(element.origin)
                if origin is None:
                    continue
                try:
                    remote = origin.synopses.resolve(element.value)
                except KeyError:
                    if strict:
                        raise
                    continue
                sender_context = resolve_context(
                    remote, by_name, cache, strict
                )
                edge = FlowEdge(
                    origin.name,
                    sender_context,
                    stage.name,
                    resolve_context(label, by_name, cache, strict),
                )
                if edge not in seen:
                    seen.add(edge)
                    edges.append(edge)
    return edges


def stitch_profiles(
    stages: Iterable[StageRuntime],
    cache: Optional[ResolutionCache] = None,
    strict: bool = True,
    adopt: bool = False,
) -> StitchedProfile:
    """Combine per-stage profiles into one transactional profile.

    Every CCT label containing synopsis references is resolved into the
    full cross-stage transaction context; CCTs whose labels resolve to
    the same context merge.  With ``strict=False`` unresolvable
    references degrade to ``UnresolvedRef`` placeholders instead of
    raising, and the returned profile's ``synopsis_refs`` /
    ``unresolved_refs`` / ``completeness`` report how much of the run
    could be stitched.  Resolutions are memoized in ``cache`` (a fresh
    dict if not given); pass the same dict to :func:`flow_graph` to
    reuse the work.

    The profile's trees are snapshot copies; ``adopt=True`` is for a
    presentation phase that decoded ``stages`` itself and drops them on
    return — their trees move into the profile uncloned, and the stages
    must not be read afterwards.
    """
    by_name = {stage.name: stage for stage in stages}
    if cache is None:
        cache = {}
    stats = StitchStats()
    profile = StitchedProfile()
    for stage in by_name.values():
        for label, cct in stage.ccts.items():
            resolved = resolve_context(label, by_name, cache, strict, stats)
            profile.add(stage.name, resolved, cct, adopt)
    profile.synopsis_refs = stats.attempted
    profile.unresolved_refs = stats.unresolved
    return profile
