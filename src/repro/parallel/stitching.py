"""The parallel presentation phase: map-reduce profile stitching.

The map step loads one *group* of stage dumps (one shard's tiers — a
self-contained resolution universe) and stitches it in a worker from
the shared work-stealing pool (:mod:`repro.parallel.scheduler`); the
reduce folds the per-group profiles through the exact accumulator from
:mod:`repro.parallel.reduce`, so the merged profile is a pure function
of the dump set — independent of worker count, scheduling, completion
order, *and* reduce-tree shape (the hierarchical shard→group→global
reduce produces byte-identical output).  The determinism proof in the
scale-out benchmark serialises the merged profile with
:func:`canonical_profile_bytes` and compares runs byte-for-byte.

For a flat list of dumps that resolve against each other (the classic
single-run, multi-tier layout), :func:`parallel_load` parallelises just
the load/decode step and the caller stitches the loaded stages
serially — resolution needs every synopsis table in one place.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Sequence, Tuple

from repro.core.context import TransactionContext, UnresolvedRef
from repro.core.persist import MANIFEST_NAME
from repro.core.stitch import StitchedProfile, stitch_profiles


def _pool(jobs: int):
    """The shared session pool (persistent; startup paid once)."""
    from repro.parallel.scheduler import get_pool

    return get_pool(jobs)


# ----------------------------------------------------------------------
# Map workers (top-level for pickling)
# ----------------------------------------------------------------------
def _load_one(path: str):
    from repro.core.persist import load_stage

    return load_stage(path)


def _stitch_group(task: Tuple[Sequence[str], bool]) -> StitchedProfile:
    paths, strict = task
    # Decoded here and dropped on return: the profile takes the trees.
    stages = [_load_one(path) for path in paths]
    return stitch_profiles(stages, strict=strict, adopt=True)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def parallel_load(paths: Sequence[str], jobs: int = 1) -> List:
    """Load dumps (v1 or v2) with up to ``jobs`` worker processes.

    Results come back in input order regardless of scheduling.
    """
    paths = list(paths)
    if jobs <= 1 or len(paths) <= 1:
        return [_load_one(path) for path in paths]
    return _pool(jobs).run(_load_one, paths)


def _tag_unresolved(profile: StitchedProfile, tag: str) -> StitchedProfile:
    """Qualify UnresolvedRef origins with the shard they came from.

    Consumes ``profile``: its trees move into the tagged profile.

    Synopsis values are only unique *within* a shard's stages: without
    the qualifier, unresolved placeholders from different shards could
    spuriously collide (same origin name, same 32-bit value, different
    transactions) and merge weights that belong to distinct contexts.
    Fully resolved contexts contain no refs and merge by value, which
    is exactly what cross-shard aggregation wants.
    """
    if not any(
        isinstance(element, UnresolvedRef)
        for _, context in profile.entries
        for element in context
    ):
        return profile
    tagged = StitchedProfile()
    for (stage, context), cct in profile.entries.items():
        elements = [
            UnresolvedRef(f"{element.origin}{tag}", element.value)
            if isinstance(element, UnresolvedRef)
            else element
            for element in context
        ]
        tagged.add(stage, TransactionContext(elements), cct, adopt=True)
    tagged.synopsis_refs = profile.synopsis_refs
    tagged.unresolved_refs = profile.unresolved_refs
    return tagged


def parallel_stitch(
    groups: Sequence[Sequence[str]],
    jobs: int = 1,
    strict: bool = True,
    pool=None,
) -> StitchedProfile:
    """Stitch dump groups in parallel and reduce deterministically.

    Each group is one self-contained resolution universe (one shard's
    per-stage dumps).  With a single group this degenerates to the
    serial presentation phase.  The multi-group reduce goes through the
    exact accumulator, so it is byte-identical to
    :func:`repro.parallel.reduce.hierarchical_stitch` over the same
    groups at any group size.
    """
    groups = [list(group) for group in groups]
    tasks = [(group, strict) for group in groups]
    if pool is None and jobs > 1 and len(tasks) > 1:
        pool = _pool(jobs)
    if pool is None or len(tasks) <= 1:
        profiles = [_stitch_group(task) for task in tasks]
    else:
        profiles = pool.run(_stitch_group, tasks)
    return fold_shards(profiles)


def fold_shards(profiles: Sequence[StitchedProfile]) -> StitchedProfile:
    """Reduce per-shard profiles, in shard order, through the exact
    accumulator.  Consumes ``profiles``."""
    if len(profiles) <= 1:
        # Single resolution universe: no shard tagging, no fold — the
        # classic serial presentation phase.
        return profiles[0] if profiles else StitchedProfile()
    from repro.parallel.reduce import ProfileAccumulator

    accumulator = ProfileAccumulator()
    for index, profile in enumerate(profiles):
        accumulator.add_profile(_tag_unresolved(profile, f"@shard{index}"))
    return accumulator.finalize()


def spool_groups(spool_dir: str) -> List[List[str]]:
    """Per-shard dump path groups from a spool manifest, in shard order.

    The manifest stores only manifest-relative paths, so a spool
    directory rsync'd to another machine resolves against its new
    location with no rewriting.
    """
    manifest_path = os.path.join(spool_dir, MANIFEST_NAME)
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    return [
        [os.path.join(spool_dir, group["dir"], name) for name in group["files"]]
        for group in sorted(manifest["groups"], key=lambda g: g["index"])
    ]


def stitch_spool(
    spool_dir: str,
    jobs: int = 1,
    strict: bool = True,
    group_size: Optional[int] = None,
    stats=None,
) -> StitchedProfile:
    """Stitch a spool directory written by :func:`repro.parallel.runner.
    run_shards`, using its manifest to group dumps per shard.

    ``group_size=None`` runs the flat map-reduce; any integer (0 for
    the ≈√N default) routes through the hierarchical two-level reduce —
    output bytes are identical either way.
    """
    groups = spool_groups(spool_dir)
    if group_size is None:
        return parallel_stitch(groups, jobs=jobs, strict=strict)
    from repro.parallel.reduce import hierarchical_stitch

    return hierarchical_stitch(
        groups, jobs=jobs, group_size=group_size, strict=strict, stats=stats
    )


def canonical_profile_bytes(profile: StitchedProfile) -> bytes:
    """A canonical byte serialisation of a stitched profile.

    Entries are sorted by ``(stage, repr(context))`` and each CCT is
    flattened to its canonical pre-order rows, so two profiles with the
    same content — however they were produced — serialise to identical
    bytes.  Floats use Python's shortest-exact repr via the JSON
    encoder: byte equality means bit-exact weights.
    """
    entries = []
    for (stage, context), cct in sorted(
        profile.entries.items(), key=lambda item: (item[0][0], repr(item[0][1]))
    ):
        entries.append([stage, repr(context), cct.root.to_rows()])
    document = {
        "entries": entries,
        "synopsis_refs": profile.synopsis_refs,
        "unresolved_refs": profile.unresolved_refs,
    }
    return json.dumps(document, separators=(",", ":")).encode("utf-8")
