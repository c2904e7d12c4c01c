"""The presentation phase over a sharded run: one serial, streaming fold.

Each shard's dumps are one self-contained resolution universe.  The
fold takes one shard at a time: decode its dumps, stitch them (the
profile adopts the decoded trees), qualify its unresolved refs with
``@shardN`` and add it to one exact accumulator from
:mod:`repro.parallel.reduce`, then drop it before decoding the next.
The merged profile is a pure function of the dump set — the exact
accumulator makes it independent of how the shards are grouped too,
so the hierarchical shard→group→global reduce produces byte-identical
output.  The determinism proofs serialise the merged profile with
:func:`canonical_profile_bytes` and compare runs byte-for-byte.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Sequence

from repro.core.context import TransactionContext, UnresolvedRef
from repro.core.persist import (
    MANIFEST_NAME,
    CrosstalkTable,
    fold_crosstalk,
    load_stages,
)
from repro.core.stitch import StitchedProfile, stitch_profiles


def stitch_group(
    paths: Sequence[str],
    strict: bool = True,
    crosstalk: Optional[CrosstalkTable] = None,
) -> StitchedProfile:
    """Decode one shard's dumps and stitch them end to end.

    The decoded stages are dropped on return: the profile adopts their
    trees.  Their crosstalk pairs are first folded into ``crosstalk``,
    when given.
    """
    stages = [stage for path in paths for stage in load_stages(path)]
    if crosstalk is not None:
        fold_crosstalk(crosstalk, stages)
    return stitch_profiles(stages, strict=strict, adopt=True)


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


def stitch_groups(
    groups: Sequence[Sequence[str]],
    strict: bool = True,
    crosstalk: Optional[CrosstalkTable] = None,
) -> StitchedProfile:
    """Fold per-shard dump groups into one profile, one shard at a time.

    Shards go through the exact accumulator in shard order, each tagged
    with its index; a single group is returned as stitched — no tag,
    no fold, the classic serial presentation phase.  ``crosstalk``, when
    given, receives every dump's crosstalk pairs in group order.
    """
    if len(groups) == 1:
        return stitch_group(groups[0], strict, crosstalk)
    from repro.parallel.reduce import ProfileAccumulator

    accumulator = ProfileAccumulator()
    for index, paths in enumerate(groups):
        accumulator.add_profile(_tag_unresolved(
            stitch_group(paths, strict, crosstalk), f"@shard{index}"
        ))
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
    strict: bool = True,
    group_size: Optional[int] = None,
) -> StitchedProfile:
    """Stitch a spool directory written by :func:`repro.parallel.runner.
    run_shards`, using its manifest to group dumps per shard.

    ``group_size=None`` runs the flat fold; any integer (0 for the ≈√N
    default) routes through the hierarchical two-level reduce — output
    bytes are identical either way.
    """
    groups = spool_groups(spool_dir)
    if group_size is None:
        return stitch_groups(groups, strict=strict)
    from repro.parallel.reduce import hierarchical_stitch

    return hierarchical_stitch(groups, group_size=group_size, strict=strict)


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
