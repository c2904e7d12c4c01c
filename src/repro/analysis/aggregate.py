"""Aggregation helpers over profiles.

These compute the percentage figures the paper draws in its triangles:
per-transaction-context shares of a stage's CPU (Figures 8–10) and
per-frame shares within a CCT.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.cct import CallingContextTree
from repro.core.context import TransactionContext
from repro.core.profiler import StageRuntime


def context_shares(stage: StageRuntime) -> Dict[TransactionContext, float]:
    """Percentage of the stage's samples per transaction context.

    A stage whose CCTs carry no weight (call counts only, or nothing
    sampled yet) reports 0.0 per context instead of dividing by zero.
    """
    total = stage.total_weight()
    return {
        label: 100.0 * cct.total_weight() / total if total else 0.0
        for label, cct in stage.ccts.items()
    }


def frame_shares(cct: CallingContextTree, total: float = 0.0) -> Dict[str, float]:
    """Percentage per frame name of (by default) the CCT's own weight."""
    denominator = total or cct.total_weight()
    return {
        name: 100.0 * weight / denominator if denominator else 0.0
        for name, weight in cct.by_frame().items()
    }


def top_paths(
    cct: CallingContextTree, count: int = 10
) -> List[Tuple[Tuple[str, ...], float]]:
    """The heaviest call paths by self weight, descending."""
    flat = sorted(cct.flatten().items(), key=lambda item: -item[1])
    return flat[:count]


def diff_profiles(
    before: StageRuntime, after: StageRuntime
) -> List[Tuple[TransactionContext, float, float, float]]:
    """Compare two profiles of the same stage (before/after a change).

    Returns rows ``(context, before_share%, after_share%, delta)``
    sorted by absolute delta, largest first — the performance-debugging
    view of "what did my optimisation actually move?".  Ties keep
    ``before``'s context order, then ``after``'s new contexts, so the
    rows do not depend on the hash seed.
    """
    before_shares = context_shares(before)
    after_shares = context_shares(after)
    contexts = {**before_shares, **after_shares}
    rows = [
        (
            context,
            before_shares.get(context, 0.0),
            after_shares.get(context, 0.0),
            after_shares.get(context, 0.0) - before_shares.get(context, 0.0),
        )
        for context in contexts
    ]
    rows.sort(key=lambda row: -abs(row[3]))
    return rows


def subtree_share(
    stage: StageRuntime,
    label: TransactionContext,
    path: Tuple[str, ...],
) -> float:
    """Percentage of the whole stage's samples under one subtree of one

    context's CCT — the number the paper writes in a triangle.
    """
    total = stage.total_weight()
    cct = stage.ccts.get(label)
    if cct is None:
        return 0.0
    return 100.0 * cct.inclusive_weight_of(path) / total if total else 0.0
