"""Differential transactional profiling: ``repro diff``.

Whodunit's profiles answer "where did this run's time go?"; this module
answers the follow-up every performance regression hunt actually asks:
"where did the time go *that wasn't going there before*?".  Two stitched
profiles — any mix of v1/v2 dumps, spool directories or live-collector
checkpoints, loaded through :func:`repro.core.persist.load_run` — are
aligned on their canonical ``(stage, transaction context)`` keys and
compared entry by entry:

- per-context latency deltas (virtual CPU weight, the deterministic
  sample currency of the simulation),
- top-K regression attribution, by absolute delta or by share of the
  run's total growth,
- contexts that *appeared* or *vanished* between the runs,
- completeness-aware confidence: a diff of partial stitches (crash
  amnesia, dropped dumps, unresolved ``@shard`` references) is flagged
  rather than silently trusted,
- crosstalk pair deltas (who started waiting on whom).

The same engine backs the CI regression gate (``repro diff --gate``):
an identical-seed self-diff produces exactly-zero deltas and therefore
zero violations, so the gate is trivially stable under determinism.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.context import TransactionContext, UnresolvedRef
from repro.core.persist import RunProfile
from repro.core.stitch import StitchedProfile

#: Row statuses.
COMMON = "common"
APPEARED = "appeared"
VANISHED = "vanished"


def _context_label(context: TransactionContext) -> str:
    if context.is_empty:
        return "<local>"
    return " --> ".join(
        element if isinstance(element, str) else repr(element)
        for element in context.elements
    )


def _has_unresolved(context: TransactionContext) -> bool:
    return any(
        isinstance(element, UnresolvedRef) for element in context.elements
    )


class ContextDelta:
    """One aligned ``(stage, context)`` row of the diff."""

    __slots__ = (
        "stage",
        "context",
        "before",
        "after",
        "status",
        "share_before",
        "share_after",
    )

    def __init__(
        self,
        stage: str,
        context: TransactionContext,
        before: float,
        after: float,
        status: str,
        share_before: float,
        share_after: float,
    ):
        self.stage = stage
        self.context = context
        self.before = before
        self.after = after
        self.status = status
        self.share_before = share_before
        self.share_after = share_after

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def ratio(self) -> Optional[float]:
        """``after / before`` — None for appeared contexts (no baseline)."""
        if self.before == 0:
            return None
        return self.after / self.before

    @property
    def unresolved(self) -> bool:
        return _has_unresolved(self.context)

    @property
    def label(self) -> str:
        return _context_label(self.context)

    def to_dict(self) -> dict:
        doc = {
            "stage": self.stage,
            "context": self.label,
            "status": self.status,
            "before": self.before,
            "after": self.after,
            "delta": self.delta,
            "share_before_pct": self.share_before,
            "share_after_pct": self.share_after,
        }
        if self.ratio is not None:
            doc["ratio"] = self.ratio
        if self.unresolved:
            doc["unresolved"] = True
        return doc


class GateViolation:
    """One context that tripped the regression gate."""

    __slots__ = ("row", "reason")

    def __init__(self, row: ContextDelta, reason: str):
        self.row = row
        self.reason = reason

    def to_dict(self) -> dict:
        doc = self.row.to_dict()
        doc["reason"] = self.reason
        return doc


class ProfileDiff:
    """All aligned deltas between two runs, plus derived views.

    Rows are sorted deterministically: largest absolute delta first,
    ties broken by stage name and context repr (transaction contexts
    themselves are unordered).
    """

    def __init__(self, before: RunProfile, after: RunProfile):
        self.before = before
        self.after = after
        self.rows: List[ContextDelta] = self._align()

    # -- construction --------------------------------------------------

    def _align(self) -> List[ContextDelta]:
        a, b = self.before.profile, self.after.profile
        total_a = a.total_weight() or 0.0
        total_b = b.total_weight() or 0.0
        keys = set(a.entries) | set(b.entries)
        rows = []
        for stage, context in keys:
            before_cct = a.entries.get((stage, context))
            after_cct = b.entries.get((stage, context))
            before_w = before_cct.total_weight() if before_cct else 0.0
            after_w = after_cct.total_weight() if after_cct else 0.0
            if before_cct is None:
                status = APPEARED
            elif after_cct is None:
                status = VANISHED
            else:
                status = COMMON
            rows.append(
                ContextDelta(
                    stage,
                    context,
                    before_w,
                    after_w,
                    status,
                    100.0 * before_w / total_a if total_a else 0.0,
                    100.0 * after_w / total_b if total_b else 0.0,
                )
            )
        rows.sort(key=lambda r: (-abs(r.delta), r.stage, repr(r.context)))
        return rows

    # -- scalar summaries ----------------------------------------------

    @property
    def total_before(self) -> float:
        return self.before.profile.total_weight()

    @property
    def total_after(self) -> float:
        return self.after.profile.total_weight()

    @property
    def total_delta(self) -> float:
        return self.total_after - self.total_before

    @property
    def total_growth(self) -> float:
        """Sum of positive deltas only — the regression mass that top-K

        "share of growth" attribution divides by.
        """
        return sum(row.delta for row in self.rows if row.delta > 0)

    def confidence(self) -> Tuple[str, List[str]]:
        """``("high" | "low", reasons)`` for this comparison.

        Low confidence means the deltas may reflect *measurement* loss
        (partial stitches, unresolved cross-stage references, an empty
        side) rather than behaviour change, and the reasons say which.
        """
        reasons: List[str] = []
        for name, run in (("before", self.before), ("after", self.after)):
            completeness = run.profile.completeness
            if not run.profile.entries:
                reasons.append(f"{name} profile is empty")
            elif completeness < 1.0:
                reasons.append(
                    f"{name} stitch is partial "
                    f"(completeness {100.0 * completeness:.1f}%)"
                )
        unresolved = sum(1 for row in self.rows if row.unresolved)
        if unresolved:
            reasons.append(
                f"{unresolved} context(s) contain unresolved references "
                "and may be misaligned"
            )
        return ("low" if reasons else "high"), reasons

    # -- derived views -------------------------------------------------

    def top_regressions(self, k: int = 10, by: str = "absolute") -> List[ContextDelta]:
        """The K contexts that got slowest, largest first.

        ``by="absolute"`` ranks on raw delta; ``by="share"`` ranks on
        each context's share of the run's total growth — identical order
        (growth is a constant divisor), but callers use it to report
        "context X explains 61% of the regression".
        """
        if by not in ("absolute", "share"):
            raise ValueError(f"unknown ranking {by!r}")
        worst = [row for row in self.rows if row.delta > 0]
        return worst[:k]

    def top_improvements(self, k: int = 10) -> List[ContextDelta]:
        best = [row for row in self.rows if row.delta < 0]
        best.sort(key=lambda r: (r.delta, r.stage, repr(r.context)))
        return best[:k]

    def appeared(self) -> List[ContextDelta]:
        return [row for row in self.rows if row.status == APPEARED]

    def vanished(self) -> List[ContextDelta]:
        return [row for row in self.rows if row.status == VANISHED]

    def growth_share(self, row: ContextDelta) -> float:
        """Percent of the total positive growth this row explains."""
        growth = self.total_growth
        if growth <= 0 or row.delta <= 0:
            return 0.0
        return 100.0 * row.delta / growth

    def stage_rows(self) -> List[Tuple[str, float, float, float]]:
        """Per-stage ``(stage, before, after, delta)``, sorted by

        absolute delta descending then stage name.
        """
        stages = sorted(
            set(self.before.profile.stages())
            | set(self.after.profile.stages())
        )
        rows = [
            (
                stage,
                self.before.profile.stage_weight(stage),
                self.after.profile.stage_weight(stage),
                self.after.profile.stage_weight(stage)
                - self.before.profile.stage_weight(stage),
            )
            for stage in stages
        ]
        rows.sort(key=lambda r: (-abs(r[3]), r[0]))
        return rows

    def crosstalk_rows(self) -> List[Tuple[str, str, int, float, float]]:
        """Crosstalk pair deltas: ``(waiter, holder, d_count, d_total,

        d_max)`` over the union of both runs' pair tables, sorted by
        absolute total-wait delta descending.
        """
        keys = set(self.before.crosstalk) | set(self.after.crosstalk)
        rows = []
        for key in keys:
            before = self.before.crosstalk.get(key, (0, 0.0, 0.0))
            after = self.after.crosstalk.get(key, (0, 0.0, 0.0))
            rows.append(
                (
                    key[0],
                    key[1],
                    after[0] - before[0],
                    after[1] - before[1],
                    after[2] - before[2],
                )
            )
        rows.sort(key=lambda r: (-abs(r[3]), r[0], r[1]))
        return rows

    # -- gate ----------------------------------------------------------

    def gate(
        self,
        threshold_pct: float = 25.0,
        min_share_pct: float = 1.0,
    ) -> List[GateViolation]:
        """Context-level regression gate.

        A context violates the gate when it grew by more than
        ``threshold_pct`` percent of its baseline weight (or appeared
        from nothing), *and* its delta is material — at least
        ``min_share_pct`` percent of the larger run's total weight, so
        noise-sized contexts can't fail CI.  A self-diff of two
        identical-seed runs yields all-zero deltas and no violations.
        """
        floor = (min_share_pct / 100.0) * max(
            self.total_before, self.total_after
        )
        violations = []
        for row in self.rows:
            if row.delta <= 0 or row.delta < floor:
                continue
            if row.status == APPEARED:
                violations.append(
                    GateViolation(row, "appeared with material weight")
                )
            elif row.before > 0:
                grew_pct = 100.0 * row.delta / row.before
                if grew_pct > threshold_pct:
                    violations.append(
                        GateViolation(row, f"grew {grew_pct:.1f}%")
                    )
        return violations

    # -- serialisation -------------------------------------------------

    def to_dict(self, top: int = 10) -> dict:
        confidence, reasons = self.confidence()
        return {
            "before": _run_summary(self.before),
            "after": _run_summary(self.after),
            "total": {
                "before": self.total_before,
                "after": self.total_after,
                "delta": self.total_delta,
                "growth": self.total_growth,
            },
            "confidence": {"level": confidence, "reasons": reasons},
            "stages": [
                {
                    "stage": stage,
                    "before": before,
                    "after": after,
                    "delta": delta,
                }
                for stage, before, after, delta in self.stage_rows()
            ],
            "regressions": [
                dict(row.to_dict(), growth_share_pct=self.growth_share(row))
                for row in self.top_regressions(top)
            ],
            "improvements": [
                row.to_dict() for row in self.top_improvements(top)
            ],
            "appeared": [row.to_dict() for row in self.appeared()],
            "vanished": [row.to_dict() for row in self.vanished()],
            "crosstalk": [
                {
                    "waiter": waiter,
                    "holder": holder,
                    "delta_count": d_count,
                    "delta_total_wait": d_total,
                    "delta_max_wait": d_max,
                }
                for waiter, holder, d_count, d_total, d_max
                in self.crosstalk_rows()
            ],
        }


def _run_summary(run: RunProfile) -> dict:
    profile = run.profile
    return {
        "source": str(run.source),
        "kind": run.kind,
        "entries": len(profile.entries),
        "stages": profile.stages(),
        "total_weight": profile.total_weight(),
        "completeness": profile.completeness,
        "unresolved_refs": profile.unresolved_refs,
    }


def diff_runs(before: RunProfile, after: RunProfile) -> ProfileDiff:
    """Diff two loaded runs (see :func:`repro.core.persist.load_run`)."""
    return ProfileDiff(before, after)


def diff_stitched(
    before: StitchedProfile, after: StitchedProfile
) -> ProfileDiff:
    """Diff two in-memory stitched profiles (no persistence involved)."""
    return ProfileDiff(
        RunProfile("<memory>", "memory", before, {}),
        RunProfile("<memory>", "memory", after, {}),
    )


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------

def render_diff(
    diff: ProfileDiff, top: int = 10, min_share: float = 0.0
) -> str:
    """The ``repro diff`` terminal report."""
    lines: List[str] = ["=== differential transactional profile ==="]
    lines.append(f"before: {diff.before.source}  ({diff.before.kind})")
    lines.append(f"after:  {diff.after.source}  ({diff.after.kind})")

    confidence, reasons = diff.confidence()
    lines.append(f"confidence: {confidence}")
    for reason in reasons:
        lines.append(f"  ! {reason}")

    lines.append("")
    lines.append(
        f"total weight: {diff.total_before:.3f} -> {diff.total_after:.3f}  "
        f"({_signed(diff.total_delta)})"
    )

    stage_rows = diff.stage_rows()
    if stage_rows:
        lines.append("")
        lines.append("per-stage:")
        for stage, before, after, delta in stage_rows:
            lines.append(
                f"  {stage:<12} {before:>12.3f} -> {after:>12.3f}  "
                f"({_signed(delta)})"
            )

    floor = (min_share / 100.0) * max(diff.total_before, diff.total_after)
    regressions = [
        row for row in diff.top_regressions(top) if abs(row.delta) >= floor
    ]
    lines.append("")
    if regressions:
        lines.append(f"top {len(regressions)} regressions:")
        for row in regressions:
            ratio = row.ratio
            ratio_text = f" ({ratio:.2f}x)" if ratio is not None else " (new)"
            lines.append(
                f"  +{row.delta:.3f}{ratio_text}  "
                f"[{diff.growth_share(row):.1f}% of growth]  "
                f"{row.stage}: {row.label}"
            )
            if row.unresolved:
                lines.append("      (contains unresolved references)")
    else:
        lines.append("no regressions.")

    improvements = [
        row for row in diff.top_improvements(top) if abs(row.delta) >= floor
    ]
    if improvements:
        lines.append("")
        lines.append(f"top {len(improvements)} improvements:")
        for row in improvements:
            lines.append(
                f"  {row.delta:.3f}  {row.stage}: {row.label}"
            )

    appeared = diff.appeared()
    vanished = diff.vanished()
    if appeared:
        lines.append("")
        lines.append(f"appeared ({len(appeared)}):")
        for row in appeared[:top]:
            lines.append(f"  +{row.after:.3f}  {row.stage}: {row.label}")
    if vanished:
        lines.append("")
        lines.append(f"vanished ({len(vanished)}):")
        for row in vanished[:top]:
            lines.append(f"  -{row.before:.3f}  {row.stage}: {row.label}")

    crosstalk = [r for r in diff.crosstalk_rows() if any(r[2:])]
    if crosstalk:
        lines.append("")
        lines.append("crosstalk deltas:")
        for waiter, holder, d_count, d_total, d_max in crosstalk[:top]:
            lines.append(
                f"  {waiter} waits-on {holder}: count {_signed(d_count)}, "
                f"total {_signed_ms(d_total)}, max {_signed_ms(d_max)}"
            )

    if not diff.rows:
        lines.append("")
        lines.append("(both profiles are empty)")
    return "\n".join(lines)


def render_gate(
    diff: ProfileDiff, violations: List[GateViolation]
) -> str:
    """The CI gate verdict block."""
    if not violations:
        return "diff-gate: OK (no context-level regressions)"
    lines = [f"diff-gate: FAIL ({len(violations)} violation(s))"]
    for violation in violations:
        row = violation.row
        lines.append(
            f"  {row.stage}: {row.label}  "
            f"{row.before:.3f} -> {row.after:.3f} ({violation.reason})"
        )
    return "\n".join(lines)


def _signed(value: float) -> str:
    return f"{value:+.3f}"


def _signed_ms(value: float) -> str:
    return f"{1000.0 * value:+.2f}ms"
