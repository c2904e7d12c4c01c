"""Profile aggregation and presentation (Whodunit's post-mortem phase)."""

from repro.analysis.aggregate import (
    context_shares,
    diff_profiles,
    frame_shares,
    top_paths,
)
from repro.analysis.render import (
    render_cct,
    render_crosstalk,
    render_fault_report,
    render_flow_graph,
    render_stage_profile,
    render_stitched_profile,
)
from repro.analysis.diff import (
    ContextDelta,
    GateViolation,
    ProfileDiff,
    diff_runs,
    diff_stitched,
    render_diff,
    render_gate,
)
from repro.analysis.export import (
    export_crosstalk,
    export_series,
    export_stage_profile,
    write_rows,
)
from repro.analysis.htmlreport import render_html_report
from repro.analysis.telemetry import render_telemetry
from repro.analysis.live import render_live_crosstalk, render_live_top

__all__ = [
    "render_telemetry",
    "render_live_crosstalk",
    "render_live_top",
    "context_shares",
    "diff_profiles",
    "ContextDelta",
    "GateViolation",
    "ProfileDiff",
    "diff_runs",
    "diff_stitched",
    "render_diff",
    "render_gate",
    "render_html_report",
    "frame_shares",
    "top_paths",
    "render_cct",
    "render_stage_profile",
    "render_stitched_profile",
    "render_crosstalk",
    "render_fault_report",
    "render_flow_graph",
    "export_stage_profile",
    "export_crosstalk",
    "export_series",
    "write_rows",
]
