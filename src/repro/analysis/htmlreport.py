"""Self-contained HTML report for ``repro diff --html``.

One file, zero network fetches: styles are inlined, charts are inline
SVG generated here.  The report shows the diff summary with its
confidence banner, per-stage deltas, top regression attribution, a
before/after flamegraph (icicle) pair for each top regressed context,
and a crosstalk-delta heatmap.
"""

from __future__ import annotations

import html
import zlib
from typing import Dict, List, Optional, Tuple

from repro.analysis.diff import ContextDelta, ProfileDiff
from repro.core.cct import CCTNode

# -- geometry ----------------------------------------------------------
FLAME_WIDTH = 540
FLAME_ROW = 18
FLAME_MAX_DEPTH = 24

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 2em auto; max-width: 72em; color: #1c1e21; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #d0d4d9; padding: 0.3em 0.7em; text-align: left;
         font-size: 0.9em; }
th { background: #f2f4f6; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.pos { color: #b42318; } .neg { color: #157f3d; }
.banner { padding: 0.6em 1em; border-radius: 4px; margin: 1em 0; }
.banner.high { background: #e6f4ea; border: 1px solid #9fd3ae; }
.banner.low { background: #fdecea; border: 1px solid #f0a9a2; }
.ctx { font-family: ui-monospace, 'SF Mono', Menlo, Consolas, monospace;
       font-size: 0.85em; word-break: break-all; }
.flamepair { display: flex; gap: 1.5em; flex-wrap: wrap; margin: 0.8em 0 1.8em; }
.flamepair figure { margin: 0; }
.flamepair figcaption { font-size: 0.8em; color: #5a6069; margin-bottom: 0.3em; }
svg text { font-size: 10px; font-family: ui-monospace, Menlo, monospace; }
.muted { color: #5a6069; font-size: 0.85em; }
"""

_FLAME_COLORS = (
    "#e4593b", "#e8783c", "#ec953e", "#f0b040", "#d9822b",
    "#cf5b2e", "#e06a45", "#eb8a50",
)


def _esc(text: str) -> str:
    return html.escape(str(text), quote=True)


def _color_for(name: str) -> str:
    # zlib.crc32, not hash(): str hashing is salted per process and the
    # report must be byte-stable for identical inputs.
    return _FLAME_COLORS[zlib.crc32(name.encode("utf-8")) % len(_FLAME_COLORS)]


def _signed_class(value: float) -> str:
    if value > 0:
        return "pos"
    if value < 0:
        return "neg"
    return ""


# -- flamegraphs -------------------------------------------------------

def flamegraph_svg(
    root: Optional[CCTNode],
    total: float,
    width: int = FLAME_WIDTH,
) -> str:
    """One icicle-layout flamegraph (root at top) as inline SVG.

    ``total`` fixes the x-scale so a before/after pair of the same
    context shares one scale and the growth is visible as extra width.
    """
    if root is None or total <= 0:
        return (
            f'<svg width="{width}" height="{FLAME_ROW}" role="img">'
            f'<text x="4" y="13" fill="#5a6069">(no samples)</text></svg>'
        )

    rects: List[str] = []
    max_depth = [0]

    def layout(node: CCTNode, x: float, depth: int) -> None:
        if depth > FLAME_MAX_DEPTH:
            return
        cursor = x
        for name in sorted(
            node.children, key=lambda n: -node.children[n].subtree_weight()
        ):
            child = node.children[name]
            w = width * child.subtree_weight() / total
            if w < 1.0:
                cursor += w
                continue
            y = depth * FLAME_ROW
            max_depth[0] = max(max_depth[0], depth)
            share = 100.0 * child.subtree_weight() / total
            title = f"{name}: {child.subtree_weight():.3f} ({share:.1f}%)"
            rects.append(
                f'<g><rect x="{cursor:.1f}" y="{y}" width="{w:.1f}" '
                f'height="{FLAME_ROW - 1}" fill="{_color_for(name)}" '
                f'rx="1"><title>{_esc(title)}</title></rect>'
            )
            if w >= 30:
                label = name if len(name) * 6 < w else name[: max(1, int(w / 6) - 1)] + "…"
                rects.append(
                    f'<text x="{cursor + 3:.1f}" y="{y + 13}" '
                    f'fill="#fff">{_esc(label)}</text>'
                )
            rects.append("</g>")
            layout(child, cursor, depth + 1)
            cursor += w

    layout(root, 0.0, 0)
    height = (max_depth[0] + 1) * FLAME_ROW
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        + "".join(rects)
        + "</svg>"
    )


def _flame_pair(diff: ProfileDiff, row: ContextDelta) -> str:
    before_cct = diff.before.profile.entries.get((row.stage, row.context))
    after_cct = diff.after.profile.entries.get((row.stage, row.context))
    # One shared scale: the heavier side fills the full width.
    scale = max(row.before, row.after) or 1.0
    parts = [f'<div class="flamepair">']
    for caption, cct, weight in (
        ("before", before_cct, row.before),
        ("after", after_cct, row.after),
    ):
        svg = flamegraph_svg(cct.root if cct else None, scale)
        parts.append(
            "<figure>"
            f"<figcaption>{caption} &mdash; {weight:.3f}</figcaption>"
            f"{svg}</figure>"
        )
    parts.append("</div>")
    return "".join(parts)


# -- crosstalk heatmap -------------------------------------------------

def _heat_color(value: float, peak: float) -> str:
    """White at zero, red for positive deltas, green for negative."""
    if peak <= 0 or value == 0:
        return "#ffffff"
    intensity = min(1.0, abs(value) / peak)
    # Lightest useful tint at ~0.15 so small deltas stay visible.
    alpha = 0.15 + 0.85 * intensity
    if value > 0:
        return f"rgba(180, 35, 24, {alpha:.2f})"
    return f"rgba(21, 127, 61, {alpha:.2f})"


def crosstalk_heatmap(diff: ProfileDiff) -> str:
    rows = diff.crosstalk_rows()
    if not rows:
        return '<p class="muted">No crosstalk recorded in either run.</p>'
    waiters = sorted({r[0] for r in rows})
    holders = sorted({r[1] for r in rows})
    deltas: Dict[Tuple[str, str], float] = {
        (waiter, holder): d_total for waiter, holder, _, d_total, _ in rows
    }
    peak = max(abs(v) for v in deltas.values()) or 1.0
    cells = ["<table><tr><th>waits-on &rarr;</th>"]
    for holder in holders:
        cells.append(f"<th>{_esc(holder)}</th>")
    cells.append("</tr>")
    for waiter in waiters:
        cells.append(f"<tr><th>{_esc(waiter)}</th>")
        for holder in holders:
            value = deltas.get((waiter, holder))
            if value is None:
                cells.append("<td></td>")
            else:
                cells.append(
                    f'<td class="num" style="background:'
                    f'{_heat_color(value, peak)}">{1000 * value:+.2f}ms</td>'
                )
        cells.append("</tr>")
    cells.append("</table>")
    cells.append(
        '<p class="muted">Cell = delta in total wait time '
        "(after &minus; before); red grew, green shrank.</p>"
    )
    return "".join(cells)


# -- the report --------------------------------------------------------

def _delta_cell(value: float, fmt: str = "{:+.3f}") -> str:
    return (
        f'<td class="num {_signed_class(value)}">{fmt.format(value)}</td>'
    )


def render_html_report(
    diff: ProfileDiff,
    top: int = 10,
    flame_pairs: int = 5,
    title: str = "repro diff",
) -> str:
    """The whole report as one self-contained HTML document."""
    confidence, reasons = diff.confidence()
    out: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}: differential transactional profile</h1>",
        "<p>"
        f"before: <code>{_esc(diff.before.source)}</code> "
        f"({_esc(diff.before.kind)})<br>"
        f"after: <code>{_esc(diff.after.source)}</code> "
        f"({_esc(diff.after.kind)})</p>",
    ]

    banner = [f"confidence: <strong>{confidence}</strong>"]
    banner.extend(_esc(reason) for reason in reasons)
    out.append(
        f'<div class="banner {confidence}">{"<br>".join(banner)}</div>'
    )

    out.append("<h2>Totals</h2><table>")
    out.append("<tr><th></th><th>before</th><th>after</th><th>delta</th></tr>")
    out.append(
        f'<tr><th>total weight</th><td class="num">{diff.total_before:.3f}'
        f'</td><td class="num">{diff.total_after:.3f}</td>'
        + _delta_cell(diff.total_delta)
        + "</tr>"
    )
    for stage, before, after, delta in diff.stage_rows():
        out.append(
            f'<tr><th>{_esc(stage)}</th><td class="num">{before:.3f}</td>'
            f'<td class="num">{after:.3f}</td>' + _delta_cell(delta) + "</tr>"
        )
    out.append("</table>")

    regressions = diff.top_regressions(top)
    out.append(f"<h2>Top {len(regressions)} regressions</h2>")
    if regressions:
        out.append(
            "<table><tr><th>stage</th><th>context</th><th>before</th>"
            "<th>after</th><th>delta</th><th>ratio</th>"
            "<th>share of growth</th></tr>"
        )
        for row in regressions:
            ratio = row.ratio
            out.append(
                f'<tr><td>{_esc(row.stage)}</td>'
                f'<td class="ctx">{_esc(row.label)}</td>'
                f'<td class="num">{row.before:.3f}</td>'
                f'<td class="num">{row.after:.3f}</td>'
                + _delta_cell(row.delta)
                + f'<td class="num">'
                + (f"{ratio:.2f}x" if ratio is not None else "new")
                + "</td>"
                f'<td class="num">{diff.growth_share(row):.1f}%</td></tr>'
            )
        out.append("</table>")
    else:
        out.append('<p class="muted">No regressions.</p>')

    improvements = diff.top_improvements(top)
    if improvements:
        out.append(f"<h2>Top {len(improvements)} improvements</h2>")
        out.append(
            "<table><tr><th>stage</th><th>context</th>"
            "<th>before</th><th>after</th><th>delta</th></tr>"
        )
        for row in improvements:
            out.append(
                f'<tr><td>{_esc(row.stage)}</td>'
                f'<td class="ctx">{_esc(row.label)}</td>'
                f'<td class="num">{row.before:.3f}</td>'
                f'<td class="num">{row.after:.3f}</td>'
                + _delta_cell(row.delta)
                + "</tr>"
            )
        out.append("</table>")

    for name, rows in (("Appeared", diff.appeared()), ("Vanished", diff.vanished())):
        if rows:
            out.append(f"<h2>{name} contexts ({len(rows)})</h2><ul>")
            for row in rows[:top]:
                weight = row.after if name == "Appeared" else row.before
                out.append(
                    f'<li><span class="ctx">{_esc(row.stage)}: '
                    f"{_esc(row.label)}</span> &mdash; {weight:.3f}</li>"
                )
            out.append("</ul>")

    flamed = [row for row in regressions[:flame_pairs]]
    if flamed:
        out.append("<h2>Flamegraph pairs (top regressed contexts)</h2>")
        for row in flamed:
            out.append(
                f'<p class="ctx">{_esc(row.stage)}: {_esc(row.label)} '
                f'&mdash; <span class="{_signed_class(row.delta)}">'
                f"{row.delta:+.3f}</span></p>"
            )
            out.append(_flame_pair(diff, row))

    out.append("<h2>Crosstalk delta heatmap</h2>")
    out.append(crosstalk_heatmap(diff))

    out.append("</body></html>")
    return "\n".join(out)
