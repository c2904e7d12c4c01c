"""The ledger's single source: workloads, end-to-end metrics, layers.

``run.py`` sizes and names everything from these tuples, ``BENCHMARK.json``
is ``manifest()`` written out, and the README's tables are
``render_tables()`` between its markers; ``test_ledger.py`` fails when
either file drifts from this module.  Regenerate both with::

    python3 benchmarks/ledger/layers.py write

A record per layer, in the haytham ``StageConfig`` idiom (SNIPPETS.md):
slug, what it toggles, expected share, and here also the prediction of
which end-to-end number it should move on which workload.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

COMMAND = ("python3", "benchmarks/ledger/run.py")
PATHS = ("benchmarks/ledger",)
#: Host seconds one untraced run measures for (the driver's --seconds).
RUN_SECONDS = 22
DEFAULT_SEED = 42
#: Never used while tuning a change; a claimed gain must also hold here.
HELD_OUT_SEED = 7
#: Span ring of every telemetry rung: the live stitcher streams spans
#: instead of reading them back, so retention can be a small ring.
SPAN_CAPACITY = 1024

SIM_WORKLOADS = ("tpcw-closed", "haboob-open", "tpcw-live")
TPCW_WORKLOADS = ("tpcw-closed", "tpcw-live")
ALL_WORKLOADS = SIM_WORKLOADS + ("postmortem",)
#: Where stitch and persist run after the fact, inside the timed region.
POSTMORTEM_STITCHED = ("tpcw-closed", "haboob-open", "postmortem")


@dataclass(frozen=True)
class WorkloadConfig:
    """One seeded workload: what drives it, at what size, and why."""

    name: str
    loop: str
    input: str
    why: str
    bypasses: str
    #: Sizes at ``--scale 1``; durations are virtual seconds.
    size: Tuple[Tuple[str, Any], ...]
    #: Set-ups timed per run (the measured child's own plus probes).
    setup_samples: int

    def sized(self, scale: float) -> Dict[str, Any]:
        """The size table with every duration and count scaled."""
        out: Dict[str, Any] = {}
        for key, value in self.size:
            if key in _UNSCALED:
                out[key] = value
            elif isinstance(value, int):
                out[key] = max(_FLOORS.get(key, 1), round(value * scale))
            else:
                out[key] = value * scale
        return out


#: Rates and ratios keep their value at any scale; shrinking them would
#: change which regime (DB knee, share of capacity) the workload sits
#: in.  ``stride`` is the virtual seconds between host-speed samples.
_UNSCALED = frozenset(
    {"clients", "think_mean", "rate", "flash_factor", "live_interval",
     "live_resident", "objects", "cache_bytes", "shard_clients", "stride"}
)
_FLOORS = {"shards": 2}


WORKLOADS: Tuple[WorkloadConfig, ...] = (
    WorkloadConfig(
        name="tpcw-closed",
        loop="closed, 200 browsers, think 7 s, browsing mix",
        input="TpcwSystem(clients=200, seed), run(duration=75, warmup=30), "
        "ProfilerMode.WHODUNIT, telemetry off, then stitch() + "
        "save_profiles(v2)",
        why="The paper's headline system at the DB saturation knee: sim, "
        "channels + synopses, core.profiler, events and apps.db do "
        "nearly all the work.",
        bypasses="seda, telemetry, live (zero work); persist + stitch <1%",
        size=(("clients", 200), ("think_mean", 7.0), ("warmup", 30.0),
              ("duration", 75.0), ("stride", 0.5)),
        setup_samples=7,
    ),
    WorkloadConfig(
        name="haboob-open",
        loop="open in virtual time, Poisson 90 sessions/s, one flash crowd "
        "(10 s, 3 s, x1.6); 60-75% of disk-bound capacity, which varies "
        "with the seed's object sizes",
        input="HaboobServer + OpenLoopClientPool(rate_curve, "
        "record_log=True), kernel.run(until=30), then stitch_profiles "
        "+ save_profiles(v2)",
        why="A thread spawned and reaped per session and every request "
        "crossing five SEDA queues: seda.stage, sim thread churn and "
        "sim.disk dominate; the queue grows in the crowd and must drain.",
        bypasses="channels.rpc and synopses (single tier), telemetry, live",
        size=(("rate", 90.0), ("flash_factor", 1.6), ("flash_start", 10.0),
              ("flash_duration", 3.0), ("until", 30.0), ("stride", 0.25),
              ("objects", 2000),
              ("cache_bytes", 512 * 1024)),
        setup_samples=7,
    ),
    WorkloadConfig(
        name="tpcw-live",
        loop="same closed loop and seed as tpcw-closed",
        input="identical system, plus telemetry.install('spans', "
        "span_capacity=1024) and attach_collector(interval=2.0, "
        "max_resident=12); timed region includes finalize() + compact()",
        why="The same fold built online under LRU eviction and checkpoint "
        "spill: telemetry.spans, live.collector and live.checkpoint carry "
        "the extra wall; simulated statistics must equal tpcw-closed.",
        bypasses="seda; post-mortem stitch and save_profiles",
        size=(("clients", 200), ("think_mean", 7.0), ("warmup", 30.0),
              ("duration", 75.0), ("stride", 0.5), ("live_interval", 2.0),
              ("live_resident", 12)),
        setup_samples=7,
    ),
    WorkloadConfig(
        name="postmortem",
        loop="n/a (batch)",
        input="set-up: two 32-shard TPC-W spools (plan_shards + "
        "run_shards(jobs=1), 320 clients, 30 s + 5 s warm-up, seeds seed "
        "and seed+1, v2).  Timed, one pass a repeat: load_run both, "
        "diff_runs + render_diff, stitch_spool flat and group_size=0, and "
        "per dump load_stage -> save_stage(v1) -> load_stage -> "
        "save_stage(v2)",
        why="The presentation phase alone: persist decode and encode (v1 "
        "beside v2), core.stitch, parallel.reduce, analysis.diff.  A "
        "kernel or channel change must leave it flat.",
        bypasses="sim, channels, seda, telemetry, live (kernel fires zero "
        "events in the timed region)",
        size=(("shards", 32), ("shard_clients", 10), ("warmup", 5.0),
              ("duration", 30.0)),
        setup_samples=3,
    ),
)


@dataclass(frozen=True)
class Metric:
    """A named number.  ``workloads`` says where it is measured; on the
    others the result line carries 0 and the report prints ``-``."""

    name: str
    unit: str
    better: str
    what: str
    workloads: Tuple[str, ...] = ALL_WORKLOADS


@dataclass(frozen=True)
class EndToEnd(Metric):
    #: Share of the parent's median it may worsen by before rejection.
    bound: float = 0.1


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower",
        "subprocess start -> first timed op: interpreter + import repro + "
        "system construction (+ spool generation for postmortem), at "
        "nominal host speed; median of several set-ups",
        bound=0.25,
    ),
    EndToEnd(
        "ops_per_host_s", "op/s", "higher",
        "ops completed / host wall of the timed region (run + finalize + "
        "stitch + persist) at nominal host speed; median over repeats",
        bound=0.20,
    ),
    EndToEnd(
        "cpu_s_per_kop", "s/kop", "lower",
        "process CPU seconds (self + children) of the same region per "
        "1000 ops, at nominal host speed; separates stalls from work",
        bound=0.20,
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower",
        "ru_maxrss of the workload's own subprocess",
        bound=0.10,
    ),
    EndToEnd(
        "ok_share", "ratio", "higher",
        "1 - failed_share: (ops that did not fail + output checks that "
        "held) / (ops attempted + checks run); exactly 1 on a good run",
        bound=0.01,
    ),
    EndToEnd(
        "profile_fit_pct", "%", "higher",
        "100 - profile_err_pp: agreement of the stitched profile's shares "
        "with reference.py (Table 1 / Fig 10); exact for a given seed",
        bound=0.08,
    ),
)


@dataclass(frozen=True)
class LayerConfig:
    """One layer of the program and how the ledger sees it from outside."""

    slug: str
    modules: str
    #: The public switch or calls that expose the layer's cost.
    exposed_by: str
    #: Expected share of the timed region's host time, per workload
    #: (from the traced run of seed 42 on this sandbox).
    expected_share: Tuple[Tuple[str, str], ...]
    #: Which end-to-end metric on which workload it should move, and
    #: where the prediction is "no change".
    moves: str
    metrics: Tuple[Metric, ...]


LAYERS: Tuple[LayerConfig, ...] = (
    LayerConfig(
        slug="sim",
        modules="repro.sim",
        exposed_by="ProfilerMode.OFF rung; kernel.run(until=t) in slices; "
        "repro_sim_* counters",
        expected_share=(("tpcw-closed", "~87%"), ("haboob-open", "~89%"),
                        ("tpcw-live", "~58%"), ("postmortem", "0")),
        moves="ops_per_host_s, cpu_s_per_kop on tpcw-closed and "
        "haboob-open; flat on postmortem",
        metrics=(
            Metric("sim.events_per_op", "ev/op", "lower",
                   "kernel events fired per op (exact)"),
            Metric("sim.events_cancelled_per_op", "ev/op", "lower",
                   "scheduled events cancelled per op (exact)"),
            Metric("sim.ns_per_event", "ns/event", "lower",
                   "rung off host ns per op / events per op", SIM_WORKLOADS),
            Metric("sim.virtual_s_per_host_s", "vs/s", "higher",
                   "virtual seconds simulated per host second, top rung",
                   SIM_WORKLOADS),
            Metric("sim.slice_ms_p50", "ms", "lower",
                   "host ms per virtual second, median over kernel.run slices",
                   SIM_WORKLOADS),
            Metric("sim.slice_ms_p90", "ms", "lower",
                   "same, 90th percentile (n and slice length are printed)",
                   SIM_WORKLOADS),
            Metric("sim.sessions_spawned_per_op", "1/op", "lower",
                   "client session threads the load generator spawned per op",
                   SIM_WORKLOADS),
        ),
    ),
    LayerConfig(
        slug="profiler",
        modules="repro.core.profiler, repro.core.context, "
        "repro.core.synopsis",
        exposed_by="ProfilerMode.OFF -> CSPROF -> WHODUNIT under a zero-cost "
        "OverheadModel, then the default OverheadModel; "
        "repro_profiler_* counters",
        expected_share=(("tpcw-closed", "~13%"), ("haboob-open", "~11%"),
                        ("tpcw-live", "~12%"), ("postmortem", "0")),
        moves="ops_per_host_s on tpcw-closed; near-flat on haboob-open",
        metrics=(
            Metric("ladder.off.us_per_op", "us/op", "lower",
                   "host us per op, profiler off", SIM_WORKLOADS),
            Metric("ladder.csprof.us_per_op", "us/op", "lower",
                   "host us per op, call-path sampling only", SIM_WORKLOADS),
            Metric("ladder.whodunit.us_per_op", "us/op", "lower",
                   "host us per op, sampling + transaction tracking",
                   SIM_WORKLOADS),
            Metric("ladder.csprof.delta_us_per_op", "us/op", "lower",
                   "csprof rung minus off rung", SIM_WORKLOADS),
            Metric("ladder.whodunit.delta_us_per_op", "us/op", "lower",
                   "whodunit rung minus csprof rung", SIM_WORKLOADS),
            Metric("ladder.overhead.delta_us_per_op", "us/op", "lower",
                   "default OverheadModel minus zero-cost (the one rung that "
                   "changes the virtual execution; ops per rung are printed)",
                   SIM_WORKLOADS),
            Metric("profiler.samples_per_op", "1/op", "lower",
                   "sample events attributed per op (exact)"),
            Metric("profiler.hops_per_op", "1/op", "lower",
                   "contexts adopted from a received synopsis per op (exact)"),
        ),
    ),
    LayerConfig(
        slug="channels",
        modules="repro.channels, repro.events",
        exposed_by="repro_channel_* and repro_rpc_* counters; "
        "StageRuntime.comm_*_bytes",
        expected_share=(("tpcw-closed", "inside sim + profiler"),
                        ("haboob-open", "small"), ("tpcw-live", "as closed"),
                        ("postmortem", "0")),
        moves="ops_per_host_s on tpcw-closed; flat on postmortem",
        metrics=(
            Metric("channels.messages_per_op", "1/op", "lower",
                   "messages delivered on channels per op (exact)"),
            Metric("channels.bytes_per_op", "B/op", "lower",
                   "payload bytes delivered per op (exact)"),
            Metric("channels.context_bytes_share", "ratio", "lower",
                   "piggy-backed context bytes / all bytes sent (paper 9.1)",
                   SIM_WORKLOADS),
            Metric("rpc.requests_per_op", "1/op", "lower",
                   "RPC requests sent per op (exact)"),
            Metric("rpc.violations", "count", "lower",
                   "synopsis-protocol violations rejected (exact)"),
        ),
    ),
    LayerConfig(
        slug="seda",
        modules="repro.seda",
        exposed_by="repro_seda_* counters and histograms",
        expected_share=(("tpcw-closed", "0"), ("haboob-open", "inside sim"),
                        ("tpcw-live", "0"), ("postmortem", "0")),
        moves="ops_per_host_s on haboob-open; flat on tpcw-closed",
        metrics=(
            Metric("seda.enqueued_per_op", "1/op", "lower",
                   "queue elements admitted per op (exact)"),
            Metric("seda.rejected_share", "ratio", "lower",
                   "elements rejected / elements offered (exact)"),
            Metric("seda.queue_wait_ms_mean", "ms", "lower",
                   "mean virtual ms an element waits in a stage queue (exact)"),
        ),
    ),
    LayerConfig(
        slug="telemetry",
        modules="repro.telemetry",
        exposed_by="telemetry.install('spans' | 'full')",
        expected_share=(("tpcw-closed", "0"), ("haboob-open", "0"),
                        ("tpcw-live", "~6%"), ("postmortem", "0")),
        moves="ops_per_host_s on tpcw-live; flat on tpcw-closed (the "
        "zero-cost-when-off promise)",
        metrics=(
            Metric("ladder.spans.delta_us_per_op", "us/op", "lower",
                   "spans rung minus the default-overhead rung", ("tpcw-live",)),
            Metric("ladder.full.delta_us_per_op", "us/op", "lower",
                   "full-telemetry side rung minus the default-overhead rung",
                   SIM_WORKLOADS),
            Metric("spans.per_op", "1/op", "lower",
                   "telemetry spans completed per op, full rung (exact)"),
            Metric("telemetry.sink_errors", "count", "lower",
                   "sinks detached after raising (exact)"),
        ),
    ),
    LayerConfig(
        slug="live",
        modules="repro.live",
        exposed_by="live.attach_collector; LiveCollector.finalize / compact "
        "/ top_contexts",
        expected_share=(("tpcw-closed", "0"), ("haboob-open", "0"),
                        ("tpcw-live", "~24%"), ("postmortem", "0")),
        moves="ops_per_host_s, peak_rss_mb on tpcw-live",
        metrics=(
            Metric("ladder.live.delta_us_per_op", "us/op", "lower",
                   "collector rung (incl. finalize + compact) minus spans rung",
                   ("tpcw-live",)),
            Metric("live.events_per_op", "1/op", "lower",
                   "profile events absorbed per op (exact)", ("tpcw-live",)),
            Metric("live.evictions", "count", "lower",
                   "resident CCTs evicted to checkpoints (exact)",
                   ("tpcw-live",)),
            Metric("live.revivals", "count", "lower",
                   "evicted CCTs loaded back (exact)", ("tpcw-live",)),
            Metric("live.checkpoints", "count", "lower",
                   "checkpoint files written (exact)", ("tpcw-live",)),
            Metric("live.peak_resident", "count", "lower",
                   "most CCTs resident at once (exact)", ("tpcw-live",)),
            Metric("live.finalize_ms", "ms", "lower",
                   "host ms in LiveCollector.finalize", ("tpcw-live",)),
            Metric("live.compact_ms", "ms", "lower",
                   "host ms in LiveCollector.compact", ("tpcw-live",)),
            Metric("live.query_ms_p50", "ms", "lower",
                   "median host ms of top_contexts(10) between slices: reads "
                   "beside the fold's writes", ("tpcw-live",)),
        ),
    ),
    LayerConfig(
        slug="persist",
        modules="repro.core.persist",
        exposed_by="save_profiles; save_stage / load_stage, v1 and v2",
        expected_share=(("tpcw-closed", "<1%"), ("haboob-open", "<1%"),
                        ("tpcw-live", "inside live"), ("postmortem", "~47%")),
        moves="ops_per_host_s on postmortem; <1% of tpcw-closed",
        metrics=(
            Metric("ladder.persist.delta_us_per_op", "us/op", "lower",
                   "host us per op in dump encode/decode within the timed "
                   "region", POSTMORTEM_STITCHED),
            Metric("persist.save_v2_us_per_dump", "us/dump", "lower",
                   "save_stage(v2) per dump"),
            Metric("persist.load_v2_us_per_dump", "us/dump", "lower",
                   "load_stage of a v2 dump"),
            Metric("persist.save_v1_us_per_dump", "us/dump", "lower",
                   "save_stage(v1) per dump"),
            Metric("persist.load_v1_us_per_dump", "us/dump", "lower",
                   "load_stage of a v1 dump"),
            Metric("persist.v2_bytes_per_dump", "B/dump", "lower",
                   "mean v2 dump size (exact)"),
            Metric("persist.v1_bytes_per_dump", "B/dump", "lower",
                   "mean v1 dump size (exact)"),
        ),
    ),
    LayerConfig(
        slug="stitch",
        modules="repro.core.stitch, repro.parallel",
        exposed_by="stitch_profiles; stitch_spool flat and group_size=0; "
        "plan_shards + run_shards",
        expected_share=(("tpcw-closed", "<1%"), ("haboob-open", "<1%"),
                        ("tpcw-live", "inside compact"),
                        ("postmortem", "~28%")),
        moves="ops_per_host_s on postmortem; parallel.run_shards_s -> "
        "setup_s on postmortem",
        metrics=(
            Metric("ladder.stitch.delta_us_per_op", "us/op", "lower",
                   "host us per op in stitching within the timed region",
                   POSTMORTEM_STITCHED),
            Metric("stitch.postmortem_ms", "ms", "lower",
                   "host ms of one post-mortem stitch of the run"),
            Metric("stitch.contexts", "count", "lower",
                   "(stage, context) entries in the stitched profile (exact)"),
            Metric("stitch.completeness", "ratio", "higher",
                   "share of synopsis references resolved (exact)"),
            Metric("reduce.flat_us_per_dump", "us/dump", "lower",
                   "stitch_spool flat fold per dump", ("postmortem",)),
            Metric("reduce.tree_us_per_dump", "us/dump", "lower",
                   "stitch_spool group_size=0 per dump", ("postmortem",)),
            Metric("parallel.run_shards_s", "s", "lower",
                   "host s of one run_shards(jobs=1) during set-up",
                   ("postmortem",)),
            Metric("parallel.shard_wall_skew", "ratio", "lower",
                   "slowest shard wall / mean shard wall", ("postmortem",)),
        ),
    ),
    LayerConfig(
        slug="analysis",
        modules="repro.analysis.diff, repro.core.persist.load_run",
        exposed_by="load_run, diff_runs, render_diff",
        expected_share=(("tpcw-closed", "0"), ("haboob-open", "0"),
                        ("tpcw-live", "0"), ("postmortem", "~25%")),
        moves="ops_per_host_s on postmortem",
        metrics=(
            Metric("ladder.analysis.delta_us_per_op", "us/op", "lower",
                   "host us per op in load_run + diff_runs + render_diff",
                   ("postmortem",)),
            Metric("diff.load_run_ms", "ms", "lower",
                   "load_run of one spool", ("postmortem",)),
            Metric("diff.diff_runs_ms", "ms", "lower",
                   "diff_runs of the two spools", ("postmortem",)),
            Metric("diff.render_ms", "ms", "lower",
                   "render_diff as text", ("postmortem",)),
        ),
    ),
    LayerConfig(
        slug="apps",
        modules="repro.apps, repro.workloads (simulated, exact)",
        exposed_by="TpcwResults, TxLog, OpenLoopClientPool, LruCache.hit_ratio",
        expected_share=(("tpcw-closed", "inside sim"),
                        ("haboob-open", "inside sim"),
                        ("tpcw-live", "inside sim"), ("postmortem", "0")),
        moves="must not move under any speed-only change; feeds "
        "profile_fit_pct and ok_share",
        metrics=(
            Metric("sim_stats.tpm", "op/vmin", "higher",
                   "ops per virtual minute", SIM_WORKLOADS),
            Metric("sim_stats.mean_response_ms", "ms", "lower",
                   "mean virtual response time", SIM_WORKLOADS),
            Metric("sim_stats.p99_response_ms", "ms", "lower",
                   "99th-percentile virtual response time", SIM_WORKLOADS),
            Metric("sim_stats.sessions_finished_share", "ratio", "higher",
                   "sessions finished / sessions started (open loop drains)",
                   ("haboob-open",)),
            Metric("sim_stats.cache_hit_ratio", "ratio", "higher",
                   "front cache hit ratio (Squid / Haboob page cache)",
                   SIM_WORKLOADS),
            Metric("sim_stats.crosstalk_wait_ms", "ms", "lower",
                   "mean virtual lock wait per op attributed by crosstalk",
                   TPCW_WORKLOADS),
            Metric("profile_err_pp", "pp", "lower",
                   "max abs difference from reference.py, percentage points"),
            Metric("failed_share", "ratio", "lower",
                   "(failed ops + failed checks) / (ops attempted + checks run)"),
        ),
    ),
    LayerConfig(
        slug="memory",
        modules="(whole process)",
        exposed_by="one extra repeat under tracemalloc",
        expected_share=(("tpcw-closed", "-"), ("haboob-open", "-"),
                        ("tpcw-live", "-"), ("postmortem", "-")),
        moves="peak_rss_mb on every workload",
        metrics=(
            Metric("alloc.blocks_per_op", "1/op", "lower",
                   "blocks still allocated when the timed region ends, per op"),
            Metric("alloc.peak_kib", "KiB", "lower",
                   "peak traced memory during the timed region"),
        ),
    ),
    LayerConfig(
        slug="tracer",
        modules="benchmarks/ledger/tracer.py",
        exposed_by="top rung traced vs untraced",
        expected_share=(("tpcw-closed", "<3%"), ("haboob-open", "<3%"),
                        ("tpcw-live", "<3%"), ("postmortem", "<3%")),
        moves="none; reported so the ledger's own cost is known",
        metrics=(
            Metric("trace.overhead_pct", "%", "lower",
                   "traced wall / untraced wall - 1 at the top rung"),
            Metric("ladder.sum_over_untraced", "ratio", "lower",
                   "sum of the ladder's marginal costs / untraced wall per op; "
                   "the ladder accounts for the run when this is within 0.1 "
                   "of 1"),
        ),
    ),
)

PER_LAYER: Tuple[Metric, ...] = tuple(
    metric for layer in LAYERS for metric in layer.metrics
)

#: The ladder's main chain per workload, bottom rung first; the sum of
#: these marginal costs is what ``ladder.sum_over_untraced`` compares.
LADDER_CHAIN: Dict[str, Tuple[str, ...]] = {
    "tpcw-closed": ("ladder.off.us_per_op", "ladder.csprof.delta_us_per_op",
                    "ladder.whodunit.delta_us_per_op",
                    "ladder.overhead.delta_us_per_op",
                    "ladder.stitch.delta_us_per_op",
                    "ladder.persist.delta_us_per_op"),
    "tpcw-live": ("ladder.off.us_per_op", "ladder.csprof.delta_us_per_op",
                  "ladder.whodunit.delta_us_per_op",
                  "ladder.overhead.delta_us_per_op",
                  "ladder.spans.delta_us_per_op",
                  "ladder.live.delta_us_per_op"),
    "postmortem": ("ladder.analysis.delta_us_per_op",
                   "ladder.stitch.delta_us_per_op",
                   "ladder.persist.delta_us_per_op"),
}
LADDER_CHAIN["haboob-open"] = LADDER_CHAIN["tpcw-closed"]


def workload(name: str) -> WorkloadConfig:
    for config in WORKLOADS:
        if config.name == name:
            return config
    raise KeyError(f"unknown workload {name!r}")


def manifest() -> Dict[str, Any]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def _table(header: List[str], rows: List[List[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def render_tables() -> str:
    """The README's workload, metric and interaction tables (markdown)."""
    parts = [
        "### End-to-end metrics",
        _table(
            ["name", "unit", "better", "regression bound", "what it is"],
            [[f"`{m.name}`", m.unit, m.better, f"{m.bound:.0%}", m.what]
             for m in END_TO_END],
        ),
        "### Workloads",
        _table(
            ["name", "loop", "input", "why it is here", "bypasses"],
            [[f"`{w.name}`", w.loop, w.input, w.why, w.bypasses]
             for w in WORKLOADS],
        ),
        "### Layers: what exposes each, expected share, what it should move",
        _table(
            ["layer", "modules", "exposed by"]
            + [w.name for w in WORKLOADS] + ["moves"],
            [[f"`{layer.slug}`", layer.modules, layer.exposed_by]
             + [dict(layer.expected_share)[w.name] for w in WORKLOADS]
             + [layer.moves]
             for layer in LAYERS],
        ),
        "### Per-layer metrics",
        _table(
            ["layer", "name", "unit", "better", "measured on", "what it is"],
            [[f"`{layer.slug}`", f"`{m.name}`", m.unit, m.better,
              "all" if m.workloads == ALL_WORKLOADS
              else ", ".join(m.workloads), m.what]
             for layer in LAYERS for m in layer.metrics],
        ),
    ]
    return "\n\n".join(parts) + "\n"


TABLES_BEGIN = "<!-- tables:begin -->\n"
TABLES_END = "<!-- tables:end -->\n"


def write_generated_files() -> None:
    """Rewrite ``BENCHMARK.json`` and the README's tables from this module."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as out:
        json.dump(manifest(), out, indent=2)
        out.write("\n")
    readme = os.path.join(here, "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    head, rest = text.split(TABLES_BEGIN)
    tail = rest.split(TABLES_END)[1]
    with open(readme, "w", encoding="utf-8") as out:
        out.write(head + TABLES_BEGIN + render_tables() + TABLES_END + tail)


if __name__ == "__main__":
    if sys.argv[1:] != ["write"]:
        raise SystemExit("usage: layers.py write")
    write_generated_files()
