"""One workload in its own subprocess: set up, measure or trace, report.

Started by ``run.py`` with ``PYTHONHASHSEED=0`` and ``src`` on the path.
Protocol on stdout: the line ``LEDGER-READY`` once set-up is done (the
parent stops its set-up clock on it), then one ``LEDGER-RESULT <json>``
line.  ``--phase setup`` exits after the first, ``--phase import`` as
soon as the program is imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from typing import Any, Dict, List

import layers
from tracer import Tracer
from workloads import BY_NAME, FULL, Repeat, Workload

from repro.core.persist import dump_size, load_stage, save_stage

READY = "LEDGER-READY"
RESULT = "LEDGER-RESULT"
#: Timed repeats a run takes at least, however short its budget.
MIN_REPEATS = 3


def spread(values: List[float]) -> Dict[str, Any]:
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def us_per(seconds: float, count: float) -> float:
    return 1e6 * seconds / count if count else 0.0


def expect_same_run(wl: Workload, first: Repeat, other: Repeat, what: str) -> None:
    """Two passes over one seeded input must agree bit for bit."""
    wl.checks.expect(
        f"{what}: identical simulated statistics",
        first.stats == other.stats,
        ", ".join(
            f"{k} {first.stats.get(k)!r} != {other.stats.get(k)!r}"
            for k in sorted(set(first.stats) | set(other.stats))
            if first.stats.get(k) != other.stats.get(k)
        ),
    )
    wl.checks.expect(
        f"{what}: identical stitched profile", first.digest == other.digest
    )


def tally(wl: Workload, repeats: List[Repeat]) -> Dict[str, Any]:
    """Ops and output checks, attempted and failed, of the whole run."""
    ops = sum(r.ops for r in repeats)
    failed_ops = sum(r.failed_ops for r in repeats)
    attempted = ops + failed_ops + wl.checks.run
    failed = failed_ops + len(wl.checks.failures)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": wl.checks.failures,
        "notes": wl.notes,
    }


# ----------------------------------------------------------------------
# Untraced: the end-to-end numbers
# ----------------------------------------------------------------------
def measure(wl: Workload, seconds: float) -> Dict[str, Any]:
    quiet = Tracer(wl.name, enabled=False)
    first = wl.repeat(wl.top, quiet)  # warm-up, not timed
    first.stages = None
    twin = wl.reference_repeat(quiet)
    if twin is not None:
        expect_same_run(wl, twin, first, "against its post-mortem twin")
    del twin
    repeats: List[Repeat] = []
    started = time.perf_counter()
    while (
        len(repeats) < MIN_REPEATS
        or time.perf_counter() - started + 0.5 * repeats[-1].wall < seconds
    ):
        gc.collect()
        repeat = wl.repeat(wl.top, quiet)
        repeat.stages = None
        expect_same_run(wl, first, repeat, f"repeat {len(repeats) + 1}")
        repeats.append(repeat)
    out = tally(wl, [first] + repeats)
    # Host-time numbers: each repeat at nominal host speed
    # (hostspeed.py), then the median over repeats; raw beside it.
    out["host_slowdown"] = statistics.median(r.slowdown for r in repeats)
    out["end_to_end"] = {
        "ops_per_host_s": dict(
            spread([r.ops / r.nominal_wall for r in repeats]),
            raw=statistics.median(r.ops / r.wall for r in repeats),
        ),
        "cpu_s_per_kop": dict(
            spread([1000.0 * r.nominal_cpu / r.ops for r in repeats]),
            raw=statistics.median(1000.0 * r.cpu / r.ops for r in repeats),
        ),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        },
        "ok_share": {"value": 1.0 - out["failed_share"]},
        "profile_fit_pct": {"value": 100.0 - first.profile_err_pp},
    }
    out["exact"] = dict(
        first.stats,
        profile_err_pp=first.profile_err_pp,
        failed_share=out["failed_share"],
        digest=first.digest,
    )
    return out


# ----------------------------------------------------------------------
# Traced: the per-layer ladder
# ----------------------------------------------------------------------
def registry_rows(totals: Dict[str, float], ops: int) -> Dict[str, float]:
    """Per-layer counts from the ``full``-telemetry registry.  A family
    the run never created reads 0, and that is the measurement: no SEDA
    queue on TPC-W, no kernel event in the presentation phase."""
    get = lambda name: totals.get(name, 0.0)  # noqa: E731
    enqueued = get("repro_seda_enqueued_total")
    rejected = get("repro_seda_rejected_total")
    waits = get("repro_seda_queue_wait_seconds:count")
    return {
        "sim.events_per_op": get("repro_sim_events_fired_total") / ops,
        "sim.events_cancelled_per_op":
            get("repro_sim_events_cancelled_total") / ops,
        "profiler.samples_per_op": get("repro_profiler_samples_total") / ops,
        "profiler.hops_per_op": get("repro_profiler_hops_total") / ops,
        "channels.messages_per_op": get("repro_channel_messages_total") / ops,
        "channels.bytes_per_op": get("repro_channel_bytes_total") / ops,
        "rpc.requests_per_op": get("repro_rpc_requests_total") / ops,
        "rpc.violations": get("repro_rpc_protocol_violations_total"),
        "seda.enqueued_per_op": enqueued / ops,
        "seda.rejected_share": (
            rejected / (enqueued + rejected) if enqueued + rejected else 0.0
        ),
        "seda.queue_wait_ms_mean": (
            1000.0 * get("repro_seda_queue_wait_seconds:sum") / waits
            if waits else 0.0
        ),
        "spans.per_op": get("spans_completed") / ops,
        "telemetry.sink_errors": get("sink_errors"),
    }


def codec_rows(wl: Workload, tracer: Tracer, stages: Dict[str, Any]) -> Dict[str, float]:
    """Time each codec direction on the top rung's own stage dumps."""
    scratch = wl.fresh_dir("codec")
    tracer.repeat = "codec"
    sizes = {"v1": 0, "v2": 0}
    try:
        for name, stage in sorted(stages.items()):
            for fmt in sizes:
                path = os.path.join(scratch, f"{name}.{fmt}")
                with tracer.span(f"persist.save_{fmt}"):
                    save_stage(stage, path, fmt)
                with tracer.span(f"persist.load_{fmt}"):
                    load_stage(path)
                sizes[fmt] += os.path.getsize(path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    rows = {
        f"persist.{call}_{fmt}_us_per_dump": us_per(
            tracer.total(f"persist.{call}_{fmt}", "codec"), len(stages)
        )
        for call in ("save", "load") for fmt in sizes
    }
    for fmt, total in sizes.items():
        rows[f"persist.{fmt}_bytes_per_dump"] = total / len(stages)
    return rows


def sim_rows(wl: Workload, tracer: Tracer, rungs: Dict[str, List[Repeat]]) -> Dict[str, float]:
    """The simulator workloads' ladder and what its spans show."""
    first = {rung: repeats[0] for rung, repeats in rungs.items()}
    wl.checks.expect(
        "the zero-cost OverheadModel keeps the virtual execution across "
        "profiler modes",
        first["off"].ops == first["csprof"].ops == first["whodunit"].ops,
    )
    name = wl.top.name
    top = first[name]
    us = {
        rung: statistics.median(us_per(r.nominal_rung_wall, r.ops) for r in repeats)
        for rung, repeats in rungs.items()
    }

    def per_repeat(span: str) -> float:
        return tracer.total(span, name) / len(rungs[name])

    rows = {
        "ladder.off.us_per_op": us["off"],
        "ladder.csprof.us_per_op": us["csprof"],
        "ladder.whodunit.us_per_op": us["whodunit"],
        "ladder.csprof.delta_us_per_op": us["csprof"] - us["off"],
        "ladder.whodunit.delta_us_per_op": us["whodunit"] - us["csprof"],
        "ladder.overhead.delta_us_per_op": us["overhead"] - us["whodunit"],
        "ladder.full.delta_us_per_op": us["full"] - us["overhead"],
    }
    if "live" in rungs:
        expect_same_run(wl, first["overhead"], first["spans"], "spans on")
        rows.update({
            "ladder.spans.delta_us_per_op": us["spans"] - us["overhead"],
            "ladder.live.delta_us_per_op": us["live"] - us["spans"],
            "live.events_per_op": top.extras["live_events"] / top.ops,
            "live.evictions": top.extras["live_evictions"],
            "live.revivals": top.extras["live_revivals"],
            "live.checkpoints": top.extras["live_checkpoints"],
            "live.peak_resident": top.extras["live_peak_resident"],
            "live.finalize_ms": 1000.0 * per_repeat("live.finalize"),
            "live.compact_ms": 1000.0 * per_repeat("live.compact"),
            "live.query_ms_p50": 1000.0 * statistics.median(
                tracer.durations("live.query", name)
            ),
        })
    else:
        rows["ladder.stitch.delta_us_per_op"] = us_per(
            per_repeat("stitch.postmortem"), top.ops
        )
        rows["ladder.persist.delta_us_per_op"] = us_per(
            per_repeat("persist.save_v2"), top.ops
        )
    slices = tracer.durations("sim.run", name)
    stride = wl.size["stride"]
    events_per_op = first["full"].extras.get(
        "repro_sim_events_fired_total", 0.0
    ) / first["full"].ops
    rows.update({
        "stitch.postmortem_ms": 1000.0 * per_repeat("stitch.postmortem"),
        "sim.ns_per_event": (
            1000.0 * us["off"] / events_per_op if events_per_op else 0.0
        ),
        "sim.virtual_s_per_host_s": (
            len(rungs[name]) * wl.virtual_seconds / sum(slices)
        ),
        "sim.slice_ms_p50": 1000.0 * statistics.median(slices) / stride,
        "sim.slice_ms_p90": 1000.0 * percentile(slices, 0.9) / stride,
        "sim.sessions_spawned_per_op": top.extras["sessions_spawned"] / top.ops,
    })
    rows.update({k: v for k, v in top.stats.items() if k != "ops"})
    rows.update(codec_rows(wl, tracer, top.stages))
    wl.notes.append(
        f"sim.slice_ms_*: n = {len(slices)} slices of {stride:g} virtual s"
    )
    wl.notes.append(
        "ops per rung: " + ", ".join(f"{n} {r.ops}" for n, r in first.items())
    )
    return rows


def postmortem_rows(wl: Workload, tracer: Tracer, rungs: Dict[str, List[Repeat]]) -> Dict[str, float]:
    """The presentation pass split by the public call that did the work."""
    name = wl.top.name
    top = rungs[name][0]
    ops = top.ops * len(rungs[name])

    def per_call_us(span: str) -> float:
        calls = tracer.durations(span, name)
        return us_per(sum(calls), len(calls))

    def per_op_us(*spans: str) -> float:
        return us_per(sum(tracer.total(s, name) for s in spans), ops)

    codec = ("persist.load_v2", "persist.save_v1",
             "persist.load_v1", "persist.save_v2")
    dumps = len(wl.dumps)
    rows = {
        "ladder.analysis.delta_us_per_op": per_op_us(
            "diff.load_run", "diff.diff_runs", "diff.render"
        ),
        "ladder.stitch.delta_us_per_op": per_op_us("reduce.flat", "reduce.tree"),
        "ladder.persist.delta_us_per_op": per_op_us(*codec),
        "reduce.flat_us_per_dump": per_call_us("reduce.flat") / dumps,
        "reduce.tree_us_per_dump": per_call_us("reduce.tree") / dumps,
        "stitch.postmortem_ms": per_call_us("reduce.flat") / 1000.0,
        "diff.load_run_ms": per_call_us("diff.load_run") / 1000.0,
        "diff.diff_runs_ms": per_call_us("diff.diff_runs") / 1000.0,
        "diff.render_ms": per_call_us("diff.render") / 1000.0,
        "parallel.run_shards_s": statistics.mean(wl.shard_walls),
        "parallel.shard_wall_skew": statistics.mean(wl.shard_skews),
        "persist.v1_bytes_per_dump": statistics.mean(
            dump_size(load_stage(path), "v1") for path in wl.dumps
        ),
        "stitch.contexts": top.stats["stitch.contexts"],
        "stitch.completeness": top.stats["stitch.completeness"],
        "persist.v2_bytes_per_dump": top.stats["persist.v2_bytes_per_dump"],
    }
    for span in codec:
        rows[f"{span}_us_per_dump"] = per_call_us(span)
    return rows


def traced_memory(wl: Workload, quiet: Tracer) -> Dict[str, float]:
    """One extra top-rung repeat under tracemalloc, read at the moment
    the timed region ends."""
    seen: Dict[str, float] = {}

    def read() -> None:
        _, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
        seen["blocks"] = float(
            sum(stat.count for stat in snapshot.statistics("filename"))
        )
        seen["peak_kib"] = peak / 1024.0

    wl.at_region_end = read
    tracemalloc.start()
    try:
        repeat = wl.repeat(wl.top, quiet)
    finally:
        tracemalloc.stop()
        wl.at_region_end = None
    return {
        "alloc.blocks_per_op": seen["blocks"] / repeat.ops,
        "alloc.peak_kib": seen["peak_kib"],
    }


def trace(wl: Workload) -> Dict[str, Any]:
    tracer = Tracer(wl.name, enabled=True)
    quiet = Tracer(wl.name, enabled=False)
    warm = wl.repeat(wl.top, quiet)
    # Interleaved rounds: every rung, then one untraced top-rung repeat,
    # so each rung's median sees the same stretch of machine weather.
    rungs: Dict[str, List[Repeat]] = {}
    untraced: List[Repeat] = []
    for _ in range(wl.trace_rounds):
        for rung in wl.chain + (wl.top, FULL):
            tracer.repeat = rung.name
            with tracer.span(f"rung.{rung.name}"):
                rungs.setdefault(rung.name, []).append(wl.repeat(rung, tracer))
        untraced.append(wl.repeat(wl.top, quiet))
    tops, full = rungs[wl.top.name], rungs["full"][0]
    expect_same_run(wl, warm, tops[0], "tracing the run")
    expect_same_run(
        wl, rungs.get("overhead", tops)[0], full, "full telemetry on"
    )

    rows = registry_rows(full.extras, full.ops)
    derive = postmortem_rows if wl.name == "postmortem" else sim_rows
    rows.update(derive(wl, tracer, rungs))
    rows["profile_err_pp"] = tops[0].profile_err_pp
    # Does the ladder account for the run?  Its marginal costs summed,
    # over the untraced wall per op; and the tracer's own overhead.
    untraced_us = statistics.median(
        us_per(r.nominal_wall, r.ops) for r in untraced
    )
    traced_us = statistics.median(us_per(r.nominal_wall, r.ops) for r in tops)
    chain_us = sum(rows[name] for name in layers.LADDER_CHAIN[wl.name])
    rows["ladder.sum_over_untraced"] = chain_us / untraced_us
    rows["trace.overhead_pct"] = 100.0 * (traced_us / untraced_us - 1.0)
    rows.update(traced_memory(wl, quiet))

    wl.checks.expect(
        "self time never exceeds span duration",
        all(
            -1e-9 <= own <= span.duration + 1e-9
            for own, span in zip(tracer.self_times(), tracer.spans)
        ),
    )
    every = [warm, *untraced, *(r for rs in rungs.values() for r in rs)]
    out = tally(wl, every)
    rows["failed_share"] = out["failed_share"]
    out["per_layer"] = rows
    out["spans"] = tracer.to_json()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument(
        "--phase", choices=("import", "setup", "run"), default="run"
    )
    args = parser.parse_args(argv)
    if args.phase == "import":
        return 0

    wl = BY_NAME[args.workload](args.seed, args.scale, args.workdir)
    wl.setup()
    print(READY, flush=True)
    if args.phase == "setup":
        return 0
    result = trace(wl) if args.trace else measure(wl, args.seconds)
    print(RESULT, json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
