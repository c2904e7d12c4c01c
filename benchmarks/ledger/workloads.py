"""The four seeded workloads, as run inside a workload's own subprocess.

Every input is generated from the seed; the program under test only
ever sees generated inputs.  A workload offers two things: ``setup()``
(everything a user pays before the first timed op) and ``repeat(rung,
tracer)``, one pass over the fixed seeded input with the timed region
inside it.  The same seeded input repeats until the run's host-time
budget is spent, so simulated statistics repeat exactly while host-time
numbers get a median over many samples.

Only public switches and calls of ``repro`` are used; see ``layers.py``
for which call exposes which layer.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import hostspeed
import layers
import reference
from tracer import Tracer

from repro import telemetry
from repro.analysis.diff import diff_runs, render_diff
from repro.apps.haboob import HaboobConfig, HaboobServer
from repro.apps.tpcw import INTERACTIONS, TpcwResults, TpcwSystem
from repro.core.persist import load_run, load_stage, save_stage
from repro.core.profiler import OverheadModel, ProfilerMode
from repro.core.stitch import StitchedProfile, stitch_profiles
from repro.live import attach_collector
from repro.parallel.runner import run_shards
from repro.parallel.shard import plan_shards
from repro.parallel.stitching import (
    canonical_profile_bytes,
    spool_groups,
    stitch_spool,
)
from repro.sim import Kernel, Rng
from repro.workloads import OpenLoopClientPool, WebTrace
from repro.workloads.openloop import RateCurve


# ----------------------------------------------------------------------
# Rungs, checks, one repeat's result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rung:
    """One configuration of the public switches."""

    name: str
    mode: ProfilerMode
    #: Default OverheadModel (True) or a zero-cost one, which keeps the
    #: virtual execution identical across profiler modes.
    costed: bool
    telemetry: str = "off"
    live: bool = False


#: Traced, the live collector answers ``top_contexts`` after every this
#: many slices (every 2 virtual seconds at the TPC-W stride).
LIVE_QUERY_EVERY = 4

OFF = Rung("off", ProfilerMode.OFF, False)
CSPROF = Rung("csprof", ProfilerMode.CSPROF, False)
WHODUNIT = Rung("whodunit", ProfilerMode.WHODUNIT, False)
OVERHEAD = Rung("overhead", ProfilerMode.WHODUNIT, True)
SPANS = Rung("spans", ProfilerMode.WHODUNIT, True, "spans")
LIVE = Rung("live", ProfilerMode.WHODUNIT, True, "spans", live=True)
FULL = Rung("full", ProfilerMode.WHODUNIT, True, "full")
#: The presentation phase has no switches to climb: one pass, then the
#: same pass with the full-telemetry registry listening.
PASS = Rung("pass", ProfilerMode.WHODUNIT, True)


class Checks:
    """Output checks: each one run counts as attempted, each one that
    does not hold as failed, so ``failed_share`` sees it."""

    def __init__(self):
        self.run = 0
        self.failures: List[str] = []

    def expect(self, name: str, held: bool, detail: str = "") -> None:
        self.run += 1
        if not held:
            self.failures.append(f"{name}: {detail}" if detail else name)


@dataclass
class Repeat:
    """What one pass over the seeded input produced."""

    ops: int
    failed_ops: int
    #: Host wall / CPU seconds of the timed region.
    wall: float
    cpu: float
    #: Wall of the part every ladder rung shares (the kernel run, or
    #: for the live rung the run plus finalize and compact).
    rung_wall: float
    #: Simulated, exact: must repeat bit for bit.
    stats: Dict[str, float]
    digest: str
    profile_err_pp: float
    #: Counts read off the program's public objects for per-layer rows.
    extras: Dict[str, float] = field(default_factory=dict)
    #: The stage runtimes, for codec timing; dropped once checked.
    stages: Optional[Dict[str, Any]] = None
    #: Host slowdown measured around the repeat (see hostspeed.py);
    #: host-time numbers are reported divided by it.
    slowdown: float = 1.0

    @property
    def nominal_wall(self) -> float:
        return self.wall / self.slowdown

    @property
    def nominal_cpu(self) -> float:
        return self.cpu / self.slowdown

    @property
    def nominal_rung_wall(self) -> float:
        return self.rung_wall / self.slowdown


def cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def zero_cost() -> OverheadModel:
    return OverheadModel(
        sample_cost=0.0, call_cost=0.0, synopsis_cost=0.0,
        switch_cost=0.0, call_density=0.0,
    )


def digest_of(profile: StitchedProfile) -> str:
    return hashlib.sha256(canonical_profile_bytes(profile)).hexdigest()


def run_sliced(
    kernel: Kernel,
    until: float,
    stride: float,
    tracer: Tracer,
    after_slice: Callable[[], None],
) -> None:
    """Advance ``kernel`` to ``until`` in slices of ``stride`` virtual
    seconds, each its own ``sim.run`` span when traced, calling
    ``after_slice`` (host-speed sample, live query) between them."""
    horizon = kernel.now + stride
    while horizon < until:
        with tracer.span("sim.run"):
            kernel.run(until=horizon)
        after_slice()
        horizon += stride
    with tracer.span("sim.run"):
        kernel.run(until=until)


def registry_totals(tele) -> Dict[str, float]:
    """Sum every counter/gauge family of the registry over its labels;
    histograms contribute ``name:count`` and ``name:sum``."""
    totals: Dict[str, float] = {}
    for metric in tele.metrics.collect():
        if metric.kind == "histogram":
            for key, value in (("count", metric.count), ("sum", metric.sum)):
                name = f"{metric.name}:{key}"
                totals[name] = totals.get(name, 0.0) + value
        else:
            totals[metric.name] = totals.get(metric.name, 0.0) + metric.value
    totals["spans_completed"] = float(tele.spans.completed)
    totals["sink_errors"] = float(tele.sink_errors)
    return totals


def round_trip_holds(path: str, scratch: str) -> bool:
    """v2 dump -> stage -> v1 -> stage -> v2 gives the original bytes."""
    v1_path = os.path.join(scratch, "roundtrip.v1")
    v2_path = os.path.join(scratch, "roundtrip.v2")
    save_stage(load_stage(path), v1_path, "v1")
    save_stage(load_stage(v1_path), v2_path, "v2")
    with open(path, "rb") as original, open(v2_path, "rb") as again:
        return original.read() == again.read()


def as_pct(weights: Dict[str, float]) -> Dict[str, float]:
    total = sum(weights.values())
    if not total:
        return {}
    return {name: 100.0 * w / total for name, w in weights.items()}


def mysql_share_pct(profile: StitchedProfile) -> Dict[str, float]:
    """% of the stitched MySQL profile per TPC-W interaction (Table 1)."""
    weights: Dict[str, float] = {}
    for (stage, context), cct in profile.entries.items():
        if stage != "mysql":
            continue
        name = next(
            (e for e in context.elements if e in INTERACTIONS), "<other>"
        )
        weights[name] = weights.get(name, 0.0) + cct.total_weight()
    return as_pct(weights)


def haboob_share_pct(profile: StitchedProfile) -> Dict[str, float]:
    """% of the stitched Haboob profile per SEDA stage, WriteStage split
    by the path (cache hit or miss) it was reached through (Fig 10)."""
    weights: Dict[str, float] = {}
    for (_, context), cct in profile.entries.items():
        elements = context.elements
        if not elements:
            continue
        name = elements[-1]
        if name == "WriteStage":
            name += "(miss)" if "MissStage" in elements else "(hit)"
        weights[name] = weights.get(name, 0.0) + cct.total_weight()
    return as_pct(weights)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Base: a seeded input, a scratch directory, a set of checks."""

    name = ""
    #: The configuration the end-to-end run measures.
    top = OVERHEAD
    #: Rungs below ``top`` on the ladder's main chain, bottom first.
    chain: Tuple[Rung, ...] = (OFF, CSPROF, WHODUNIT)
    #: Interleaved rounds of the traced ladder; a rung's cost is the
    #: median over them.
    trace_rounds = 3

    def __init__(self, seed: int, scale: float, workdir: str):
        self.seed = seed
        self.size = layers.workload(self.name).sized(scale)
        self.workdir = workdir
        self.checks = Checks()
        self.notes: List[str] = []
        #: Called at the instant the timed region ends (memory probe).
        self.at_region_end: Optional[Callable[[], None]] = None
        self.speed = hostspeed.Probe()
        self._dirs = 0

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def setup(self) -> None:
        """Everything paid before the first timed op (imports are
        already done by the time this module is loaded)."""

    def elapsed(self, wall0: float) -> float:
        """Host wall since ``wall0`` without the host-speed samples."""
        return time.perf_counter() - wall0 - self.speed.spent()

    def region_ended(self, wall0: float, cpu0: float) -> Tuple[float, float]:
        """Close the timed region: its host wall and CPU seconds, the
        host-speed samples (pure CPU) taken out of both."""
        wall, cpu = self.elapsed(wall0), cpu_now() - cpu0 - self.speed.spent()
        if self.at_region_end is not None:
            self.at_region_end()
        return wall, cpu

    def repeat(self, rung: Rung, tracer: Tracer) -> Repeat:
        """One pass over the seeded input, with the host's speed sampled
        all through its timed region (``self.speed``)."""
        mark = len(tracer.spans)
        self.speed = hostspeed.Probe()
        result = self._repeat(rung, tracer)
        result.slowdown = self.speed.slowdown()
        tracer.stamp(mark, result.slowdown)
        return result

    def _repeat(self, rung: Rung, tracer: Tracer) -> Repeat:
        raise NotImplementedError

    def reference_repeat(self, tracer: Tracer) -> Optional[Repeat]:
        """A repeat of another workload whose simulated statistics this
        one must reproduce exactly (None: no such twin)."""
        return None


class SimWorkload(Workload):
    """A workload that drives the simulator under a ladder rung."""

    def _repeat(self, rung: Rung, tracer: Tracer) -> Repeat:
        tele = None
        if rung.telemetry != "off":
            tele = telemetry.install(
                rung.telemetry, span_capacity=layers.SPAN_CAPACITY
            )
        scratch = self.fresh_dir(rung.name)
        try:
            result = self._run(rung, tracer, tele, scratch)
            if tele is not None and tele.wants_metrics:
                result.extras.update(registry_totals(tele))
            return result
        finally:
            telemetry.uninstall()
            shutil.rmtree(scratch, ignore_errors=True)

    def _run(self, rung, tracer, tele, scratch) -> Repeat:
        raise NotImplementedError

    def check_dumps(self, paths: Dict[str, str], scratch: str) -> None:
        for name, path in sorted(paths.items()):
            self.checks.expect(
                f"{name} dump survives the v2 -> v1 -> v2 round trip",
                round_trip_holds(path, scratch),
            )


class TpcwClosed(SimWorkload):
    name = "tpcw-closed"

    @property
    def virtual_seconds(self) -> float:
        return self.size["warmup"] + self.size["duration"]

    def setup(self) -> None:
        self._build(self.top)

    def _build(self, rung: Rung) -> TpcwSystem:
        size = self.size
        return TpcwSystem(
            clients=size["clients"],
            think_mean=size["think_mean"],
            seed=self.seed,
            profiler_mode=rung.mode,
            overhead=None if rung.costed else zero_cost(),
        )

    def _run(self, rung, tracer, tele, scratch) -> Repeat:
        size = self.size
        collector = None
        if rung.live:
            collector = attach_collector(
                tele,
                directory=os.path.join(scratch, "live"),
                interval=size["live_interval"],
                max_resident=size["live_resident"],
            )
        system = self._build(rung)
        warmup, duration = size["warmup"], size["duration"]
        after_slice = self.speed.sample
        if collector is not None and tracer.enabled:
            slices = itertools.count(1)

            def after_slice() -> None:
                if next(slices) % LIVE_QUERY_EVERY == 0:
                    with tracer.span("live.query"):
                        collector.top_contexts(10)
                self.speed.sample()
        gc.collect()
        wall0, cpu0 = time.perf_counter(), cpu_now()
        system.start()
        run_sliced(
            system.kernel, warmup + duration, size["stride"], tracer, after_slice
        )
        results = TpcwResults(system, warmup, system.kernel.now)
        rung_wall = self.elapsed(wall0)
        paths: Dict[str, str] = {}
        if collector is not None:
            with tracer.span("live.finalize"):
                collector.finalize()
            with tracer.span("live.compact"):
                profile = collector.compact()
            rung_wall = self.elapsed(wall0)
        else:
            with tracer.span("stitch.postmortem"):
                profile = results.stitch(strict=False)
            with tracer.span("persist.save_v2"):
                paths = system.save_profiles(
                    os.path.join(scratch, "dumps"), "v2"
                )
        wall, cpu = self.region_ended(wall0, cpu0)

        log = results.log
        ops = log.count()
        report = results.fault_report()
        failed_ops = (
            report["client_resends"] + report["client_reconnects"]
            + report["db_timeouts"]
            + sum(v for k, v in report.items() if k.endswith("_abandoned"))
            + sum(
                sum(v.values())
                for k, v in report.items() if k.endswith("_violations")
            )
        )
        crosstalk = system.db.crosstalk
        comm = results.comm_overhead()
        sent = comm["data_bytes"] + comm["context_bytes"]
        stats = {
            "ops": float(ops),
            "sim_stats.tpm": results.throughput_tpm(),
            "sim_stats.mean_response_ms": 1000.0 * log.mean_response(),
            "sim_stats.p99_response_ms": 1000.0 * log.percentile_response(0.99),
            "sim_stats.cache_hit_ratio": system.squid.cache.hit_ratio,
            "sim_stats.crosstalk_wait_ms": (
                1000.0 * sum(crosstalk.total_wait_of(i) for i in INTERACTIONS)
                / ops if ops else 0.0
            ),
            "channels.context_bytes_share": (
                comm["context_bytes"] / sent if sent else 0.0
            ),
            "stitch.contexts": float(len(profile.entries)),
            "stitch.completeness": profile.completeness,
        }
        extras = {"sessions_spawned": float(size["clients"])}
        if rung.mode is ProfilerMode.WHODUNIT:
            self.checks.expect(
                "lossless run stitches completely",
                profile.completeness == 1.0,
                f"completeness {profile.completeness!r}",
            )
        if collector is not None:
            with tracer.span("stitch.postmortem"):
                post_mortem = results.stitch(strict=False)
            self.checks.expect(
                "compacted live profile is byte-identical to the "
                "post-mortem stitch",
                canonical_profile_bytes(profile)
                == canonical_profile_bytes(post_mortem),
            )
            extras.update(
                live_events=float(collector.events_absorbed),
                live_evictions=float(collector.evictions),
                live_revivals=float(collector.revivals),
                live_checkpoints=float(collector.checkpoints_written),
                live_peak_resident=float(collector.peak_resident),
            )
        else:
            self.check_dumps(paths, scratch)
        return Repeat(
            ops=ops,
            failed_ops=failed_ops,
            wall=wall,
            cpu=cpu,
            rung_wall=rung_wall,
            stats=stats,
            digest=digest_of(profile),
            profile_err_pp=reference.max_abs_error_pp(
                mysql_share_pct(profile), reference.TABLE1_MYSQL_CPU_PCT
            ),
            extras=extras,
            stages=system.stages_by_name,
        )


class TpcwLive(TpcwClosed):
    name = "tpcw-live"
    top = LIVE
    chain = (OFF, CSPROF, WHODUNIT, OVERHEAD, SPANS)

    def setup(self) -> None:
        tele = telemetry.install("spans", span_capacity=layers.SPAN_CAPACITY)
        try:
            attach_collector(
                tele,
                directory=self.fresh_dir("setup-live"),
                interval=self.size["live_interval"],
                max_resident=self.size["live_resident"],
            )
            self._build(self.top)
        finally:
            telemetry.uninstall()

    def reference_repeat(self, tracer: Tracer) -> Optional[Repeat]:
        return self.repeat(OVERHEAD, tracer)


class HaboobOpen(SimWorkload):
    name = "haboob-open"

    @property
    def virtual_seconds(self) -> float:
        return self.size["until"]

    def setup(self) -> None:
        self._build(self.top)

    def _build(self, rung: Rung):
        size = self.size
        kernel = Kernel()
        trace = WebTrace(Rng(self.seed), objects=size["objects"])
        server = HaboobServer(
            kernel,
            trace,
            mode=rung.mode,
            config=HaboobConfig(cache_bytes=size["cache_bytes"]),
            overhead=None if rung.costed else zero_cost(),
        )
        pool = OpenLoopClientPool(
            kernel,
            server.listener,
            trace,
            rng=Rng(self.seed).stream("openloop"),
            rate_curve=RateCurve(
                base_rate=size["rate"],
                flash_crowds=((size["flash_start"], size["flash_duration"],
                               size["flash_factor"]),),
            ),
            record_log=True,
        )
        return kernel, server, pool

    def _run(self, rung, tracer, tele, scratch) -> Repeat:
        size = self.size
        kernel, server, pool = self._build(rung)
        gc.collect()
        wall0, cpu0 = time.perf_counter(), cpu_now()
        server.start()
        pool.start()
        run_sliced(kernel, size["until"], size["stride"], tracer, self.speed.sample)
        rung_wall = self.elapsed(wall0)
        with tracer.span("stitch.postmortem"):
            profile = stitch_profiles([server.stage_runtime], strict=False)
        with tracer.span("persist.save_v2"):
            paths = server.save_profiles(os.path.join(scratch, "dumps"), "v2")
        wall, cpu = self.region_ended(wall0, cpu0)

        ops = pool.completed_requests
        runtime = server.stage_runtime
        sent = runtime.comm_data_bytes + runtime.comm_context_bytes
        in_flight = pool.sessions_started - pool.sessions_finished
        stats = {
            "ops": float(ops),
            "sim_stats.tpm": 60.0 * ops / size["until"],
            "sim_stats.mean_response_ms": 1000.0 * pool.mean_response(),
            "sim_stats.p99_response_ms": (
                1000.0 * pool.log.percentile_response(0.99)
            ),
            "sim_stats.sessions_finished_share": (
                pool.sessions_finished / pool.sessions_started
                if pool.sessions_started else 0.0
            ),
            "sim_stats.cache_hit_ratio": server.page_cache.hit_ratio,
            "channels.context_bytes_share": (
                runtime.comm_context_bytes / sent if sent else 0.0
            ),
            "stitch.contexts": float(len(profile.entries)),
            "stitch.completeness": profile.completeness,
        }
        # The queue may grow during the crowd; by the end the backlog
        # must be back under half a virtual second of arrivals.
        self.checks.expect(
            "open loop drains after the flash crowd",
            in_flight <= 0.5 * size["rate"],
            f"{in_flight} sessions in flight at the end",
        )
        if rung.mode is ProfilerMode.WHODUNIT:
            self.checks.expect(
                "lossless run stitches completely",
                profile.completeness == 1.0,
                f"completeness {profile.completeness!r}",
            )
        self.check_dumps(paths, scratch)
        return Repeat(
            ops=ops,
            failed_ops=sum(s.input_queue.rejected for s in server.stages),
            wall=wall,
            cpu=cpu,
            rung_wall=rung_wall,
            stats=stats,
            digest=digest_of(profile),
            profile_err_pp=reference.max_abs_error_pp(
                haboob_share_pct(profile), reference.FIG10_HABOOB_STAGE_PCT
            ),
            extras={"sessions_spawned": float(pool.sessions_started)},
            stages=server.stages_by_name,
        )


class Postmortem(Workload):
    """The presentation phase alone, over two spooled sharded runs."""

    name = "postmortem"
    top = PASS
    chain = ()
    trace_rounds = 9  # a pass is short; single passes differ by 10%

    def setup(self) -> None:
        size = self.size
        self.spools: List[str] = []
        self.shard_walls: List[float] = []
        self.shard_skews: List[float] = []
        for offset in (0, 1):
            spool = self.fresh_dir("spool")
            plan = plan_shards(
                "tpcw",
                self.seed + offset,
                size["shards"] * size["shard_clients"],
                size["shards"],
                size["duration"],
                size["warmup"],
                spool_dir=spool,
                profile_format="v2",
            )
            run = run_shards(plan, jobs=1)
            self.spools.append(spool)
            self.shard_walls.append(run.wall_seconds)
            self.shard_skews.append(run.wall_skew())
        self.dumps = [p for group in spool_groups(self.spools[0]) for p in group]
        self.v2_bytes_per_dump = (
            sum(os.path.getsize(p) for p in self.dumps) / len(self.dumps)
        )

    def ops_per_pass(self) -> int:
        # Dumps handed to a public call: load_run twice, stitch_spool
        # twice, and four codec calls per dump.
        return 8 * len(self.dumps)

    def one_pass(self, tracer: Tracer, scratch: str):
        """One presentation pass; returns the flat profile and the diff,
        and checks what the pass itself can check."""
        speed = self.speed
        spool_a, spool_b = self.spools
        with tracer.span("diff.load_run"):
            before = load_run(spool_a)
        speed.sample()
        with tracer.span("diff.load_run"):
            after = load_run(spool_b)
        speed.sample()
        with tracer.span("diff.diff_runs"):
            delta = diff_runs(before, after)
        with tracer.span("diff.render"):
            text = render_diff(delta)
        with tracer.span("reduce.flat"):
            flat = stitch_spool(spool_a, strict=False)
        speed.sample()
        with tracer.span("reduce.tree"):
            tree = stitch_spool(spool_a, strict=False, group_size=0)
        v1_path = os.path.join(scratch, "pass.v1")
        v2_path = os.path.join(scratch, "pass.v2")
        round_trips = True
        for index, path in enumerate(self.dumps):
            if index % 2 == 0:
                speed.sample()
            with tracer.span("persist.load_v2"):
                stage = load_stage(path)
            with tracer.span("persist.save_v1"):
                save_stage(stage, v1_path, "v1")
            with tracer.span("persist.load_v1"):
                stage = load_stage(v1_path)
            with tracer.span("persist.save_v2"):
                save_stage(stage, v2_path, "v2")
            with open(path, "rb") as original, open(v2_path, "rb") as again:
                round_trips = round_trips and original.read() == again.read()
        checks = self.checks
        checks.expect("render_diff produced a report", bool(text))
        checks.expect(
            "stitch_spool flat equals group_size=0",
            canonical_profile_bytes(flat) == canonical_profile_bytes(tree),
        )
        checks.expect(
            "every dump survives the v2 -> v1 -> v2 round trip", round_trips
        )
        checks.expect(
            "lossless spool stitches completely",
            flat.completeness == 1.0,
            f"completeness {flat.completeness!r}",
        )
        checks.expect(
            "load_run agrees with stitch_spool",
            canonical_profile_bytes(before.profile)
            == canonical_profile_bytes(flat),
        )
        return flat, delta

    def _repeat(self, rung: Rung, tracer: Tracer) -> Repeat:
        tele = telemetry.install("full") if rung.telemetry == "full" else None
        scratch = self.fresh_dir("pass")
        try:
            gc.collect()
            wall0, cpu0 = time.perf_counter(), cpu_now()
            flat, delta = self.one_pass(tracer, scratch)
            wall, cpu = self.region_ended(wall0, cpu0)
            extras = registry_totals(tele) if tele is not None else {}
        finally:
            telemetry.uninstall()
            shutil.rmtree(scratch, ignore_errors=True)
        stats = {
            "ops": float(self.ops_per_pass()),
            "stitch.contexts": float(len(flat.entries)),
            "stitch.completeness": flat.completeness,
            "diff.total_delta": delta.total_delta,
            "persist.v2_bytes_per_dump": self.v2_bytes_per_dump,
        }
        return Repeat(
            ops=self.ops_per_pass(),
            failed_ops=0,
            wall=wall,
            cpu=cpu,
            rung_wall=wall,
            stats=stats,
            digest=digest_of(flat),
            profile_err_pp=reference.max_abs_error_pp(
                mysql_share_pct(flat), reference.TABLE1_MYSQL_CPU_PCT
            ),
            extras=extras,
        )


BY_NAME = {
    cls.name: cls for cls in (TpcwClosed, HaboobOpen, TpcwLive, Postmortem)
}
