"""Sharded workload execution across a process pool.

Each shard runs a *complete* simulated deployment (every tier, its own
kernel, its own seeded RNG streams) inside one worker process, dumps
its per-stage profiles to a spool directory, and returns a plain-data
:class:`ShardResult`.  The parent merges results post-hoc — throughput
sums, response-time averages weighted by completions, crosstalk totals,
telemetry metric snapshots — always folding in shard-index order so the
merged view is independent of worker scheduling.

``jobs=1`` runs the shards sequentially in-process through the *same*
code path, which is both the degenerate case and the determinism
baseline: an N-job run must produce byte-identical dumps and merged
output to the 1-job run of the same plan.

Workers snapshot and restore the module-level telemetry switch so a
shard always runs with exactly the telemetry mode its spec names,
independent of whatever the parent process had installed at fork time.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry as _telemetry
from repro.core.persist import MANIFEST_NAME
from repro.parallel.shard import ShardPlan, ShardSpec

#: Dump file suffix per profile format.
DUMP_SUFFIX = {"v1": ".profile.json", "v2": ".profile.wdp"}


@dataclass
class ShardResult:
    """Plain-data summary of one executed shard (picklable)."""

    index: int
    seed: int
    clients: int
    wall_seconds: float
    window: Tuple[float, float]
    served: int
    throughput: float
    interactions: Dict[str, List[float]] = field(default_factory=dict)
    db_cpu_weights: Dict[str, float] = field(default_factory=dict)
    crosstalk: Dict[str, List[float]] = field(default_factory=dict)
    comm: Tuple[int, int] = (0, 0)
    dump_paths: List[str] = field(default_factory=list)
    dump_bytes: int = 0
    #: :func:`repro.analysis.telemetry.span_summary` ({} with telemetry off).
    spans: Dict[str, Any] = field(default_factory=dict)
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Worker functions (top-level: must pickle across the process pool)
# ----------------------------------------------------------------------
def _dump_stages(spec: ShardSpec, stages_by_name) -> Tuple[List[str], int]:
    """Spool the shard's per-stage dumps; returns (paths, total bytes)."""
    if not spec.spool_dir:
        return [], 0
    from repro.core.persist import save_stage

    shard_dir = os.path.join(spec.spool_dir, f"shard-{spec.index:04d}")
    os.makedirs(shard_dir, exist_ok=True)
    suffix = DUMP_SUFFIX[spec.profile_format]
    paths: List[str] = []
    total = 0
    for name, stage in stages_by_name.items():
        path = os.path.join(shard_dir, f"{name}{suffix}")
        save_stage(stage, path, profile_format=spec.profile_format)
        paths.append(path)
        total += os.path.getsize(path)
    return paths, total


def _collect_telemetry(spec: ShardSpec, tele, result: ShardResult) -> None:
    """Summarise the shard's telemetry into ``result`` and write the
    trace and metrics files its spec names."""
    if tele is None:
        return
    from repro.analysis.telemetry import span_summary
    from repro.telemetry.export import write_prometheus, write_trace

    result.spans = span_summary(tele.spans)
    if tele.wants_metrics:
        result.metrics = tele.metrics.snapshot()
    if spec.trace_out:
        write_trace(spec.trace_out, tele.spans, spec.trace_format)
    if spec.metrics_out and tele.wants_metrics:
        write_prometheus(spec.metrics_out, tele.metrics)


def _run_tpcw_shard(spec: ShardSpec) -> ShardResult:
    from repro.apps.db.locks import INNODB, MYISAM
    from repro.apps.tpcw import TpcwSystem
    from repro.channels.rpc import RetryPolicy

    params = spec.params
    retry = None
    if params.get("fault_plan") and params.get("retries", 0) > 0:
        retry = RetryPolicy(
            timeout=params.get("retry_timeout", 0.25),
            retries=params["retries"],
        )
    start = time.perf_counter()
    system = TpcwSystem(
        clients=spec.clients,
        caching=params.get("caching", False),
        item_engine=INNODB if params.get("innodb") else MYISAM,
        seed=spec.seed,
        mix=params.get("mix", "browsing"),
        think_mean=params.get("think_mean", 7.0),
        db_connections=params.get("db_connections", 24),
        fault_plan=params.get("fault_plan"),
        fault_seed=params.get("fault_seed", 0) + spec.index,
        retry=retry,
    )
    results = system.run(duration=spec.duration, warmup=spec.warmup)
    wall = time.perf_counter() - start

    interactions: Dict[str, List[float]] = {}
    for tx_type, tx_start, tx_end in results.log.records:
        cell = interactions.setdefault(tx_type, [0, 0.0])
        cell[0] += 1
        cell[1] += tx_end - tx_start
    crosstalk = {
        name: [cell[0], system.db.crosstalk.total_wait_of(name)]
        for name, cell in interactions.items()
    }
    comm = results.comm_overhead()
    dump_paths, dump_bytes = _dump_stages(spec, system.stages_by_name)
    return ShardResult(
        index=spec.index,
        seed=spec.seed,
        clients=spec.clients,
        wall_seconds=wall,
        window=(results.window_start, results.window_end),
        served=results.log.completions_in(
            results.window_start, results.window_end
        ),
        throughput=results.throughput_tpm(),
        interactions=interactions,
        db_cpu_weights=results.db_cpu_weights(),
        crosstalk=crosstalk,
        comm=(comm["data_bytes"], comm["context_bytes"]),
        dump_paths=dump_paths,
        dump_bytes=dump_bytes,
        extra={
            "db_utilization": system.db.cpu.utilization(),
            "faults": system.faults.report() if system.faults is not None else {},
            "recovery": (
                results.fault_report() if system.faults is not None else {}
            ),
        },
    )


def _run_haboob_shard(spec: ShardSpec) -> ShardResult:
    from repro.apps.haboob import HaboobConfig, HaboobServer
    from repro.sim import Kernel, Rng
    from repro.workloads import HttpClientPool, WebTrace

    params = spec.params
    start = time.perf_counter()
    kernel = Kernel()
    injector = None
    if params.get("fault_plan"):
        from repro.faults import install_faults

        injector = install_faults(
            kernel, params["fault_plan"],
            params.get("fault_seed", 0) + spec.index,
        )
    trace = WebTrace(Rng(spec.seed), objects=params.get("objects", 2000))
    server = HaboobServer(
        kernel,
        trace,
        config=HaboobConfig(
            cache_bytes=params.get("cache_kb", 512) * 1024
        ),
    )
    server.start()
    if injector is not None:
        injector.schedule_crashes(
            kernel, {stage.name: stage for stage in server.stages}
        )
    HttpClientPool(
        kernel, server.listener, trace, clients=spec.clients
    ).start()
    kernel.run(until=spec.duration)
    wall = time.perf_counter() - start
    dump_paths, dump_bytes = _dump_stages(spec, server.stages_by_name)
    return ShardResult(
        index=spec.index,
        seed=spec.seed,
        clients=spec.clients,
        wall_seconds=wall,
        window=(0.0, spec.duration),
        served=server.responses_sent,
        throughput=server.throughput_mbps(),
        comm=(server.stage_runtime.comm_data_bytes,
              server.stage_runtime.comm_context_bytes),
        dump_paths=dump_paths,
        dump_bytes=dump_bytes,
        extra={
            "cache": (server.page_cache.hits, server.page_cache.misses),
            "faults": injector.report() if injector is not None else {},
        },
    )


def _run_openloop_shard(spec: ShardSpec) -> ShardResult:
    """One slice of an open-loop population against its own Haboob tier.

    ``spec.clients`` is this shard's *session budget* (its slice of the
    simulated-client population); the arrival rate in
    ``params["arrival_rate"]`` is the population-wide rate, scaled here
    by the shard's share of the population, so N shards jointly emit
    the planned non-homogeneous Poisson process.  Per-transaction logs
    stay off by default (``params["record_log"]``) — a million-session
    shard returns O(1) aggregates, not a million log records.
    """
    from repro.apps.haboob import HaboobConfig, HaboobServer
    from repro.sim import Kernel, Rng
    from repro.workloads import OpenLoopClientPool, WebTrace
    from repro.workloads.openloop import RateCurve, ThinkTime

    params = spec.params
    total_clients = params.get("total_clients") or spec.clients * spec.shards
    share = spec.clients / total_clients if total_clients else 1.0
    base_rate = params.get("arrival_rate", 100.0) * share
    curve = None
    if params.get("diurnal_amplitude") or params.get("flash_crowds"):
        curve = RateCurve(
            base_rate=base_rate,
            diurnal_amplitude=params.get("diurnal_amplitude", 0.0),
            diurnal_period=params.get("diurnal_period", 86400.0),
            flash_crowds=tuple(
                tuple(crowd) for crowd in params.get("flash_crowds", ())
            ),
        )
    think = None
    if params.get("think"):
        think = ThinkTime(**params["think"])

    start = time.perf_counter()
    kernel = Kernel()
    trace = WebTrace(Rng(spec.seed), objects=params.get("objects", 2000))
    server = HaboobServer(
        kernel,
        trace,
        config=HaboobConfig(cache_bytes=params.get("cache_kb", 512) * 1024),
    )
    server.start()
    pool = OpenLoopClientPool(
        kernel,
        server.listener,
        trace,
        arrival_rate=base_rate,
        rng=Rng(spec.seed).stream("openloop"),
        rate_curve=curve,
        think=think,
        max_sessions=spec.clients,
        record_log=params.get("record_log", False),
    )
    pool.start()
    kernel.run(until=spec.duration)
    wall = time.perf_counter() - start
    dump_paths, dump_bytes = _dump_stages(spec, server.stages_by_name)
    return ShardResult(
        index=spec.index,
        seed=spec.seed,
        clients=spec.clients,
        wall_seconds=wall,
        window=(0.0, spec.duration),
        served=server.responses_sent,
        throughput=server.throughput_mbps(),
        interactions={
            "GET": [pool.completed_requests, pool.response_sum]
        },
        comm=(server.stage_runtime.comm_data_bytes,
              server.stage_runtime.comm_context_bytes),
        dump_paths=dump_paths,
        dump_bytes=dump_bytes,
        extra={
            "cache": (server.page_cache.hits, server.page_cache.misses),
            "sessions_started": pool.sessions_started,
            "sessions_finished": pool.sessions_finished,
            "offered_rate": base_rate,
            "mean_response": pool.mean_response(),
        },
    )


_WORKLOAD_RUNNERS = {
    "tpcw": _run_tpcw_shard,
    "haboob": _run_haboob_shard,
    "openloop": _run_openloop_shard,
}


def run_one_shard(spec: ShardSpec) -> ShardResult:
    """Execute one shard, isolated from the caller's telemetry state.

    A spec with ``live`` or ``live_dir`` set attaches an online
    streaming stitcher (:mod:`repro.live`; it needs no telemetry)
    before the system is built.  When the shard ends the collector is
    finalized (a last checkpoint into ``live_dir/shard-NNNN/``, so the
    parent or ``live-report`` can fold the per-shard state), renders
    its end-of-run view into ``result.extra["live"]["view"]``, and is
    closed however the shard ends.
    """
    previous = _telemetry.ACTIVE
    tele = None
    collector = None
    try:
        if spec.telemetry_mode != "off":
            tele = _telemetry.install(spec.telemetry_mode)
        else:
            _telemetry.ACTIVE = None
        if spec.live or spec.live_dir:
            from repro.live import attach_collector

            collector = attach_collector(
                tele,
                directory=(
                    os.path.join(spec.live_dir, f"shard-{spec.index:04d}")
                    if spec.live_dir
                    else None
                ),
                interval=spec.live_interval,
                max_resident=spec.live_resident,
            )
        result = _WORKLOAD_RUNNERS[spec.workload](spec)
        _collect_telemetry(spec, tele, result)
        if collector is not None:
            from repro.analysis.live import render_live_view

            collector.finalize()
            view = render_live_view(collector, k=spec.live_top)
            profile = collector.stitched_profile(strict=False)
            result.extra["live"] = {
                "dir": collector.directory,
                "samples": collector.samples,
                "events": collector.events_absorbed,
                "peak_resident": collector.peak_resident,
                "evictions": collector.evictions,
                "view": (
                    f"{view}\n\nlive stitch: {len(profile.entries)} "
                    f"contexts; completeness {100.0 * profile.completeness:.2f}%"
                ),
            }
        return result
    finally:
        if tele is not None:
            tele.close()
        _telemetry.ACTIVE = previous
        # Last: after a failed absorption this close may raise again.
        if collector is not None:
            collector.close()


# ----------------------------------------------------------------------
# The sharded run
# ----------------------------------------------------------------------
class ShardedRun:
    """Merged view over the results of one sharded execution."""

    def __init__(self, plan: ShardPlan, results: List[ShardResult],
                 wall_seconds: float, jobs: int):
        self.plan = plan
        self.results = results
        self.wall_seconds = wall_seconds
        self.jobs = jobs

    # -- merged measurements -------------------------------------------
    def throughput(self) -> float:
        return sum(result.throughput for result in self.results)

    def served(self) -> int:
        return sum(result.served for result in self.results)

    def sessions_started(self) -> int:
        """Total simulated clients spawned (open-loop runs)."""
        return sum(
            result.extra.get("sessions_started", 0)
            for result in self.results
        )

    def sessions_finished(self) -> int:
        return sum(
            result.extra.get("sessions_finished", 0)
            for result in self.results
        )

    def completed(self, interaction: str) -> int:
        """Instances of ``interaction`` completed over every shard."""
        return sum(
            result.interactions.get(interaction, (0, 0.0))[0]
            for result in self.results
        )

    def mean_response(self, interaction: Optional[str] = None) -> float:
        count = 0
        total = 0.0
        for result in self.results:
            for name, (n, resp_sum) in result.interactions.items():
                if interaction is None or name == interaction:
                    count += n
                    total += resp_sum
        return total / count if count else 0.0

    def db_cpu_share(self) -> Dict[str, float]:
        weights: Dict[str, float] = {}
        for result in self.results:
            for name, weight in result.db_cpu_weights.items():
                weights[name] = weights.get(name, 0.0) + weight
        total = sum(weights.values())
        if total == 0:
            return {}
        return {name: 100.0 * w / total for name, w in weights.items()}

    def crosstalk_wait_ms(self) -> Dict[str, float]:
        merged: Dict[str, List[float]] = {}
        for result in self.results:
            for name, (count, wait) in result.crosstalk.items():
                cell = merged.setdefault(name, [0, 0.0])
                cell[0] += count
                cell[1] += wait
        return {
            name: 1000.0 * wait / count
            for name, (count, wait) in merged.items()
            if count
        }

    def db_utilization(self) -> float:
        """Mean busy fraction of the shards' database CPUs (TPC-W)."""
        return sum(
            result.extra["db_utilization"] for result in self.results
        ) / len(self.results)

    def hit_ratio(self) -> float:
        """Page-cache hit ratio over every shard's lookups (Haboob)."""
        hits = sum(result.extra["cache"][0] for result in self.results)
        lookups = hits + sum(result.extra["cache"][1] for result in self.results)
        return hits / lookups if lookups else 0.0

    def fault_report(self) -> Dict[str, int]:
        """Fault-injection totals summed over the shards ({} if none
        injected faults)."""
        report: Dict[str, int] = {}
        for result in self.results:
            for name, count in result.extra.get("faults", {}).items():
                report[name] = report.get(name, 0) + count
        return report

    def recovery_report(self) -> Dict[str, Any]:
        """The TPC-W shards' :meth:`~repro.apps.tpcw.TpcwResults.
        fault_report` dicts summed key by key, nested counters too ({}
        if no shard injected faults)."""

        def add(into: Dict[str, Any], report: Dict[str, Any]) -> None:
            for key, value in report.items():
                if isinstance(value, dict):
                    add(into.setdefault(key, {}), value)
                else:
                    into[key] = into.get(key, 0) + value

        merged: Dict[str, Any] = {}
        for result in self.results:
            add(merged, result.extra.get("recovery", {}))
        return merged

    def merged_metrics(self):
        """One registry holding every shard's telemetry metrics."""
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for result in self.results:
            registry.absorb(result.metrics)
        return registry

    def dump_bytes(self) -> int:
        return sum(result.dump_bytes for result in self.results)

    def dump_groups(self) -> List[List[str]]:
        """Per-shard dump path groups, in shard order (stitch input)."""
        return [list(result.dump_paths) for result in self.results]

    def shard_walls(self) -> List[float]:
        """Per-shard wall seconds, in shard order."""
        return [result.wall_seconds for result in self.results]

    def wall_skew(self) -> float:
        """Straggler factor: slowest shard wall over mean shard wall.

        1.0 means perfectly even shards.  The pool hands each idle
        worker the next queued shard, so a straggler delays only
        itself, but a run's wall is never below its slowest shard.
        """
        walls = self.shard_walls()
        if not walls:
            return 1.0
        mean = sum(walls) / len(walls)
        return max(walls) / mean if mean else 1.0

    # -- presentation phase --------------------------------------------
    def stitch(self, strict: bool = True):
        """Fold the spooled dumps into one merged profile, one shard at
        a time (:func:`repro.parallel.stitching.stitch_groups`)."""
        from repro.parallel.stitching import stitch_groups

        return stitch_groups(self.dump_groups(), strict=strict)


def _write_manifest(plan: ShardPlan, results: List[ShardResult]) -> Optional[str]:
    spool = plan.specs[0].spool_dir if plan.specs else ""
    if not spool:
        return None
    manifest = {
        "workload": plan.workload,
        "seed": plan.seed,
        "clients": plan.clients,
        "shards": plan.shards,
        "duration": plan.duration,
        "warmup": plan.warmup,
        "profile_format": plan.specs[0].profile_format,
        "groups": [
            {
                "index": result.index,
                "seed": result.seed,
                "clients": result.clients,
                "files": [os.path.basename(p) for p in result.dump_paths],
                "dir": f"shard-{result.index:04d}",
            }
            for result in results
        ],
    }
    path = os.path.join(spool, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return path


class WorkerError(RuntimeError):
    """A shard raised inside a worker; carries the remote traceback."""

    def __init__(self, index: int, message: str, remote_traceback: str):
        super().__init__(
            f"task {index} failed in worker: {message}\n{remote_traceback}"
        )
        self.index = index
        self.remote_traceback = remote_traceback


class WorkerLost(RuntimeError):
    """A worker process died; names the shards left without a result."""

    def __init__(self, unfinished: List[int]):
        super().__init__(
            "a worker process died; shards left unfinished: "
            + ", ".join(str(index) for index in unfinished)
        )
        self.unfinished = unfinished


def _run_on_executor(
    specs: List[ShardSpec], jobs: int, submit_order: Optional[List[int]]
) -> List[ShardResult]:
    """Run ``specs`` on a process pool; results come back in shard order.

    Futures are read in shard-index order, so the first failure met is
    the lowest-index one whatever finished first.  The pool is shut
    down (queued shards cancelled, workers joined) on every exit path.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    order = range(len(specs)) if submit_order is None else submit_order
    executor = ProcessPoolExecutor(max_workers=min(jobs, len(specs)))
    try:
        futures = {
            index: executor.submit(run_one_shard, specs[index]) for index in order
        }
        results = []
        for index in range(len(specs)):
            try:
                results.append(futures[index].result())
            except BrokenProcessPool as exc:
                # A broken pool fails every future it has not finished.
                raise WorkerLost([
                    i for i in sorted(futures)
                    if isinstance(futures[i].exception(), BrokenProcessPool)
                ]) from exc
            except Exception as exc:
                remote = getattr(exc.__cause__, "tb", "")
                raise WorkerError(index, repr(exc), remote) from exc
        return results
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def run_shards(
    plan: ShardPlan,
    jobs: int = 1,
    submit_order: Optional[List[int]] = None,
) -> ShardedRun:
    """Execute every shard of ``plan`` with up to ``jobs`` workers.

    ``jobs=1`` (or a one-shard plan) runs in-process; otherwise the
    shards run on a :class:`~concurrent.futures.ProcessPoolExecutor`
    of ``min(jobs, shards)`` workers that lives for this call only.
    Results always come back in shard-index order, so every downstream
    merge is independent of which worker ran which shard;
    ``submit_order`` permutes only the order shards are handed to the
    pool (the determinism tests randomise it).  A shard that raises is
    re-raised as :class:`WorkerError`, a worker that dies as
    :class:`WorkerLost`.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    specs = list(plan.specs)
    if submit_order is not None and sorted(submit_order) != list(range(len(specs))):
        raise ValueError("submit_order must permute range(len(plan.specs))")
    for spec in specs:
        if spec.spool_dir:
            os.makedirs(spec.spool_dir, exist_ok=True)
    start = time.perf_counter()
    if jobs == 1 or len(specs) <= 1:
        results = [run_one_shard(spec) for spec in specs]
    else:
        results = _run_on_executor(specs, jobs, submit_order)
    wall = time.perf_counter() - start
    _write_manifest(plan, results)
    return ShardedRun(plan, results, wall, jobs)
