"""Profile the transaction hot path end-to-end (the perf-work harness).

Runs the seeded TPC-W and open-loop workloads under ``cProfile`` and
``tracemalloc`` and prints top-N tables of cumulative time, self time
and allocation sites.  This is the harness the hot-path optimisation
work is driven from: every per-transaction cost attacked in
``docs/performance.md`` (synopsis composites, context hashing, thread
wakeups, batched SEDA dequeue, span allocation) first showed up at the
top of these tables.

Not a pytest benchmark — run it directly::

    PYTHONPATH=src python benchmarks/profile_hotpath.py            # both
    PYTHONPATH=src python benchmarks/profile_hotpath.py tpcw
    PYTHONPATH=src python benchmarks/profile_hotpath.py openloop --top 25
    PYTHONPATH=src python benchmarks/profile_hotpath.py tpcw --telemetry spans

The workloads are deterministic (fixed seeds), so two runs of the same
tree profile the same virtual execution and tables diff cleanly across
commits.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from benchharness import fmt, print_table  # noqa: E402


def run_tpcw(clients: int = 60, duration: float = 40.0, warmup: float = 5.0):
    """The telemetry benchmark's TPC-W workload (seed 23)."""
    from repro.apps.tpcw import TpcwSystem

    system = TpcwSystem(clients=clients, seed=23)
    return system.run(duration=duration, warmup=warmup)


def run_openloop(sessions: int = 4000, duration: float = 120.0, rate: float = 60.0):
    """The scale-out benchmark's open-loop Haboob workload (seed 42)."""
    from repro.apps.haboob import HaboobConfig, HaboobServer
    from repro.sim import Kernel, Rng
    from repro.workloads import OpenLoopClientPool, WebTrace

    kernel = Kernel()
    trace = WebTrace(Rng(42), objects=2000)
    server = HaboobServer(
        kernel, trace, config=HaboobConfig(cache_bytes=512 * 1024)
    )
    server.start()
    pool = OpenLoopClientPool(
        kernel,
        server.listener,
        trace,
        arrival_rate=rate,
        rng=Rng(42).stream("openloop"),
        max_sessions=sessions,
        record_log=False,
    )
    pool.start()
    kernel.run(until=duration)
    return pool


WORKLOADS = {"tpcw": run_tpcw, "openloop": run_openloop}


def _stat_rows(stats: pstats.Stats, sort: str, top: int):
    stats.sort_stats(sort)
    rows = []
    for func in stats.fcn_list[:top]:  # type: ignore[attr-defined]
        cc, nc, tt, ct, _ = stats.stats[func]  # type: ignore[attr-defined]
        filename, line, name = func
        where = f"{Path(filename).name}:{line}" if line else filename
        rows.append([name, where, nc, fmt(tt, 3), fmt(ct, 3)])
    return rows


def profile_workload(name: str, top: int, telemetry_mode: str) -> None:
    from repro import telemetry

    run = WORKLOADS[name]
    if telemetry_mode != "off":
        telemetry.install(telemetry_mode)
    profiler = cProfile.Profile()
    tracemalloc.start(10)
    try:
        profiler.enable()
        run()
        profiler.disable()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        telemetry.uninstall()

    stats = pstats.Stats(profiler)
    for sort, title in (("cumulative", "cumulative time"), ("tottime", "self time")):
        print_table(
            f"{name} — top {top} by {title} (telemetry={telemetry_mode})",
            ["function", "where", "calls", "self s", "cum s"],
            _stat_rows(stats, sort, top),
        )

    alloc_rows = []
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        alloc_rows.append([
            f"{Path(frame.filename).name}:{frame.lineno}",
            stat.count,
            f"{stat.size / 1024.0:.1f} KiB",
        ])
    print_table(
        f"{name} — top {top} allocation sites (tracemalloc)",
        ["site", "blocks", "size"],
        alloc_rows,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "workload",
        nargs="*",
        choices=[*WORKLOADS, []],
        default=list(WORKLOADS),
        help="workloads to profile (default: all)",
    )
    parser.add_argument("--top", type=int, default=20, help="rows per table")
    parser.add_argument(
        "--telemetry",
        choices=("off", "spans", "full"),
        default="off",
        help="telemetry mode to profile under (default off)",
    )
    args = parser.parse_args(argv)
    for name in args.workload or list(WORKLOADS):
        profile_workload(name, args.top, args.telemetry)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
