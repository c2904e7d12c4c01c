"""Command-line interface: run the paper's case studies from a shell.

::

    python -m repro.cli apache            # §8.1: flow through shared memory
    python -m repro.cli squid             # §8.2: event contexts
    python -m repro.cli haboob            # §8.3: SEDA stage contexts
    python -m repro.cli tpcw --clients 100 --duration 120
    python -m repro.cli tpcw --caching --innodb
    python -m repro.cli table3            # emulation costs

Each subcommand builds the simulated system, runs it for the requested
virtual time, and prints the transactional profile (and, for TPC-W, the
Table-1-style summary).  ``tpcw``, ``haboob`` and ``openloop`` always
run as a shard plan (one shard without ``--shards``) and print from
what the shards leave behind: their results, dumps and rendered views.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from typing import List, Optional

from repro import telemetry
from repro.analysis import (
    render_crosstalk,
    render_stage_profile,
    render_telemetry,
    span_summary,
)
from repro.sim import Kernel, Rng
from repro.workloads import HttpClientPool, WebTrace


def _telemetry_setup(args: argparse.Namespace):
    """Install telemetry (before any system is built) per the flags.

    A planned run (``tpcw``, ``haboob``, ``openloop``) installs none
    here: each of its shards installs its own.
    """
    mode = getattr(args, "telemetry", "off")
    if mode == "off":
        for flag in ("trace_out", "metrics_out"):
            if getattr(args, flag, None):
                print(
                    f"warning: --{flag.replace('_', '-')} ignored (telemetry off)",
                    file=sys.stderr,
                )
        return None
    if hasattr(args, "shards"):
        return None
    return telemetry.install(mode)


def _telemetry_finish(args: argparse.Namespace, tele) -> None:
    """Write requested exports and print the live-telemetry summary."""
    if tele is None:
        return
    from repro.telemetry.export import write_prometheus, write_trace

    if args.trace_out:
        write_trace(args.trace_out, tele.spans, args.trace_format)
    metrics = tele.metrics if tele.wants_metrics else None
    if args.metrics_out and metrics is not None:
        write_prometheus(args.metrics_out, metrics)
    _print_telemetry(args, [span_summary(tele.spans)], metrics)


def _print_telemetry(args: argparse.Namespace, spans, metrics) -> None:
    """Name the written exports, then print the one telemetry summary
    over ``spans`` (span summaries) and ``metrics`` (``None``: spans
    only)."""
    if args.trace_out:
        count = sum(
            cell[0] for summary in spans for cell in summary["table"].values()
        )
        print(f"\nwrote {args.trace_format} trace ({count} spans) "
              f"to {args.trace_out}")
    if args.metrics_out:
        if metrics is not None:
            print(f"wrote Prometheus metrics to {args.metrics_out}")
        else:
            print(
                "warning: --metrics-out needs --telemetry full",
                file=sys.stderr,
            )
    print()
    print(render_telemetry(spans, metrics))


def cmd_apache(args: argparse.Namespace) -> int:
    from repro.apps.httpd import HttpdServer

    kernel = Kernel()
    trace = WebTrace(Rng(args.seed), objects=args.objects)
    server = HttpdServer(kernel, trace)
    server.start()
    HttpClientPool(kernel, server.listener_socket, trace, clients=args.clients).start()
    kernel.run(until=args.seconds)
    print(
        f"served {server.requests_served} requests, "
        f"{server.throughput_mbps():.1f} Mb/s"
    )
    print()
    print("lock classifications:")
    for lock, classification in server.region.detector.classifications().items():
        print(f"  {getattr(lock, 'name', lock):<30} {classification}")
    print()
    print(render_stage_profile(server.stage, min_share=1.0))
    _maybe_dot(args, server.stage)
    return 0


def _maybe_dot(args: argparse.Namespace, stage) -> None:
    """Write a graphviz rendering if --dot was given."""
    path = getattr(args, "dot", None)
    if not path:
        return
    from repro.analysis.dot import stage_profile_dot

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(stage_profile_dot(stage))
    print(f"\nwrote graphviz profile to {path}")


def cmd_squid(args: argparse.Namespace) -> int:
    from repro.apps.proxy import OriginServer, SquidConfig, SquidProxy

    kernel = Kernel()
    trace = WebTrace(Rng(args.seed), objects=args.objects)
    origin = OriginServer(kernel, size_of=lambda key: trace.size_of(key[1]))
    origin.start()
    squid = SquidProxy(
        kernel,
        origin.listener,
        config=SquidConfig(cache_bytes=args.cache_kb * 1024),
    )
    squid.start()
    HttpClientPool(kernel, squid.listener, trace, clients=args.clients).start()
    kernel.run(until=args.seconds)
    print(
        f"served {squid.responses_sent} responses, "
        f"{squid.throughput_mbps():.1f} Mb/s, "
        f"hit ratio {squid.cache.hit_ratio:.0%}"
    )
    print()
    print(render_stage_profile(squid.stage, min_share=1.0))
    _maybe_dot(args, squid.stage)
    return 0


@contextlib.contextmanager
def _spool_dir(args: argparse.Namespace):
    """The run's spool: ``--spool DIR``, or a scratch directory removed
    afterwards (the printer reads the shards' dumps either way)."""
    if args.spool:
        yield args.spool
        return
    with tempfile.TemporaryDirectory(prefix="whodunit-spool-") as scratch:
        yield scratch


def _run_plan(args: argparse.Namespace, workload: str, duration: float,
              warmup: float, params: dict, spool: str):
    """Plan and run ``args.shards`` shards; print the shard and fault
    lines every planned run starts with.  Returns the ShardedRun."""
    from repro.parallel import plan_shards, run_shards

    plan = plan_shards(
        workload,
        seed=args.seed,
        clients=args.clients,
        shards=args.shards,
        duration=duration,
        warmup=warmup,
        params=params,
        spool_dir=spool,
        profile_format=args.profile_format,
        telemetry_mode=args.telemetry,
        live=getattr(args, "live", False),
        live_dir=getattr(args, "live_dir", None) or "",
        live_interval=getattr(args, "live_interval", 5.0),
        live_resident=getattr(args, "live_resident", 512),
        live_top=getattr(args, "live_top", 10),
        trace_out=args.trace_out or "",
        trace_format=args.trace_format,
        metrics_out=args.metrics_out or "",
    )
    run = run_shards(plan, jobs=args.jobs)
    print(
        f"{args.shards} shards x {plan.specs[0].clients} clients, "
        f"{args.jobs} jobs, {run.wall_seconds:.2f}s wall"
    )
    report = run.fault_report()
    if report:
        print("faults: " + ", ".join(f"{k}={report[k]}" for k in sorted(report)))
    return run


def _print_run_tail(args: argparse.Namespace, run) -> None:
    """What any planned run ends with: where its dumps went, each
    shard's live view, and the telemetry summary."""
    if args.spool:
        print(f"spooled {run.dump_bytes()} profile bytes "
              f"({args.profile_format}) to {args.spool}")
    for result in run.results:
        live = result.extra.get("live")
        if live is not None:
            print()
            if len(run.results) > 1:
                print(f"-- shard {result.index} --")
            print(live["view"])
    if getattr(args, "live_dir", None):
        print(f"live checkpoints in {args.live_dir}/shard-*/ "
              f"(fold with: live-report {args.live_dir})")
    if args.telemetry != "off":
        _print_telemetry(
            args,
            [result.spans for result in run.results],
            run.merged_metrics() if args.telemetry == "full" else None,
        )


def cmd_haboob(args: argparse.Namespace) -> int:
    from repro.core.persist import load_stage

    params = {
        "objects": args.objects,
        "cache_kb": args.cache_kb,
        "fault_plan": args.faults or None,
        "fault_seed": args.fault_seed,
    }
    with _spool_dir(args) as spool:
        run = _run_plan(args, "haboob", args.seconds, 0.0, params, spool)
        print(
            f"served {run.served()} responses, "
            f"{run.throughput():.1f} Mb/s, "
            f"hit ratio {run.hit_ratio():.0%}"
        )
        # Haboob is one stage: fold the shards' dumps tree by tree.
        stage = None
        for (path,) in run.dump_groups():
            loaded = load_stage(path)
            if stage is None:
                stage = loaded
                continue
            for label, cct in loaded.ccts.items():
                stage.cct_for(label).merge(cct)
    print()
    print(render_stage_profile(stage, min_share=1.0))
    _maybe_dot(args, stage)
    _print_run_tail(args, run)
    return 0


def cmd_tpcw(args: argparse.Namespace) -> int:
    from repro.analysis import render_fault_report
    from repro.core.persist import load_run

    params = {
        "caching": args.caching,
        "innodb": args.innodb,
        "mix": args.mix,
        "fault_plan": args.faults or None,
        "fault_seed": args.fault_seed,
        "retries": args.retries,
        "retry_timeout": args.retry_timeout,
    }
    with _spool_dir(args) as spool:
        run = _run_plan(args, "tpcw", args.duration, args.warmup, params, spool)
        loaded = load_run(spool)
    print(
        f"throughput {run.throughput():.0f} interactions/min; "
        f"db CPU {run.db_utilization():.0%} busy; "
        f"mean response {run.mean_response() * 1000:.0f} ms"
    )
    print()
    shares = run.db_cpu_share()
    waits = run.crosstalk_wait_ms()
    print(f"{'interaction':<22}{'MySQL CPU %':>12}{'crosstalk ms':>14}{'mean resp ms':>14}")
    for name in sorted(shares, key=lambda n: -shares.get(n, 0)):
        # An interaction that completed nothing has no mean, not a 0 ms one.
        resp = (
            f"{run.mean_response(name) * 1000:.0f}" if run.completed(name) else "-"
        )
        print(
            f"{name:<22}{shares.get(name, 0):>12.2f}{waits.get(name, 0):>14.2f}"
            f"{resp:>14}"
        )
    print()
    print(render_crosstalk(loaded, limit=10))
    print()
    report = run.recovery_report()
    if report:
        print(render_fault_report(report))
    completeness = loaded.profile.completeness
    print(f"stitch completeness: {100.0 * completeness:.2f}%")
    _print_run_tail(args, run)
    if args.check_stitch and not report and completeness < 1.0:
        print("error: lossless run stitched below 100%", file=sys.stderr)
        return 1
    return 0


def _print_digest(profile) -> int:
    """Print the canonical SHA-256 of a stitched profile (CI proof)."""
    import hashlib

    from repro.parallel import canonical_profile_bytes

    print(hashlib.sha256(canonical_profile_bytes(profile)).hexdigest())
    return 0


def cmd_stitch(args: argparse.Namespace) -> int:
    """Post-mortem presentation phase: stitch stage dumps end to end."""
    import os

    from repro.analysis import render_flow_graph, render_stitched_profile
    from repro.core.persist import load_run, load_stage
    from repro.core.stitch import flow_graph, stitch_profiles

    # Non-strict by default: a dump set missing a tier (it crashed, or
    # its dump was never collected) still yields a partial profile with
    # an explicit completeness ratio instead of an abort.
    strict = bool(getattr(args, "strict", False))
    stages = None
    resolve_cache = {}
    try:
        if len(args.profiles) == 1 and os.path.isdir(args.profiles[0]):
            # A spool, --save-profiles dump or live checkpoint
            # directory: the loader `repro diff` uses.
            profile = load_run(args.profiles[0], strict=strict).profile
        else:
            stages = [load_stage(path) for path in args.profiles]
            profile = stitch_profiles(
                stages, cache=resolve_cache, strict=strict
            )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.digest:
        return _print_digest(profile)
    print(render_stitched_profile(profile, min_share=args.min_share))
    print(f"\ncompleteness {100.0 * profile.completeness:.2f}%")
    if stages is not None:
        print()
        print(render_flow_graph(
            flow_graph(stages, cache=resolve_cache, strict=strict)
        ))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Differential profiling: align two runs, attribute the change.

    Each side loads through :func:`repro.core.persist.load_run`, so any
    mix of dump files, dump/spool directories and live checkpoint
    directories can be compared.  ``--gate`` turns the diff into the CI
    regression gate: exit 1 when any context grew past the threshold.
    """
    import json as json_module

    from repro.analysis import (
        diff_runs,
        render_diff,
        render_gate,
        render_html_report,
    )
    from repro.core.persist import load_run

    strict = bool(args.strict)
    try:
        before = load_run(args.before, strict=strict)
        after = load_run(args.after, strict=strict)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    diff = diff_runs(before, after)

    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html_report(diff, top=args.top))
        print(f"wrote {args.html}", file=sys.stderr)

    if args.json:
        print(
            json_module.dumps(
                diff.to_dict(top=args.top), indent=2, sort_keys=True
            )
        )
    else:
        print(render_diff(diff, top=args.top, min_share=args.min_share))

    if args.gate:
        violations = diff.gate(
            threshold_pct=args.gate_threshold,
            min_share_pct=args.gate_min_share,
        )
        print()
        print(render_gate(diff, violations))
        if violations:
            return 1
    return 0


def cmd_live_report(args: argparse.Namespace) -> int:
    """Answer queries from live-collector checkpoint directories.

    Each collector directory is recovered once (bounded loss: anything
    newer than its last checkpoint is gone, by design).  The profile is
    :func:`repro.core.persist.fold_live_run`'s, the fold ``load_run``
    applies to a live directory: one collector is stitched as is, and a
    directory of ``shard-NNNN/`` collectors folds like the sharded
    post-mortem reduce, so the digest matches ``stitch --digest`` over
    the equivalent spool.  ``--compact`` first collapses each
    collector's chain to one file.
    """
    import os

    from repro.analysis import render_live_view, render_stitched_profile
    from repro.core.persist import fold_live_run, live_collectors
    from repro.live import list_checkpoints

    directory = args.directory
    if not os.path.isdir(directory):
        print(f"error: {directory!r} is not a directory", file=sys.stderr)
        return 2
    collectors = live_collectors(directory)
    if not collectors:
        print(f"error: no checkpoints in {directory!r}", file=sys.stderr)
        return 2
    strict = bool(args.strict)
    if args.compact:
        for _index, collector in collectors:
            collector.compact(strict=strict)
    profile = fold_live_run(directory, collectors, strict=strict).profile
    if args.digest:
        return _print_digest(profile)
    if collectors[0][0] is not None:
        checkpoint_files = sum(
            len(list_checkpoints(collector.directory))
            for _index, collector in collectors
        )
        print(
            f"recovered {len(collectors)} shard collectors "
            f"({checkpoint_files} checkpoint files)"
        )
        print()
    if args.top:
        for index, collector in collectors:
            if index is not None:
                print(f"-- shard {index} --")
            print(render_live_view(collector, k=args.top))
            print()
    print(render_stitched_profile(profile, min_share=args.min_share))
    print(f"\ncompleteness {100.0 * profile.completeness:.2f}%")
    return 0


def _parse_flash_crowds(values) -> list:
    """``start:duration:multiplier`` triples from repeated --flash flags."""
    crowds = []
    for value in values or []:
        parts = value.split(":")
        if len(parts) != 3:
            raise SystemExit(
                f"--flash wants START:DURATION:MULTIPLIER, got {value!r}"
            )
        crowds.append([float(parts[0]), float(parts[1]), float(parts[2])])
    return crowds


def _parse_think(value) -> Optional[dict]:
    """``pareto[:alpha[:min]]``, ``lognormal[:mu[:sigma]]`` or
    ``exp[:mean]`` into ThinkTime keyword arguments."""
    if not value:
        return None
    parts = value.split(":")
    kind, params = parts[0], parts[1:]
    if kind in ("exp", "exponential"):
        return {
            "distribution": "exponential",
            "mean": float(params[0]) if params else 1.0,
        }
    if kind == "pareto":
        return {
            "distribution": "pareto",
            "alpha": float(params[0]) if params else 1.5,
            "minimum": float(params[1]) if len(params) > 1 else 0.1,
        }
    if kind == "lognormal":
        return {
            "distribution": "lognormal",
            "mu": float(params[0]) if params else 0.0,
            "sigma": float(params[1]) if len(params) > 1 else 1.0,
        }
    raise SystemExit(f"unknown think-time distribution {kind!r}")


def cmd_openloop(args: argparse.Namespace) -> int:
    """Open-loop load generation, sharded: N simulated clients arrive
    as a (possibly diurnal/flash-crowd-shaped) Poisson process split
    deterministically across --shards independent deployments."""
    params = {
        "arrival_rate": args.rate,
        "total_clients": args.clients,
        "objects": args.objects,
        "cache_kb": args.cache_kb,
        "record_log": args.record_log,
    }
    if args.diurnal_amplitude:
        params["diurnal_amplitude"] = args.diurnal_amplitude
        params["diurnal_period"] = args.diurnal_period
    crowds = _parse_flash_crowds(args.flash)
    if crowds:
        params["flash_crowds"] = crowds
    think = _parse_think(args.think)
    if think:
        params["think"] = think
    run = _run_plan(args, "openloop", args.seconds, 0.0, params,
                    args.spool or "")
    print(
        f"{run.sessions_started()} sessions started "
        f"({run.sessions_finished()} finished) of {args.clients} planned"
    )
    print(
        f"served {run.served()} responses, {run.throughput():.1f} Mb/s "
        f"aggregate, mean response {run.mean_response() * 1000:.1f} ms"
    )
    print(f"shard skew x{run.wall_skew():.2f}")
    _print_run_tail(args, run)
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from repro.vm import Emulator, Machine
    from repro.vm.programs import BoundedQueue

    machine = Machine()
    queue = BoundedQueue(machine.memory)
    emulator = Emulator()
    print(f"{'critical section':<18}{'direct':>10}{'translate+emulate':>20}{'emulate only':>15}")
    for name, program, call_args in [
        ("ap_queue_push", queue.push_program, (1, 2)),
        ("ap_queue_pop", queue.pop_program, ()),
    ]:
        emulator.invalidate_cache()
        machine.registers("t").load_arguments(*call_args)
        direct = emulator.run(program, machine, "t", mode="direct")
        machine.registers("t").load_arguments(*call_args)
        first = emulator.run(program, machine, "t")
        machine.registers("t").load_arguments(*call_args)
        cached = emulator.run(program, machine, "t")
        print(
            f"{name:<18}{direct.cycles:>10.1f}{first.cycles:>20.1f}"
            f"{cached.cycles:>15.1f}"
        )
    return 0


def _seconds(text: str, zero_ok: bool) -> float:
    """A length in virtual seconds: finite and > 0 (>= 0 if ``zero_ok``).

    NaN or inf would never reach the horizon, and a run length <= 0 runs
    nothing and prints an empty profile.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (0.0 <= value if zero_ok else 0.0 < value) or value == float("inf"):
        bound = ">= 0" if zero_ok else "> 0"
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds {bound}, got {text!r}"
        )
    return value


def _run_seconds(text: str) -> float:
    """argparse type for a run length."""
    return _seconds(text, zero_ok=False)


def _warmup_seconds(text: str) -> float:
    """argparse type for a warm-up length."""
    return _seconds(text, zero_ok=True)


def _int_at_least(minimum: int):
    """argparse type for an integer >= ``minimum`` (a count of shards,
    worker processes, clients, objects, retries or table rows)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum}, got {text!r}"
            )
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _resident_bound(text: str) -> Optional[int]:
    """argparse type for --live-resident: an integer >= 0, where 0
    means unbounded (``None``)."""
    return _non_negative_int(text) or None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whodunit-repro",
        description="Run the Whodunit (EuroSys'07) case studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def telemetry_flags(p):
        p.add_argument(
            "--telemetry",
            choices=list(telemetry.MODES),
            default="off",
            help="live telemetry: spans only, or spans + metrics (full)",
        )
        p.add_argument(
            "--trace-out",
            metavar="FILE",
            help="write the span trace to FILE (requires --telemetry)",
        )
        p.add_argument(
            "--trace-format",
            choices=["chrome", "otlp"],
            default="chrome",
            help="trace file format (chrome = Perfetto-loadable)",
        )
        p.add_argument(
            "--metrics-out",
            metavar="FILE",
            help="write Prometheus text metrics (requires --telemetry full)",
        )

    def live_flags(p):
        p.add_argument(
            "--live",
            action="store_true",
            help="attach the online streaming stitcher for mid-run "
            "queries (needs no --telemetry)",
        )
        p.add_argument(
            "--live-dir",
            metavar="DIR",
            help="checkpoint live state into DIR every --live-interval "
            "(implies --live; enables bounded-memory eviction, crash "
            "recovery, and the live-report subcommand)",
        )
        p.add_argument(
            "--live-interval",
            type=_run_seconds,
            default=5.0,
            metavar="SECONDS",
            help="virtual seconds between live checkpoints",
        )
        p.add_argument(
            "--live-resident",
            type=_resident_bound,
            default=512,
            metavar="N",
            help="LRU bound on resident live CCTs; colder trees spill "
            "to the directory's log (0 = unbounded; needs --live-dir to bound)",
        )
        p.add_argument(
            "--live-top",
            type=_positive_int,
            default=10,
            metavar="K",
            help="rows in the end-of-run live top-contexts table",
        )

    def scale_flags(p):
        from repro.core.persist import PROFILE_FORMATS

        p.add_argument(
            "--shards",
            type=_positive_int,
            default=1,
            help="partition the client population into N deterministic "
            "shards, each a complete simulated deployment",
        )
        p.add_argument(
            "--jobs",
            type=_positive_int,
            default=1,
            help="worker processes for sharded runs "
            "(output is identical for any value)",
        )
        p.add_argument(
            "--profile-format",
            choices=list(PROFILE_FORMATS),
            default="v1",
            help="profile dump format: v1 = plain JSON, v2 = compact "
            "interned binary (5-10x smaller)",
        )
        p.add_argument(
            "--spool",
            metavar="DIR",
            help="spool per-shard profile dumps (and manifest) into DIR",
        )

    def save_profiles_flag(p):
        p.add_argument(
            "--save-profiles",
            dest="spool",
            metavar="DIR",
            help="the same as --spool DIR",
        )

    def fault_flags(p):
        p.add_argument(
            "--faults",
            metavar="SPEC",
            help="fault-injection spec string or JSON file "
            "(see docs/fault-injection.md), e.g. 'drop=0.01,dup=0.01'",
        )
        p.add_argument(
            "--fault-seed",
            type=int,
            default=0,
            help="seed for the fault RNG streams (deterministic per seed)",
        )

    def common(p, clients=6, seconds=3.0):
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--clients", type=_positive_int, default=clients)
        p.add_argument("--seconds", type=_run_seconds, default=seconds)
        p.add_argument("--objects", type=_positive_int, default=2000)
        p.add_argument("--dot", metavar="FILE", help="write graphviz profile")
        telemetry_flags(p)

    p = sub.add_parser("apache", help="threaded server, shared-memory flow (§8.1)")
    common(p)
    p.set_defaults(fn=cmd_apache)

    p = sub.add_parser("squid", help="event-driven proxy contexts (§8.2)")
    common(p)
    p.add_argument("--cache-kb", type=int, default=2048)
    p.set_defaults(fn=cmd_squid)

    p = sub.add_parser("haboob", help="SEDA stage contexts (§8.3)")
    common(p)
    p.add_argument("--cache-kb", type=int, default=512)
    fault_flags(p)
    scale_flags(p)
    save_profiles_flag(p)
    live_flags(p)
    p.set_defaults(fn=cmd_haboob)

    p = sub.add_parser("tpcw", help="three-tier bookstore (§8.4)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--clients", type=_positive_int, default=100)
    p.add_argument("--duration", type=_run_seconds, default=120.0)
    p.add_argument("--warmup", type=_warmup_seconds, default=30.0)
    p.add_argument("--caching", action="store_true", help="cache BestSellers/SearchResult")
    p.add_argument("--innodb", action="store_true", help="item table on InnoDB")
    p.add_argument(
        "--mix",
        choices=["browsing", "shopping", "ordering"],
        default="browsing",
        help="TPC-W interaction mix",
    )
    fault_flags(p)
    scale_flags(p)
    save_profiles_flag(p)
    p.add_argument(
        "--retries",
        type=_non_negative_int,
        default=3,
        help="RPC/client retry attempts under --faults (0 disables recovery)",
    )
    p.add_argument(
        "--retry-timeout",
        type=_run_seconds,
        default=0.25,
        help="first-attempt response timeout in virtual seconds "
        "(doubles per retry)",
    )
    p.add_argument(
        "--check-stitch",
        action="store_true",
        help="print the stitch completeness ratio; on a lossless run, "
        "exit non-zero below 100%%",
    )
    telemetry_flags(p)
    live_flags(p)
    p.set_defaults(fn=cmd_tpcw)

    p = sub.add_parser(
        "openloop",
        help="open-loop load: Poisson session arrivals with diurnal "
        "curves, flash crowds and heavy-tailed think times, sharded "
        "across worker processes",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--clients",
        type=_positive_int,
        default=10000,
        help="total simulated clients (session budget across all shards)",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=500.0,
        help="population-wide base session arrival rate per virtual second",
    )
    p.add_argument("--seconds", type=_run_seconds, default=30.0)
    p.add_argument("--objects", type=_positive_int, default=2000)
    p.add_argument("--cache-kb", type=int, default=512)
    p.add_argument(
        "--diurnal-amplitude",
        type=float,
        default=0.0,
        help="sinusoidal rate swing in [0,1): rate peaks at base*(1+A)",
    )
    p.add_argument(
        "--diurnal-period",
        type=float,
        default=86400.0,
        help="diurnal cycle length in virtual seconds",
    )
    p.add_argument(
        "--flash",
        action="append",
        metavar="START:DUR:MULT",
        help="flash crowd: multiply the rate by MULT for DUR seconds "
        "starting at START (repeatable)",
    )
    p.add_argument(
        "--think",
        metavar="DIST[:ARGS]",
        help="think time between requests: pareto[:alpha[:min]], "
        "lognormal[:mu[:sigma]] or exp[:mean]",
    )
    p.add_argument(
        "--record-log",
        action="store_true",
        help="keep the per-transaction log (off by default: million-"
        "session shards return O(1) aggregates)",
    )
    scale_flags(p)
    telemetry_flags(p)
    p.set_defaults(fn=cmd_openloop)

    p = sub.add_parser("table3", help="critical-section emulation cost")
    telemetry_flags(p)
    p.set_defaults(fn=cmd_table3)

    p = sub.add_parser(
        "stitch", help="stitch saved stage profiles into one end-to-end profile"
    )
    p.add_argument(
        "profiles",
        nargs="+",
        help="stage profile dumps (v1/v2), or one spool directory "
        "holding a sharded run's manifest",
    )
    p.add_argument("--min-share", type=float, default=0.5)
    p.add_argument(
        "--strict",
        action="store_true",
        help="abort on unresolvable synopses instead of emitting a "
        "partial profile",
    )
    p.add_argument(
        "--digest",
        action="store_true",
        help="print only the canonical SHA-256 of the stitched profile "
        "(the determinism proof used by CI)",
    )
    telemetry_flags(p)
    p.set_defaults(fn=cmd_stitch)

    p = sub.add_parser(
        "diff",
        help="differential profile: align two runs on (stage, context) "
        "and attribute the latency change",
    )
    p.add_argument(
        "before",
        help="baseline run: dump file(s)' directory, spool directory, "
        "live checkpoint directory, or a single dump file",
    )
    p.add_argument("after", help="candidate run (same forms as BEFORE)")
    p.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="rows per section (regressions, improvements, ...)",
    )
    p.add_argument(
        "--min-share",
        type=float,
        default=0.0,
        metavar="PCT",
        help="hide rows whose |delta| is below PCT%% of the larger "
        "run's total weight (display only; the gate has its own floor)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the full diff document as JSON instead of text",
    )
    p.add_argument(
        "--html",
        metavar="FILE",
        help="also write a self-contained HTML report (flamegraph "
        "pairs, crosstalk heatmap)",
    )
    p.add_argument(
        "--gate",
        action="store_true",
        help="CI mode: exit 1 when any context regressed past "
        "--gate-threshold (identical runs always pass)",
    )
    p.add_argument(
        "--gate-threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="max tolerated per-context growth, percent of baseline",
    )
    p.add_argument(
        "--gate-min-share",
        type=float,
        default=1.0,
        metavar="PCT",
        help="ignore regressions smaller than PCT%% of total weight "
        "(noise floor)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="abort on unresolvable synopses instead of diffing "
        "partial profiles (which are flagged low-confidence)",
    )
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser(
        "live-report",
        help="stitch/query a live collector's checkpoint directory "
        "(or a sharded run's parent directory of shard-*/ dirs)",
    )
    p.add_argument(
        "directory",
        help="checkpoint directory written by --live-dir",
    )
    p.add_argument("--min-share", type=float, default=0.5)
    p.add_argument(
        "--strict",
        action="store_true",
        help="abort on unresolvable synopses instead of emitting a "
        "partial profile",
    )
    p.add_argument(
        "--digest",
        action="store_true",
        help="print only the canonical SHA-256 of the recovered "
        "profile (byte-comparable against `stitch --digest`)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="K",
        help="also print the recovered live top-K view "
        "(single directory only)",
    )
    p.add_argument(
        "--compact",
        action="store_true",
        help="first collapse each collector's chain to one superseding "
        "full snapshot",
    )
    p.set_defaults(fn=cmd_live_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "shards"):
        if args.clients < args.shards:
            parser.error(
                f"argument --clients: must be >= --shards ({args.shards}), "
                f"got {args.clients}"
            )
        if args.shards > 1 and (args.trace_out or args.metrics_out):
            parser.error(
                "--trace-out and --metrics-out need a single shard: the "
                "spans and metrics of a sharded run stay in its shards"
            )
    tele = _telemetry_setup(args)
    try:
        status = args.fn(args)
        _telemetry_finish(args, tele)
        return status
    finally:
        if tele is not None:
            telemetry.uninstall()


if __name__ == "__main__":
    sys.exit(main())
