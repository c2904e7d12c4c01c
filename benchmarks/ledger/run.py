"""Layered cost ledger: the repository's benchmark.

    python3 benchmarks/ledger/run.py                     # all four workloads
    python3 benchmarks/ledger/run.py --workload haboob-open --seed 7
    python3 benchmarks/ledger/run.py --trace --out ledger.json
    python3 benchmarks/ledger/run.py --sets 2

Each workload runs in a fresh subprocess (``child.py``) with
``PYTHONHASHSEED=0``; this process only starts children, times their
set-up, checks their answers against ``layers.py`` and prints.  Every
metric is printed by name with its unit; the last line of a workload's
block is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics untraced, the per-layer metrics
with ``--trace``.  The exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
#: Scratch for spools, dumps and checkpoints; inside the checkout,
#: ignored by git, removed when the run ends.
WORK_ROOT = os.path.join(HERE, ".work")
READY = "LEDGER-READY"
RESULT = "LEDGER-RESULT"
#: One invocation must end well inside the driver's 180 s.
CHILD_LIMIT_S = 170.0
#: Host-speed samples taken just before a child starts and again just
#: after it reports ready (this process is idle in between).
SETUP_SPEED_SAMPLES = 20


class LedgerError(RuntimeError):
    """A child died, hung, or answered something layers.py does not know."""


def spawn(workload: str, args, workdir: str, phase: str) -> Dict[str, Any]:
    """Run one child.  Returns its set-up time (spawn to ``READY``, at
    nominal host speed and raw) and, for ``phase='run'``, its result."""
    command = [
        sys.executable, CHILD,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", str(args.scale),
        "--trace", str(args.trace),
        "--workdir", workdir,
        "--phase", phase,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    speed = hostspeed.Probe()
    speed.sample(SETUP_SPEED_SAMPLES)
    started = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env
    )
    watchdog = threading.Timer(CHILD_LIMIT_S, process.kill)
    watchdog.start()
    out: Dict[str, Any] = {}
    try:
        for line in process.stdout:
            if line.startswith(READY):
                raw = time.perf_counter() - started
                speed.sample(SETUP_SPEED_SAMPLES)
                out["setup_raw_s"] = raw
                out["setup_s"] = raw / speed.slowdown()
            elif line.startswith(RESULT):
                out["result"] = json.loads(line[len(RESULT):])
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    wanted = {"import": (), "setup": ("setup_s",), "run": ("setup_s", "result")}
    if code != 0 or any(key not in out for key in wanted[phase]):
        raise LedgerError(
            f"{workload}: child ({phase}) exited {code} without "
            f"{' / '.join(wanted[phase]) or 'finishing'}"
        )
    return out


def run_workload(workload: str, args) -> Dict[str, Any]:
    """All the children of one workload's run; returns its report."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)

    def fresh() -> str:
        return tempfile.mkdtemp(dir=workdir)

    try:
        # Byte-compile and page in the sources, so the first timed
        # set-up in a fresh checkout is not the one that compiles.
        spawn(workload, args, fresh(), "import")
        setups: List[Dict[str, Any]] = []
        if not args.trace:
            probes = layers.workload(workload).setup_samples - 1
            setups = [spawn(workload, args, fresh(), "setup") for _ in range(probes)]
        measured = spawn(workload, args, fresh(), "run")
        setups.append(measured)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    report = measured["result"]
    report["workload"] = workload
    if not args.trace:
        nominal = [s["setup_s"] for s in setups]
        report["end_to_end"]["setup_s"] = {
            "value": statistics.median(nominal),
            "min": min(nominal),
            "max": max(nominal),
            "n": len(nominal),
            "raw": statistics.median(s["setup_raw_s"] for s in setups),
        }
    return report


# ----------------------------------------------------------------------
# Checking against layers.py, printing
# ----------------------------------------------------------------------
def contract_metrics(report: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    """The result line's ``metrics``: every declared name, once.  A
    per-layer metric not measured on this workload reads 0."""
    workload = report["workload"]
    if not traced:
        values = {k: v["value"] for k, v in report["end_to_end"].items()}
        declared = layers.END_TO_END
    else:
        values = report["per_layer"]
        declared = layers.PER_LAYER
    names = {m.name for m in declared}
    unknown = sorted(set(values) - names)
    missing = sorted(
        m.name for m in declared
        if workload in m.workloads and m.name not in values
    )
    if unknown or missing:
        raise LedgerError(
            f"{workload}: answer does not match layers.py "
            f"(unknown {unknown}, missing {missing})"
        )
    return {
        m.name: {"value": values.get(m.name, 0.0), "unit": m.unit}
        for m in declared
    }


def print_report(report: Dict[str, Any], traced: bool) -> None:
    workload = report["workload"]
    metrics = contract_metrics(report, traced)
    print(f"\n## {workload}")
    if traced:
        rows = report["per_layer"]
        for layer in layers.LAYERS:
            print(f"# layer {layer.slug} ({layer.modules})")
            for metric in layer.metrics:
                shown = (
                    f"{rows[metric.name]:.6g}"
                    if workload in metric.workloads else "-"
                )
                print(f"{metric.name:36} {shown:>14} {metric.unit}")
    else:
        slowdown = report["host_slowdown"]
        print(
            f"# host ran at {slowdown:.3f}x the nominal loop time; host-time "
            "values are at nominal speed, raw beside them"
        )
        for metric in layers.END_TO_END:
            got = report["end_to_end"][metric.name]
            extra = ""
            if "n" in got:
                extra = (
                    f"  (min {got['min']:.6g} max {got['max']:.6g} "
                    f"n={got['n']}; raw median {got['raw']:.6g})"
                )
            print(f"{metric.name:36} {got['value']:>14.6g} {metric.unit}{extra}")
        exact = report["exact"]
        for name in ("failed_share", "profile_err_pp"):
            print(f"{name:36} {exact[name]:>14.6g} (exact for this seed)")
    for note in report["notes"]:
        print(f"# note: {note}")
    if workload == "haboob-open":
        print(
            "# note: arrivals are generated on the virtual clock, so the "
            "generator's lateness is 0 by construction"
        )
    for failure in report["failures"]:
        print(f"# CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


def compare_sets(sets: List[Dict[str, Dict[str, Any]]]) -> bool:
    """Do the first two sets agree, within each metric's own bound?"""
    print("\n## two sets: does the second agree with the first?")
    agree = True
    first, second = sets[0], sets[1]
    for workload in first:
        for metric in layers.END_TO_END:
            a = first[workload]["end_to_end"][metric.name]["value"]
            b = second[workload]["end_to_end"][metric.name]["value"]
            worse = (a - b) / a if metric.better == "higher" else (b - a) / a
            ok = worse <= metric.bound
            agree = agree and ok
            print(
                f"{workload:12} {metric.name:18} {a:>12.6g} {b:>12.6g} "
                f"{metric.unit:6} worse by {worse:+.1%} "
                f"(bound {metric.bound:.0%}) {'ok' if ok else 'DISAGREE'}"
            )
        same = first[workload]["exact"] == second[workload]["exact"]
        agree = agree and same
        print(
            f"{workload:12} exact metrics (every sim_stats.*, counts, "
            f"profile digest) {'identical' if same else 'DIFFER'}"
        )
    return agree


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=f"seed {layers.HELD_OUT_SEED} is held out: never tune on it",
    )
    parser.add_argument(
        "--workload", choices=[w.name for w in layers.WORKLOADS],
        help="run one workload (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=layers.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(layers.RUN_SECONDS),
        help="host seconds one untraced run measures for",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: climb the per-layer ladder instead of measuring end to end",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every workload's input (smoke tests only)",
    )
    parser.add_argument(
        "--sets", type=int, default=1,
        help="run everything this many times and compare the first two",
    )
    parser.add_argument("--out", help="write the full report (and spans) here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: no program to measure at {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else [w.name for w in layers.WORKLOADS]
    sets: List[Dict[str, Dict[str, Any]]] = []
    try:
        for _ in range(args.sets):
            reports: Dict[str, Dict[str, Any]] = {}
            for name in names:
                reports[name] = run_workload(name, args)
                print_report(reports[name], bool(args.trace))
            sets.append(reports)
    except LedgerError as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 2
    agree = True
    if args.sets >= 2 and not args.trace:
        agree = compare_sets(sets)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"seed": args.seed, "scale": args.scale,
                 "seconds": args.seconds, "trace": args.trace, "sets": sets},
                handle, indent=1,
            )
    failed = any(r["failed"] for reports in sets for r in reports.values())
    return 1 if failed or not agree else 0


if __name__ == "__main__":
    sys.exit(main())
