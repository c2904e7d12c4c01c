"""Compare the ``exact`` blocks and peak RSS of two ledger reports.

Run the ledger once in each tree, then compare::

    python3 benchmarks/ledger/run.py --scale 0.25 --seconds 1 --out base.json
    python3 benchmarks/ledger/run.py --scale 0.25 --seconds 1 --out head.json
    python3 benchmarks/compare_exact.py base.json head.json

A workload's ``exact`` block holds the profile ``digest``, every
``sim_stats.*``, ``ops``, ``stitch.*``, ``profile_err_pp`` and
``failed_share`` of the first repeat.  It is fixed by seed and scale,
so it needs no headroom: any difference is a change in what the
program computes, never host noise.  Each differing key is printed.

Each workload's ``end_to_end.peak_rss_mb`` is printed base -> head as
well; head may exceed base by at most the ``peak_rss_mb`` bound that
``BENCHMARK.json`` declares (a fraction of base).  A workload missing
the metric on either side is not compared.

Exits 1 when an exact block differs or peak RSS grows past the bound,
0 otherwise.
"""

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

BENCHMARK = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json"
)


def first_set(path: str) -> Dict[str, dict]:
    """``{workload: report}`` of the first set of a ``run.py --out`` file."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["sets"][0]


def exact_blocks(path: str) -> Dict[str, dict]:
    """``{workload: exact block}`` from a ``run.py --out`` report."""
    return {name: run["exact"] for name, run in first_set(path).items()}


def peak_rss(path: str) -> Dict[str, float]:
    """``{workload: peak_rss_mb}`` of the workloads that report it."""
    out = {}
    for name, run in first_set(path).items():
        metric = run.get("end_to_end", {}).get("peak_rss_mb")
        if metric is not None:
            out[name] = metric["value"]
    return out


def rss_bound() -> float:
    """The ``peak_rss_mb`` bound declared in ``BENCHMARK.json``."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    return next(m["bound"] for m in declared if m["name"] == "peak_rss_mb")


def rss_rows(
    base: Dict[str, float], head: Dict[str, float], bound: float
) -> List[Tuple[str, bool]]:
    """``(line, grew_past_bound)`` per workload measured on both sides."""
    rows = []
    for workload in sorted(set(base) & set(head)):
        old, new = base[workload], head[workload]
        change = new / old - 1.0 if old else 0.0
        line = f"{workload} peak_rss_mb: {old:.2f} -> {new:.2f} MiB ({change:+.1%})"
        rows.append((line, change > bound))
    return rows


def differences(base: Dict[str, dict], head: Dict[str, dict]) -> List[str]:
    """One line per workload or key whose exact value differs."""
    rows = []
    for workload in sorted(set(base) | set(head)):
        if workload not in head or workload not in base:
            side = "base" if workload in base else "head"
            rows.append(f"{workload}: only in {side}")
            continue
        before, after = base[workload], head[workload]
        for key in sorted(set(before) | set(after)):
            # Compared as JSON text, so a NaN equals itself.
            old = json.dumps(before.get(key))
            new = json.dumps(after.get(key))
            if old != new:
                rows.append(f"{workload} {key}: {old} -> {new}")
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="ledger report of the baseline tree")
    parser.add_argument("head", help="ledger report of the tree under test")
    args = parser.parse_args(argv)
    base, head = exact_blocks(args.base), exact_blocks(args.head)
    rows = differences(base, head)
    for row in rows:
        print(f"DIFFERS {row}")
    verdict = "differ" if rows else "identical"
    print(f"exact blocks of {len(set(base) | set(head))} workloads: {verdict}")
    bound = rss_bound()
    grown = 0
    for line, grew in rss_rows(peak_rss(args.base), peak_rss(args.head), bound):
        print(f"{'GROWS' if grew else 'RSS'} {line}")
        grown += grew
    print(f"peak_rss_mb grew past +{bound:.0%} on {grown} workloads")
    return 1 if rows or grown else 0


if __name__ == "__main__":
    sys.exit(main())
