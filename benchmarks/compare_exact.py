"""Compare the ``exact`` blocks of two ledger reports.

Run the ledger once in each tree, then compare::

    python3 benchmarks/ledger/run.py --scale 0.25 --seconds 1 --out base.json
    python3 benchmarks/ledger/run.py --scale 0.25 --seconds 1 --out head.json
    python3 benchmarks/compare_exact.py base.json head.json

A workload's ``exact`` block holds the profile ``digest``, every
``sim_stats.*``, ``ops``, ``stitch.*``, ``profile_err_pp`` and
``failed_share`` of the first repeat.  It is fixed by seed and scale,
so it needs no headroom: any difference is a change in what the
program computes, never host noise.  Exits 1 and prints each differing
key when the blocks differ, 0 when every workload's block is identical.
"""

import argparse
import json
import sys
from typing import Dict, List, Optional


def exact_blocks(path: str) -> Dict[str, dict]:
    """``{workload: exact block}`` from a ``run.py --out`` report."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    return {name: run["exact"] for name, run in report["sets"][0].items()}


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
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main())
