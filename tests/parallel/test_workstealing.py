"""Which worker runs a shard, and when, never shows in the results.

``run_shards`` hands each shard to whichever pool worker is free first,
so shards start and finish in an order that changes from run to run;
the results still come back indexed like the plan, equal to the
in-process run's.
"""

import random
from dataclasses import replace

from repro.parallel import plan_shards, run_shards


def _plan(shards=4):
    return plan_shards("haboob", seed=5, clients=2 * shards, shards=shards,
                       duration=0.5)


def _summary(run):
    return [(r.index, r.seed, r.served, r.throughput, r.extra["cache"])
            for r in run.results]


class TestWorkStealingPool:
    def test_results_in_item_order(self):
        baseline = _summary(run_shards(_plan(), jobs=1))
        assert [row[0] for row in baseline] == [0, 1, 2, 3]
        assert _summary(run_shards(_plan(), jobs=3)) == baseline

    def test_uneven_tasks_still_ordered(self):
        # The first shards simulate longest, so they finish after the
        # ones submitted behind them; results must still come back in
        # shard order.
        def uneven():
            plan = _plan()
            plan.specs = [replace(spec, duration=2.0 - 0.5 * spec.index)
                          for spec in plan.specs]
            return plan

        baseline = _summary(run_shards(uneven(), jobs=1))
        assert [row[0] for row in baseline] == [0, 1, 2, 3]
        assert _summary(run_shards(uneven(), jobs=4)) == baseline

    def test_randomized_steal_order_is_invisible(self):
        # The submission permutation forces the order in which workers
        # take shards; it never changes what the caller sees.
        baseline = _summary(run_shards(_plan(), jobs=1))
        rng = random.Random(1234)
        for _ in range(3):
            order = [0, 1, 2, 3]
            rng.shuffle(order)
            assert _summary(run_shards(_plan(), jobs=3, submit_order=order)) == baseline
