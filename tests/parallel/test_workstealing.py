"""The work-stealing shard scheduler: determinism under any steal
order, persistent pool reuse, start-method safety, error propagation.
"""

import multiprocessing
import random

import pytest

from repro.parallel.scheduler import (
    WorkStealingPool,
    WorkerError,
    default_start_method,
    effective_jobs,
    get_pool,
    shutdown_pools,
)


def _square(value):
    return value * value


def _boom(value):
    if value % 2:
        raise ValueError(f"bad item {value}")
    return value


def _sleep_id(value):
    import time

    time.sleep(0.01 * (value % 3))
    return value


class TestWorkStealingPool:
    def test_results_in_item_order(self):
        with WorkStealingPool(3) as pool:
            assert pool.run(_square, range(20)) == [i * i for i in range(20)]

    def test_uneven_tasks_still_ordered(self):
        # Tasks deliberately finish out of submission order; results
        # must come back indexed like the input regardless.
        with WorkStealingPool(4) as pool:
            assert pool.run(_sleep_id, range(12)) == list(range(12))

    def test_randomized_steal_order_is_invisible(self):
        # The tentpole guarantee: the steal order (here forced via the
        # submission permutation) never changes what the caller sees.
        items = list(range(16))
        rng = random.Random(1234)
        with WorkStealingPool(4) as pool:
            baseline = pool.run(_square, items)
            for _ in range(5):
                order = list(range(len(items)))
                rng.shuffle(order)
                assert pool.run(_square, items, submit_order=order) == baseline

    def test_submit_order_must_be_permutation(self):
        with WorkStealingPool(2) as pool:
            with pytest.raises(ValueError):
                pool.run(_square, range(4), submit_order=[0, 1, 1, 2])

    def test_empty_items(self):
        with WorkStealingPool(2) as pool:
            assert pool.run(_square, []) == []

    def test_worker_error_carries_remote_traceback(self):
        with WorkStealingPool(2) as pool:
            with pytest.raises(WorkerError) as caught:
                pool.run(_boom, range(6))
            # Lowest failing index wins deterministically (1, 3, 5 fail).
            assert caught.value.index == 1
            assert "bad item 1" in str(caught.value)
            assert "ValueError" in caught.value.remote_traceback
            # A task failure must not poison the pool.
            assert pool.run(_square, range(4)) == [0, 1, 4, 9]

    def test_close_is_idempotent(self):
        pool = WorkStealingPool(2)
        assert pool.run(_square, [3]) == [9]
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run(_square, [1])

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="platform has no spawn start method",
    )
    def test_spawn_start_method(self):
        # Tasks pickle by reference, so the pool must work under spawn
        # (the forkserver/spawn-safety requirement).  Use a stdlib
        # callable: importable in any child regardless of test layout.
        import math

        with WorkStealingPool(2, start_method="spawn") as pool:
            assert pool.start_method == "spawn"
            assert pool.run(math.sqrt, [0.0, 1.0, 4.0, 9.0]) == [
                0.0, 1.0, 2.0, 3.0,
            ]


class TestSharedPool:
    def test_pool_persists_across_runs(self):
        # The satellite fix for parallel_gain_over_1job < 1: startup is
        # paid once, so consecutive runs reuse the same worker PIDs.
        pool = get_pool(2)
        try:
            pids_before = sorted(pool.worker_pids())
            pool.run(_square, range(8))
            pool.run(_square, range(8))
            assert get_pool(2) is pool
            assert sorted(pool.worker_pids()) == pids_before
        finally:
            shutdown_pools()

    def test_dead_pool_is_replaced(self):
        pool = get_pool(2)
        try:
            pool.close()
            replacement = get_pool(2)
            assert replacement is not pool
            assert replacement.run(_square, [5]) == [25]
        finally:
            shutdown_pools()

    def test_default_start_method_is_available(self):
        assert default_start_method() in multiprocessing.get_all_start_methods()

    def test_effective_jobs(self):
        assert effective_jobs(3) == 3
        assert effective_jobs(0) >= 1
        assert effective_jobs(None) >= 1


class TestShardRunnerStealOrder:
    def test_sharded_run_identical_under_random_steal_order(self, tmp_path):
        # End-to-end: a 4-shard Haboob run spools byte-identical dumps
        # and stitches to identical bytes no matter the submission
        # permutation driving the steal order.
        import hashlib

        from repro.parallel import (
            canonical_profile_bytes,
            plan_shards,
            run_shards,
            shutdown_pools,
        )

        def digest(spool):
            plan = plan_shards(
                "haboob", seed=11, clients=12, shards=4, duration=2.0,
                spool_dir=str(spool), profile_format="v2",
            )
            order = list(range(4))
            random.Random(spool.name).shuffle(order)
            run = run_shards(plan, jobs=2, submit_order=order)
            return hashlib.sha256(
                canonical_profile_bytes(run.stitch())
            ).hexdigest()

        try:
            digests = {digest(tmp_path / f"run{i}") for i in range(3)}
        finally:
            shutdown_pools()
        assert len(digests) == 1
