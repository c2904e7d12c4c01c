"""``run_shards`` on worker processes: a submission order that is not a
permutation, the lowest-index failure with its remote traceback,
a typed error naming the shards a dead worker left unfinished, and
tasks that pickle for every start method.
"""

import hashlib
import multiprocessing
import os
import pickle
import random
from dataclasses import replace

import pytest

from repro.parallel import (
    WorkerError,
    WorkerLost,
    canonical_profile_bytes,
    plan_shards,
    run_shards,
)
from repro.parallel import runner
from repro.parallel.runner import run_one_shard


def _plan(shards=4, **kwargs):
    return plan_shards("haboob", seed=5, clients=2 * shards, shards=shards,
                       duration=0.5, **kwargs)


def _summary(run):
    return [(r.index, r.seed, r.served, r.throughput, r.extra["cache"])
            for r in run.results]


def _die(spec):
    os._exit(3)


def test_submit_order_must_be_permutation():
    with pytest.raises(ValueError):
        run_shards(_plan(), jobs=2, submit_order=[0, 1, 1, 2])


def test_submit_order_is_checked_in_process_too():
    with pytest.raises(ValueError, match="permute"):
        run_shards(_plan(shards=2), jobs=1, submit_order=[0, 0, 7])


def test_lowest_index_worker_error_carries_remote_traceback():
    plan = _plan()
    for index in (3, 1):
        plan.specs[index] = replace(plan.specs[index], workload=f"missing-{index}")
    with pytest.raises(WorkerError) as caught:
        run_shards(plan, jobs=2, submit_order=[3, 2, 1, 0])
    assert caught.value.index == 1
    assert "missing-1" in str(caught.value)
    assert "KeyError" in caught.value.remote_traceback
    assert "run_one_shard" in caught.value.remote_traceback
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched runner reaches workers only through fork",
)
def test_dead_worker_names_the_unfinished_shard(monkeypatch):
    monkeypatch.setitem(runner._WORKLOAD_RUNNERS, "die", _die)
    plan = _plan()
    plan.specs[2] = replace(plan.specs[2], workload="die")
    with pytest.raises(WorkerLost) as caught:
        run_shards(plan, jobs=2)
    assert 2 in caught.value.unfinished
    assert caught.value.unfinished == sorted(caught.value.unfinished)
    assert "2" in str(caught.value)
    assert multiprocessing.active_children() == []


def test_tasks_pickle_for_every_start_method():
    # forkserver and spawn import the task function by name and pickle
    # every spec and result across the pipe.
    assert pickle.loads(pickle.dumps(run_one_shard)) is run_one_shard
    plan = _plan(shards=2, params={"objects": 500})
    for spec in plan.specs:
        assert pickle.loads(pickle.dumps(spec)) == spec
    for result in run_shards(plan, jobs=1).results:
        assert pickle.loads(pickle.dumps(result)) == result


def test_sharded_run_identical_under_random_submit_order(tmp_path):
    # A 4-shard Haboob run spools byte-identical dumps and stitches to
    # identical bytes whatever order the shards reach the workers.
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

    assert len({digest(tmp_path / f"run{i}") for i in range(3)}) == 1
