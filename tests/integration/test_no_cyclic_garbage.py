"""Steady state makes no cyclic garbage.

Every object a running system drops must be freed by reference
counting.  A reference cycle on a hot path (a self-unregistering
closure, a parent back-link) leaves its objects for CPython's cyclic
collector, whose passes then cost a measurable share of a run.  Each
case warms up, collects, then keeps the system running with the
collector off; whatever one ``gc.collect()`` then finds is cyclic
garbage the steady state made.
"""

import gc
from contextlib import contextmanager

from repro.apps.haboob import HaboobConfig, HaboobServer
from repro.apps.tpcw import TpcwSystem
from repro.core.persist import load_run
from repro.live import attach_collector
from repro.parallel import plan_shards, run_shards
from repro.sim import Kernel, Rng
from repro.workloads import OpenLoopClientPool, WebTrace


@contextmanager
def collector_off():
    """Collect, switch the cyclic collector off, and restore it."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_tpcw_steady_state_makes_no_cyclic_garbage():
    system = TpcwSystem(clients=20, seed=42)
    system.start()
    kernel = system.kernel
    kernel.run(until=10.0)
    with collector_off():
        dispatched = system.squid.loop.dispatched
        kernel.run(until=20.0)
        assert system.squid.loop.dispatched > dispatched
        assert gc.collect() == 0


def test_live_collector_eviction_makes_no_cyclic_garbage(tmp_path):
    collector = attach_collector(
        None, directory=str(tmp_path), interval=2.0, max_resident=2
    )
    try:
        system = TpcwSystem(clients=10, seed=7)
        system.start()
        kernel = system.kernel
        kernel.run(until=6.0)
        with collector_off():
            evictions, revivals = collector.evictions, collector.revivals
            kernel.run(until=16.0)
            assert collector.evictions > evictions
            assert collector.revivals > revivals
            assert gc.collect() == 0
    finally:
        collector.close()


def test_load_and_stitch_make_no_cyclic_garbage(tmp_path):
    spool = str(tmp_path)
    run_shards(plan_shards(
        "tpcw", seed=42, clients=10, shards=2, duration=8.0, warmup=2.0,
        spool_dir=spool, profile_format="v2",
    ))

    def load_and_stitch():
        assert load_run(spool).profile.entries

    load_and_stitch()
    with collector_off():
        for _ in range(3):
            load_and_stitch()
        assert gc.collect() == 0


def test_haboob_steady_state_makes_no_cyclic_garbage():
    """The control: the SEDA server has no event-loop watches."""
    kernel = Kernel()
    trace = WebTrace(Rng(42), objects=200)
    server = HaboobServer(
        kernel, trace, config=HaboobConfig(cache_bytes=64 * 1024)
    )
    pool = OpenLoopClientPool(
        kernel, server.listener, trace, rng=Rng(42).stream("openloop"),
        arrival_rate=40.0,
    )
    server.start()
    pool.start()
    kernel.run(until=2.0)
    with collector_off():
        completed = pool.completed_requests
        kernel.run(until=5.0)
        assert pool.completed_requests > completed
        assert gc.collect() == 0
