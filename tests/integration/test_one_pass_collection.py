"""A finished run is freed by one garbage collection.

Threads still suspended when a run ends are closed by CPython's cyclic
collector, which raises GeneratorExit at each one's yield point.  A
thread body whose ``finally`` or ``except GeneratorExit`` then calls the
kernel, a pool, a queue or an endpoint wakes some other thread: the
kernel allocates a wake entry during the collection, CPython treats that
as resurrection, and the whole system (kernel, threads, endpoints)
survives until the next collection.  Each case builds and runs a system,
drops it, collects once, and checks that no kernel or thread it built is
left.
"""

import gc

import pytest

from repro.apps.haboob import HaboobConfig, HaboobServer
from repro.apps.httpd import HttpdServer
from repro.apps.proxy import OriginServer, SquidConfig, SquidProxy
from repro.apps.tpcw import TpcwSystem
from repro.channels.rpc import RetryPolicy
from repro.sim import Kernel, Rng
from repro.sim.process import SimThread
from repro.workloads import HttpClientPool, OpenLoopClientPool, WebTrace


def simulator_objects():
    return [
        obj for obj in gc.get_objects() if isinstance(obj, (Kernel, SimThread))
    ]


def assert_freed_in_one_pass(run):
    """``run()`` builds and runs a system and drops every reference."""
    gc.collect()
    gc.collect()
    before = simulator_objects()  # held, so no id in ``known`` is reused
    known = {id(obj) for obj in before}
    run()
    gc.collect()
    left = [obj for obj in simulator_objects() if id(obj) not in known]
    assert not left, f"{len(left)} kernels or threads survived one collection"


def run_saturated_tpcw():
    system = TpcwSystem(clients=200, seed=3)
    system.run(duration=5, warmup=1)
    # Handlers are parked on the DB pool: the case the rule is about.
    assert system.tomcat.db_pool._waiters


def run_lossy_tpcw_with_retries():
    system = TpcwSystem(
        clients=30,
        seed=7,
        fault_plan="drop=0.3,match=mysql",
        fault_seed=3,
        retry=RetryPolicy(timeout=0.05, retries=1),
    )
    system.run(duration=5, warmup=1)
    assert system.tomcat.db_timeouts > 0


def run_haboob():
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
    kernel.run(until=3.0)
    assert pool.completed_requests


def run_squid():
    kernel = Kernel()
    trace = WebTrace(Rng(11), objects=500, requests_per_connection_mean=4.0)
    origin = OriginServer(kernel, size_of=lambda key: trace.size_of(key[1]))
    origin.start()
    squid = SquidProxy(
        kernel, origin.listener, config=SquidConfig(cache_bytes=256 * 1024)
    )
    squid.start()
    HttpClientPool(kernel, squid.listener, trace, clients=6).start()
    kernel.run(until=1.0)
    assert squid.responses_sent


def run_apache():
    kernel = Kernel()
    trace = WebTrace(Rng(7), objects=300, requests_per_connection_mean=3.0)
    server = HttpdServer(kernel, trace)
    server.start()
    HttpClientPool(kernel, server.listener_socket, trace, clients=6).start()
    kernel.run(until=0.5)
    assert server.requests_served


@pytest.mark.parametrize(
    "run",
    [run_saturated_tpcw, run_lossy_tpcw_with_retries, run_haboob, run_squid,
     run_apache],
    ids=["tpcw-saturated", "tpcw-lossy-retries", "haboob", "squid", "apache"],
)
def test_finished_system_is_freed_in_one_collection(run):
    assert_freed_in_one_pass(run)
