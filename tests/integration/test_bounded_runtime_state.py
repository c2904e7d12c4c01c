"""Bounded runtime state under sustained traffic.

A production profiler must not grow per-request state without bound:
the kernel reaps finished request threads, a stage's sent-request map
tracks only in-flight requests, and pending-overhead entries die with
their thread.  This run pushes 10k requests through the RPC wrappers
in an open-loop style (a fresh short-lived client/server thread pair
per request) and asserts every piece of bookkeeping ends bounded.
"""

import pytest

from repro.channels import Connection
from repro.channels.rpc import call, recv_request, send_response
from repro.core.profiler import StageRuntime
from repro.sim import CurrentThread, Kernel
from repro.sim.process import frame
from tests.sim.later import call_later

REQUESTS = 10_000
SERVLETS = [f"servlet{index}" for index in range(10)]


@pytest.fixture(scope="module")
def open_loop_run():
    kernel = Kernel()
    web = StageRuntime("web")
    db = StageRuntime("db")
    completed = []

    def client(conn, servlet):
        thread = yield CurrentThread()
        with frame(thread, "main"):
            with frame(thread, servlet):
                response = yield from call(
                    thread, conn.to_server, conn.to_client, "query", 100
                )
                completed.append(response.payload)

    def server(conn):
        thread = yield CurrentThread()
        request = yield from recv_request(thread, conn.to_server)
        yield from send_response(thread, conn.to_client, request, "rows", 500)

    def spawn_request(index):
        conn = Connection(kernel)
        kernel.spawn(server(conn), name=f"server-{index}", stage=db)
        kernel.spawn(client(conn, SERVLETS[index % len(SERVLETS)]),
                     name=f"client-{index}", stage=web)

    # Open loop: arrivals at a fixed rate, regardless of completion.
    for index in range(REQUESTS):
        call_later(kernel, index * 1e-4, spawn_request, index)
    kernel.run()
    return kernel, web, db, completed


def test_all_requests_completed(open_loop_run):
    kernel, web, db, completed = open_loop_run
    assert len(completed) == REQUESTS


def test_thread_registry_is_bounded(open_loop_run):
    """20k spawned threads must not accumulate in the kernel."""
    kernel, web, db, completed = open_loop_run
    assert len(kernel._threads) == 0
    assert kernel.live_threads == []


def test_sent_request_map_is_bounded(open_loop_run):
    """Every matched response pops its entry: nothing in flight remains."""
    kernel, web, db, completed = open_loop_run
    assert web.in_flight_requests == 0
    assert db.in_flight_requests == 0


def test_pending_overhead_is_reclaimed(open_loop_run):
    kernel, web, db, completed = open_loop_run
    assert web._pending == {}
    assert db._pending == {}


def test_synopsis_tables_track_contexts_not_requests(open_loop_run):
    """10k requests over 10 distinct contexts allocate ~10 synopses."""
    kernel, web, db, completed = open_loop_run
    assert len(web.synopses) <= 2 * len(SERVLETS)
    assert len(db.synopses) <= 2 * len(SERVLETS)
