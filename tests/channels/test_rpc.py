"""Tests for the RPC wrappers: synopsis piggy-backing across stages."""

import pytest

from repro.channels import Connection
from repro.channels.rpc import (
    call,
    recv_request,
    recv_response,
    send_request,
    send_response,
    serve_one,
)
from repro.core.context import SynopsisRef, TransactionContext
from repro.core.profiler import LOCAL, ProfilerMode, StageRuntime
from repro.core.stitch import stitch_profiles
from repro.sim import CurrentThread, Kernel
from repro.sim.process import frame


def two_stage_setup(caller_mode=ProfilerMode.WHODUNIT, callee_mode=ProfilerMode.WHODUNIT):
    kernel = Kernel()
    conn = Connection(kernel)
    web = StageRuntime("web", mode=caller_mode)
    db = StageRuntime("db", mode=callee_mode)
    return kernel, conn, web, db


def test_request_carries_synopsis_and_response_round_trips():
    kernel, conn, web, db = two_stage_setup()
    log = {}

    def client():
        thread = yield CurrentThread()
        with frame(thread, "main"):
            with frame(thread, "foo"):
                response = yield from call(
                    thread, conn.to_server, conn.to_client, "query", 100
                )
                log["response"] = response
                log["ctxt_after"] = thread.tran_ctxt

    def server():
        thread = yield CurrentThread()
        thread.daemon = True
        request = yield from recv_request(thread, conn.to_server)
        log["server_ctxt"] = thread.tran_ctxt
        with frame(thread, "svc_run"):
            yield from send_response(
                thread, conn.to_client, request, "rows", 1000
            )

    kernel.spawn(client(), name="client", stage=web)
    kernel.spawn(server(), name="server", stage=db)
    kernel.run()

    # The server adopted a synopsis reference naming the web stage.
    ref = log["server_ctxt"].elements[0]
    assert isinstance(ref, SynopsisRef)
    assert ref.origin == "web"
    assert web.synopses.resolve(ref.value) == TransactionContext(("main", "foo"))
    # The caller recognised its own prefix and restored its context.
    assert log["ctxt_after"] is None  # original context was None
    composite = log["response"].synopsis
    assert web.synopses.is_own_prefix(composite)


def test_byte_accounting_request_and_response():
    kernel, conn, web, db = two_stage_setup()

    def client():
        thread = yield CurrentThread()
        yield from call(thread, conn.to_server, conn.to_client, "q", 100)

    def server():
        thread = yield CurrentThread()
        thread.daemon = True
        request = yield from recv_request(thread, conn.to_server)
        yield from send_response(thread, conn.to_client, request, "r", 900)

    kernel.spawn(client(), stage=web)
    kernel.spawn(server(), stage=db)
    kernel.run()
    assert web.comm_data_bytes == 100
    assert web.comm_context_bytes == 4  # request synopsis
    assert db.comm_data_bytes == 900
    assert db.comm_context_bytes == 9  # composite response synopsis


def test_untracked_stage_piggybacks_nothing():
    kernel, conn, web, db = two_stage_setup(caller_mode=ProfilerMode.CSPROF)
    log = {}

    def client():
        thread = yield CurrentThread()
        message = yield from send_request(thread, conn.to_server, "q", 10)
        log["msg"] = message

    def server():
        thread = yield CurrentThread()
        thread.daemon = True
        yield from recv_request(thread, conn.to_server)
        log["server_ctxt"] = thread.tran_ctxt

    kernel.spawn(client(), stage=web)
    kernel.spawn(server(), stage=db)
    kernel.run()
    assert log["msg"].synopsis is None
    assert log["server_ctxt"] is None
    assert web.comm_context_bytes == 0


def test_stageless_threads_can_use_wrappers():
    kernel = Kernel()
    conn = Connection(kernel)
    log = {}

    def client():
        thread = yield CurrentThread()
        yield from send_request(thread, conn.to_server, "q", 10)

    def server():
        thread = yield CurrentThread()
        thread.daemon = True
        msg = yield from recv_request(thread, conn.to_server)
        log["msg"] = msg

    kernel.spawn(client())
    kernel.spawn(server())
    kernel.run()
    assert log["msg"].origin is None


def test_serve_one_helper():
    kernel, conn, web, db = two_stage_setup()
    log = {}

    def client():
        thread = yield CurrentThread()
        with frame(thread, "main"):
            response = yield from call(
                thread, conn.to_server, conn.to_client, "ping", 4
            )
            log["reply"] = response.payload

    def handler(request):
        return (request.payload + "-pong", 8)
        yield  # pragma: no cover

    def server():
        thread = yield CurrentThread()
        thread.daemon = True
        with frame(thread, "svc_run"):
            yield from serve_one(thread, conn.to_server, conn.to_client, handler)

    kernel.spawn(client(), stage=web)
    kernel.spawn(server(), stage=db)
    kernel.run()
    assert log["reply"] == "ping-pong"


def test_two_transaction_paths_create_two_callee_contexts():
    """§5's foo/bar example: the callee's profile is kept separately per

    caller context, and stitching reproduces Fig 7's two trees.
    """
    kernel, conn, web, db = two_stage_setup()
    from repro.core.profiler import work
    from repro.sim import CPU

    cpu = CPU(kernel, name="db-cpu")

    def client():
        thread = yield CurrentThread()
        with frame(thread, "main_caller"):
            for proc in ["foo", "bar"]:
                with frame(thread, proc):
                    with frame(thread, "rpc_call"):
                        yield from call(
                            thread, conn.to_server, conn.to_client, proc, 10
                        )

    def server():
        thread = yield CurrentThread()
        thread.daemon = True
        with frame(thread, "main_callee"):
            with frame(thread, "svc_run"):
                for _ in range(2):
                    request = yield from recv_request(thread, conn.to_server)
                    with frame(thread, "callee_rpc_svc"):
                        yield work(thread, cpu, 0.01)
                    yield from send_response(
                        thread, conn.to_client, request, "ok", 10
                    )

    kernel.spawn(client(), stage=web)
    kernel.spawn(server(), stage=db)
    kernel.run()

    profile = stitch_profiles([web, db])
    db_contexts = profile.contexts_of("db")
    assert len(db_contexts) == 2
    foo_ctxt = TransactionContext(("main_caller", "foo", "rpc_call"))
    bar_ctxt = TransactionContext(("main_caller", "bar", "rpc_call"))
    assert set(db_contexts) == {foo_ctxt, bar_ctxt}
    path = ("main_callee", "svc_run", "callee_rpc_svc")
    assert profile.cct("db", foo_ctxt).weight_of(path) > 0
    assert profile.cct("db", bar_ctxt).weight_of(path) > 0
