"""The ready slot against the wheel-only reference wakeup.

``Kernel.resume`` keeps the first wakeup at a fresh instant in a
one-entry slot ahead of the wheel (``repro.sim.kernel`` module
docstring).  The claim is that this is the same execution: every
``SimThread.step`` at the same virtual time, on the same thread, with
the same kind of value, in the same order, and the same profile bytes.
``wheel_resume`` is the wakeup as it was, always a wheel bucket entry;
everything here compares with ``==``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.haboob import HaboobConfig, HaboobServer
from repro.apps.httpd import HttpdServer
from repro.apps.proxy import OriginServer, SquidConfig, SquidProxy
from repro.apps.tpcw import TpcwSystem
from repro.channels import TIMED_OUT, Endpoint, Message, Recv, RetryPolicy, Send
from repro.core.stitch import stitch_profiles
from repro.parallel import canonical_profile_bytes
from repro.sim import Acquire, CurrentThread, Delay, Kernel, Mutex, Release, Rng
from repro.sim.kernel import Deadlock
from repro.sim.process import SimThread
from repro.workloads import HttpClientPool, OpenLoopClientPool, RateCurve, WebTrace
from tests.sim.reference_kernel import wheel_resume


def dispatch(system, reference):
    """Run ``system()``; return its dispatch trace, its result, and how
    many wakeups took the ready slot (always 0 under the reference)."""
    trace = []
    hits = [0]
    step = SimThread.step
    resume = Kernel.resume

    def traced_step(thread, value=None):
        trace.append((thread.kernel.now, thread.tid, type(value)))
        step(thread, value)

    def counted_resume(kernel, thread, value=None):
        empty = kernel._ready is None
        resume(kernel, thread, value)
        if empty and kernel._ready is not None:
            hits[0] += 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimThread, "step", traced_step)
        patch.setattr(Kernel, "resume", wheel_resume if reference else counted_resume)
        result = system()
    return trace, result, hits[0]


def assert_same_dispatch(system):
    reference_trace, reference_result, _ = dispatch(system, reference=True)
    trace, result, hits = dispatch(system, reference=False)
    assert trace == reference_trace
    assert result == reference_result
    return result, hits, len(trace)


def stitched_bytes(*runtimes):
    return canonical_profile_bytes(stitch_profiles(list(runtimes), strict=False))


def tpcw():
    results = TpcwSystem(clients=60, seed=1234).run(duration=10.0, warmup=2.0)
    return canonical_profile_bytes(results.stitch())


def tpcw_rpc_retries_under_faults():
    system = TpcwSystem(
        clients=30,
        seed=7,
        fault_plan="drop=0.05,dup=0.02,reorder=0.05:0.005",
        fault_seed=3,
        retry=RetryPolicy(timeout=0.3, retries=3, backoff=2.0),
    )
    results = system.run(duration=10.0, warmup=2.0)
    return canonical_profile_bytes(results.stitch(strict=False)), results.fault_report()


def haboob_open_loop():
    kernel = Kernel()
    trace = WebTrace(Rng(42), objects=500)
    server = HaboobServer(kernel, trace, config=HaboobConfig(cache_bytes=256 * 1024))
    pool = OpenLoopClientPool(
        kernel,
        server.listener,
        trace,
        rng=Rng(42).stream("openloop"),
        rate_curve=RateCurve(base_rate=40.0, flash_crowds=((1.0, 0.5, 2.0),)),
    )
    server.start()
    pool.start()
    # Horizon exits between slices, as the benchmark drives it.
    for horizon in (0.5, 1.0, 1.5, 2.0, 2.5):
        kernel.run(until=horizon)
    return stitched_bytes(server.stage_runtime), pool.completed_requests


def squid_event_loop():
    # examples/squid_event_profile.py, shorter.
    kernel = Kernel()
    trace = WebTrace(Rng(11), objects=5000, requests_per_connection_mean=4.0)
    origin = OriginServer(kernel, size_of=lambda key: trace.size_of(key[1]))
    origin.start()
    squid = SquidProxy(
        kernel, origin.listener, config=SquidConfig(cache_bytes=4 * 1024 * 1024)
    )
    squid.start()
    HttpClientPool(kernel, squid.listener, trace, clients=6).start()
    kernel.run(until=0.5)
    return stitched_bytes(squid.stage, origin.stage), squid.responses_sent


def apache_shared_memory():
    # examples/apache_shared_memory.py, shorter.
    kernel = Kernel()
    trace = WebTrace(Rng(7), objects=300, requests_per_connection_mean=3.0)
    server = HttpdServer(kernel, trace)
    server.start()
    HttpClientPool(kernel, server.listener_socket, trace, clients=6).start()
    kernel.run(until=0.3)
    return stitched_bytes(server.stage), server.requests_served


@pytest.mark.parametrize(
    "system", [tpcw, haboob_open_loop, squid_event_loop, apache_shared_memory]
)
def test_application_dispatch_equals_the_wheel_only_reference(system):
    _, hits, steps = assert_same_dispatch(system)
    # Most steps are same-instant wakeups, and most of those take the slot.
    assert hits > steps / 4


def test_rpc_retries_under_faults_dispatch_equals_the_reference():
    (_, report), hits, steps = assert_same_dispatch(tpcw_rpc_retries_under_faults)
    assert hits > steps / 4
    assert sum(report["injected"].values()) > 0
    assert sum(v for k, v in report.items() if k.endswith("_retransmits")) > 0


class Boom(Exception):
    pass


ops = st.one_of(
    st.just(("current",)),
    st.tuples(st.just("send"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("recv"), st.sampled_from([None, 0.0, 1e-3])),
    st.tuples(st.just("lock"), st.sampled_from([0.0, 1e-3])),
    st.tuples(st.just("delay"), st.sampled_from([0.0, 1e-3])),
    st.tuples(
        st.just("soon"), st.sampled_from(["log", "send", "stop", "raise", "send-raise"])
    ),
    st.tuples(st.just("cancel"), st.sampled_from([0.0, 1e-3])),
    st.just(("stop",)),
)
programs = st.lists(st.lists(ops, max_size=10), min_size=1, max_size=4)
horizons = st.lists(st.sampled_from([0.0, 5e-4, 1e-3, 2e-3]), max_size=3).map(sorted)


def mixed_program(program, horizon_list):
    """Threads mixing every kind of same-instant wakeup with handlers
    that stop the run or raise; returns what an observer can see."""
    kernel = Kernel()
    mutex = Mutex("m")
    inboxes = [Endpoint(kernel, 0.0, f"inbox-{i}") for i in range(len(program))]
    log = []

    def handler(tag, action, target):
        log.append(("handler", tag, kernel.now))
        if action in ("send", "send-raise"):
            # Delivery to a blocked receiver resumes it at this instant.
            inboxes[target].send(Message(tag))
        if action == "stop":
            kernel.stop()
        if action in ("raise", "send-raise"):
            raise Boom(tag)

    def body(index, script):
        for position, op in enumerate(script):
            tag = (index, position)
            kind = op[0]
            if kind == "current":
                yield CurrentThread()
            elif kind == "send":
                yield Send(inboxes[op[1] % len(inboxes)], Message(tag))
            elif kind == "recv":
                got = yield Recv(inboxes[index], timeout=op[1])
                log.append(("got", tag, kernel.now, got if got is TIMED_OUT else got.payload))
            elif kind == "lock":
                yield Acquire(mutex)
                yield Delay(op[1])
                yield Release(mutex)
            elif kind == "delay":
                yield Delay(op[1])
            elif kind == "soon":
                kernel.call_soon(handler, tag, op[1], (index + 1) % len(inboxes))
            elif kind == "cancel":
                kernel.schedule(op[1], log.append, ("timer", tag))
                kernel.schedule(op[1], log.append, ("cancelled", tag)).cancel()
            else:
                kernel.stop()
        log.append(("done", index, kernel.now))

    for index, script in enumerate(program):
        kernel.spawn(body(index, script))

    outcomes = []

    def drive(until):
        try:
            end = kernel.run(until=until)
        except Boom as exc:
            outcomes.append(("raised", exc.args[0], kernel.now, kernel.pending_events()))
        except Deadlock:
            outcomes.append(("deadlock", kernel.now))
            return False
        else:
            outcomes.append(("returned", end, kernel.pending_events()))
        return True

    for horizon in horizon_list:
        drive(horizon)
    for _ in range(100):
        if not drive(None) or kernel.pending_events() == 0:
            break
    return log, outcomes, kernel.now


@settings(max_examples=300, deadline=None)
@given(programs, horizons)
def test_mixed_programs_dispatch_equals_the_reference(program, horizon_list):
    assert_same_dispatch(lambda: mixed_program(program, horizon_list))
