"""Tests for the per-stage Whodunit runtime: sampling, CCT selection,
context propagation wrappers, and overhead models."""

import pytest

from repro.core.context import SynopsisRef, TransactionContext
from repro.core.profiler import (
    LOCAL,
    OverheadModel,
    ProfilerMode,
    StageRuntime,
    work,
)
from repro.sim import CPU, CurrentThread, Join, Kernel, Spawn, UseCPU
from repro.sim.process import frame


ZERO_OVERHEAD = OverheadModel(
    sample_cost=0.0,
    call_cost=0.0,
    synopsis_cost=0.0,
    switch_cost=0.0,
    call_density=0.0,
)


def make_stage(mode=ProfilerMode.WHODUNIT, hz=1000.0, overhead=ZERO_OVERHEAD, **kwargs):
    return StageRuntime("stage", mode=mode, sampling_hz=hz, overhead=overhead, **kwargs)


def run_worker(stage, body):
    kernel = Kernel()
    cpu = CPU(kernel)
    thread_box = {}

    def worker():
        thread = thread_box["t"]
        yield from body(thread, cpu)

    thread_box["t"] = kernel.spawn(worker(), name="w", stage=stage)
    kernel.run()
    return kernel


def test_deterministic_sampling_weight_equals_time_times_freq():
    stage = make_stage(hz=1000.0)

    def body(thread, cpu):
        with frame(thread, "main"):
            with frame(thread, "handle"):
                yield work(thread, cpu, 0.5)

    run_worker(stage, body)
    cct = stage.ccts[LOCAL]
    assert cct.weight_of(("main", "handle")) == pytest.approx(500.0)


def test_off_mode_records_nothing_and_adds_no_overhead():
    stage = make_stage(mode=ProfilerMode.OFF)

    def body(thread, cpu):
        with frame(thread, "main"):
            demand = yield work(thread, cpu, 0.5)
            assert demand == 0.5

    kernel = run_worker(stage, body)
    assert stage.ccts == {}
    assert kernel.now == pytest.approx(0.5)


def test_work_returns_its_use_cpu_with_the_inflated_demand():
    # gprof samples and instruments, and entering the frame queues one
    # call's cost: all three land in the one demand work() builds.
    overhead = OverheadModel(sample_cost=100e-6, call_cost=3e-6, call_density=2000.0)
    stage = make_stage(mode=ProfilerMode.GPROF, overhead=overhead)
    twin = make_stage(mode=ProfilerMode.GPROF, overhead=overhead)
    seen = {}

    def body(thread, cpu):
        with frame(thread, "main"):
            twin.add_pending(thread, overhead.call_cost)
            expected = twin.inflate(thread, 0.5)
            syscall = work(thread, cpu, 0.5)
            assert type(syscall) is UseCPU
            assert syscall.cpu is cpu and syscall.amount == expected
            assert stage.take_pending(thread) == 0.0  # folded in
            seen["served"] = yield syscall
            seen["expected"] = expected

    kernel = run_worker(stage, body)
    assert seen["expected"] > 0.5 + 0.5 * 1000.0 * overhead.sample_cost
    assert seen["served"] == seen["expected"] == kernel.now


def test_sampling_overhead_inflates_cpu_demand():
    overhead = OverheadModel(sample_cost=100e-6)
    stage = make_stage(mode=ProfilerMode.CSPROF, hz=1000.0, overhead=overhead)

    def body(thread, cpu):
        with frame(thread, "main"):
            yield work(thread, cpu, 1.0)

    kernel = run_worker(stage, body)
    # 1000 samples/s * 100us = 10% overhead
    assert kernel.now == pytest.approx(1.1)


def test_gprof_charges_per_call_and_counts_calls():
    overhead = OverheadModel(call_cost=1e-3, sample_cost=0.0, call_density=0.0)
    stage = make_stage(mode=ProfilerMode.GPROF, hz=0.0, overhead=overhead)

    def body(thread, cpu):
        with frame(thread, "main"):
            with frame(thread, "foo"):
                yield work(thread, cpu, 0.1)
            with frame(thread, "foo"):
                yield work(thread, cpu, 0.1)

    kernel = run_worker(stage, body)
    assert stage.total_calls == 3  # main, foo, foo
    # 0.2 useful + 3 calls * 1ms
    assert kernel.now == pytest.approx(0.203)
    assert stage.ccts[LOCAL].lookup(("main", "foo")).call_count == 2


def test_stochastic_sampling_converges_to_deterministic():
    det = make_stage(hz=2000.0)
    sto = StageRuntime(
        "stage",
        mode=ProfilerMode.WHODUNIT,
        sampling_hz=2000.0,
        overhead=ZERO_OVERHEAD,
        deterministic=False,
        seed=3,
    )

    def body(thread, cpu):
        with frame(thread, "main"):
            for _ in range(50):
                yield work(thread, cpu, 0.01)

    run_worker(det, body)
    run_worker(sto, body)
    expected = det.total_weight()
    observed = sto.total_weight()
    # 50 slices * 0.01s * 2000Hz = 1000 samples expected.
    assert expected == pytest.approx(1000.0)
    # Stochastic totals agree within a few standard deviations (~32).
    assert abs(observed - expected) < 5 * (expected ** 0.5)
    # Stochastic weights are integers.
    for cct in sto.ccts.values():
        for path, weight in cct.flatten().items():
            assert weight == int(weight)


def test_stochastic_sampling_is_seeded():
    def build(seed):
        stage = StageRuntime(
            "s",
            overhead=ZERO_OVERHEAD,
            deterministic=False,
            seed=seed,
            sampling_hz=500.0,
        )

        def body(thread, cpu):
            with frame(thread, "main"):
                yield work(thread, cpu, 0.1)

        run_worker(stage, body)
        return stage.total_weight()

    assert build(1) == build(1)


def test_gprof_call_density_inflates_with_useful_cpu():
    overhead = OverheadModel(
        sample_cost=0.0, call_cost=1e-6, call_density=100_000.0
    )
    stage = make_stage(mode=ProfilerMode.GPROF, hz=0.0, overhead=overhead)

    def body(thread, cpu):
        with frame(thread, "main"):
            yield work(thread, cpu, 1.0)

    kernel = run_worker(stage, body)
    # 100k calls/s * 1us = 10% mcount overhead, plus one frame push.
    assert kernel.now == pytest.approx(1.1 + 1e-6)


def test_csprof_has_no_call_density_overhead():
    overhead = OverheadModel(
        sample_cost=0.0, call_cost=1e-6, call_density=100_000.0
    )
    stage = make_stage(mode=ProfilerMode.CSPROF, hz=0.0, overhead=overhead)

    def body(thread, cpu):
        with frame(thread, "main"):
            yield work(thread, cpu, 1.0)

    kernel = run_worker(stage, body)
    assert kernel.now == pytest.approx(1.0)


def test_csprof_ignores_transaction_context_whodunit_uses_it():
    ctxt = TransactionContext(("listener",))

    def body(thread, cpu):
        thread.tran_ctxt = ctxt
        with frame(thread, "main"):
            yield work(thread, cpu, 0.1)

    whodunit = make_stage(mode=ProfilerMode.WHODUNIT, hz=100.0)
    run_worker(whodunit, body)
    assert ctxt in whodunit.ccts
    assert LOCAL not in whodunit.ccts

    csprof = make_stage(mode=ProfilerMode.CSPROF, hz=100.0)
    run_worker(csprof, body)
    assert list(csprof.ccts) == [LOCAL]


def test_separate_ccts_per_context_label():
    stage = make_stage(hz=100.0)
    a = TransactionContext(("A",))
    b = TransactionContext(("B",))

    def body(thread, cpu):
        with frame(thread, "main"):
            thread.tran_ctxt = a
            yield work(thread, cpu, 0.1)
            thread.tran_ctxt = b
            yield work(thread, cpu, 0.3)

    run_worker(stage, body)
    assert stage.ccts[a].total_weight() == pytest.approx(10.0)
    assert stage.ccts[b].total_weight() == pytest.approx(30.0)
    assert stage.total_weight() == pytest.approx(40.0)


def test_send_request_allocates_synopsis_and_remembers_origin_cct():
    stage = make_stage()
    kernel = Kernel()
    cpu = CPU(kernel)
    sent = {}

    def worker():
        thread = box["t"]
        with frame(thread, "main"):
            with frame(thread, "foo"):
                sent["syn"] = stage.send_request(thread)
        yield work(thread, cpu, 0.01)

    box = {}
    box["t"] = kernel.spawn(worker(), name="w", stage=stage)
    kernel.run()
    syn = sent["syn"]
    assert syn is not None
    assert stage.synopses.resolve(syn) == TransactionContext(("main", "foo"))


def test_context_at_send_includes_inherited_prefix():
    stage = make_stage()
    kernel = Kernel()
    cpu = CPU(kernel)
    out = {}

    def worker():
        thread = box["t"]
        thread.tran_ctxt = TransactionContext((SynopsisRef("web", 5),))
        with frame(thread, "svc"):
            out["ctxt"] = stage.context_at_send(thread)
        yield work(thread, cpu, 0.0)

    box = {}
    box["t"] = kernel.spawn(worker(), name="w", stage=stage)
    kernel.run()
    assert out["ctxt"].elements == (SynopsisRef("web", 5), "svc")


def test_request_response_round_trip_switches_contexts():
    """Caller sends, callee adopts, callee responds, caller switches back."""
    caller = StageRuntime("web")
    callee = StageRuntime("db")
    kernel = Kernel()
    cpu = CPU(kernel)
    box = {}
    log = {}

    def caller_thread():
        thread = box["caller"]
        original_ctxt = TransactionContext(("upstream",))
        thread.tran_ctxt = original_ctxt
        with frame(thread, "main"):
            with frame(thread, "foo"):
                syn = caller.send_request(thread)
                log["request_syn"] = syn
                # Hand off to the callee and wait for its response.
                callee_t = yield Spawn(callee_thread(), name="callee", stage=callee)
                box["callee"] = callee_t
                yield Join(callee_t)
                composite = log["response"]
                # While waiting, the caller may have served other work:
                thread.tran_ctxt = TransactionContext(("other",))
                assert caller.receive_response(thread, composite)
                # Switched back to the context active at send time.
                assert thread.tran_ctxt == original_ctxt
        yield work(thread, cpu, 0.0)

    def callee_thread():
        thread = yield CurrentThread()
        callee.receive_request(thread, "web", log["request_syn"])
        log["callee_ctxt"] = thread.tran_ctxt
        with frame(thread, "svc_run"):
            with frame(thread, "send"):
                log["response"] = callee.send_response(thread, log["request_syn"])
        yield work(thread, cpu, 0.0)

    box["caller"] = kernel.spawn(caller_thread(), name="caller", stage=caller)
    kernel.run()
    syn = log["request_syn"]
    assert caller.synopses.resolve(syn).elements == ("upstream", "main", "foo")
    assert log["callee_ctxt"].elements == (SynopsisRef("web", syn),)
    composite = log["response"]
    assert composite.prefix == syn
    assert callee.synopses.resolve(composite.suffix) == TransactionContext(
        ("svc_run", "send")
    )
    assert caller.synopses.is_own_prefix(composite)
    assert not callee.synopses.is_own_prefix(composite)


def test_receive_response_ignores_foreign_composites():
    stage = make_stage()
    kernel = Kernel()
    cpu = CPU(kernel)
    box = {}
    out = {}

    def worker():
        thread = box["t"]
        from repro.core.synopsis import CompositeSynopsis

        out["handled"] = stage.receive_response(thread, CompositeSynopsis(12345, 1))
        yield work(thread, cpu, 0.0)

    box["t"] = kernel.spawn(worker(), name="w", stage=stage)
    kernel.run()
    assert out["handled"] is False


def test_tracking_disabled_send_wrappers_are_noops():
    stage = make_stage(mode=ProfilerMode.CSPROF)
    kernel = Kernel()
    cpu = CPU(kernel)
    box = {}
    out = {}

    def worker():
        thread = box["t"]
        out["req"] = stage.send_request(thread)
        out["resp"] = stage.send_response(thread, 1)
        stage.receive_request(thread, "x", None)
        out["ctxt"] = thread.tran_ctxt
        yield work(thread, cpu, 0.0)

    box["t"] = kernel.spawn(worker(), name="w", stage=stage)
    kernel.run()
    assert out["req"] is None
    assert out["resp"] is None
    assert out["ctxt"] is None


def test_receive_response_pops_matched_request():
    """Regression: the sent-request entry must not outlive its response.

    Before the fix the map grew unboundedly and a stale prefix from an
    old request could be spuriously matched by a later response.
    """
    stage = make_stage()
    kernel = Kernel()
    cpu = CPU(kernel)
    box = {}
    out = {}

    def worker():
        from repro.core.synopsis import CompositeSynopsis

        thread = box["t"]
        with frame(thread, "main"):
            syn = stage.send_request(thread)
        assert stage.in_flight_requests == 1
        composite = CompositeSynopsis(syn, 1)
        out["first"] = stage.receive_response(thread, composite)
        out["in_flight"] = stage.in_flight_requests
        # A stale response carrying the same prefix no longer matches.
        out["stale"] = stage.receive_response(thread, composite)
        yield work(thread, cpu, 0.0)

    box["t"] = kernel.spawn(worker(), name="w", stage=stage)
    kernel.run()
    assert out["first"] is True
    assert out["in_flight"] == 0
    assert out["stale"] is False


def test_identical_in_flight_requests_each_match_a_response():
    stage = make_stage()
    kernel = Kernel()
    cpu = CPU(kernel)
    box = {}
    out = {}

    def worker():
        from repro.core.synopsis import CompositeSynopsis

        thread = box["t"]
        with frame(thread, "main"):
            first = stage.send_request(thread)
            second = stage.send_request(thread)
        assert first == second  # same context -> same synopsis
        assert stage.in_flight_requests == 1  # shared, refcounted entry
        composite = CompositeSynopsis(first, 1)
        out["matches"] = [
            stage.receive_response(thread, composite),
            stage.receive_response(thread, composite),
            stage.receive_response(thread, composite),
        ]
        yield work(thread, cpu, 0.0)

    box["t"] = kernel.spawn(worker(), name="w", stage=stage)
    kernel.run()
    # Two in-flight sends match exactly two responses; the third is stale.
    assert out["matches"] == [True, True, False]


def test_pending_overhead_reclaimed_when_thread_exits():
    """Regression: a thread exiting with queued overhead must not leak it."""
    stage = make_stage()
    kernel = Kernel()
    box = {}

    def worker():
        thread = box["t"]
        stage.add_pending(thread, 0.05)
        return
        yield  # pragma: no cover

    box["t"] = kernel.spawn(worker(), name="w", stage=stage)
    kernel.run()
    assert stage._pending == {}


def test_pending_overhead_reclaimed_when_thread_fails():
    stage = make_stage()
    kernel = Kernel()
    box = {}

    def worker():
        thread = box["t"]
        stage.add_pending(thread, 0.05)
        raise RuntimeError("boom")
        yield  # pragma: no cover

    box["t"] = kernel.spawn(worker(), name="w", stage=stage)
    with pytest.raises(RuntimeError):
        kernel.run()
    assert stage._pending == {}


def test_message_byte_accounting():
    stage = make_stage()
    stage.account_message(1000, 4)
    stage.account_message(500, 9)
    assert stage.comm_data_bytes == 1500
    assert stage.comm_context_bytes == 13


def test_pending_overhead_consumed_once():
    stage = make_stage(hz=0.0)
    kernel = Kernel()
    cpu = CPU(kernel)
    box = {}

    def worker():
        thread = box["t"]
        stage.add_pending(thread, 0.05)
        yield work(thread, cpu, 0.1)  # 0.15 total
        yield work(thread, cpu, 0.1)  # pending already consumed

    box["t"] = kernel.spawn(worker(), name="w", stage=stage)
    kernel.run()
    assert kernel.now == pytest.approx(0.25)
