"""Tests for SEDA stages and queues (Fig 5)."""

import pytest

from repro.core.context import TransactionContext
from repro.core.profiler import OverheadModel, ProfilerMode, StageRuntime, work

ZERO = OverheadModel(0.0, 0.0, 0.0, 0.0)
from repro.seda import Dequeue, SedaStage, StageEvent, StageQueue
from repro.sim import CPU, CurrentThread, Delay, Kernel


def ctxt(*elements):
    return TransactionContext(elements)


def test_stage_queue_fifo():
    kernel = Kernel()
    queue = StageQueue(kernel)
    got = []

    def worker():
        for _ in range(3):
            element = yield Dequeue(queue)
            got.append(element.payload)

    kernel.spawn(worker())
    for i in range(3):
        queue.enqueue(StageEvent(i))
    kernel.run()
    assert got == [0, 1, 2]


def test_dequeue_blocks_until_enqueue():
    kernel = Kernel()
    queue = StageQueue(kernel)
    got = []

    def worker():
        element = yield Dequeue(queue)
        got.append((element.payload, kernel.now))

    def producer():
        yield Delay(1.5)
        queue.enqueue(StageEvent("x"))

    kernel.spawn(worker())
    kernel.spawn(producer())
    kernel.run()
    assert got == [("x", 1.5)]


def test_contexts_accumulate_through_stages():
    kernel = Kernel()
    runtime = StageRuntime("haboob")
    contexts = []

    def make_handler(downstream):
        def handler(stage, thread, payload):
            contexts.append((stage.name, thread.tran_ctxt))
            if downstream is not None:
                stage.enqueue(thread, downstream.input_queue, payload)
            return
            yield  # pragma: no cover

        return handler

    write_stage = SedaStage(kernel, "WriteStage", make_handler(None), stage_runtime=runtime)
    cache_stage = SedaStage(kernel, "CacheStage", make_handler(write_stage), stage_runtime=runtime)
    read_stage = SedaStage(kernel, "ReadStage", make_handler(cache_stage), stage_runtime=runtime)
    for stage in (write_stage, cache_stage, read_stage):
        stage.start()

    read_stage.inject("req-1")
    kernel.run(until=1.0)
    assert contexts == [
        ("ReadStage", ctxt("ReadStage")),
        ("CacheStage", ctxt("ReadStage", "CacheStage")),
        ("WriteStage", ctxt("ReadStage", "CacheStage", "WriteStage")),
    ]


def test_stage_loop_pruning_on_rpc_like_return():
    kernel = Kernel()
    runtime = StageRuntime("seda")
    contexts = []
    hops = []

    def a_handler(stage, thread, payload):
        contexts.append(thread.tran_ctxt)
        if len(hops) < 3:
            hops.append(1)
            stage.enqueue(thread, b.input_queue, payload)
        return
        yield  # pragma: no cover

    def b_handler(stage, thread, payload):
        contexts.append(thread.tran_ctxt)
        stage.enqueue(thread, a.input_queue, payload)
        return
        yield  # pragma: no cover

    a = SedaStage(kernel, "A", a_handler, stage_runtime=runtime)
    b = SedaStage(kernel, "B", b_handler, stage_runtime=runtime)
    a.start()
    b.start()
    a.inject("x")
    kernel.run(until=1.0)
    # A→B→A→B...: the loop prunes, contexts cycle between [A] and [A, B].
    assert set(c.elements for c in contexts) == {("A",), ("A", "B")}


def test_multiple_workers_share_the_input_queue():
    kernel = Kernel()
    runtime = StageRuntime("seda")
    served = []

    def handler(stage, thread, payload):
        yield Delay(1.0)
        served.append((thread.name, payload))

    stage = SedaStage(kernel, "S", handler, workers=3, stage_runtime=runtime)
    stage.start()
    for i in range(3):
        stage.inject(i)
    kernel.run(until=1.5)
    assert len(served) == 3
    assert len({name for name, _ in served}) == 3  # all three workers ran
    assert stage.processed == 3


def test_samples_annotated_with_stage_context():
    kernel = Kernel()
    cpu = CPU(kernel)
    runtime = StageRuntime("haboob", mode=ProfilerMode.WHODUNIT, overhead=ZERO)

    def cache_handler(stage, thread, payload):
        yield work(thread, cpu, 0.2)
        stage.enqueue(thread, write.input_queue, payload)

    def write_handler(stage, thread, payload):
        yield work(thread, cpu, 0.4)

    cache = SedaStage(kernel, "CacheStage", cache_handler, stage_runtime=runtime)
    write = SedaStage(kernel, "WriteStage", write_handler, stage_runtime=runtime)
    cache.start()
    write.start()
    cache.inject("r")
    kernel.run(until=2.0)

    hz = runtime.sampling_hz
    cache_cct = runtime.ccts[ctxt("CacheStage")]
    write_cct = runtime.ccts[ctxt("CacheStage", "WriteStage")]
    assert cache_cct.total_weight() == pytest.approx(0.2 * hz)
    assert write_cct.total_weight() == pytest.approx(0.4 * hz)
    assert cache_cct.weight_of(("stage_loop", "CacheStage")) > 0


def test_inject_has_empty_context():
    kernel = Kernel()
    queue = StageQueue(kernel)
    stage = SedaStage(kernel, "S", lambda s, t, p: iter(()))
    stage.inject("x")
    element = stage.input_queue._elements[0]
    assert element.tran_ctxt == TransactionContext.empty()


def test_enqueue_counts():
    kernel = Kernel()
    queue = StageQueue(kernel)
    queue.enqueue(StageEvent("a"))
    queue.enqueue(StageEvent("b"))
    assert queue.enqueued == 2
    assert len(queue) == 2


def test_bounded_queue_rejects_when_full():
    kernel = Kernel()
    queue = StageQueue(kernel, capacity=2)
    assert queue.enqueue(StageEvent(1))
    assert queue.enqueue(StageEvent(2))
    assert not queue.enqueue(StageEvent(3))  # admission control
    assert queue.rejected == 1
    assert len(queue) == 2


def test_bounded_queue_admits_when_worker_waiting():
    kernel = Kernel()
    queue = StageQueue(kernel, capacity=1)
    got = []

    def worker():
        element = yield Dequeue(queue)
        got.append(element.payload)

    kernel.spawn(worker())
    kernel.run(until=0.1)
    # The worker is parked: direct handoff bypasses the buffer bound.
    assert queue.enqueue(StageEvent("direct"))
    kernel.run(until=0.2)
    assert got == ["direct"]


def test_bounded_queue_capacity_validation():
    with pytest.raises(ValueError):
        StageQueue(Kernel(), capacity=0)


def test_overloaded_stage_sheds_load():
    """A slow bounded stage rejects the excess instead of queueing it."""
    kernel = Kernel()
    runtime = StageRuntime("seda")
    done = []

    def slow_handler(stage, thread, payload):
        yield Delay(1.0)
        done.append(payload)

    stage = SedaStage(
        kernel, "Slow", slow_handler, workers=1,
        stage_runtime=runtime, queue_capacity=2,
    )
    stage.start()
    kernel.run(until=0.0)  # let the worker park on the queue
    accepted = sum(1 for i in range(10) if stage.inject(i))
    kernel.run(until=10.0)
    # 1 handed to the waiting worker + 2 buffered = 3 accepted.
    assert accepted == 3
    assert stage.input_queue.rejected == 7
    assert len(done) == 3
