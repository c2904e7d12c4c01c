"""Unit tests for the simulation kernel: clock, scheduling, threads."""

import pytest

from repro.sim import Delay, Exit, Join, Kernel, Spawn
from repro.sim.kernel import Deadlock, SimulationError


def test_clock_starts_at_zero():
    kernel = Kernel()
    assert kernel.now == 0.0


def test_schedule_runs_callbacks_in_time_order():
    kernel = Kernel()
    seen = []
    kernel.schedule(2.0, seen.append, "b")
    kernel.schedule(1.0, seen.append, "a")
    kernel.schedule(3.0, seen.append, "c")
    kernel.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_run_in_fifo_order():
    kernel = Kernel()
    seen = []
    for tag in range(5):
        kernel.schedule(1.0, seen.append, tag)
    kernel.run()
    assert seen == [0, 1, 2, 3, 4]


def test_clock_advances_to_event_time():
    kernel = Kernel()
    times = []
    kernel.schedule(1.5, lambda: times.append(kernel.now))
    kernel.schedule(4.25, lambda: times.append(kernel.now))
    kernel.run()
    assert times == [1.5, 4.25]


def test_negative_delay_rejected():
    kernel = Kernel()
    with pytest.raises(ValueError):
        kernel.schedule(-1.0, lambda: None)


class Target:
    """A bare wheel target: records each firing's value and time."""

    def __init__(self, kernel, seen):
        self.kernel = kernel
        self.seen = seen

    def step(self, value=None):
        self.seen.append((value, self.kernel.now))


def test_schedule_at_fires_at_the_exact_timestamp():
    kernel = Kernel()
    seen = []
    kernel.schedule(0.3, lambda: None)
    kernel.run()
    # What a caller stepping its own clock holds after seven steps.
    when = kernel.now
    for _ in range(7):
        when += 0.1
    assert kernel.now + (when - kernel.now) != when  # why schedule() won't do
    kernel.wake_at(when, Target(kernel, seen), "x")
    kernel.run()
    assert seen == [("x", when)]


def test_schedule_at_rejects_the_past_and_non_finite_times():
    kernel = Kernel()
    target = Target(kernel, [])
    kernel.schedule(1.0, lambda: None)
    kernel.run()
    for when in (0.5, float("-inf")):
        with pytest.raises(ValueError, match="past"):
            kernel.wake_at(when, target)
    for when in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            kernel.wake_at(when, target)
    assert kernel.pending_events() == 0
    kernel.wake_at(kernel.now, target)  # now itself is allowed
    assert kernel.pending_events() == 1


def test_schedule_at_crosses_a_run_horizon():
    kernel = Kernel()
    seen = []
    kernel.wake_at(2.5, Target(kernel, seen), "late")
    kernel.wake_at(1.0, Target(kernel, seen), "on the horizon")
    assert kernel.run(until=1.0) == 1.0
    assert seen == [("on the horizon", 1.0)]
    assert kernel.pending_events() == 1
    assert kernel.run(until=2.0) == 2.0
    assert seen == [("on the horizon", 1.0)]
    kernel.run()
    assert seen == [("on the horizon", 1.0), ("late", 2.5)]
    assert kernel.now == 2.5


def test_cancelled_event_does_not_run():
    kernel = Kernel()
    seen = []
    event = kernel.schedule(1.0, seen.append, "x")
    event.cancel()
    kernel.run()
    assert seen == []


def test_run_until_stops_clock_at_horizon():
    kernel = Kernel()
    seen = []
    kernel.schedule(5.0, seen.append, "late")
    end = kernel.run(until=2.0)
    assert end == 2.0
    assert kernel.now == 2.0
    assert seen == []
    # A later run picks the event back up.
    kernel.run(until=10.0)
    assert seen == ["late"]


def test_run_until_with_empty_queue_advances_clock():
    kernel = Kernel()
    assert kernel.run(until=7.0) == 7.0


def test_run_rejects_a_horizon_in_the_past():
    kernel = Kernel()
    kernel.run(until=10.0)
    for until in (5.0, float("-inf")):
        with pytest.raises(ValueError, match="past"):
            kernel.run(until=until)
    assert kernel.now == 10.0
    assert kernel.run(until=10.0) == 10.0  # now itself is allowed


def test_run_rejects_non_finite_horizons():
    kernel = Kernel()
    seen = []
    kernel.schedule(1.0, seen.append, "a")
    kernel.schedule(100.0, seen.append, "b")
    for until in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            kernel.run(until=until)
    # Nothing ran, and the clock is still finite for the next schedule().
    assert seen == [] and kernel.now == 0.0
    assert kernel.pending_events() == 2
    kernel.schedule(1.0, seen.append, "c")
    kernel.run()
    assert seen == ["a", "c", "b"]


def test_stop_halts_the_loop():
    kernel = Kernel()
    seen = []
    kernel.schedule(1.0, kernel.stop)
    kernel.schedule(2.0, seen.append, "never")
    kernel.run()
    assert seen == []
    assert kernel.now == 1.0


def test_events_scheduled_during_run_execute():
    kernel = Kernel()
    seen = []

    def first():
        kernel.schedule(1.0, seen.append, "second")

    kernel.schedule(1.0, first)
    kernel.run()
    assert seen == ["second"]
    assert kernel.now == 2.0


def test_spawn_runs_generator_to_completion():
    kernel = Kernel()
    seen = []

    def worker():
        seen.append(kernel.now)
        yield Delay(3.0)
        seen.append(kernel.now)

    kernel.spawn(worker())
    kernel.run()
    assert seen == [0.0, 3.0]


def test_thread_return_value_via_join():
    kernel = Kernel()
    results = []

    def child():
        yield Delay(1.0)
        return 42

    def parent():
        thread = yield Spawn(child())
        value = yield Join(thread)
        results.append(value)

    kernel.spawn(parent())
    kernel.run()
    assert results == [42]


def test_join_on_finished_thread_returns_immediately():
    kernel = Kernel()
    results = []

    def child():
        return "done"
        yield  # pragma: no cover

    def parent(target):
        value = yield Join(target)
        results.append((kernel.now, value))

    child_thread = kernel.spawn(child())
    kernel.run()
    kernel.spawn(parent(child_thread))
    kernel.run()
    assert results == [(0.0, "done")]


def test_exit_terminates_thread_early():
    kernel = Kernel()
    seen = []

    def worker():
        seen.append("before")
        yield Exit()
        seen.append("after")  # pragma: no cover

    kernel.spawn(worker())
    kernel.run()
    assert seen == ["before"]


def test_yield_from_subroutine_composes():
    kernel = Kernel()
    seen = []

    def helper():
        yield Delay(1.0)
        return "sub"

    def worker():
        value = yield from helper()
        seen.append((kernel.now, value))

    kernel.spawn(worker())
    kernel.run()
    assert seen == [(1.0, "sub")]


def test_yielding_garbage_raises_type_error():
    kernel = Kernel()

    def worker():
        yield "not a syscall"

    kernel.spawn(worker())
    with pytest.raises(TypeError):
        kernel.run()


def test_thread_exception_propagates_to_joiner():
    kernel = Kernel()
    caught = []

    def child():
        yield Delay(1.0)
        raise ValueError("boom")

    def parent():
        thread = yield Spawn(child())
        try:
            yield Join(thread)
        except ValueError as exc:
            caught.append(str(exc))

    kernel.spawn(parent())
    with pytest.raises(ValueError):
        kernel.run()
    kernel.run()
    assert caught == ["boom"]


def test_deadlock_detected_on_unbounded_run():
    # Two threads joining each other can never finish.
    kernel = Kernel()
    holder = {}

    def a():
        yield Join(holder["b"])

    def b():
        yield Delay(0.1)
        yield Join(holder["a"])

    holder["a"] = kernel.spawn(a())
    holder["b"] = kernel.spawn(b())
    with pytest.raises(Deadlock):
        kernel.run()


def test_daemon_threads_do_not_trigger_deadlock():
    kernel = Kernel()
    holder = {}

    def server():
        yield Join(holder["never"])

    def never():
        yield Delay(1e12)

    holder["never"] = kernel.spawn(never())
    holder["never"].daemon = True
    thread = kernel.spawn(server())
    thread.daemon = True
    kernel.run(until=1.0)
    assert kernel.now == 1.0


def test_live_threads_listing():
    kernel = Kernel()

    def quick():
        yield Delay(1.0)

    def slow():
        yield Delay(5.0)

    kernel.spawn(quick(), name="quick")
    kernel.spawn(slow(), name="slow")
    kernel.run(until=2.0)
    names = [t.name for t in kernel.live_threads]
    assert names == ["slow"]


def test_livelock_detection():
    from repro.sim.kernel import SimulationError

    kernel = Kernel(livelock_limit=100)

    def spin():
        kernel.call_soon(spin)

    kernel.call_soon(spin)
    with pytest.raises(SimulationError, match="livelock"):
        kernel.run()


def test_same_time_batches_below_limit_are_fine():
    kernel = Kernel(livelock_limit=100)
    seen = []
    for i in range(90):
        kernel.schedule(1.0, seen.append, i)
    kernel.run()
    assert len(seen) == 90


def test_livelock_counter_resets_when_clock_advances():
    from repro.sim.kernel import SimulationError

    kernel = Kernel(livelock_limit=100)
    seen = []
    for t in range(5):
        for i in range(80):  # 80 < 100 at each timestamp
            kernel.schedule(float(t), seen.append, (t, i))
    kernel.run()
    assert len(seen) == 400


def test_pending_events_counts_uncancelled():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    event = kernel.schedule(2.0, lambda: None)
    event.cancel()
    assert kernel.pending_events() == 1


def test_finished_threads_are_reaped():
    """10k short-lived threads must not accumulate in the registry."""
    kernel = Kernel()
    done = []

    def short_lived(index):
        yield Delay(0.001)
        done.append(index)

    for index in range(10_000):
        kernel.schedule(index * 0.01, kernel.spawn, short_lived(index))
    kernel.run()
    assert len(done) == 10_000
    assert len(kernel._threads) == 0
    assert kernel.live_threads == []


def test_reaped_registry_still_detects_deadlock():
    """Reaping finished threads must not blind the deadlock check."""
    kernel = Kernel()
    holder = {}

    def finishes():
        yield Delay(0.1)

    def a():
        yield Join(holder["b"])

    def b():
        yield Delay(0.2)
        yield Join(holder["a"])

    kernel.spawn(finishes())
    holder["a"] = kernel.spawn(a())
    holder["b"] = kernel.spawn(b())
    with pytest.raises(Deadlock):
        kernel.run()


def test_join_works_after_target_reaped():
    kernel = Kernel()
    results = []

    def child():
        yield Delay(1.0)
        return "done"

    def parent(target):
        value = yield Join(target)
        results.append(value)

    target = kernel.spawn(child())
    kernel.run()
    assert len(kernel._threads) == 0  # child reaped
    kernel.spawn(parent(target))
    kernel.run()
    assert results == ["done"]


def test_finished_thread_handle_outlives_later_spawns():
    """A held handle keeps reading the thread it was returned for — dead,
    with its result and stage — however many threads come and go after."""
    kernel = Kernel()
    stage = object()

    def worker(value):
        yield Delay(0.0)
        return value

    held = kernel.spawn(worker("first"), stage=stage)
    kernel.run()
    for _ in range(40):
        for i in range(50):
            kernel.spawn(worker(i))
        kernel.run()
    assert len(kernel._threads) == 0
    assert held.alive is False
    assert held.result == "first"
    assert held.stage is stage

    live = [kernel.spawn(worker(i)) for i in range(4)]
    assert len({id(thread) for thread in live}) == 4
    assert len({thread.tid for thread in live}) == 4
    assert all(thread.alive for thread in live)
    kernel.run()


def test_cancelled_events_are_purged_lazily():
    kernel = Kernel()
    events = [kernel.schedule(1.0 + i, lambda: None) for i in range(1000)]
    keep = events[:50]
    for event in events[50:]:
        event.cancel()
    # The wheel was rebuilt without the dead weight once cancelled
    # entries dominated it.
    assert sum(len(bucket) for bucket in kernel._wheel.values()) < 200
    assert kernel.pending_events() == 50
    assert all(not e.cancelled for e in keep)
    kernel.run()
    assert kernel.pending_events() == 0


def test_cancel_after_run_is_harmless():
    kernel = Kernel()
    seen = []
    event = kernel.schedule(1.0, seen.append, "x")
    kernel.run()
    event.cancel()  # already executed; must not corrupt the counter
    assert seen == ["x"]
    assert kernel.pending_events() == 0
    kernel.schedule(1.0, seen.append, "y")
    assert kernel.pending_events() == 1
