"""Timer-wheel semantics: cancellation, ordering, counters.

The kernel's event queue is a hashed wheel (dict buckets keyed by exact
timestamp plus a heap of distinct times) rather than a heap of event
objects.  These tests pin the observable semantics the rewrite must
preserve: FIFO order within a timestamp, zero-delay interleaving with
``call_soon``, O(1) cancellation that never corrupts the pending-event
counter, livelock accounting that does not leak across segmented
``run(until=...)`` calls, and a ready slot that is indistinguishable
from the head of the next same-time bucket.
"""

import pytest

from repro import telemetry
from repro.sim import CPU, CurrentThread, Delay, Kernel, Syscall, UseCPU
from repro.sim.kernel import Deadlock, SimulationError
from tests.sim.reference_cpu import PerQuantumCPU


def test_non_finite_delays_rejected():
    kernel = Kernel()
    with pytest.raises(ValueError, match="finite"):
        kernel.schedule(float("nan"), lambda: None)
    with pytest.raises(ValueError, match="finite"):
        kernel.schedule(float("inf"), lambda: None)
    # -inf trips the schedule-into-the-past check instead.
    with pytest.raises(ValueError):
        kernel.schedule(float("-inf"), lambda: None)
    assert kernel.pending_events() == 0


def test_cancel_after_fire_is_idempotent():
    kernel = Kernel()
    seen = []
    event = kernel.schedule(1.0, seen.append, "x")
    kernel.run()
    event.cancel()
    event.cancel()
    assert seen == ["x"]
    assert kernel.pending_events() == 0


def test_cancel_twice_counts_once():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    event = kernel.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    assert kernel.pending_events() == 1
    kernel.run()
    assert kernel.pending_events() == 0


def test_zero_delay_schedule_and_call_soon_interleave_fifo():
    kernel = Kernel()
    seen = []
    kernel.schedule(0.0, seen.append, "a")
    kernel.call_soon(seen.append, "b")
    kernel.schedule(0.0, seen.append, "c")
    kernel.run()
    assert seen == ["a", "b", "c"]


class Target:
    """A bare wheel target: appends what each firing delivers."""

    def __init__(self, seen):
        self.seen = seen

    def step(self, value=None):
        self.seen.append(value)


def test_schedule_at_shares_the_fifo_bucket_with_every_other_entry_kind():
    kernel = Kernel()
    seen = []
    target = Target(seen)

    def sleeper():
        yield Delay(1.0)
        seen.append("delay")

    class Park(Syscall):
        def execute(self, kernel, thread):
            thread.blocked_on = self

    def blocked():
        seen.append((yield Park()))

    kernel.schedule(1.0, seen.append, "schedule")
    kernel.wake_at(1.0, target, "wake_at")
    kernel.spawn(sleeper())
    waiter = kernel.spawn(blocked())

    def at_one():
        # All three land in the bucket that is being dispatched.
        kernel.call_soon(seen.append, "call_soon")
        kernel.wake_at(kernel.now, target, "wake_at now")
        kernel.resume(waiter, "resume")

    kernel.schedule(1.0, at_one)
    kernel.run()
    assert seen == [
        "schedule", "wake_at", "delay", "call_soon", "wake_at now", "resume",
    ]


def test_pending_events_is_exact_after_unwake():
    kernel = Kernel()
    seen = []
    targets = [Target(seen) for _ in range(100)]
    for index, target in enumerate(targets):
        kernel.wake_at(1.0 + index, target, index)
    for index, target in enumerate(targets[:80]):
        kernel.unwake(1.0 + index, target)
        assert kernel.pending_events() == 99 - index
    # Withdrawn entries leave the wheel at once: nothing to purge later.
    assert sum(len(bucket) for bucket in kernel._wheel.values()) == 20
    with pytest.raises(SimulationError, match="no pending wakeup"):
        kernel.unwake(1.0, targets[0])
    kernel.run()
    assert seen == list(range(80, 100))
    assert kernel.pending_events() == 0
    assert kernel._wheel == {} and kernel._times == []


def test_unwake_keeps_the_rest_of_the_bucket_in_order():
    kernel = Kernel()
    seen = []
    targets = [Target(seen) for _ in range(4)]
    kernel.schedule(1.0, seen.append, "event")
    for index, target in enumerate(targets):
        kernel.wake_at(1.0, target, index)
    kernel.schedule(1.0, seen.append, "last")
    kernel.unwake(1.0, targets[1])
    assert kernel.pending_events() == 5
    kernel.run()
    assert seen == ["event", 0, 2, 3, "last"]


def test_a_timestamp_whose_entries_were_all_withdrawn_neither_fires_nor_advances_now():
    with telemetry.enabled("full") as tele:
        kernel = Kernel()
        seen = []
        first, second = Target(seen), Target(seen)
        kernel.wake_at(2.0, first, "first")
        kernel.wake_at(2.0, second, "second")
        kernel.unwake(2.0, second)
        kernel.unwake(2.0, first)
        assert 2.0 not in kernel._wheel  # whitebox: the bucket is gone
        assert kernel.pending_events() == 0
        assert kernel.run() == 0.0
        assert seen == []
        kernel.wake_at(3.0, first, "third")
        assert kernel.run(until=2.5) == 2.5
        assert kernel.run() == 3.0
        assert seen == ["third"]
        fired = tele.metrics.counter("repro_sim_events_fired_total").value
        cancelled = tele.metrics.counter("repro_sim_events_cancelled_total").value
    assert (fired, cancelled) == (1, 2)


def cpu_run(make_cpu):
    """``a`` holds the CPU until t = 1 in one run-to-completion slice;
    ``b`` wakes at t = 1 in the same bucket, ahead of that slice, and
    cuts it short just as it ends."""
    with telemetry.enabled("full") as tele:
        kernel = Kernel()
        cpu = make_cpu(kernel)
        done = []

        def worker(tag, delay, demand):
            if delay:
                yield Delay(delay)
            yield UseCPU(cpu, demand)
            done.append((tag, kernel.now))

        kernel.spawn(worker("b", 1.0, 0.5))
        kernel.spawn(worker("a", 0.0, 1.0))
        kernel.run()
        return (
            done,
            cpu.completed_jobs,
            cpu.busy_time,
            tele.metrics.counter("repro_sim_events_fired_total").value,
            tele.metrics.counter("repro_sim_events_cancelled_total").value,
        )


def test_slice_withdrawn_while_its_batch_is_in_flight_completes_its_job_once():
    done, completed, busy, fired, cancelled = cpu_run(
        lambda kernel: CPU(kernel, cores=1, quantum=0.25)
    )
    assert done == [("a", 1.0), ("b", 1.5)]
    assert completed == 2 and busy == 1.5
    # The withdrawn slice neither fires nor counts as cancelled, exactly
    # as an event cancelled from inside its batch.
    assert cancelled == 0
    assert (done, completed, busy, fired, cancelled) == cpu_run(
        lambda kernel: PerQuantumCPU(kernel, quantum=0.25)
    )


def test_events_scheduled_mid_batch_fire_after_the_batch():
    """New work at the current timestamp runs after the in-flight batch,

    exactly as the old (time, seq) heap ordered it."""
    kernel = Kernel()
    seen = []

    def first():
        seen.append("first")
        kernel.schedule(0.0, seen.append, "late")

    kernel.schedule(1.0, first)
    kernel.schedule(1.0, seen.append, "second")
    kernel.run()
    assert seen == ["first", "second", "late"]


def test_cancel_churn_fires_survivors_in_order():
    """The RPC retry pattern: many timers set, most cancelled early."""
    kernel = Kernel()
    seen = []
    events = []
    for index in range(200):
        events.append(kernel.schedule(1.0 + (index % 7), seen.append, index))
    for index, event in enumerate(events):
        if index % 3:
            event.cancel()
    survivors = [index for index in range(200) if not index % 3]
    assert kernel.pending_events() == len(survivors)
    kernel.run()
    assert seen == sorted(survivors, key=lambda i: (1.0 + (i % 7), i))


def test_wheel_drains_completely():
    kernel = Kernel()
    for index in range(500):
        event = kernel.schedule(1.0 + index * 1e-3, lambda: None)
        if index % 10:
            event.cancel()
    kernel.run()
    assert kernel.pending_events() == 0
    # Whitebox: no leaked buckets or stale timestamps after a run.
    assert kernel._wheel == {}
    assert kernel._times == []


def test_mid_batch_cancellation_suppresses_peers():
    """An event fired in a batch may cancel later events of the same

    timestamp; they must not run, and counters must stay exact."""
    kernel = Kernel()
    seen = []
    victims = []

    def assassin():
        seen.append("assassin")
        for victim in victims:
            victim.cancel()

    kernel.schedule(1.0, assassin)
    victims.append(kernel.schedule(1.0, seen.append, "victim-a"))
    victims.append(kernel.schedule(1.0, seen.append, "victim-b"))
    kernel.schedule(2.0, seen.append, "after")
    kernel.run()
    assert seen == ["assassin", "after"]
    assert kernel.pending_events() == 0


def test_mid_run_purge_keeps_the_loop_on_the_live_wheel():
    """Cancelling enough pending timers from inside a handler trips the
    lazy purge while ``run()`` is draining.  The rebuilt wheel must be
    the same objects the loop caches as locals: a rebinding purge left
    the loop on the stale pair, so events scheduled after the purge
    never fired and the duplicated survivors crashed the next run().
    """
    kernel = Kernel()
    seen = []
    timers = [kernel.schedule(10.0 + index, seen.append, index) for index in range(200)]

    def cancel_most_then_reschedule():
        # 150 cancellations out of ~200 pending events crosses the
        # purge threshold (>64 events, majority cancelled) mid-run.
        for timer in timers[:150]:
            timer.cancel()
        kernel.schedule(1.0, seen.append, "post-purge")

    kernel.schedule(1.0, cancel_most_then_reschedule)
    kernel.run(until=5.0)
    assert "post-purge" in seen
    # Exactly the 50 surviving timers remain; draining them in a second
    # segment must not double-fire or raise "time went backwards".
    assert kernel.pending_events() == 50
    kernel.run()
    assert kernel.pending_events() == 0
    assert [x for x in seen if isinstance(x, int)] == list(range(150, 200))


def test_purge_from_cancel_outside_run_stays_consistent():
    """The purge also fires outside run(); counters and order survive."""
    kernel = Kernel()
    seen = []
    events = [kernel.schedule(1.0 + index, seen.append, index) for index in range(100)]
    for event in events[:80]:
        event.cancel()
    assert kernel.pending_events() == 20
    kernel.schedule(0.5, seen.append, "early")
    kernel.run()
    assert seen == ["early"] + list(range(80, 100))
    assert kernel.pending_events() == 0


def test_livelock_counter_resets_between_run_segments():
    """A sub-limit same-time batch must not poison a later run() call.

    The counter used to persist across segmented ``run(until=...)``
    calls, so two batches at the same timestamp in consecutive segments
    added up and tripped the livelock detector spuriously.
    """
    kernel = Kernel(livelock_limit=100)
    seen = []
    for index in range(80):
        kernel.schedule(1.0, seen.append, index)
    kernel.run(until=1.0)
    assert len(seen) == 80
    # Still at t=1.0: no clock advance to reset the counter for us.
    for index in range(80):
        kernel.schedule(0.0, seen.append, 80 + index)
    kernel.run(until=1.0)
    assert len(seen) == 160


# ----------------------------------------------------------------------
# The ready slot: the first wakeup at a fresh instant skips the wheel
# (``repro.sim.kernel`` module docstring) and must behave exactly as the
# head of the next same-time bucket would.
# ----------------------------------------------------------------------


class Boom(Exception):
    pass


class Park(Syscall):
    def execute(self, kernel, thread):
        thread.blocked_on = self


def parked_thread(kernel, seen):
    """A thread blocked on nothing that will ever wake it but resume()."""

    def parked():
        seen.append((yield Park()))

    thread = kernel.spawn(parked())
    kernel.run(until=kernel.now)
    assert thread.blocked_on is not None and kernel.pending_events() == 0
    return thread


def test_stop_mid_batch_after_a_wakeup_fires_the_batch_tail_first():
    kernel = Kernel()
    seen = []
    thread = parked_thread(kernel, seen)

    def resume_then_stop():
        kernel.resume(thread, "thread")
        kernel.stop()
        seen.append("stopper")

    kernel.schedule(1.0, resume_then_stop)
    kernel.schedule(1.0, seen.append, "tail")
    kernel.run()
    assert seen == ["stopper"]
    assert kernel.pending_events() == 2
    kernel.run()
    assert seen == ["stopper", "tail", "thread"]
    assert kernel.pending_events() == 0


def test_wakeup_from_a_raising_handler_fires_after_the_batch_tail():
    kernel = Kernel()
    seen = []
    thread = parked_thread(kernel, seen)

    def resume_then_raise():
        kernel.resume(thread, "thread")
        seen.append("raiser")
        raise Boom

    kernel.schedule(1.0, resume_then_raise)
    kernel.schedule(1.0, seen.append, "tail")
    with pytest.raises(Boom):
        kernel.run()
    assert seen == ["raiser"]
    assert kernel.pending_events() == 2
    kernel.run()
    assert seen == ["raiser", "tail", "thread"]


def test_wakeup_from_a_lone_raising_handler_stays_pending():
    kernel = Kernel()
    seen = []
    thread = parked_thread(kernel, seen)

    def resume_then_raise():
        kernel.resume(thread, "thread")
        raise Boom

    kernel.schedule(1.0, resume_then_raise)
    with pytest.raises(Boom):
        kernel.run()
    assert kernel.pending_events() == 1
    kernel.call_soon(seen.append, "soon")
    kernel.run()
    assert seen == ["thread", "soon"]


def test_resume_outside_run_keeps_its_place_among_call_soons():
    kernel = Kernel()
    seen = []
    thread = parked_thread(kernel, seen)
    kernel.call_soon(seen.append, "soon1")
    kernel.resume(thread, "thread")
    kernel.call_soon(seen.append, "soon2")
    kernel.run()
    assert seen == ["soon1", "thread", "soon2"]

    seen.clear()
    thread = parked_thread(kernel, seen)
    kernel.resume(thread, "thread")
    kernel.call_soon(seen.append, "soon")
    kernel.run()
    assert seen == ["thread", "soon"]


def test_pending_events_counts_the_ready_slot():
    kernel = Kernel()
    seen = []
    thread = parked_thread(kernel, seen)
    kernel.resume(thread, "thread")
    assert kernel._wheel == {}  # whitebox: the wakeup is in the slot
    assert kernel.pending_events() == 1
    kernel.schedule(1.0, seen.append, "later")
    assert kernel.pending_events() == 2
    kernel.run()
    assert seen == ["thread", "later"]
    assert kernel.pending_events() == 0


def test_same_instant_wakeup_loop_still_trips_the_livelock_limit():
    kernel = Kernel(livelock_limit=1000)
    steps = []

    def spin():
        while True:
            steps.append(kernel.now)
            yield CurrentThread()

    kernel.spawn(spin())
    with pytest.raises(SimulationError, match="livelock: 1000 events"):
        kernel.run()
    # The 1001st event at t=0 raises before it is dispatched.
    assert len(steps) == 1000


def test_slot_and_the_bucket_behind_it_count_as_one_batch():
    # On the wheel the wakeup would head the bucket at ``now``, and a
    # batch checks the livelock limit only after its last event: both
    # fire before the error, as they did without the slot.
    kernel = Kernel(livelock_limit=1)
    seen = []
    thread = parked_thread(kernel, seen)
    kernel.resume(thread, "thread")
    kernel.call_soon(seen.append, "soon")
    with pytest.raises(SimulationError, match="livelock"):
        kernel.run()
    assert seen == ["thread", "soon"]


def test_deadlock_detected_when_the_slot_fires_last():
    kernel = Kernel()

    def wake_then_park():
        yield CurrentThread()
        yield Park()

    kernel.spawn(wake_then_park(), name="sleeper")
    with pytest.raises(Deadlock, match="sleeper on Park"):
        kernel.run()
    assert kernel.pending_events() == 0
