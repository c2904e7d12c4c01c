"""Timer-wheel semantics: withdrawal, ordering, counters.

The kernel's event queue is a hashed wheel (dict buckets keyed by exact
timestamp plus a heap of distinct times) rather than a heap of event
objects.  These tests pin the observable semantics the rewrite must
preserve: FIFO order within a timestamp, zero-delay interleaving of
every entry kind, O(1) withdrawal that never corrupts the pending-event
counter, livelock accounting that does not leak across segmented
``run(until=...)`` calls, and a ready slot that is indistinguishable
from the head of the next same-time bucket.
"""

import pytest

from repro import telemetry
from repro.sim import CPU, CurrentThread, Delay, Kernel, Syscall, UseCPU
from repro.sim.kernel import Deadlock, SimulationError
from tests.sim.later import call_later
from tests.sim.reference_cpu import PerQuantumCPU


def test_non_finite_delays_rejected():
    kernel = Kernel()
    with pytest.raises(ValueError, match="finite"):
        call_later(kernel, float("nan"), lambda: None)
    with pytest.raises(ValueError, match="finite"):
        call_later(kernel, float("inf"), lambda: None)
    # -inf trips the schedule-into-the-past check instead.
    with pytest.raises(ValueError):
        call_later(kernel, float("-inf"), lambda: None)
    assert kernel.pending_events() == 0


def test_cancel_twice_counts_once():
    kernel = Kernel()
    call_later(kernel, 1.0, lambda: None)
    entry = call_later(kernel, 2.0, lambda: None)
    kernel.unwake(*entry)
    with pytest.raises(SimulationError, match="no pending wakeup"):
        kernel.unwake(*entry)
    assert kernel.pending_events() == 1
    kernel.run()
    assert kernel.pending_events() == 0


def test_zero_delay_wakeups_interleave_fifo():
    kernel = Kernel()
    seen = []
    call_later(kernel, 0.0, seen.append, "a")
    kernel.wake_at(kernel.now, Target(seen), "b")
    call_later(kernel, 0.0, seen.append, "c")
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

    call_later(kernel, 1.0, seen.append, "call_later")
    kernel.wake_at(1.0, target, "wake_at")
    kernel.spawn(sleeper())
    waiter = kernel.spawn(blocked())

    def at_one():
        # All three land in the bucket that is being dispatched.
        call_later(kernel, 0.0, seen.append, "call_later now")
        kernel.wake_at(kernel.now, target, "wake_at now")
        kernel.resume(waiter, "resume")

    call_later(kernel, 1.0, at_one)
    kernel.run()
    assert seen == [
        "call_later", "wake_at", "delay", "call_later now", "wake_at now", "resume",
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
    call_later(kernel, 1.0, seen.append, "event")
    for index, target in enumerate(targets):
        kernel.wake_at(1.0, target, index)
    call_later(kernel, 1.0, seen.append, "last")
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
    # The withdrawn slice neither fires nor counts as cancelled: it had
    # already left the wheel with its batch.
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
        call_later(kernel, 0.0, seen.append, "late")

    call_later(kernel, 1.0, first)
    call_later(kernel, 1.0, seen.append, "second")
    kernel.run()
    assert seen == ["first", "second", "late"]


def test_cancel_churn_fires_survivors_in_order():
    """The RPC retry pattern: many timers set, most cancelled early."""
    kernel = Kernel()
    seen = []
    entries = []
    for index in range(200):
        entries.append(call_later(kernel, 1.0 + (index % 7), seen.append, index))
    for index, entry in enumerate(entries):
        if index % 3:
            kernel.unwake(*entry)
    survivors = [index for index in range(200) if not index % 3]
    assert kernel.pending_events() == len(survivors)
    kernel.run()
    assert seen == sorted(survivors, key=lambda i: (1.0 + (i % 7), i))


def test_wheel_drains_completely():
    kernel = Kernel()
    for index in range(500):
        entry = call_later(kernel, 1.0 + index * 1e-3, lambda: None)
        if index % 10:
            kernel.unwake(*entry)
    kernel.run()
    assert kernel.pending_events() == 0
    # Whitebox: no leaked buckets or stale timestamps after a run.
    assert kernel._wheel == {}
    assert kernel._times == []


def test_mid_batch_cancellation_suppresses_peers():
    """An entry fired in a batch may withdraw later entries of the same

    timestamp; they must not run, and counters must stay exact."""
    kernel = Kernel()
    seen = []
    victims = []

    def assassin():
        seen.append("assassin")
        for victim in victims:
            kernel.unwake(*victim)

    call_later(kernel, 1.0, assassin)
    victims.append(call_later(kernel, 1.0, seen.append, "victim-a"))
    victims.append(call_later(kernel, 1.0, seen.append, "victim-b"))
    call_later(kernel, 2.0, seen.append, "after")
    kernel.run()
    assert seen == ["assassin", "after"]
    assert kernel.pending_events() == 0


def test_in_flight_withdrawal_takes_the_first_unfired_entry_of_its_target():
    """A target woken twice in one batch: withdrawing it after its first
    entry fired takes the second, not the one already consumed."""
    kernel = Kernel()
    seen = []
    target = Target(seen)

    def withdraw():
        seen.append("withdraw")
        kernel.unwake(1.0, target)

    kernel.wake_at(1.0, target, "first")
    call_later(kernel, 1.0, withdraw)
    kernel.wake_at(1.0, target, "second")
    kernel.wake_at(1.0, target, "third")
    kernel.run()
    assert seen == ["first", "withdraw", "third"]
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
        call_later(kernel, 1.0, seen.append, index)
    kernel.run(until=1.0)
    assert len(seen) == 80
    # Still at t=1.0: no clock advance to reset the counter for us.
    for index in range(80):
        call_later(kernel, 0.0, seen.append, 80 + index)
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

    call_later(kernel, 1.0, resume_then_stop)
    call_later(kernel, 1.0, seen.append, "tail")
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

    call_later(kernel, 1.0, resume_then_raise)
    call_later(kernel, 1.0, seen.append, "tail")
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

    call_later(kernel, 1.0, resume_then_raise)
    with pytest.raises(Boom):
        kernel.run()
    assert kernel.pending_events() == 1
    call_later(kernel, 0.0, seen.append, "soon")
    kernel.run()
    assert seen == ["thread", "soon"]


def test_resume_outside_run_keeps_its_place_among_same_instant_entries():
    kernel = Kernel()
    seen = []
    thread = parked_thread(kernel, seen)
    call_later(kernel, 0.0, seen.append, "soon1")
    kernel.resume(thread, "thread")
    call_later(kernel, 0.0, seen.append, "soon2")
    kernel.run()
    assert seen == ["soon1", "thread", "soon2"]

    seen.clear()
    thread = parked_thread(kernel, seen)
    kernel.resume(thread, "thread")
    call_later(kernel, 0.0, seen.append, "soon")
    kernel.run()
    assert seen == ["thread", "soon"]


def test_pending_events_counts_the_ready_slot():
    kernel = Kernel()
    seen = []
    thread = parked_thread(kernel, seen)
    kernel.resume(thread, "thread")
    assert kernel._wheel == {}  # whitebox: the wakeup is in the slot
    assert kernel.pending_events() == 1
    call_later(kernel, 1.0, seen.append, "later")
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
    call_later(kernel, 0.0, seen.append, "soon")
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
