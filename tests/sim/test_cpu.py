"""Tests for the contended CPU resource."""

import pytest

from repro.sim import CPU, Delay, Kernel, UseCPU


def test_single_demand_takes_service_time():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1)
    done = []

    def worker():
        yield UseCPU(cpu, 0.5)
        done.append(kernel.now)

    kernel.spawn(worker())
    kernel.run()
    assert done == [0.5]


def test_fcfs_queueing_on_one_core():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1, quantum=None)
    done = []

    def worker(tag, demand):
        yield UseCPU(cpu, demand)
        done.append((tag, kernel.now))

    kernel.spawn(worker("a", 1.0))
    kernel.spawn(worker("b", 2.0))
    kernel.spawn(worker("c", 0.5))
    kernel.run()
    assert done == [("a", 1.0), ("b", 3.0), ("c", 3.5)]


def test_round_robin_lets_short_job_finish_early():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1, quantum=0.01)
    done = []

    def worker(tag, demand):
        yield UseCPU(cpu, demand)
        done.append((tag, kernel.now))

    kernel.spawn(worker("long", 1.0))
    kernel.spawn(worker("short", 0.02))
    kernel.run()
    # Under RR the short job finishes far before the long one, instead
    # of waiting a full second behind it.
    tags = [tag for tag, _ in done]
    assert tags == ["short", "long"]
    short_end = dict(done)["short"]
    assert short_end < 0.1
    assert dict(done)["long"] == pytest.approx(1.02, abs=0.02)


def test_uncontended_job_completes_exactly_on_time():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1, quantum=1e-3)
    done = []

    def worker():
        yield UseCPU(cpu, 0.5)
        done.append(kernel.now)

    kernel.spawn(worker())
    kernel.run()
    assert done == [0.5]  # exact: single extended slice, no drift


def test_preemption_accounts_partial_busy_time():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1, quantum=0.01)
    done = []

    def long_job():
        yield UseCPU(cpu, 1.0)
        done.append(("long", kernel.now))

    def late_arrival():
        yield Delay(0.25)
        yield UseCPU(cpu, 0.01)
        done.append(("late", kernel.now))

    kernel.spawn(long_job())
    kernel.spawn(late_arrival())
    kernel.run()
    # The long job's extended slice is preempted at 0.25; the late job
    # gets a quantum soon after.
    late_end = dict(done)["late"]
    assert late_end == pytest.approx(0.27, abs=0.02)
    assert dict(done)["long"] == pytest.approx(1.01, abs=0.02)
    assert cpu.busy_time == pytest.approx(1.01, abs=1e-6)


def test_two_cores_serve_in_parallel():
    kernel = Kernel()
    cpu = CPU(kernel, cores=2, quantum=None)
    done = []

    def worker(tag):
        yield UseCPU(cpu, 1.0)
        done.append((tag, kernel.now))

    kernel.spawn(worker("a"))
    kernel.spawn(worker("b"))
    kernel.spawn(worker("c"))
    kernel.run()
    assert done == [("a", 1.0), ("b", 1.0), ("c", 2.0)]


def test_two_cores_with_a_quantum_keep_one_event_per_slice():
    # Cores rotate one queue at staggered times, so this configuration
    # is not fast-forwarded: each slice is its own kernel event.
    kernel = Kernel()
    cpu = CPU(kernel, cores=2, quantum=0.25)
    done = []

    def worker(tag):
        yield UseCPU(cpu, 0.5)
        done.append((tag, kernel.now))

    for tag in "abc":
        kernel.spawn(worker(tag))
    kernel.run(until=0.125)
    assert kernel.pending_events() == 2
    kernel.run()
    # c's arrival preempts both run-to-completion slices at t = 0 and
    # heads the queue; it gets the first and third quantum of one core.
    assert done == [("c", 0.5), ("a", 0.75), ("b", 0.75)]
    assert cpu.busy_time == 1.5


def test_zero_demand_completes_immediately():
    kernel = Kernel()
    cpu = CPU(kernel)
    done = []

    def worker():
        yield UseCPU(cpu, 0.0)
        done.append(kernel.now)

    kernel.spawn(worker())
    kernel.run()
    assert done == [0.0]


def test_negative_demand_rejected():
    # NaN and +inf would never be served down to zero: sliced forever.
    for demand in (-1.0, float("nan"), float("inf"), float("-inf")):
        kernel = Kernel()
        cpu = CPU(kernel)

        def worker():
            yield UseCPU(cpu, demand)

        kernel.spawn(worker())
        with pytest.raises(ValueError):
            kernel.run()
        assert cpu.total_demand == 0.0
        assert cpu.queue_length == 0


def test_utilization_tracks_busy_fraction():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1)

    def worker():
        yield UseCPU(cpu, 2.0)

    kernel.spawn(worker())
    kernel.run(until=4.0)
    assert cpu.utilization() == pytest.approx(0.5)


def test_utilization_counts_the_slice_in_flight():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1)

    def worker():
        yield UseCPU(cpu, 2.0)

    kernel.spawn(worker())
    kernel.run(until=1.0)
    # One uncontended burst, one event at t = 2: nothing has ended yet.
    assert cpu.busy_time == 0.0
    assert cpu.utilization() == 1.0


def test_utilization_and_busy_time_mid_rotation():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1, quantum=0.25)

    def worker():
        yield UseCPU(cpu, 2.0)

    kernel.spawn(worker())
    kernel.spawn(worker())
    # The first completion is 15 quanta away and the only event on the
    # wheel; a read in between sees every quantum that has ended.
    kernel.run(until=1.125)
    assert kernel.pending_events() == 1
    assert cpu.busy_time == 1.0
    assert cpu.queue_length == 1
    assert cpu.utilization() == 1.0
    kernel.run(until=8.0)
    assert cpu.busy_time == 4.0
    assert cpu.utilization() == 0.5


def test_queue_length_during_contention():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1)
    lengths = []

    def worker():
        yield UseCPU(cpu, 1.0)

    def probe():
        yield Delay(0.5)
        lengths.append(cpu.queue_length)

    for _ in range(3):
        kernel.spawn(worker())
    kernel.spawn(probe())
    kernel.run()
    assert lengths == [2]


def test_cycles_conversion_uses_clock():
    kernel = Kernel()
    cpu = CPU(kernel, clock_hz=2.4e9)
    assert cpu.seconds_for_cycles(2.4e9) == pytest.approx(1.0)
    assert cpu.seconds_for_cycles(132) == pytest.approx(132 / 2.4e9)


def test_stage_on_cpu_hook_receives_attribution():
    class FakeStage:
        def __init__(self):
            self.records = []

        def on_cpu(self, thread, amount):
            self.records.append((thread.name, amount))

        def on_call(self, thread):
            pass

    kernel = Kernel()
    cpu = CPU(kernel)
    stage = FakeStage()

    def worker():
        yield UseCPU(cpu, 0.25)
        yield UseCPU(cpu, 0.75)

    kernel.spawn(worker(), name="w", stage=stage)
    kernel.run()
    assert stage.records == [("w", 0.25), ("w", 0.75)]


def test_total_demand_accumulates():
    kernel = Kernel()
    cpu = CPU(kernel)

    def worker():
        yield UseCPU(cpu, 0.5)
        yield UseCPU(cpu, 0.5)

    kernel.spawn(worker())
    kernel.run()
    assert cpu.total_demand == pytest.approx(1.0)
    assert cpu.busy_time == pytest.approx(1.0)
