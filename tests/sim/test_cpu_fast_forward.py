"""The fast-forwarded round-robin against the per-quantum reference.

``CPU`` puts one kernel event on the wheel per rotation that completes
something, not one per quantum (``repro.sim.cpu`` module docstring).
The claim is that this is the same virtual execution: every completion
at the same timestamp in the same order, and every counter an observer
can read between events the same float.  ``PerQuantumCPU`` is the
scheduler as it was, one event per slice; everything here compares with
``==``, never ``approx``.
"""

from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.apps.haboob import HaboobConfig, HaboobServer
from repro.apps.tpcw import TpcwSystem
from repro.sim import CPU, Delay, Kernel, Rng, UseCPU
from repro.sim.cpu import _LOOKAHEAD
from repro.workloads import HttpClientPool, WebTrace
from tests.sim.reference_cpu import PerQuantumCPU


def fast(kernel, quantum):
    return CPU(kernel, cores=1, quantum=quantum)


def reference(kernel, quantum):
    return PerQuantumCPU(kernel, quantum=quantum)


def execute(make_cpu, quantum, jobs, horizons=()):
    """Run ``jobs`` — ``(arrival, [demand, ...])`` each, the demands
    submitted back to back — and return the completions in order plus
    the counters read after each ``run(until=horizon)`` and at the end.

    Threads that arrive later than time zero are spawned first, so every
    arrival's wakeup is on the wheel before any slice event: an arrival
    that coincides with a slice boundary then fires ahead of it under
    the reference too, which is the order ``CPU`` documents.
    """
    kernel = Kernel()
    cpu = make_cpu(kernel, quantum)
    done = []

    def worker(tag, arrival, demands):
        if arrival > 0:
            yield Delay(arrival)
        for demand in demands:
            yield UseCPU(cpu, demand)
            done.append((tag, kernel.now))

    order = sorted(range(len(jobs)), key=lambda tag: jobs[tag][0] == 0)
    for tag in order:
        kernel.spawn(worker(tag, *jobs[tag]))
    probes = []
    for horizon in list(horizons) + [None]:
        kernel.run(until=horizon)
        probes.append(
            (kernel.now, cpu.queue_length, cpu.busy_time, cpu.completed_jobs, len(done))
        )
    return done, probes


# Everything is drawn in units of the quantum: quarter-quantum grid
# points make bursts at one instant, arrivals on slice boundaries and
# demands that are exact multiples of the quantum common; the plain
# floats cover the rest.
quanta = st.sampled_from([1e-3, 0.01, 0.0375, 0.25])
grid = st.integers(min_value=0, max_value=48).map(lambda k: k / 4)
arrival_units = st.one_of(
    st.just(0.0), grid, st.floats(min_value=0.0, max_value=12.0)
)
demand_units = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=6).map(float),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=8.0),
    # Long enough to outlast the lookahead bound.
    st.floats(min_value=_LOOKAHEAD, max_value=3 * _LOOKAHEAD),
)
job_units = st.tuples(arrival_units, st.lists(demand_units, min_size=1, max_size=3))
horizon_units = st.lists(
    st.one_of(grid, st.floats(min_value=0.0, max_value=40.0)), max_size=6
).map(sorted)


@settings(max_examples=300, deadline=None)
@given(quanta, st.lists(job_units, min_size=1, max_size=8), horizon_units)
def test_same_completions_and_counters_as_per_quantum_events(
    quantum, jobs_in_units, horizons_in_units
):
    jobs = [
        (arrival * quantum, [demand * quantum for demand in demands])
        for arrival, demands in jobs_in_units
    ]
    horizons = [horizon * quantum for horizon in horizons_in_units]
    assert execute(fast, quantum, jobs, horizons) == execute(
        reference, quantum, jobs, horizons
    )


class PinnedCore(PerQuantumCPU):
    """One reference core of a :class:`Pinned` bank."""

    def __init__(self, bank, kernel):
        super().__init__(kernel)
        self.bank = bank

    def _complete(self, job):
        # Every slice of an uncontended core runs its job to completion,
        # so the bank's busy time grows by whole demands, in the order
        # the jobs complete.
        self.bank.busy_time += job.total
        self.bank.completed_jobs += 1
        super()._complete(job)


class Pinned:
    """A reference core per thread: what a multi-core ``CPU`` must do
    while every arrival finds an idle core."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.cores = {}
        self.busy_time = 0.0
        self.completed_jobs = 0

    def submit(self, thread, amount):
        core = self.cores.get(thread.tid)
        if core is None:
            core = self.cores[thread.tid] = PinnedCore(self, self.kernel)
        core.submit(thread, amount)

    @property
    def queue_length(self):
        return sum(core.queue_length for core in self.cores.values())


# Zero-length demands are drawn often: each is a slice due at the very
# instant it starts.
idle_demand_units = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=4).map(float),
    st.floats(min_value=0.0, max_value=4.0),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([None, 1e-3, 0.25]),
    st.integers(min_value=2, max_value=4),
    st.lists(
        st.tuples(arrival_units, st.lists(idle_demand_units, min_size=1, max_size=3)),
        min_size=1,
        max_size=4,
    ),
    horizon_units,
)
def test_idle_multi_core_arrivals_run_as_if_each_had_its_own_core(
    quantum, cores, jobs_in_units, horizons_in_units
):
    # No more threads than cores: every arrival finds a core idle and
    # starts its slice in ``submit``.
    cores = max(cores, len(jobs_in_units))
    unit = quantum or 0.01
    jobs = [
        (arrival * unit, [demand * unit for demand in demands])
        for arrival, demands in jobs_in_units
    ]
    horizons = [horizon * unit for horizon in horizons_in_units]
    multi_core = execute(
        lambda kernel, _: CPU(kernel, cores=cores, quantum=quantum),
        quantum, jobs, horizons,
    )
    assert multi_core == execute(
        lambda kernel, _: Pinned(kernel), quantum, jobs, horizons
    )


def test_zero_length_demands_on_a_busy_core_match():
    # Each zero-length arrival cuts the running slice short and
    # completes in the bucket after it.
    jobs = [(0.0, [1.0, 0.0]), (0.25, [0.0, 0.0]), (0.5, [0.0, 0.25]), (1.0, [0.0])]
    assert execute(fast, 0.01, jobs, [0.5, 1.0]) == execute(
        reference, 0.01, jobs, [0.5, 1.0]
    )


def test_arrival_mid_rotation_replans_to_the_same_schedule():
    # Two long jobs rotate for 40 quanta before the first completion; a
    # short job lands mid-quantum, mid-plan, and completes at its first
    # turn, far ahead of the planned slice.
    jobs = [(0.0, [0.04]), (0.0, [0.04]), (0.0105, [0.0005])]
    horizons = [0.0055, 0.0105, 0.02]
    done, probes = execute(fast, 1e-3, jobs, horizons)
    assert (done, probes) == execute(reference, 1e-3, jobs, horizons)
    assert done[0][0] == 2


def test_arrival_preempting_an_extended_slice_matches():
    jobs = [(0.0, [1.0]), (0.25, [0.01, 0.02]), (0.2505, [0.0])]
    assert execute(fast, 0.01, jobs, [0.3]) == execute(reference, 0.01, jobs, [0.3])


def fired_and_cancelled(make_cpu, quantum, jobs):
    with telemetry.enabled("full") as tele:
        execute(make_cpu, quantum, jobs)
        return (
            tele.metrics.counter("repro_sim_events_fired_total").value,
            tele.metrics.counter("repro_sim_events_cancelled_total").value,
        )


def test_arrival_storm_against_long_jobs_stays_bounded():
    # A 10 s demand, a 1 ms quantum, an arrival every 0.1 ms.  Each
    # arrival can throw away at most one walk of _LOOKAHEAD steps, and
    # once the queue is longer than the lookahead an arrival joins
    # behind the planned slice and costs nothing but its append.
    jobs = [(0.0, [10.0])] + [(k * 1e-4, [0.05]) for k in range(1, 201)]
    fast_fired, fast_cancelled = fired_and_cancelled(fast, 1e-3, jobs)
    reference_fired, reference_cancelled = fired_and_cancelled(reference, 1e-3, jobs)
    assert execute(fast, 1e-3, jobs) == execute(reference, 1e-3, jobs)
    assert reference_cancelled == 1  # the extended slice, cut short once
    assert fast_cancelled <= reference_cancelled + _LOOKAHEAD
    assert fast_fired < reference_fired / 10


def completions(make_cpu, arrival_delays):
    """Two 1 s jobs rotate in 0.25 s quanta, ``b`` first (its arrival
    preempts ``a``'s extended slice); a third thread reaches the CPU at
    t = 0.75 — exactly when a slice ends — by ``arrival_delays``."""
    kernel = Kernel()
    cpu = make_cpu(kernel, 0.25)
    done = []

    def resident(tag):
        yield UseCPU(cpu, 1.0)
        done.append((tag, kernel.now))

    def arrival():
        for delay in arrival_delays:
            yield Delay(delay)
        yield UseCPU(cpu, 0.25)
        done.append(("c", kernel.now))

    kernel.spawn(arrival())
    kernel.spawn(resident("a"))
    kernel.spawn(resident("b"))
    kernel.run()
    return done


def test_arrival_exactly_on_a_skipped_boundary_queues_before_the_requeue():
    # The one schedule the CPU alone does not define: with per-quantum
    # events the order at t = 0.75 is the order in which the arrival's
    # wakeup and the slice's event happened to be scheduled.  CPU fixes
    # it: the arrival joins the queue first, however it got there.
    arrival_first = [("c", 1.25), ("b", 2.0), ("a", 2.25)]
    assert completions(fast, [0.75]) == arrival_first
    assert completions(fast, [0.625, 0.125]) == arrival_first
    # The reference agrees when the wakeup was scheduled before the
    # slice began (t = 0 < 0.5) and not when it was scheduled during it.
    assert completions(reference, [0.75]) == arrival_first
    assert completions(reference, [0.625, 0.125]) == [
        ("c", 1.5), ("b", 2.0), ("a", 2.25)
    ]


def boundary_coincidences(monkeypatch, run):
    """Run a seeded application and count mid-plan arrivals, and those
    among them that landed exactly on a skipped boundary."""
    counts = {"mid_plan": 0, "on_boundary": 0}
    join_rotation = CPU._join_rotation

    def counting(cpu, current, job):
        counts["mid_plan"] += 1
        boundary = current.started_at
        for _ in range(current.skipped):
            boundary += cpu.quantum
            if boundary == cpu.kernel.now:
                counts["on_boundary"] += 1
        join_rotation(cpu, current, job)

    monkeypatch.setattr(CPU, "_join_rotation", counting)
    run()
    return counts


def test_no_boundary_coincidence_in_the_seeded_tpcw_runs(monkeypatch):
    # The configuration of tests/parallel/test_golden_profiles.py: its
    # digest is defined by the CPU alone only if this count is zero.
    golden = boundary_coincidences(
        monkeypatch,
        lambda: TpcwSystem(clients=12, seed=1234).run(duration=10.0, warmup=2.0),
    )
    assert golden["on_boundary"] == 0
    # Twelve browsers never arrive mid-plan; the ledger's 200 at the
    # database's saturation knee do, all the time.
    monkeypatch.undo()
    saturated = boundary_coincidences(
        monkeypatch,
        lambda: TpcwSystem(clients=200, seed=42).run(duration=15.0, warmup=5.0),
    )
    assert saturated["mid_plan"] > 1000
    assert saturated["on_boundary"] == 0


def test_no_boundary_coincidence_in_the_golden_haboob_run(monkeypatch):
    def run():
        kernel = Kernel()
        trace = WebTrace(Rng(23), objects=2000, requests_per_connection_mean=4.0)
        server = HaboobServer(
            kernel, trace, config=HaboobConfig(cache_bytes=256 * 1024)
        )
        server.start()
        HttpClientPool(kernel, server.listener, trace, clients=5).start()
        kernel.run(until=4.0)

    assert boundary_coincidences(monkeypatch, run)["on_boundary"] == 0
