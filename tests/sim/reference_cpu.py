"""Per-quantum reference scheduler: one kernel event per time slice.

This is the single-core round-robin ``CPU`` as it was before the
rotation was fast-forwarded (``repro.sim.cpu`` module docstring): every
quantum is its own wheel entry (``Kernel.wake_at``) whose firing
requeues or completes the job and dispatches the next slice.  It shares no code
with ``repro.sim.cpu`` and exists so tests can require the production
scheduler to reproduce it with ``==``: same completion order, same
timestamps, same counters.
"""

from collections import deque

_EPSILON = 1e-12


class _Job:
    def __init__(self, thread, amount):
        self.thread = thread
        self.remaining = amount
        self.total = amount


class _Slice:
    def __init__(self, cpu, job, started_at, length, extended):
        self.cpu = cpu
        self.job = job
        self.due = None
        self.started_at = started_at
        self.length = length
        self.extended = extended

    def step(self, value=None):
        self.cpu._slice_done(self)


class PerQuantumCPU:
    """Single core, finite quantum; duck-types what ``UseCPU`` needs."""

    def __init__(self, kernel, quantum=1e-3, name="reference"):
        self.kernel = kernel
        self.quantum = quantum
        self.name = name
        self._run_queue = deque()
        self._current = None
        self.busy_time = 0.0
        self.total_demand = 0.0
        self.completed_jobs = 0

    def submit(self, thread, amount):
        self.total_demand += amount
        self._run_queue.append(_Job(thread, amount))
        running = self._current
        if running is not None and running.extended:
            # Cut the run-to-completion slice short for the arrival.
            self.kernel.unwake(running.due, running)
            self._current = None
            elapsed = self.kernel.now - running.started_at
            self.busy_time += elapsed
            running.job.remaining -= elapsed
            if running.job.remaining <= _EPSILON:
                self._complete(running.job)
            else:
                self._run_queue.append(running.job)
        self._dispatch()

    def _dispatch(self):
        if self._current is not None or not self._run_queue:
            return
        job = self._run_queue.popleft()
        extended = not self._run_queue
        length = job.remaining if extended else min(self.quantum, job.remaining)
        current = _Slice(self, job, self.kernel.now, length, extended)
        current.due = self.kernel.now + length
        self.kernel.wake_at(current.due, current)
        self._current = current

    def _slice_done(self, current):
        self._current = None
        self.busy_time += current.length
        job = current.job
        job.remaining -= current.length
        if job.remaining <= _EPSILON:
            self._complete(job)
        else:
            self._run_queue.append(job)
        self._dispatch()

    def _complete(self, job):
        self.completed_jobs += 1
        self.kernel.resume(job.thread, job.total)

    @property
    def queue_length(self):
        return len(self._run_queue)
