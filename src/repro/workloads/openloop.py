"""Open-loop workload generation: Poisson session arrivals.

The paper's client emulators are closed-loop (a fixed number of
emulated browsers).  An open-loop generator is the standard complement
for latency-vs-offered-load studies: sessions arrive at a fixed rate
regardless of how the server is coping, so response times diverge as
the offered load approaches capacity instead of self-throttling.

Beyond the constant-rate Poisson process, the generator models the
shapes production traffic actually has:

- :class:`RateCurve` — a diurnal sinusoid plus :dfn:`flash crowds`
  (windows where the rate is multiplied), sampled with Lewis–Shedler
  thinning so the arrival process is an exact non-homogeneous Poisson
  process at the curve's rate;
- :class:`ThinkTime` — heavy-tailed (Pareto or lognormal) pauses
  between a session's requests, the documented shape of human
  dwell times;
- ``max_sessions`` — a hard session budget, which is how a
  "1,000,000 simulated clients" run is expressed: shard the budget
  deterministically (see ``repro.parallel.shard``) and let every shard
  generate its slice of the population at its slice of the rate;
- ``record_log=False`` — keep only O(1) aggregates instead of a
  per-transaction log, so a million-session shard's result stays small
  enough to ship back through a process pool.

All extensions are draw-for-draw compatible with the legacy constant
rate path: with no curve, no think time and no cap, the RNG consumes
exactly the same stream as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.channels.message import Message
from repro.channels.socket import Listener, Recv, Send
from repro.sim import Kernel
from repro.sim.process import CurrentThread
from repro.sim.rng import Rng
from repro.workloads.clients import CLOSE, REQUEST_BYTES, TxLog
from repro.workloads.webtrace import WebTrace


@dataclass(frozen=True)
class RateCurve:
    """A time-varying session arrival rate (sessions/second).

    ``rate(t) = base_rate · (1 + diurnal_amplitude · sin(2πt/period))
    · flash(t)`` where ``flash(t)`` is the largest multiplier of any
    flash-crowd window covering ``t`` (1.0 outside every window).
    Flash crowds are ``(start, duration, multiplier)`` triples in
    simulated seconds.
    """

    base_rate: float
    diurnal_amplitude: float = 0.0
    diurnal_period: float = 86400.0
    flash_crowds: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if self.base_rate <= 0:
            raise ValueError("base rate must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal amplitude must be in [0, 1)")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal period must be positive")
        for start, duration, multiplier in self.flash_crowds:
            if duration <= 0 or multiplier <= 0:
                raise ValueError(
                    "flash crowds need positive duration and multiplier"
                )

    def flash_multiplier(self, t: float) -> float:
        multiplier = 1.0
        for start, duration, factor in self.flash_crowds:
            if start <= t < start + duration:
                multiplier = max(multiplier, factor)
        return multiplier

    def rate(self, t: float) -> float:
        diurnal = 1.0 + self.diurnal_amplitude * math.sin(
            2.0 * math.pi * t / self.diurnal_period
        )
        return self.base_rate * diurnal * self.flash_multiplier(t)

    def peak_rate(self) -> float:
        """An upper bound on ``rate(t)`` — the thinning envelope."""
        peak_flash = max(
            [1.0] + [factor for _, _, factor in self.flash_crowds]
        )
        return self.base_rate * (1.0 + self.diurnal_amplitude) * peak_flash

    def scaled(self, fraction: float) -> "RateCurve":
        """The same shape at ``fraction`` of the rate (shard slicing)."""
        return RateCurve(
            base_rate=self.base_rate * fraction,
            diurnal_amplitude=self.diurnal_amplitude,
            diurnal_period=self.diurnal_period,
            flash_crowds=self.flash_crowds,
        )


@dataclass(frozen=True)
class ThinkTime:
    """Per-request dwell-time distribution inside a session.

    ``none`` draws nothing (legacy back-to-back requests);
    ``exponential`` is the classic memoryless pause; ``pareto`` and
    ``lognormal`` are the heavy-tailed shapes measured for human think
    times — a few sessions pause for a very long time, so one shard can
    run long while its neighbours finish (``ShardedRun.wall_skew``).
    """

    distribution: str = "none"
    mean: float = 1.0
    alpha: float = 1.5
    minimum: float = 0.1
    mu: float = 0.0
    sigma: float = 1.0

    _DISTRIBUTIONS = ("none", "exponential", "pareto", "lognormal")

    def __post_init__(self):
        if self.distribution not in self._DISTRIBUTIONS:
            raise ValueError(
                f"unknown think-time distribution {self.distribution!r};"
                f" one of {self._DISTRIBUTIONS}"
            )

    def sample(self, rng: Rng) -> float:
        if self.distribution == "exponential":
            return rng.expovariate(1.0 / self.mean)
        if self.distribution == "pareto":
            # Inverse-CDF Pareto: minimum · u^(-1/alpha), heavy-tailed
            # for alpha <= 2 (infinite variance below 2).
            return self.minimum * rng.random() ** (-1.0 / self.alpha)
        if self.distribution == "lognormal":
            return rng.lognormal(self.mu, self.sigma)
        return 0.0


class OpenLoopClientPool:
    """Spawns one session thread per (possibly non-homogeneous) Poisson
    arrival."""

    def __init__(
        self,
        kernel: Kernel,
        listener: Listener,
        trace: WebTrace,
        arrival_rate: Optional[float] = None,
        rng: Optional[Rng] = None,
        rate_curve: Optional[RateCurve] = None,
        think: Optional[ThinkTime] = None,
        max_sessions: Optional[int] = None,
        record_log: bool = True,
    ):
        if rate_curve is not None:
            arrival_rate = rate_curve.base_rate
        if arrival_rate is None or arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.kernel = kernel
        self.listener = listener
        self.trace = trace
        self.arrival_rate = arrival_rate
        self.rate_curve = rate_curve
        self.think = think if think and think.distribution != "none" else None
        self.max_sessions = max_sessions
        self.record_log = record_log
        self.rng = rng or Rng(7)
        self.log = TxLog()
        self.bytes_received = 0
        self.sessions_started = 0
        self.sessions_finished = 0
        #: O(1) aggregates kept even when the per-transaction log is off.
        self.completed_requests = 0
        self.response_sum = 0.0
        self._think_rng = (
            self.rng.stream("think") if self.think is not None else None
        )

    def start(self) -> None:
        generator = self.kernel.spawn(self._arrivals(), name="openloop-arrivals")
        generator.daemon = True

    def mean_response(self) -> float:
        if not self.completed_requests:
            return 0.0
        return self.response_sum / self.completed_requests

    def _budget_left(self) -> bool:
        return (
            self.max_sessions is None
            or self.sessions_started < self.max_sessions
        )

    def _spawn_session(self) -> None:
        self.sessions_started += 1
        session = self.kernel.spawn(
            self._session(), name=f"session-{self.sessions_started}"
        )
        session.daemon = True

    def _arrivals(self) -> Iterator:
        yield CurrentThread()
        from repro.sim import Delay

        arrival_rng = self.rng.stream("arrivals")
        curve = self.rate_curve
        if curve is None:
            # Homogeneous Poisson — draw-for-draw the legacy stream.
            while self._budget_left():
                yield Delay(arrival_rng.expovariate(self.arrival_rate))
                self._spawn_session()
            return
        # Non-homogeneous Poisson via Lewis–Shedler thinning: draw
        # candidate arrivals at the peak rate, accept each with
        # probability rate(t)/peak.  The accepted process is exactly
        # Poisson at rate(t).
        peak = curve.peak_rate()
        while self._budget_left():
            yield Delay(arrival_rng.expovariate(peak))
            if arrival_rng.random() * peak <= curve.rate(self.kernel.now):
                self._spawn_session()

    def _session(self) -> Iterator:
        yield CurrentThread()
        from repro.sim import Delay

        connection = self.listener.connect()
        for obj in self.trace.session():
            start = self.kernel.now
            yield Send(
                connection.to_server,
                Message(("GET", obj.object_id), REQUEST_BYTES),
            )
            response = yield Recv(connection.to_client)
            self.bytes_received += response.size
            self.completed_requests += 1
            self.response_sum += self.kernel.now - start
            if self.record_log:
                self.log.add("GET", start, self.kernel.now)
            if self.think is not None:
                pause = self.think.sample(self._think_rng)
                if pause > 0:
                    yield Delay(pause)
        yield Send(connection.to_server, Message((CLOSE, -1), 40))
        self.sessions_finished += 1
