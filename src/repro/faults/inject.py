"""Deterministic, seeded fault injection for the simulated transport.

A :class:`FaultInjector` is attached to a kernel (``kernel.faults``)
*before* the simulated system is built.  Every
:class:`~repro.channels.socket.Endpoint` constructed on that kernel asks
the injector for per-endpoint fault state at construction time (the same
capture-once pattern the telemetry layer uses, so fault-free runs pay
nothing on the send path).  Message faults are decided by a per-endpoint
:class:`random.Random` stream seeded from ``(seed, rule index, endpoint
attach order)`` — all integers, never ``hash()`` — so a given seed
reproduces the same faults event for event, run after run, regardless of
``PYTHONHASHSEED``.

Stage crashes are scheduled separately with :meth:`FaultInjector.
schedule_crashes` once the stages exist; each target must expose a
``crash(restart_after=None)`` method (both
:class:`~repro.seda.stage.SedaStage` and
:class:`~repro.core.profiler.StageRuntime` do).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import CrashSpec, FaultPlan, FaultRule


class EndpointFaultState:
    """Per-endpoint fault decisions, drawn from a dedicated RNG stream."""

    __slots__ = ("rule", "rng", "injector")

    def __init__(self, rule: FaultRule, rng: random.Random, injector: "FaultInjector"):
        self.rule = rule
        self.rng = rng
        self.injector = injector

    def deliveries(self, message: Any) -> List[float]:
        """Extra delivery delays for one send; an empty list drops it.

        A normal message yields ``[0.0]``; a duplicated one two entries;
        a reordered or delayed one a single positive extra delay.
        """
        rule = self.rule
        rng = self.rng
        injector = self.injector
        injector.messages_seen += 1
        if rule.drop and rng.random() < rule.drop:
            injector.dropped += 1
            return []
        extra = 0.0
        if rule.delay and rng.random() < rule.delay:
            injector.delayed += 1
            extra += rule.delay_amount
        if rule.reorder and rng.random() < rule.reorder:
            injector.reordered += 1
            extra += rng.random() * rule.reorder_window
        out = [extra]
        if rule.duplicate and rng.random() < rule.duplicate:
            injector.duplicated += 1
            out.append(extra + rng.random() * rule.reorder_window)
        return out


class FaultInjector:
    """The active fault plan, its RNG streams, and its injection counters."""

    def __init__(self, plan: "FaultPlan | str | Dict[str, Any]", seed: int = 0):
        self.plan = FaultPlan.parse(plan)
        self.seed = seed
        self._attached = 0
        self.messages_seen = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.delayed = 0
        self.crashes_fired = 0

    # ------------------------------------------------------------------
    def attach(self, endpoint: Any) -> Optional[EndpointFaultState]:
        """Per-endpoint fault state, or None when no rule matches.

        Called once from ``Endpoint.__init__``; the attach order (which
        is the deterministic construction order of the simulation) keys
        the endpoint's RNG stream, so endpoint *names* — which embed
        process-global connection ids — never influence the draws.
        """
        rule = self.plan.rule_for(endpoint.name)
        if rule is None:
            return None
        index = self._attached
        self._attached += 1
        rule_index = self.plan.rules.index(rule)
        rng = random.Random(
            (self.seed * 1_000_003 + rule_index) * 1_000_003 + index
        )
        return EndpointFaultState(rule, rng, self)

    # ------------------------------------------------------------------
    def schedule_crashes(self, kernel: Any, targets: Dict[str, Any]) -> int:
        """Schedule the plan's stage crashes on ``kernel``.

        ``targets`` maps stage names to objects exposing
        ``crash(restart_after=None)``.  Crash specs naming unknown
        stages raise immediately — a misspelled stage name must not
        silently yield a crash-free run.  Returns the number scheduled.
        """
        scheduled = 0
        for spec in self.plan.crashes:
            target = targets.get(spec.stage)
            if target is None:
                raise KeyError(
                    f"fault plan crashes unknown stage {spec.stage!r}; "
                    f"have {sorted(targets)}"
                )
            delay = spec.at - kernel.now if spec.at > kernel.now else 0.0
            kernel.wake_at(kernel.now + delay, self, (target, spec))
            scheduled += 1
        return scheduled

    def step(self, crash: Tuple[Any, CrashSpec]) -> None:
        """Fire one scheduled stage crash (its wheel entry)."""
        target, spec = crash
        self.crashes_fired += 1
        target.crash(restart_after=spec.restart)

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, int]:
        """Injection totals for the run (deterministic per seed)."""
        return {
            "messages_seen": self.messages_seen,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "delayed": self.delayed,
            "crashes": self.crashes_fired,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector seed={self.seed} {self.report()}>"


def install_faults(
    kernel: Any,
    plan: "FaultPlan | str | Dict[str, Any]",
    seed: int = 0,
) -> FaultInjector:
    """Attach a fault injector to ``kernel`` (before building the system)."""
    injector = FaultInjector(plan, seed=seed)
    kernel.faults = injector
    return injector
