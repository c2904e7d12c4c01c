"""Deterministic workload sharding.

A *shard* is an independent slice of a workload: its own client
population, its own complete simulated system (all tiers), its own
seeded RNG streams.  The shard plan is a pure function of the run
parameters, so the same ``(seed, clients, shards)`` triple always
yields the same shard specs — and therefore, because each shard's
simulation is self-contained and seeded, the same profile dumps —
regardless of how many worker processes execute them or in what order.

Seed derivation uses CRC32 (like :class:`repro.sim.rng.Rng.stream`),
never ``hash()``: Python randomises string hashing per process, which
would silently break cross-process reproducibility.  A single-shard
plan passes the run seed through *unchanged*, so a one-shard plan
simulates exactly the run an unsharded system of the same seed would.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Workload kinds the runner knows how to execute.
WORKLOADS = ("tpcw", "haboob", "openloop")


def derive_shard_seed(seed: int, index: int, shards: int) -> int:
    """The deterministic seed for shard ``index`` of ``shards``.

    With one shard the run seed passes through unchanged (serial
    equivalence); otherwise each shard gets an independent stream
    derived from the run seed, the shard index and the shard count, so
    re-planning with a different N reshuffles every shard's stream
    instead of silently reusing a prefix.
    """
    if shards == 1:
        return seed
    return zlib.crc32(f"shard:{seed}:{index}/{shards}".encode()) & 0x7FFFFFFF


def partition_clients(clients: int, shards: int) -> List[int]:
    """Split a client population into near-equal shard populations.

    The remainder goes to the lowest shard indices; the sizes always
    sum to ``clients``.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    if clients < shards:
        raise ValueError(
            f"cannot spread {clients} clients over {shards} shards"
        )
    base, extra = divmod(clients, shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]


@dataclass
class ShardSpec:
    """Everything a worker process needs to run one shard."""

    workload: str
    index: int
    shards: int
    seed: int
    clients: int
    duration: float
    warmup: float = 0.0
    #: Workload-specific keyword arguments (mix, caching, objects, ...).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Where to dump this shard's per-stage profiles ("" = don't dump).
    spool_dir: str = ""
    profile_format: str = "v2"
    #: Telemetry mode to install inside the worker ("off", "spans", "full").
    telemetry_mode: str = "off"
    #: Parent directory for live-collector checkpoints ("" = no live
    #: collection); each shard checkpoints under ``shard-NNNN/``.
    live_dir: str = ""
    #: Virtual seconds between live checkpoints.
    live_interval: float = 5.0
    #: LRU bound on resident live CCTs (None = unbounded).
    live_resident: Optional[int] = 512
    #: Attach an in-memory live collector even without ``live_dir``.
    live: bool = False
    #: Rows in the end-of-run live view a live shard renders.
    live_top: int = 10
    #: Files the shard's telemetry is exported to ("" = none); only a
    #: one-shard plan may name them.
    trace_out: str = ""
    trace_format: str = "chrome"
    metrics_out: str = ""


@dataclass
class ShardPlan:
    """An ordered, deterministic list of shard specs for one run."""

    workload: str
    seed: int
    clients: int
    shards: int
    duration: float
    warmup: float
    specs: List[ShardSpec]

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)


def plan_shards(
    workload: str,
    seed: int,
    clients: int,
    shards: int,
    duration: float,
    warmup: float = 0.0,
    params: Dict[str, Any] = None,
    spool_dir: str = "",
    profile_format: str = "v2",
    telemetry_mode: str = "off",
    live_dir: str = "",
    live_interval: float = 5.0,
    live_resident: Optional[int] = 512,
    live: bool = False,
    live_top: int = 10,
    trace_out: str = "",
    trace_format: str = "chrome",
    metrics_out: str = "",
) -> ShardPlan:
    """Build the deterministic shard plan for a run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    if shards > 1 and (trace_out or metrics_out):
        raise ValueError("trace and metrics files need a one-shard plan")
    populations = partition_clients(clients, shards)
    specs = [
        ShardSpec(
            workload=workload,
            index=index,
            shards=shards,
            seed=derive_shard_seed(seed, index, shards),
            clients=populations[index],
            duration=duration,
            warmup=warmup,
            params=dict(params or {}),
            spool_dir=spool_dir,
            profile_format=profile_format,
            telemetry_mode=telemetry_mode,
            live_dir=live_dir,
            live_interval=live_interval,
            live_resident=live_resident,
            live=live,
            live_top=live_top,
            trace_out=trace_out,
            trace_format=trace_format,
            metrics_out=metrics_out,
        )
        for index in range(shards)
    ]
    return ShardPlan(
        workload=workload,
        seed=seed,
        clients=clients,
        shards=shards,
        duration=duration,
        warmup=warmup,
        specs=specs,
    )
