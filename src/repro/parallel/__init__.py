"""Multi-core scale-out: sharded simulation and its presentation phase.

Whodunit's profile *collection* (§7.1) happens independently per stage
process, so a workload shards into independent deployments that run
across cores; the post-mortem *presentation* phase then folds the
per-shard dumps in one process, one shard at a time:

- :mod:`repro.parallel.shard` deterministically partitions a TPC-W or
  Haboob workload into N independent shards (per-shard seeds derived
  from the run seed and shard index);
- :mod:`repro.parallel.runner` executes the shards in-process or on
  the standard library's process pool, spooling per-stage profile
  dumps and returning plain-data summaries that merge post-hoc
  (including telemetry metrics);
- :mod:`repro.parallel.stitching` is the presentation phase: each
  shard's dumps are decoded and stitched, then dropped after an exact
  shard-ordered fold, so output is byte-identical no matter how the
  shards were scheduled;
- :mod:`repro.parallel.reduce` is the hierarchical
  shard → group → global reduce tree, byte-identical to the flat
  reduce at every group size thanks to error-free (Shewchuk) weight
  accumulation.

See ``docs/performance.md`` for the sharding model and determinism
guarantees.
"""

from repro.parallel.shard import (
    ShardPlan,
    ShardSpec,
    derive_shard_seed,
    partition_clients,
    plan_shards,
)
from repro.parallel.runner import (
    ShardResult,
    ShardedRun,
    WorkerError,
    WorkerLost,
    run_shards,
)
from repro.parallel.reduce import (
    ProfileAccumulator,
    default_group_size,
    hierarchical_stitch,
    plan_groups,
)
from repro.parallel.stitching import (
    canonical_profile_bytes,
    spool_groups,
    stitch_groups,
    stitch_spool,
)

__all__ = [
    "ProfileAccumulator",
    "ShardPlan",
    "ShardResult",
    "ShardSpec",
    "ShardedRun",
    "WorkerError",
    "WorkerLost",
    "canonical_profile_bytes",
    "default_group_size",
    "derive_shard_seed",
    "hierarchical_stitch",
    "partition_clients",
    "plan_groups",
    "plan_shards",
    "run_shards",
    "spool_groups",
    "stitch_groups",
    "stitch_spool",
]
