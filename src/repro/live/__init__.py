"""repro.live — the online streaming stitcher.

Turns the batch presentation phase into a continuous-profiling
service: a :class:`LiveCollector` attached before the system is built
owns the stage runtimes' CCT dictionaries (no telemetry or spans
needed), keeps them under one LRU bound for the whole process (colder
trees spill to an append-only log that a chain of WDR2 interval
checkpoints references), answers live queries (``top_contexts``,
``stage_weights``, ``completeness``, crosstalk pairs) at any virtual
time, and — after final compaction — produces the profile the
post-mortem stitch of the same run gives, because it stitches the same
trees.

See ``docs/observability.md`` for the architecture walkthrough.
"""

from repro.live.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    list_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.live.collector import LiveCollector, attach_collector

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "LiveCollector",
    "attach_collector",
    "list_checkpoints",
    "read_checkpoint",
    "write_checkpoint",
]
