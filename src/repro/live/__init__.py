"""repro.live — the online streaming stitcher.

Turns the batch presentation phase into a continuous-profiling
service: a :class:`LiveCollector` listens on the profiler's raw event
stream (:data:`repro.core.profiler.PROFILE_LISTENERS`; no telemetry
or spans needed) during the run, keeps incrementally-stitched
state under bounded memory (LRU of resident CCTs spilling to an
append-only log that a chain of WDR2 interval checkpoints references),
answers live queries (``top_contexts``,
``stage_weights``, ``completeness``, crosstalk pairs) at any virtual
time, and — after final compaction — produces a profile byte-identical
to the post-mortem stitch of the same run.

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
