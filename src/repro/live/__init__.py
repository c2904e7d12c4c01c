"""repro.live — the online streaming stitcher.

Turns the batch presentation phase into a continuous-profiling
service: a :class:`LiveCollector` attached before the system is built
owns the stage runtimes' CCT dictionaries (no telemetry or spans
needed), keeps them under one LRU bound for the whole process (colder
trees spill to one append-only file per directory, whose interval
commits make it a replayable log), answers live queries (``top_contexts``,
``stage_weights``, ``completeness``, crosstalk pairs) at any virtual
time, and — after final compaction — produces the profile the
post-mortem stitch of the same run gives, because it stitches the same
trees.

See ``docs/observability.md`` for the architecture walkthrough.
"""

from repro.live.checkpoint import LOG_NAME, read_commits
from repro.live.collector import LiveCollector, attach_collector

__all__ = [
    "LOG_NAME",
    "LiveCollector",
    "attach_collector",
    "read_commits",
]
