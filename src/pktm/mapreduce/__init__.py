"""Deterministic single-machine MapReduce runtime.

Map tasks spill key/value pairs to disk in R partitions by key mod R, one
file of R regions per task; reduce tasks fold each partition with correctly
rounded exact sums, and the coordinator merges partitions into one globally
key-ordered result.
Serial, threaded, and socket-based multiprocess execution all produce
bit-identical output.
"""

from .engine import (
    JobConfig,
    JobError,
    ContractViolationError,
    KeyedTotals,
    MapOutputError,
    run_job,
)

__all__ = [
    "JobConfig",
    "JobError",
    "ContractViolationError",
    "KeyedTotals",
    "MapOutputError",
    "run_job",
]
