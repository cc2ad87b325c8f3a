"""Deterministic single-machine MapReduce runtime.

Map tasks spill hash-partitioned key/value pairs to disk, reduce tasks fold
each partition with correctly rounded exact sums, and the coordinator merges
partitions into one globally key-ordered result.  Serial, threaded, and
socket-based multiprocess execution all produce bit-identical output.
"""

from .engine import (
    JobConfig,
    JobError,
    ContractViolationError,
    KeyedTotals,
    reassemble_image,
    run_job,
)
from .partition import fnv1a_64, partition_of

__all__ = [
    "JobConfig",
    "JobError",
    "ContractViolationError",
    "KeyedTotals",
    "fnv1a_64",
    "partition_of",
    "reassemble_image",
    "run_job",
]
