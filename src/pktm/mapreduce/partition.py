"""Key-to-partition routing: a key goes to partition ``key mod R``.

Cell ordinals are ``(b * nx + ix) * ntau + itau``, so tau varies fastest,
and the kernel keeps contiguous runs of tau rows.  Consecutive keys
therefore cycle through every residue, and the modulus spreads a map task's
output as evenly as a hash would.
"""

from __future__ import annotations

import numpy as np


def partitions_of(ordinals: np.ndarray, n_partitions: int) -> np.ndarray:
    """Partition index ``key mod n_partitions`` of each uint64 key."""
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    keys = np.asarray(ordinals, dtype=np.uint64)
    return (keys % np.uint64(n_partitions)).astype(np.int64)
