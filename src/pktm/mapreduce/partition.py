"""Key-to-partition routing: a key goes to partition ``key mod R``.

Cell ordinals are ``(b * nx + ix) * ntau + itau``, so tau varies fastest,
and the kernel keeps contiguous runs of tau rows.  Consecutive keys
therefore cycle through every residue, and the modulus spreads a map task's
output as evenly as a hash would.
"""

from __future__ import annotations

import numpy as np


def partitions_of(ordinals: np.ndarray, n_partitions: int) -> np.ndarray:
    """Partition index ``key mod n_partitions`` of each uint64 key, as int64.

    The residue is computed as ``key - (key // R) * R`` in uint64: numpy
    divides an integer array by a scalar with a multiply and a shift, but
    its ``%`` runs a hardware division per element, about four times
    slower.  ``(key // R) * R`` never exceeds ``key``, so nothing wraps,
    and every residue is below R, so it reads the same as int64.
    """
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    keys = np.asarray(ordinals, dtype=np.uint64)
    r = np.uint64(n_partitions)
    out = np.floor_divide(keys, r, out=np.empty_like(keys))
    out *= r
    np.subtract(keys, out, out=out)
    return out.view(np.int64)
