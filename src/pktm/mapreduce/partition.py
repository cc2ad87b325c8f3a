"""Key-to-partition routing via FNV-1a hashing of the key's byte encoding.

Hashing the 8-byte little-endian key spreads the dense, highly structured
cell ordinals evenly over partitions; a plain modulus would put entire tau
columns in one partition.
"""

from __future__ import annotations

import numpy as np

_FNV_OFFSET_BASIS = 14695981039346656037
_FNV_PRIME = 1099511628211
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET_BASIS
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64_MASK
    return h


def partition_of(ordinal: int, n_partitions: int) -> int:
    """Partition index for one key ordinal: FNV-1a of its u64-LE bytes, mod R."""
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    if not 0 <= ordinal <= _U64_MASK:
        raise ValueError(f"key ordinal out of u64 range: {ordinal}")
    return fnv1a_64(int(ordinal).to_bytes(8, "little")) % n_partitions


def partitions_of(ordinals: np.ndarray, n_partitions: int) -> np.ndarray:
    """Vectorized :func:`partition_of` over a uint64 key array."""
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    keys = np.ascontiguousarray(ordinals.astype("<u8", copy=False).reshape(-1))
    key_bytes = keys.view(np.uint8).reshape(-1, 8)   # little-endian byte order
    h = np.full(keys.shape, _FNV_OFFSET_BASIS, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for i in range(8):
        h ^= key_bytes[:, i]
        h *= prime
    h %= np.uint64(n_partitions)
    return h.astype(np.int64).reshape(ordinals.shape)
