"""On-disk spill files holding partitioned map output.

Layout: magic ``KVP2``, u32 little-endian record count, then fixed 16-byte
records ``(u64 key, f64 value)``, little-endian.  Map files keep each
partition's records in emission order; reduced files hold strictly ascending
keys.  Files are written to a temporary name and atomically renamed, so re-executed
tasks (at-least-once scheduling) can only ever replace a file with identical
bytes, never expose a partial one.
"""

from __future__ import annotations

import os
import struct
import threading
from pathlib import Path

import numpy as np

MAGIC = b"KVP2"
HEADER = struct.Struct("<4sI")
RECORD_DTYPE = np.dtype([("key", "<u8"), ("value", "<f8")])


class SpillFormatError(RuntimeError):
    """A spill file failed structural validation."""


def make_records(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Pack equal-length key and value arrays into one record array."""
    out = np.empty(keys.shape[0], dtype=RECORD_DTYPE)
    out["key"] = keys
    out["value"] = values
    return out


def write_partition_file(path: str | Path, records: np.ndarray) -> None:
    """Atomically write one spill file (empty record arrays are legal)."""
    records = np.ascontiguousarray(records, dtype=RECORD_DTYPE)
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    with open(tmp, "wb") as f:
        f.write(HEADER.pack(MAGIC, records.shape[0]))
        f.write(records.tobytes())
    os.replace(tmp, path)


def read_partition_file(path: str | Path) -> np.ndarray:
    """Read and validate one spill file, returning its record array."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < HEADER.size:
        raise SpillFormatError(f"{path}: truncated header ({len(data)} bytes)")
    magic, count = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise SpillFormatError(f"{path}: bad magic {magic!r} at offset 0")
    expected = HEADER.size + count * RECORD_DTYPE.itemsize
    if len(data) != expected:
        raise SpillFormatError(
            f"{path}: expected {expected} bytes for {count} records, "
            f"got {len(data)}")
    return np.frombuffer(data, dtype=RECORD_DTYPE, offset=HEADER.size, count=count)
