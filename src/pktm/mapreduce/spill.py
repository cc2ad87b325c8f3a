"""On-disk spill files holding partitioned map output.

Layout, all little-endian: magic ``KVP3``, u32 region count R, R+1 u64
record bounds, then fixed 16-byte records ``(u64 key, f64 value)``.
Region r holds records ``bounds[r]`` up to ``bounds[r + 1]``; the first
bound is 0 and the last is the record count.  A map task writes one file
whose region p holds partition p's records in emission order, so a reduce
task seeks to its own region of every map file; a reduced file has one
region of strictly ascending keys.  Files are written to a temporary name
and atomically renamed, so re-executed tasks (at-least-once scheduling) can
only ever replace a file with identical bytes, never expose a partial one.
"""

from __future__ import annotations

import os
import struct
import threading
from pathlib import Path

import numpy as np

MAGIC = b"KVP3"
HEADER = struct.Struct("<4sI")
BOUND_DTYPE = np.dtype("<u8")
RECORD_DTYPE = np.dtype([("key", "<u8"), ("value", "<f8")])


class SpillFormatError(RuntimeError):
    """A spill file failed structural validation."""


def make_records(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Pack equal-length key and value arrays into one record array."""
    out = np.empty(keys.shape[0], dtype=RECORD_DTYPE)
    out["key"] = keys
    out["value"] = values
    return out


def write_partition_file(path: str | Path, records: np.ndarray,
                         bounds: np.ndarray | None = None) -> None:
    """Atomically write one spill file (empty record arrays are legal).

    ``bounds`` splits ``records`` into ``len(bounds) - 1`` regions; without
    it the file has one region holding every record.
    """
    records = np.ascontiguousarray(records, dtype=RECORD_DTYPE)
    n = records.shape[0]
    bounds = np.asarray((0, n) if bounds is None else bounds)
    if (bounds.ndim != 1 or bounds.shape[0] < 2 or bounds[0] != 0
            or bounds[-1] != n or np.any(bounds[1:] < bounds[:-1])):
        raise ValueError(f"bounds must rise from 0 to {n}, got {bounds}")
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    with open(tmp, "wb") as f:
        f.write(HEADER.pack(MAGIC, bounds.shape[0] - 1))
        f.write(bounds.astype(BOUND_DTYPE))
        f.write(records)
    os.replace(tmp, path)


def read_partition_file(path: str | Path, region: int | None = None) -> np.ndarray:
    """Validate one spill file and return the records of one ``region``,
    or of every region when it is None."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(HEADER.size)
        if len(head) < HEADER.size:
            raise SpillFormatError(f"{path}: truncated header ({len(head)} bytes)")
        magic, n_regions = HEADER.unpack(head)
        if magic != MAGIC:
            raise SpillFormatError(f"{path}: bad magic {magic!r} at offset 0")
        start = HEADER.size + (n_regions + 1) * BOUND_DTYPE.itemsize
        if n_regions < 1 or size < start:
            raise SpillFormatError(
                f"{path}: {size} bytes cannot hold an index of "
                f"{n_regions} regions")
        bounds = np.frombuffer(f.read(start - HEADER.size), dtype=BOUND_DTYPE)
        if bounds.shape[0] != n_regions + 1:
            raise SpillFormatError(f"{path}: short read of the region index")
        if bounds[0] != 0:
            raise SpillFormatError(f"{path}: first bound is {bounds[0]}, not 0")
        if np.any(bounds[1:] < bounds[:-1]):
            raise SpillFormatError(f"{path}: region bounds decrease")
        expected = start + int(bounds[-1]) * RECORD_DTYPE.itemsize
        if size != expected:
            raise SpillFormatError(
                f"{path}: expected {expected} bytes for {bounds[-1]} records, "
                f"got {size}")
        if region is None:
            lo, hi = 0, int(bounds[-1])
        elif 0 <= region < n_regions:
            lo, hi = int(bounds[region]), int(bounds[region + 1])
        else:
            raise SpillFormatError(
                f"{path}: region {region} out of range for {n_regions} regions")
        f.seek(start + lo * RECORD_DTYPE.itemsize)
        data = f.read((hi - lo) * RECORD_DTYPE.itemsize)
    if len(data) != (hi - lo) * RECORD_DTYPE.itemsize:
        raise SpillFormatError(
            f"{path}: short read of records "
            f"({len(data)} of {(hi - lo) * RECORD_DTYPE.itemsize} bytes)")
    return np.frombuffer(data, dtype=RECORD_DTYPE)
