"""On-disk spill files holding partitioned map output.

Layout, all little-endian: magic ``KVP4``, u32 region count R, R+1 u64
record bounds, then the n keys (u64) of every region and then their n
values (f64) in the same order, where n is the last bound.  Region r holds
records ``bounds[r]`` up to ``bounds[r + 1]``; the first bound is 0.  A
map task writes one file whose region p holds partition p's records in
emission order, so a reduce task reads its own region of every map file
straight into one key array and one value array, with no record packing on
either side of the file; a reduced file has one region of strictly
ascending keys.  Files are written to a temporary name and atomically
renamed, so re-executed tasks (at-least-once scheduling) can only ever
replace a file with identical bytes, never expose a partial one.
"""

from __future__ import annotations

import os
import struct
import threading
from pathlib import Path
from typing import Sequence

import numpy as np

MAGIC = b"KVP4"
HEADER = struct.Struct("<4sI")
BOUND_DTYPE = np.dtype("<u8")
KEY_DTYPE = np.dtype("<u8")
VALUE_DTYPE = np.dtype("<f8")
RECORD_DTYPE = np.dtype([("key", KEY_DTYPE), ("value", VALUE_DTYPE)])
_RECORD_BYTES = KEY_DTYPE.itemsize + VALUE_DTYPE.itemsize


class SpillFormatError(RuntimeError):
    """A spill file failed structural validation."""


def make_records(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Pack equal-length key and value arrays into one record array."""
    out = np.empty(keys.shape[0], dtype=RECORD_DTYPE)
    out["key"] = keys
    out["value"] = values
    return out


def write_columns(path: str | Path, keys: np.ndarray, values: np.ndarray,
                  bounds: np.ndarray | None = None) -> None:
    """Atomically write one spill file of equal-length ``keys`` and
    ``values`` (empty arrays are legal).

    ``bounds`` splits the records into ``len(bounds) - 1`` regions; without
    it the file has one region holding every record.
    """
    keys = np.ascontiguousarray(keys, dtype=KEY_DTYPE)
    values = np.ascontiguousarray(values, dtype=VALUE_DTYPE)
    n = keys.shape[0]
    if keys.ndim != 1 or values.shape != keys.shape:
        raise ValueError("keys and values must be 1-D and equally long")
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
        f.write(keys)
        f.write(values)
    os.replace(tmp, path)


def write_partition_file(path: str | Path, records: np.ndarray,
                         bounds: np.ndarray | None = None) -> None:
    """:func:`write_columns` for one ``RECORD_DTYPE`` array."""
    records = np.asarray(records, dtype=RECORD_DTYPE)
    write_columns(path, records["key"], records["value"], bounds)


def _read_index(f, path) -> tuple[np.ndarray, int]:
    """Validate the header, index and size of the open spill file ``f``;
    return its bounds and the offset of its first key."""
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
    expected = start + int(bounds[-1]) * _RECORD_BYTES
    if size != expected:
        raise SpillFormatError(
            f"{path}: expected {expected} bytes for {bounds[-1]} records, "
            f"got {size}")
    return bounds, start


def _read_into(f, path, offset: int, out: np.ndarray) -> None:
    """Fill ``out`` with the bytes of ``f`` from ``offset`` on."""
    view = memoryview(out).cast("B")
    f.seek(offset)
    got = 0
    while got < view.nbytes:
        n = f.readinto(view[got:])
        if not n:
            raise SpillFormatError(
                f"{path}: short read of records "
                f"({got} of {view.nbytes} bytes at offset {offset})")
        got += n


def read_columns(paths: Sequence[str | Path], region: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Validate each spill file and return the keys and values of one
    ``region`` (of every region when it is None), gathered from ``paths``
    in order into one key array and one value array."""
    spans = []  # (path, first key offset, records in file, lo, hi)
    for path in paths:
        with open(path, "rb") as f:
            bounds, start = _read_index(f, path)
        n_regions = bounds.shape[0] - 1
        if region is None:
            lo, hi = 0, int(bounds[-1])
        elif 0 <= region < n_regions:
            lo, hi = int(bounds[region]), int(bounds[region + 1])
        else:
            raise SpillFormatError(
                f"{path}: region {region} out of range for {n_regions} regions")
        spans.append((path, start, int(bounds[-1]), lo, hi))
    total = sum(hi - lo for *_, lo, hi in spans)
    keys = np.empty(total, dtype=KEY_DTYPE)
    values = np.empty(total, dtype=VALUE_DTYPE)
    at = 0
    for path, start, n, lo, hi in spans:
        if hi == lo:
            continue
        # buffering=0: readinto goes straight from the kernel to the arrays
        with open(path, "rb", buffering=0) as f:
            _read_into(f, path, start + lo * KEY_DTYPE.itemsize,
                       keys[at:at + hi - lo])
            _read_into(f, path,
                       start + n * KEY_DTYPE.itemsize + lo * VALUE_DTYPE.itemsize,
                       values[at:at + hi - lo])
        at += hi - lo
    return keys, values


def read_partition_file(path: str | Path, region: int | None = None) -> np.ndarray:
    """Validate one spill file and return the records of one ``region``,
    or of every region when it is None."""
    return make_records(*read_columns([path], region))
