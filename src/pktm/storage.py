"""File formats: binary trace and image files, velocity tables and PGM
export.

Binary readers never trust a length field: every size is checked against the
actual byte count before anything is allocated or sliced, so corrupt input
produces a structured :class:`StorageError` (with the failing offset where
meaningful), never a crash or a giant allocation.

Trace file (magic ``SMR1``)::

    "SMR1" | u32 trace count | per trace:
        f64 source_x | f64 receiver_x | f64 t0 | f64 dt |
        u32 n_samples | f32 samples[n_samples]

Trace ids are implicit: position in the file.  Image file (magic ``SMI1``)::

    "SMI1" | f64 x_min | f64 dx | f64 tau_min | f64 dtau |
    u32 nx | u32 ntau | u32 n_offset_bins |
    f64 values in (bin, lateral, tau) C order

All integers and floats are little-endian.
"""

from __future__ import annotations

import contextlib
import os
import struct
import threading
from pathlib import Path

import numpy as np

from .model import (
    GridSpec,
    ImageGrid,
    OffsetBinning,
    Survey,
    Trace,
    TraceHeader,
    VelocityModel,
)

TRACE_MAGIC = b"SMR1"
IMAGE_MAGIC = b"SMI1"

_U32 = struct.Struct("<I")
_TRACE_FIXED = struct.Struct("<ddddI")          # sx, rx, t0, dt, n_samples
_IMAGE_GEOM = struct.Struct("<ddddIII")         # x_min, dx, tau_min, dtau, dims


class StorageError(Exception):
    """Base for everything a reader or writer can reject."""


class FormatError(StorageError):
    """Structural problem: wrong magic or unexpected bytes."""


class TruncationError(StorageError):
    """The file ended before a declared field or record."""


class CorruptionError(StorageError):
    """Internally inconsistent content, e.g. a bad sample count."""


class ValidationError(StorageError):
    """Parsed values violate domain rules (dt <= 0, non-finite, ...)."""


class ParseError(StorageError):
    """A text table line could not be parsed; carries the line number."""


class _Cursor:
    """Bounds-checked sequential reader over an in-memory file image."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.path = path
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if len(self.data) - self.offset < n:
            raise TruncationError(
                f"{self.path}: truncated {what} at offset {self.offset}: "
                f"need {n} bytes, have {len(self.data) - self.offset}")
        out = self.data[self.offset:self.offset + n]
        self.offset += n
        return out

    def remaining(self) -> int:
        return len(self.data) - self.offset

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic), "magic")
        if got != magic:
            raise FormatError(
                f"{self.path}: bad magic {got!r} at offset 0, "
                f"expected {magic!r}")

    def expect_exhausted(self) -> None:
        if self.remaining():
            raise FormatError(
                f"{self.path}: {self.remaining()} trailing bytes "
                f"at offset {self.offset}")


def _atomic_write(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` whole or not at all.  A failed write
    leaves no temporary file, and its error names ``path``."""
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def write_survey(path: str | Path, survey: Survey) -> None:
    """Write traces with single-precision samples, atomically."""
    parts = [TRACE_MAGIC, _U32.pack(len(survey))]
    for trace in survey:
        h = trace.header
        parts.append(_TRACE_FIXED.pack(
            h.source_x, h.receiver_x, h.t0, h.dt, h.n_samples))
        parts.append(np.asarray(trace.samples, dtype="<f4").tobytes())
    _atomic_write(path, b"".join(parts))


def read_survey(path: str | Path, binning: OffsetBinning | None = None) -> Survey:
    """Read a trace file; ids are assigned by position.

    ``binning`` attaches an offset binning to the result (a single
    catch-all bin by default, since the format itself stores none).
    """
    with open(path, "rb") as f:
        data = f.read()
    cur = _Cursor(data, str(path))
    cur.expect_magic(TRACE_MAGIC)
    (count,) = _U32.unpack(cur.take(4, "trace count"))
    traces = []
    for i in range(count):
        sx, rx, t0, dt, n_samples = _TRACE_FIXED.unpack(
            cur.take(_TRACE_FIXED.size, f"trace {i} header"))
        need = 4 * n_samples
        if cur.remaining() < need:
            raise CorruptionError(
                f"{path}: trace {i} declares {n_samples} samples "
                f"({need} bytes) but only {cur.remaining()} bytes remain "
                f"at offset {cur.offset}")
        raw = cur.take(need, f"trace {i} samples")
        samples = np.frombuffer(raw, dtype="<f4", count=n_samples)
        try:
            header = TraceHeader(i, sx, rx, t0, dt, n_samples)
            traces.append(Trace(header, samples))
        except ValueError as exc:
            raise ValidationError(f"{path}: trace {i}: {exc}") from exc
    cur.expect_exhausted()
    try:
        return Survey(traces, binning if binning is not None
                      else OffsetBinning.single())
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# image files
# ---------------------------------------------------------------------------

def write_image(path: str | Path, image: ImageGrid) -> None:
    """Write an image grid; bytes are a pure function of the image."""
    g = image.spec
    header = IMAGE_MAGIC + _IMAGE_GEOM.pack(
        g.x_min, g.dx, g.tau_min, g.dtau, g.nx, g.ntau, g.n_offset_bins)
    _atomic_write(path, header + np.asarray(
        image.values, dtype="<f8").tobytes())


def read_image(path: str | Path) -> ImageGrid:
    with open(path, "rb") as f:
        data = f.read()
    cur = _Cursor(data, str(path))
    cur.expect_magic(IMAGE_MAGIC)
    x_min, dx, tau_min, dtau, nx, ntau, n_bins = _IMAGE_GEOM.unpack(
        cur.take(_IMAGE_GEOM.size, "grid header"))
    try:
        grid = GridSpec(x_min, dx, nx, tau_min, dtau, ntau, n_bins)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    need = 8 * grid.n_cells
    if cur.remaining() < need:
        raise TruncationError(
            f"{path}: truncated image payload at offset {cur.offset}: "
            f"need {need} bytes for {grid.n_cells} cells, "
            f"have {cur.remaining()}")
    raw = cur.take(need, "image payload")
    cur.expect_exhausted()
    values = np.frombuffer(raw, dtype="<f8", count=grid.n_cells).reshape(
        n_bins, nx, ntau)
    try:
        return ImageGrid(grid, values.copy())
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# velocity tables
# ---------------------------------------------------------------------------

def write_velocity(path: str | Path, model: VelocityModel) -> None:
    lines = ["# tau_s  vrms_m_per_s"]
    for tau, v in model.knots:
        lines.append(f"{tau!r} {v!r}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_velocity(path: str | Path) -> VelocityModel:
    """Parse 'tau vrms' lines; '#' comments and blank lines are skipped."""
    knots = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            fields = body.split()
            if len(fields) != 2:
                raise ParseError(
                    f"{path}:{lineno}: expected 'tau vrms', "
                    f"got {len(fields)} fields")
            try:
                knots.append((float(fields[0]), float(fields[1])))
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: non-numeric value in {body!r}") from None
    try:
        return VelocityModel(tuple(knots))
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def check_gain(gain: float) -> None:
    """Reject a PGM display gain that is not finite and > 0."""
    if not (np.isfinite(gain) and gain > 0.0):
        raise ValueError(f"gain must be finite and > 0, got {gain}")


def export_pgm(path: str | Path, stacked: np.ndarray, gain: float = 1.0) -> None:
    """Write a stacked section as a binary PGM, time axis downward.

    Pixels are clamp(128 + 127 * gain * value / max_abs, 0, 255) with
    round-half-even; an all-zero section maps to uniform gray.
    """
    arr = np.asarray(stacked, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"stacked section must be 2-D, got {arr.ndim}-D")
    check_gain(gain)
    max_abs = float(np.max(np.abs(arr))) if arr.size else 0.0
    if max_abs == 0.0:
        pixels = np.full(arr.shape, 128, dtype=np.uint8)
    else:
        levels = 128.0 + 127.0 * gain * arr / max_abs
        pixels = np.clip(np.rint(levels), 0, 255).astype(np.uint8)
    pixels = pixels.T  # rows are tau, columns lateral position
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    _atomic_write(path, header + pixels.tobytes())
