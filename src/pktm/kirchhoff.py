"""Kirchhoff summation operators: per-trace migration, its exact adjoint,
offset stacking, and a serial whole-survey reference path.

Migration scatters each trace sample along its diffraction isochron into the
common-offset image for the trace's offset bin.  ``forward_model`` is the
exact transpose (same aperture, binning, weights, and interpolation
coefficients), so the pair passes a machine-precision dot-product test.

Per-cell totals are correctly rounded exact sums of all contributions
(see :mod:`pktm.exactsum`), which makes the serial path bit-identical to any
distributed execution of the same per-trace map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .exactsum import grouped_fsum
from .model import (
    ConfigurationError,
    Contribution,
    GridSpec,
    ImageGrid,
    OffsetBinning,
    Survey,
    Trace,
    TraceHeader,
    VelocityModel,
    ordinal_to_cell_key,
)
from .traveltime import KernelParams, leg_times_grid, weights_grid


@dataclass(frozen=True)
class MigrationJob:
    """Fixed operands of one migration: target grid, velocity, kernel knobs."""

    grid: GridSpec
    vel: VelocityModel
    params: KernelParams
    binning: OffsetBinning

    def __post_init__(self):
        if self.grid.n_offset_bins != self.binning.n_bins:
            raise ConfigurationError(
                f"grid has {self.grid.n_offset_bins} offset bins, "
                f"binning defines {self.binning.n_bins}"
            )


@dataclass(frozen=True)
class Contributions:
    """Array-backed sequence of keyed contributions from one trace.

    ``ordinals`` are dense cell encodings (ascending within one trace's
    output); zero-valued contributions are elided.
    """

    spec: GridSpec
    ordinals: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ordinals = np.ascontiguousarray(self.ordinals, dtype=np.uint64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if ordinals.shape != values.shape or ordinals.ndim != 1:
            raise ValueError("ordinals and values must be 1-D and equally long")
        ordinals.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "ordinals", ordinals)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.ordinals.shape[0])

    def __iter__(self) -> Iterator[Contribution]:
        for o, v in zip(self.ordinals.tolist(), self.values.tolist()):
            yield Contribution(ordinal_to_cell_key(o, self.spec), v)

    @classmethod
    def empty(cls, spec: GridSpec) -> "Contributions":
        return cls(spec, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64))


def interp_sample(trace: Trace, t: float) -> float:
    """Linearly interpolated amplitude at time ``t``; zero outside the trace."""
    h = trace.header
    n = h.n_samples
    u = (t - h.t0) / h.dt
    if not (0.0 <= u <= n - 1):
        return 0.0
    s = trace.samples
    if n == 1:
        return float(s[0])
    i = min(int(math.floor(u)), n - 2)
    frac = u - i
    return (1.0 - frac) * float(s[i]) + frac * float(s[i + 1])


def _stencil(
    t: np.ndarray, t0: float, dt: float, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Linear-interpolation stencil of times ``t`` on an ``n``-sample trace.

    Returns (i, j, frac, valid): the amplitude at t is
    ``(1 - frac) * s[i] + frac * s[j]`` where ``valid`` and zero elsewhere,
    as :func:`interp_sample` computes it for one time.  A one-sample trace
    is valid only at t0 exactly, where i = j = 0 and frac = 0.  Migration
    reads through the stencil and modeling scatters through it, so the pair
    is an exact transpose.
    """
    u = (t - t0) / dt
    valid = (u >= 0.0) & (u <= n - 1)
    uc = np.where(valid, u, 0.0)
    i = np.minimum(np.floor(uc).astype(np.int64), max(n - 2, 0))
    return i, np.minimum(i + 1, n - 1), uc - i, valid


def _accepted_lateral(header: TraceHeader, job: MigrationJob) -> np.ndarray:
    """Lateral indices whose x position lies within the midpoint aperture."""
    mid = 0.5 * (header.source_x + header.receiver_x)
    xg = job.grid.x_axis()
    return np.flatnonzero(np.abs(xg - mid) <= job.params.aperture)


def _kernel_grids(
    header: TraceHeader, job: MigrationJob, ix_acc: np.ndarray
) -> tuple[np.ndarray, np.ndarray | float]:
    """DSR times and weights on the (accepted lateral, tau) grid."""
    grid = job.grid
    tau = grid.tau_axis()
    v = np.asarray(job.vel(tau), dtype=np.float64)
    x = grid.x_axis()[ix_acc]
    hs = np.abs(x - header.source_x)[:, None]
    hr = np.abs(x - header.receiver_x)[:, None]
    ts = leg_times_grid(hs, tau, v)
    tr = leg_times_grid(hr, tau, v)
    return ts + tr, weights_grid(tau, ts, tr, job.params.weight_mode)


def migrate_trace(trace: Trace, job: MigrationJob) -> Contributions:
    """Scatter one trace into keyed image-cell contributions.

    The trace feeds the offset bin containing its |source-receiver| distance
    (empty output if no bin matches).  Every in-aperture cell receives
    weight * interpolated amplitude at the DSR time; exact zeros are elided.
    Emission order is ascending (lateral, tau), i.e. ascending cell key.
    """
    grid = job.grid
    h = trace.header
    b = job.binning.bin_of(h.offset)
    if b is None:
        return Contributions.empty(grid)
    ix_acc = _accepted_lateral(h, job)
    if ix_acc.size == 0:
        return Contributions.empty(grid)
    t, w = _kernel_grids(h, job, ix_acc)
    samples = np.asarray(trace.samples, dtype=np.float64)
    i, j, frac, valid = _stencil(t, h.t0, h.dt, samples.shape[0])
    amp = (1.0 - frac) * samples[i] + frac * samples[j]
    values = w * np.where(valid, amp, 0.0)
    base = ((np.uint64(b) * np.uint64(grid.nx) + ix_acc.astype(np.uint64))
            * np.uint64(grid.ntau))
    ordinals = base[:, None] + np.arange(grid.ntau, dtype=np.uint64)
    flat_vals = values.reshape(-1)
    flat_ords = ordinals.reshape(-1)
    keep = flat_vals != 0.0
    return Contributions(grid, flat_ords[keep], flat_vals[keep])


def forward_model(
    image: ImageGrid, survey_geometry: Sequence[TraceHeader], job: MigrationJob
) -> list[Trace]:
    """Exact transpose of migration: spread image energy onto predicted times.

    For each header, every cell accepted by the same aperture/bin rules
    contributes weight * cell value, split between the two samples that
    bracket its DSR time with the interpolation weights migration uses.
    Output samples are float64 (quantize on write if single precision is
    wanted).
    """
    if image.spec != job.grid:
        raise ConfigurationError("image geometry does not match job grid")
    out: list[Trace] = []
    for h in survey_geometry:
        n = h.n_samples
        samples = np.zeros(n, dtype=np.float64)
        b = job.binning.bin_of(h.offset)
        if b is not None:
            ix_acc = _accepted_lateral(h, job)
            if ix_acc.size:
                t, w = _kernel_grids(h, job, ix_acc)
                vals = w * image.values[b, ix_acc, :]
                i, j, frac, valid = _stencil(t, h.t0, h.dt, n)
                np.add.at(samples, i[valid], ((1.0 - frac) * vals)[valid])
                np.add.at(samples, j[valid], (frac * vals)[valid])
        out.append(Trace(h, samples))
    return out


def migrate_survey_serial(survey: Survey, job: MigrationJob) -> ImageGrid:
    """Whole-survey migration as one plain loop, no distributed machinery.

    Traces are mapped in ascending trace_id order and each cell's total is
    the correctly rounded exact sum of its contributions, so the result is
    bit-reproducible and matches any MapReduce execution of the same job.
    """
    ords = [np.empty(0, dtype=np.uint64)]
    vals = [np.empty(0, dtype=np.float64)]
    for trace in survey:
        c = migrate_trace(trace, job)
        ords.append(c.ordinals)
        vals.append(c.values)
    all_ords = np.concatenate(ords)
    all_vals = np.concatenate(vals)
    order = np.argsort(all_ords, kind="stable")
    unique, totals = grouped_fsum(all_ords[order], all_vals[order])
    flat = np.zeros(job.grid.n_cells, dtype=np.float64)
    flat[unique.astype(np.int64)] = totals
    return ImageGrid(job.grid, flat.reshape(
        job.grid.n_offset_bins, job.grid.nx, job.grid.ntau))


def stack_offsets(image: ImageGrid) -> np.ndarray:
    """Sum the common-offset images into one (nx, ntau) stacked section."""
    return image.values.sum(axis=0)
