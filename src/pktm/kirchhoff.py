"""Kirchhoff summation operators: per-trace migration, its exact adjoint,
offset stacking, and a serial whole-survey reference path.

Migration scatters each trace sample along its diffraction isochron into the
common-offset image for the trace's offset bin.  ``forward_model`` is the
exact transpose (same aperture, binning, weights, and interpolation
coefficients), so the pair passes a machine-precision dot-product test.
Both read DSR times and weights from the job's :class:`LegTable`.

Per-cell totals are correctly rounded exact sums of all contributions
(see :mod:`pktm.exactsum`), which makes the serial path bit-identical to any
distributed execution of the same per-trace map.
"""

from __future__ import annotations

import math
import threading
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
from .traveltime import KernelParams, WeightMode, leg_times_grid


# Memory one job's leg table may take in one process.  Surface positions on
# a lattice commensurate with the grid share most distances (the benchmark
# grids need 199 rows and 40 index vectors, 1.15 MB); positions off the
# lattice share none, and past the budget their legs are computed for each
# trace instead.  With 400 traces at such positions on the benchmark grid,
# a threaded 5-velocity scan peaked at 79 MB with this budget, 78 MB with
# no table and 109 MB with 16 MiB.
TABLE_BUDGET_BYTES = 2 * 2**20


class LegTable:
    """One-way leg times and obliquity cosines of one migration job.

    Row r holds, along the tau axis, the leg time
    ``T = leg_times_grid(d, tau, v)`` for one exact lateral distance d and,
    under obliquity weighting, its cosine ``(tau/2) / T`` (1 where T = 0).
    Each surface position s seen so far maps to the nx rows of its
    distances ``|x_ix - s|``.  Every entry comes from the expression that
    :func:`~pktm.traveltime.one_way_time` and :func:`~pktm.traveltime.weight`
    evaluate for one cell, so reading the table changes no bit of any
    kernel output.

    Rows are added under a lock and never rewritten, so threads may share a
    table.  The table lives as long as its job and is never pickled: each
    process builds its own as traces arrive.
    """

    def __init__(self, grid: GridSpec, vel: VelocityModel, weight_mode: WeightMode):
        self._x = grid.x_axis()
        self._tau = grid.tau_axis()
        self._v = np.asarray(vel(self._tau), dtype=np.float64)
        self._obliquity = weight_mode is WeightMode.OBLIQUITY
        self._row_bytes = (2 if self._obliquity else 1) * grid.ntau * 8
        self._budget = TABLE_BUDGET_BYTES
        # made with the first row, so a job that migrates nothing in this
        # process (the coordinator's) holds no table
        self._times: np.ndarray | None = None
        self._cosines: np.ndarray | None = None
        self._lock = threading.Lock()
        self._row_of: dict[float, int] = {}          # distance -> row
        self._rows_at: dict[float, np.ndarray] = {}  # position -> nx rows
        self._bytes = 0
        self._full = False

    @property
    def n_rows(self) -> int:
        return len(self._row_of)

    def legs(self, s: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Leg times and cosines from surface position ``s`` to the image
        columns ``[lo, hi)``, as new (hi - lo, ntau) arrays the caller may
        overwrite.  The cosines are None under unit weighting."""
        with self._lock:
            rows = self._rows_at.get(s)
            if rows is None and not self._full:
                rows = self._add(s)
        if rows is None:
            return self._compute(np.abs(self._x[lo:hi] - s))
        r = rows[lo:hi]  # an index array, so the gathers below copy
        return self._times[r], None if self._cosines is None else self._cosines[r]

    def _compute(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        t = leg_times_grid(d[:, None], self._tau, self._v)
        if not self._obliquity:
            return t, None
        # a zero leg is vertical: d = 0 at tau = 0, or (tau/2)^2 underflowed
        return t, np.divide(0.5 * self._tau, t, out=np.ones_like(t), where=t > 0.0)

    def _add(self, s: float) -> np.ndarray | None:
        """Index position ``s``, adding rows for its new distances; None
        (and no more positions) once that would pass the budget."""
        dist, inverse = np.unique(np.abs(self._x - s), return_inverse=True)
        dist = dist.tolist()
        fresh = [d for d in dist if d not in self._row_of]
        added = len(fresh) * self._row_bytes + self._x.size * 8
        if self._bytes + added > self._budget:
            self._full = True
            return None
        if fresh:
            if self._times is None:
                # room for every row the budget allows; pages never
                # written take no memory
                shape = (self._budget // self._row_bytes, self._tau.size)
                self._times = np.empty(shape)
                self._cosines = np.empty(shape) if self._obliquity else None
            n = len(self._row_of)
            m = n + len(fresh)
            t, c = self._compute(np.asarray(fresh))
            self._times[n:m] = t
            if c is not None:
                self._cosines[n:m] = c
            self._row_of.update(zip(fresh, range(n, m)))
        ids = np.array([self._row_of[d] for d in dist], dtype=np.intp)
        rows = ids[inverse.reshape(-1)]
        self._rows_at[s] = rows
        self._bytes += added
        return rows


@dataclass(frozen=True)
class MigrationJob:
    """Fixed operands of one migration: target grid, velocity, kernel knobs.

    ``leg_table`` is the job's :class:`LegTable`, empty until the job's
    first trace; a pickled job arrives with an empty one.
    """

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
        self._new_table()

    def _new_table(self) -> None:
        object.__setattr__(self, "leg_table", LegTable(
            self.grid, self.vel, self.params.weight_mode))

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["leg_table"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._new_table()


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Linear-interpolation stencil of times ``t`` on an ``n``-sample trace.

    Returns (i, j, frac, valid): the amplitude at t is
    ``(1 - frac) * s[i] + frac * s[j]`` where ``valid`` and zero elsewhere,
    as :func:`interp_sample` computes it for one time.  ``valid`` is None
    when every time lies within the trace and before its last sample, which
    spares the caller its masking.
    A one-sample trace is valid only at t0 exactly, where i = j = 0 and
    frac = 0.  Migration reads through the stencil and modeling scatters
    through it, so the pair is an exact transpose.
    """
    u = t - t0
    u /= dt
    if n >= 2 and u.min() >= 0.0 and u.max() < n - 1:
        # every time lies before the last sample, so floor(u) <= n - 2
        i = np.floor(u)
        u -= i
        i = i.astype(np.int64)
        return i, i + 1, u, None
    valid = (u >= 0.0) & (u <= n - 1)
    uc = np.where(valid, u, 0.0)
    i = np.minimum(np.floor(uc).astype(np.int64), max(n - 2, 0))
    return i, np.minimum(i + 1, n - 1), uc - i, valid


def _accepted_columns(header: TraceHeader, job: MigrationJob) -> tuple[int, int]:
    """Image columns ``[lo, hi)`` whose x lies within the midpoint aperture.

    The x axis ascends, so the accepted columns are contiguous.
    """
    mid = 0.5 * (header.source_x + header.receiver_x)
    ix = np.flatnonzero(np.abs(job.grid.x_axis() - mid) <= job.params.aperture)
    if ix.size == 0:
        return 0, 0
    return int(ix[0]), int(ix[-1]) + 1


def _kernel_grids(
    header: TraceHeader, job: MigrationJob, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """DSR times and weights (None under unit weighting) on the
    (column in ``[lo, hi)``, tau) grid."""
    table = job.leg_table
    t, w = table.legs(header.source_x, lo, hi)
    t_r, w_r = table.legs(header.receiver_x, lo, hi)
    t += t_r
    if w is not None:
        w *= w_r
    return t, w


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
    lo, hi = _accepted_columns(h, job)
    if lo == hi:
        return Contributions.empty(grid)
    t, w = _kernel_grids(h, job, lo, hi)
    samples = np.asarray(trace.samples, dtype=np.float64)
    i, j, frac, valid = _stencil(t, h.t0, h.dt, samples.shape[0])
    # (1 - frac) * s[i] + frac * s[j], as interp_sample, without temporaries
    values = samples[i]
    values *= 1.0 - frac
    right = samples[j]
    right *= frac
    values += right
    if valid is not None:
        values = np.where(valid, values, 0.0)
    if w is not None:
        values *= w
    values = values.reshape(-1)
    keep = values != 0.0
    # the accepted cells of one bin are one run of consecutive ordinals
    ordinals = np.flatnonzero(keep).astype(np.uint64)
    ordinals += np.uint64((b * grid.nx + lo) * grid.ntau)
    return Contributions(grid, ordinals, values[keep])


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
            lo, hi = _accepted_columns(h, job)
            if lo < hi:
                t, w = _kernel_grids(h, job, lo, hi)
                vals = image.values[b, lo:hi, :]
                if w is not None:
                    vals = w * vals
                i, j, frac, valid = _stencil(t, h.t0, h.dt, n)
                if valid is None:  # np.add.at is fastest on 1-D operands
                    i, j, frac, vals = (a.reshape(-1) for a in (i, j, frac, vals))
                else:
                    i, j, frac, vals = i[valid], j[valid], frac[valid], vals[valid]
                np.add.at(samples, i, (1.0 - frac) * vals)
                np.add.at(samples, j, frac * vals)
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
