"""Kirchhoff summation operators: per-trace migration, its exact adjoint,
offset stacking, and a serial whole-survey reference path.

Migration scatters each trace sample along its diffraction isochron into the
common-offset image for the trace's offset bin.  ``forward_model`` is the
exact transpose, so the pair passes a machine-precision dot-product test.
Both read one window and one stencil per trace (the sample index,
interpolation fraction and weight of each cell, from the job's
:class:`LegTable`): migration blends the samples through it and modeling
spreads cell values back through it.  The job's :class:`StencilCache`
keeps the stencils of recently migrated trace geometries for the MapReduce
map function, which blends from them instead of recomputing;
``migrate_trace``, ``forward_model`` and the serial path never read it.

Per-cell totals are correctly rounded exact sums of all contributions
(see :mod:`pktm.exactsum`), which makes the serial path bit-identical to any
distributed execution of the same per-trace map.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .exactsum import grouped_fsum
from .model import (
    ConfigurationError,
    GridSpec,
    ImageGrid,
    OffsetBinning,
    Survey,
    Trace,
    TraceHeader,
    VelocityModel,
)
from .traveltime import KernelParams, WeightMode, leg_times_grid


# Memory one job's leg table may take in one process.  Surface positions on
# a lattice commensurate with the grid share most distances (the benchmark
# grids need 259 rows and 40 index vectors, 1.51 MB); positions off the
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
    The table's x axis is the grid's, extended by :attr:`pad` columns past
    either edge: :func:`_window` finds each trace's aperture window on it,
    and a trace clipped at an edge still has legs over its whole window
    (see :class:`StencilCache`).  Each surface position s
    seen so far maps to the rows of its distances ``|x - s|`` along that
    axis; past the budget, legs from new positions are computed for each
    call.  Every entry comes from the expression that
    :func:`~pktm.traveltime.one_way_time` and :func:`~pktm.traveltime.weight`
    evaluate for one cell, so reading the table changes no bit of any
    kernel output.

    Rows are added under a lock and never rewritten, so threads may share a
    table.  The table lives as long as its job and is never pickled: each
    process builds its own as traces arrive.
    """

    def __init__(self, grid: GridSpec, vel: VelocityModel, weight_mode: WeightMode,
                 aperture: float = 0.0):
        # an aperture wider than the grid is clipped to it: windows then
        # end at the extended axis, which costs hits, not bits
        self.pad = min(grid.nx, math.ceil(aperture / grid.dx))
        # the grid's own columns hold exactly GridSpec.x_axis()
        self.x = grid.x_min + np.arange(
            -self.pad, grid.nx + self.pad, dtype=np.float64) * grid.dx
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
        self._rows_at: dict[float, np.ndarray] = {}  # position -> rows along x
        self._bytes = 0
        self._full = False

    @property
    def n_rows(self) -> int:
        return len(self._row_of)

    def legs(self, s: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Leg times and cosines from surface position ``s`` to the image
        columns ``[lo, hi)``, as new (hi - lo, ntau) arrays the caller may
        overwrite.  Columns count from the grid's first, and may reach
        :attr:`pad` columns past either edge.  The cosines are None under
        unit weighting."""
        with self._lock:
            rows = self._rows_at.get(s)
            if rows is None and not self._full:
                rows = self._add(s)
        lo += self.pad
        hi += self.pad
        if rows is None:
            return self._compute(np.abs(self.x[lo:hi] - s))
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
        dist, inverse = np.unique(np.abs(self.x - s), return_inverse=True)
        dist = dist.tolist()
        fresh = [d for d in dist if d not in self._row_of]
        added = len(fresh) * self._row_bytes + self.x.size * 8
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

    ``leg_table`` and ``stencils`` are the job's :class:`LegTable` and
    :class:`StencilCache` in this process, empty until its first trace.
    Neither is pickled: a pickled job arrives with empty ones.
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
        self._new_state()

    def _new_state(self) -> None:
        object.__setattr__(self, "leg_table", LegTable(
            self.grid, self.vel, self.params.weight_mode, self.params.aperture))
        object.__setattr__(self, "stencils", StencilCache())

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["leg_table"], state["stencils"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._new_state()


@dataclass(frozen=True)
class Contributions:
    """Array-backed sequence of keyed contributions from one trace.

    ``ordinals`` are dense cell encodings ``(b*nx + ix)*ntau + itau`` on
    the job's grid, ascending within one trace's output (the C order of
    :attr:`ImageGrid.values`); zero-valued contributions are elided.
    """

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

    @classmethod
    def empty(cls) -> "Contributions":
        return cls(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64))


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


def _window(header: TraceHeader, job: MigrationJob) -> tuple[int, int, int] | None:
    """``(b, lo, hi)``: a trace's offset bin and the columns ``[lo, hi)``
    of the leg table's axis (counted from the grid's first) within its
    midpoint aperture, unclipped; None when no bin or no grid column
    accepts the trace.  The axis holds the grid's columns bit for bit."""
    b = job.binning.bin_of(header.offset)
    if b is None:
        return None
    table = job.leg_table
    mid = 0.5 * (header.source_x + header.receiver_x)
    # the axis ascends, so the accepted columns are contiguous
    ix = np.flatnonzero(np.abs(table.x - mid) <= job.params.aperture)
    if ix.size == 0:
        return None
    lo, hi = int(ix[0]) - table.pad, int(ix[-1]) + 1 - table.pad
    if hi <= 0 or lo >= job.grid.nx:
        return None
    return b, lo, hi


def _emit(values: np.ndarray, grid: GridSpec, b: int, lo: int) -> Contributions:
    """Key the nonzero ``values`` of the (column in ``[lo, ...)``, tau)
    cells of bin ``b``."""
    values = values.reshape(-1)
    keep = values != 0.0
    # the accepted cells of one bin are one run of consecutive ordinals
    ordinals = np.flatnonzero(keep).astype(np.uint64)
    ordinals += np.uint64((b * grid.nx + lo) * grid.ntau)
    return Contributions(ordinals, values[keep])


def migrate_trace(trace: Trace, job: MigrationJob) -> Contributions:
    """Scatter one trace into keyed image-cell contributions.

    The trace feeds the offset bin containing its |source-receiver| distance
    (empty output if no bin matches).  Every in-aperture cell receives
    weight * interpolated amplitude at the DSR time; exact zeros are elided.
    Emission order is ascending (lateral, tau), i.e. ascending cell key.
    """
    return _migrate(trace, job, None)


def _migrate(trace: Trace, job: MigrationJob,
             cache: StencilCache | None) -> Contributions:
    """:func:`migrate_trace`, through the stencil of the trace's unclipped
    window where ``cache`` supplies one."""
    h = trace.header
    window = _window(h, job)
    if window is None:
        return Contributions.empty()
    b, ulo, uhi = window
    lo, hi = max(ulo, 0), min(uhi, job.grid.nx)
    samples = np.asarray(trace.samples, dtype=np.float64)
    n = samples.shape[0]
    cached = None if cache is None else cache.fetch(h, job, ulo, uhi, n)
    if cached is None:
        stencil, flip = _make_stencil(h, job, lo, hi, n), False
        ulo, uhi = lo, hi
    else:
        stencil, flip = cached
    # the stencil covers [ulo, uhi), in reverse column order when flip
    cut = slice(uhi - hi, uhi - lo) if flip else slice(lo - ulo, hi - ulo)
    values = _blend(samples, stencil, cut)
    return _emit(values[::-1] if flip else values, job.grid, b, lo)


class _Stencil(NamedTuple):
    """What :func:`migrate_trace` derives from a header for the columns of
    one aperture window before it reads a sample, as read-only
    (columns, ntau) arrays: the sample index and interpolation fraction of
    each cell's DSR time, and its weight, zero where the time lies outside
    the trace (None: unit weights, every time inside)."""

    i: np.ndarray
    frac: np.ndarray
    w: np.ndarray | None

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self if a is not None)


def _make_stencil(
    header: TraceHeader, job: MigrationJob, lo: int, hi: int, n: int,
    flip: bool = False,
) -> _Stencil:
    """The stencil of columns ``[lo, hi)`` on an ``n``-sample trace, in
    reverse column order when ``flip``.  Every operator reads its sample
    indices, fractions and mask from here: migration through
    :func:`_blend` and modeling through :func:`_spread`, so the pair is an
    exact transpose.  A one-sample trace is inside only at t0 exactly,
    where i = 0 and frac = 0."""
    # DSR times and weights (None under unit weighting)
    t, w = job.leg_table.legs(header.source_x, lo, hi)
    t_r, w_r = job.leg_table.legs(header.receiver_x, lo, hi)
    t += t_r
    if w is not None:
        w *= w_r
    if flip:
        t = t[::-1]
        w = None if w is None else np.ascontiguousarray(w[::-1])
    u = t - header.t0
    u /= header.dt
    if n >= 2 and u.min() >= 0.0 and u.max() < n - 1:
        # every time lies before the last sample, so floor(u) <= n - 2
        i = np.floor(u)
        u -= i
        i = i.astype(np.int64)
        frac = u
    else:
        valid = (u >= 0.0) & (u <= n - 1)
        u = np.where(valid, u, 0.0)
        i = np.minimum(np.floor(u).astype(np.int64), max(n - 2, 0))
        frac = u - i
        # outside the trace the cell reads s[0] at frac 0, which a Trace
        # holds finite, so a zero weight elides the cell as a mask does;
        # a unit weight changes no bit
        w = np.where(valid, 1.0 if w is None else w, 0.0)
    stencil = _Stencil(i, frac, w)
    for a in stencil:
        if a is not None:
            a.setflags(write=False)
    return stencil


def _blend(samples: np.ndarray, stencil: _Stencil, cut: slice) -> np.ndarray:
    """``w * ((1 - frac) * s[i] + frac * s[i + 1])`` over the columns
    ``cut`` of ``stencil``, as :func:`interp_sample` computes it for one
    time, in a new array.  A one-sample trace reads s[0] twice (its frac
    is 0)."""
    i, frac = stencil.i[cut], stencil.frac[cut]
    values = samples[i]
    values *= 1.0 - frac
    # s[i + 1] through a view, without an index array of its own
    right = (samples[1:] if samples.shape[0] > 1 else samples)[i]
    right *= frac
    values += right
    if stencil.w is not None:
        values *= stencil.w[cut]
    return values


def _spread(samples: np.ndarray, stencil: _Stencil, values: np.ndarray) -> None:
    """The transpose of :func:`_blend`: add each cell's ``(1 - frac) * w *
    value`` to s[i] and then its ``frac * w * value`` to s[i + 1], in the
    C order of the cells, into ``samples`` in place."""
    if stencil.w is not None:
        values = stencil.w * values
    # np.add.at is fastest on 1-D operands
    i, frac, values = (a.reshape(-1) for a in (stencil.i, stencil.frac, values))
    np.add.at(samples, i, (1.0 - frac) * values)
    np.add.at(samples[1:] if samples.shape[0] > 1 else samples, i, frac * values)


# Memory one job's stencil cache may take in one process.  A full entry of
# the benchmark grid (61 columns x 351 times x 24 bytes) takes 514 KB, so
# this holds 6.  In map order the 400-trace scan survey cycles through 5
# geometries per offset bin, up to mirror images (20 in all).  Served by 2
# threads, a 5-velocity scan of it hit 94% of its lookups with this budget,
# 74-77% with 2 MiB, 93-94% with 2.5 MiB and 95% with 4 MiB.
STENCIL_BUDGET_BYTES = 3 * 2**20

# Every _PROBE_LOOKUPS lookups, a cache that has hit fewer than
# _MIN_HIT_RATE of all its lookups switches off for the rest of its job.
_PROBE_LOOKUPS = 64
_MIN_HIT_RATE = 0.25


class StencilCache:
    """Interpolation stencils of the trace geometries that one process
    migrated last, read by :class:`~pktm.pipeline.MigrationMapFn`.

    A stencil (:class:`_Stencil`) is what :func:`migrate_trace` derives
    from a header before it reads a sample: the DSR times and weights of
    the trace's aperture window (four leg gathers, a sum and a product),
    and the sample index and fraction of each time.  A hit reads them as
    views, and :func:`_blend` then only gathers, blends and weights the
    samples, as :func:`migrate_trace` does.

    The key is the pair of exact leg distances ``|x - source_x|`` and
    ``|x - receiver_x|`` over the trace's *unclipped* aperture window
    (sorted, as the DSR sum and the weight product commute), with t0, dt
    and the sample count.  Equal distances give equal legs through one
    expression, whether or not the leg table holds the positions, so a hit
    is bit-identical to recomputing, and a trace clipped at a grid edge
    reads its columns of an unclipped entry.  A window whose distances,
    read backwards, are another's (the geometry reflected about its
    midpoint) shares that entry and reads its columns in reverse.  Each
    valid cell is interpolated alike on either branch of
    :func:`_make_stencil`, so a window whose own times all lie inside the
    trace may read an entry that needed the mask.

    Every miss makes the stencil of the unclipped window, stores it and
    blends from it.  Entries live within ``STENCIL_BUDGET_BYTES``, least
    recently used first out.  Geometries recur within a few traces in map
    order (:func:`~pktm.pipeline.map_order`), and rarely in file order or
    at surface positions off the grid's lattice.  A cache that has hit
    fewer than ``_MIN_HIT_RATE`` of its lookups at a multiple of
    ``_PROBE_LOOKUPS`` switches off for the rest of its job: every later
    trace goes straight to :func:`migrate_trace`.

    :class:`MigrationJob` holds one cache per process, never pickled.
    :meth:`migrate` takes the job as an argument, so the cache holds no
    reference back to it.  Threads may share a cache: its map and
    counts are guarded by a lock, and stored arrays are never written.
    """

    def __init__(self):
        self._lock = threading.Lock()   # guards every field below
        self._entries: OrderedDict[tuple, _Stencil] = OrderedDict()  # LRU first
        self._bytes = 0
        self.enabled = True
        self.lookups = 0
        self.hits = 0

    def migrate(self, trace: Trace, job: MigrationJob) -> Contributions:
        """:func:`migrate_trace` of ``trace``, bit for bit, reading the
        trace's stencil from the cache where it can."""
        return _migrate(trace, job, self)

    def fetch(self, header: TraceHeader, job: MigrationJob, lo: int, hi: int,
              n: int) -> tuple[_Stencil, bool] | None:
        """The stencil of a trace's unclipped window ``[lo, hi)`` (see
        :func:`_window`) on its ``n`` samples, and whether its columns run
        in reverse; None when the cache is off.  A miss makes and stores
        it."""
        if not self.enabled:
            return None
        table = job.leg_table
        x = table.x[lo + table.pad:hi + table.pad]
        d_s, d_r = np.abs(x - header.source_x), np.abs(x - header.receiver_x)
        legs = sorted((d_s.tobytes(), d_r.tobytes()))
        # the window read backwards: a geometry and its reflection share
        # one entry, stored in the orientation whose key sorts first
        mirror = sorted((d_s[::-1].tobytes(), d_r[::-1].tobytes()))
        flip = mirror < legs
        # t0 is >= 0, and +0.0 and -0.0 (equal keys) give equal times
        key = (header.t0, header.dt, n, *(mirror if flip else legs))
        stencil = self._lookup(key)
        if stencil is None:
            stencil = _make_stencil(header, job, lo, hi, n, flip)
            self._store(key, stencil)
        return stencil, flip

    def _lookup(self, key: tuple) -> _Stencil | None:
        """The entry of ``key``, None on a miss."""
        with self._lock:
            if not self.enabled:
                return None
            self.lookups += 1
            stencil = self._entries.get(key)
            if stencil is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            if (self.lookups % _PROBE_LOOKUPS == 0
                    and self.hits < _MIN_HIT_RATE * self.lookups):
                self.enabled = False
                self._entries.clear()
                self._bytes = 0
            return stencil

    def _store(self, key: tuple, stencil: _Stencil) -> None:
        size = stencil.nbytes
        with self._lock:
            if (not self.enabled or key in self._entries
                    or size > STENCIL_BUDGET_BYTES):
                return
            while self._bytes + size > STENCIL_BUDGET_BYTES:
                _, old = self._entries.popitem(last=False)
                self._bytes -= old.nbytes
            self._entries[key] = stencil
            self._bytes += size


def forward_model(
    image: ImageGrid, survey_geometry: Sequence[TraceHeader], job: MigrationJob
) -> list[Trace]:
    """Exact transpose of migration: spread image energy onto predicted times.

    For each header, every grid cell of the window migration reads spreads
    weight * cell value through migration's stencil (:func:`_spread`),
    split between the two samples that bracket its DSR time.  Output
    samples are float64 (quantize on write if single precision is wanted).
    """
    if image.spec != job.grid:
        raise ConfigurationError("image geometry does not match job grid")
    out: list[Trace] = []
    for h in survey_geometry:
        samples = np.zeros(h.n_samples, dtype=np.float64)
        window = _window(h, job)
        if window is not None:
            b, lo, hi = window
            lo, hi = max(lo, 0), min(hi, job.grid.nx)
            _spread(samples, _make_stencil(h, job, lo, hi, h.n_samples),
                    image.values[b, lo:hi, :])
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
