"""Survey-scale migration through the MapReduce runtime.

The map record is one trace, the map function is per-trace Kirchhoff
scattering, and :func:`reassemble_image` decodes each reduced key, a cell
ordinal, and scatters its total onto the image grid; the engine only moves
keys and values.
Because per-key totals are exact sums, the result equals
:func:`pktm.kirchhoff.migrate_survey_serial` bit for bit in every mode.

Records reach the map in :func:`map_order`: by offset bin, then midpoint,
then trace id.  A map task is a run of consecutive records, so its traces
are neighbours in one common-offset image and hit mostly the same cells.
That local key repetition is what the map-side combiner folds: on the
benchmark's 400-trace float32 demo survey, 16-trace tasks bring 10.9
values per key instead of 3.3 in file (source-major) order, and the
combiner keeps 0.23 of its records instead of 0.72.  Exact sums make the
order invisible in the image.

The same order brings traces of one geometry close together, which is what
the map function reuses through the job's
:class:`~pktm.kirchhoff.StencilCache`: 3 MiB per job and process,
bit-identical by construction, and switched off for the rest of a job
whose traces rarely hit it (file order, for one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .kirchhoff import MigrationJob
from .mapreduce import ContractViolationError, JobConfig, KeyedTotals, run_job
from .mapreduce.engine import Observer
from .model import GridSpec, ImageGrid, OffsetBinning, Survey, Trace


@dataclass(frozen=True)
class MigrationMapFn:
    """Picklable per-trace map function for distributed migration.

    It emits what :func:`~pktm.kirchhoff.migrate_trace` emits, bit for bit,
    through the job's :class:`~pktm.kirchhoff.StencilCache` in this
    process, which is never pickled.
    """

    job: MigrationJob

    def __call__(self, trace: Trace) -> tuple[np.ndarray, np.ndarray]:
        c = self.job.stencils.migrate(trace, self.job)
        return c.ordinals, c.values


def reassemble_image(totals: KeyedTotals, grid: GridSpec) -> ImageGrid:
    """Scatter reduced totals onto a grid; keys absent from the stream are 0.

    Raises :class:`ContractViolationError` on duplicate, descending, or
    out-of-range keys.
    """
    keys = totals.keys
    if keys.shape[0] and not np.all(keys[1:] > keys[:-1]):
        raise ContractViolationError("keys are not strictly ascending")
    if keys.shape[0] and int(keys[-1]) >= grid.n_cells:
        raise ContractViolationError(
            f"key {int(keys[-1])} outside grid with {grid.n_cells} cells")
    flat = np.zeros(grid.n_cells, dtype=np.float64)
    flat[keys.astype(np.int64)] = totals.totals
    return ImageGrid(grid, flat.reshape(
        grid.n_offset_bins, grid.nx, grid.ntau))


def map_order(traces: Iterable[Trace], binning: OffsetBinning) -> list[Trace]:
    """``traces`` sorted by (offset bin, midpoint, trace id); traces outside
    every bin come last.  The order depends on the headers alone."""
    def key(trace: Trace) -> tuple[int, float, int]:
        h = trace.header
        b = binning.bin_of(h.offset)
        return (binning.n_bins if b is None else b,
                0.5 * (h.source_x + h.receiver_x), h.trace_id)
    return sorted(traces, key=key)


def migrate_survey(
    survey: Survey,
    job: MigrationJob,
    config: JobConfig | None = None,
    *,
    listen: str | None = None,
    observer: Observer | None = None,
) -> ImageGrid:
    """Migrate a survey as one MapReduce job (serial engine by default).

    The job's offset binning governs both the image and the
    :func:`map_order` of the records; the survey's own ``offset_bins``
    is not read.
    """
    if config is None:
        config = JobConfig()
    totals = run_job(
        map_order(survey, job.binning), MigrationMapFn(job), config,
        listen=listen, observer=observer)
    return reassemble_image(totals, job.grid)
