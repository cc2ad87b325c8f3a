"""Velocity analysis built on migration focusing.

A correct migration velocity collapses a diffractor to one flat, tight
response, so image energy concentrates and the common-offset panels align.
Both effects are measured here: total squared amplitude of the stack as the
focusing objective, and per-offset-bin lag of the image column at the
strongest lateral position as residual moveout.  A scan and a loop are
reported as CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .kirchhoff import MigrationJob, migrate_survey_serial, stack_offsets
from .mapreduce import JobConfig
from .model import GridSpec, ImageGrid, OffsetBinning, Survey, VelocityModel
from .pipeline import migrate_survey
from .storage import atomic_write
from .traveltime import KernelParams


@dataclass(frozen=True)
class MoveoutResult:
    """Per-bin sample lags of image columns against offset bin 0.

    ``degenerate`` flags bins whose correlation was meaningless (all-zero
    column or reference); their lag is reported as 0.
    """

    lateral_index: int
    lags: tuple[int, ...]
    degenerate: tuple[bool, ...]

    @property
    def max_abs_lag(self) -> int:
        return max(abs(lag) for lag in self.lags)


@dataclass(frozen=True)
class ScanResult:
    candidates: tuple[float, ...]
    metrics: tuple[float, ...]
    best_velocity: float


@dataclass(frozen=True)
class LoopIteration:
    """One pass of the imaging loop.  ``scanned`` marks a pass that missed
    tolerance, whose ``next_velocity`` is then the scan's pick."""

    iteration: int
    velocity: float
    focus: float
    max_abs_lag: int
    lags: tuple[int, ...]
    scanned: bool
    next_velocity: float


@dataclass(frozen=True)
class LoopReport:
    iterations: tuple[LoopIteration, ...]
    final_velocity: float
    converged: bool


def focus_metric(stacked: np.ndarray) -> float:
    """Total squared amplitude of a stacked section (higher is better)."""
    stacked = np.asarray(stacked, dtype=np.float64)
    return float(np.sum(stacked * stacked))


def _crosscorr_at(col: np.ndarray, ref: np.ndarray, s: int) -> float:
    """sum_t col[t + s] * ref[t] over the overlapping range."""
    n = col.shape[0]
    if s >= 0:
        return float(np.dot(col[s:], ref[:n - s])) if s < n else 0.0
    return float(np.dot(col[:s], ref[-s:]))


def residual_moveout(
    image: ImageGrid,
    lateral_index: int | None = None,
    max_lag: int = 20,
) -> MoveoutResult:
    """Lag of each common-offset column against bin 0 at one lateral index.

    When ``lateral_index`` is omitted, the column with the most stacked
    energy is analyzed.  Each lag maximizes the cross-correlation over
    [-max_lag, max_lag]; bin 0 is its own reference, so its lag is 0, and
    ties prefer the smaller magnitude, then the negative lag.
    """
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    values = image.values
    if lateral_index is None:
        stacked = values.sum(axis=0)
        lateral_index = int(np.argmax(np.sum(stacked * stacked, axis=1)))
    elif not 0 <= lateral_index < image.nx:
        raise IndexError(
            f"lateral index {lateral_index} out of range [0, {image.nx})")
    ref = values[0, lateral_index, :]
    ref_dead = not np.any(ref)
    # visit lags in (|s|, s) order so the first strict maximum realizes the
    # tie-break: smaller magnitude first, negative before positive
    lag_order = sorted(range(-max_lag, max_lag + 1), key=lambda s: (abs(s), s))
    lags = []
    degenerate = []
    for b in range(values.shape[0]):
        col = values[b, lateral_index, :]
        if ref_dead or not np.any(col):
            lags.append(0)
            degenerate.append(True)
            continue
        best_s, best_c = 0, -np.inf
        for s in lag_order:
            c = _crosscorr_at(col, ref, s)
            if c > best_c:
                best_s, best_c = s, c
        lags.append(best_s)
        degenerate.append(False)
    return MoveoutResult(lateral_index, tuple(lags), tuple(degenerate))


def _migrate(survey: Survey, job: MigrationJob, config: JobConfig | None) -> ImageGrid:
    if config is None:
        return migrate_survey_serial(survey, job)
    return migrate_survey(survey, job, config)


def _checked_candidates(candidates: Sequence[float]) -> list[float]:
    """The candidate velocities as floats, each finite, > 0 and distinct."""
    cands = [float(v) for v in candidates]
    if not cands:
        raise ValueError("candidate list must not be empty")
    if any(not (np.isfinite(v) and v > 0.0) for v in cands):
        raise ValueError("candidate velocities must be finite and > 0")
    if len(set(cands)) != len(cands):
        raise ValueError(f"candidate velocities must be distinct, got {cands}")
    return cands


def _scan(
    survey: Survey,
    grid: GridSpec,
    params: KernelParams,
    binning: OffsetBinning,
    cands: list[float],
    config: JobConfig | None,
    progress: Callable[[float, float], None] | None = None,
    known: tuple[float, float] | None = None,
    keep_pick: bool = False,
) -> tuple[ScanResult, ImageGrid | None]:
    """:func:`constant_velocity_scan` over checked candidates.

    ``known`` is a (velocity, metric) pair already measured, which is not
    migrated again.  With ``keep_pick``, it also returns the image of the
    pick, unless the pick is the known velocity: the one image it holds
    beyond the one being made is the best so far.
    """
    metrics = []
    best = best_image = None
    for v in cands:
        image = None
        if known is not None and v == known[0]:
            metric = known[1]
        else:
            job = MigrationJob(grid, VelocityModel.constant(v), params, binning)
            image = _migrate(survey, job, config)
            metric = focus_metric(stack_offsets(image))
        metrics.append(metric)
        if progress:
            progress(v, metric)
        # the first of the highest (metric, -velocity), as max() picks it:
        # ties select the lower velocity
        if best is None or (metric, -v) > best:
            best = (metric, -v)
            best_image = image if keep_pick else None
    return ScanResult(tuple(cands), tuple(metrics), -best[1]), best_image


def constant_velocity_scan(
    survey: Survey,
    grid: GridSpec,
    params: KernelParams,
    binning: OffsetBinning,
    candidates: Sequence[float],
    config: JobConfig | None = None,
    progress: Callable[[float, float], None] | None = None,
) -> ScanResult:
    """Migrate with each candidate velocity and rank by stack focusing.

    Ties select the lower velocity.  ``progress`` (if given) receives each
    (velocity, metric) as soon as it is known.
    """
    cands = _checked_candidates(candidates)
    return _scan(survey, grid, params, binning, cands, config, progress)[0]


def imaging_loop(
    survey: Survey,
    grid: GridSpec,
    params: KernelParams,
    binning: OffsetBinning,
    initial_velocity: float,
    candidates: Sequence[float],
    lag_tolerance: int = 1,
    max_lag: int = 20,
    config: JobConfig | None = None,
) -> LoopReport:
    """Migrate, measure residual moveout, and scan once if panels misalign.

    A pass migrates at one velocity and measures per-bin lags at the
    strongest lateral position; it converges once the largest magnitude is
    within ``lag_tolerance`` samples.  If the pass at ``initial_velocity``
    does not, the candidate scan picks a velocity and a second pass checks
    it; a pick equal to the start velocity ends the loop unconverged.  The
    scan ranks fixed candidates whatever the current velocity, so a second
    scan would repeat the pick: the structure bounds the loop at two passes
    and one scan, and it takes no iteration cap.

    Each velocity is migrated once: the scan takes the start velocity's
    focus from the first pass when it is a candidate, and the second pass
    measures the scan's image of the pick.
    """
    vel = float(initial_velocity)
    if not (np.isfinite(vel) and vel > 0.0):
        raise ValueError(f"initial velocity must be finite and > 0, got {vel}")
    cands = _checked_candidates(candidates)
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    if lag_tolerance < 0:
        raise ValueError(f"lag_tolerance must be >= 0, got {lag_tolerance}")

    def measure(it: int, v: float, image: ImageGrid) -> LoopIteration:
        rmo = residual_moveout(image, max_lag=max_lag)
        return LoopIteration(it, v, focus_metric(stack_offsets(image)),
                             rmo.max_abs_lag, rmo.lags,
                             rmo.max_abs_lag > lag_tolerance, v)

    job = MigrationJob(grid, VelocityModel.constant(vel), params, binning)
    first = measure(0, vel, _migrate(survey, job, config))
    if not first.scanned:
        return LoopReport((first,), vel, True)
    scan, image = _scan(survey, grid, params, binning, cands, config,
                        known=(vel, first.focus), keep_pick=True)
    pick = scan.best_velocity
    first = replace(first, next_velocity=pick)
    if pick == vel:
        return LoopReport((first,), vel, False)
    second = measure(1, pick, image)
    return LoopReport((first, second), pick, not second.scanned)


def _write_csv(path: str | Path, rows) -> None:
    """Write ``rows`` as :func:`csv.writer` writes them, CRLF line ends
    included, whole or not at all."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    atomic_write(path, text.getvalue().encode("ascii"))


def write_scan_csv(path: str | Path, scan: ScanResult) -> None:
    _write_csv(path, [["velocity", "focus_metric", "selected"], *(
        [repr(v), repr(m), int(v == scan.best_velocity)]
        for v, m in zip(scan.candidates, scan.metrics))])


def write_loop_csv(path: str | Path, report: LoopReport) -> None:
    _write_csv(path, [["iteration", "velocity", "focus_metric", "max_abs_lag",
                       "lags", "scanned", "next_velocity"], *(
        [it.iteration, repr(it.velocity), repr(it.focus), it.max_abs_lag,
         ";".join(str(l) for l in it.lags), int(it.scanned),
         repr(it.next_velocity)]
        for it in report.iterations)])
