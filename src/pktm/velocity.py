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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .kirchhoff import MigrationJob, migrate_survey_serial, stack_offsets
from .mapreduce import JobConfig
from .model import GridSpec, ImageGrid, OffsetBinning, Survey, VelocityModel
from .pipeline import migrate_survey
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
    metrics = []
    for v in cands:
        job = MigrationJob(grid, VelocityModel.constant(v), params, binning)
        metric = focus_metric(stack_offsets(_migrate(survey, job, config)))
        metrics.append(metric)
        if progress:
            progress(v, metric)
    best_velocity, _ = max(
        zip(cands, metrics), key=lambda vm: (vm[1], -vm[0]))
    return ScanResult(tuple(cands), tuple(metrics), best_velocity)


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
    """
    vel = float(initial_velocity)
    if not (np.isfinite(vel) and vel > 0.0):
        raise ValueError(f"initial velocity must be finite and > 0, got {vel}")
    cands = _checked_candidates(candidates)
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    if lag_tolerance < 0:
        raise ValueError(f"lag_tolerance must be >= 0, got {lag_tolerance}")

    def migrate_pass(it: int, v: float) -> LoopIteration:
        job = MigrationJob(grid, VelocityModel.constant(v), params, binning)
        image = _migrate(survey, job, config)
        rmo = residual_moveout(image, max_lag=max_lag)
        return LoopIteration(it, v, focus_metric(stack_offsets(image)),
                             rmo.max_abs_lag, rmo.lags,
                             rmo.max_abs_lag > lag_tolerance, v)

    first = migrate_pass(0, vel)
    if not first.scanned:
        return LoopReport((first,), vel, True)
    pick = constant_velocity_scan(
        survey, grid, params, binning, cands, config).best_velocity
    first = replace(first, next_velocity=pick)
    if pick == vel:
        return LoopReport((first,), vel, False)
    second = migrate_pass(1, pick)
    return LoopReport((first, second), pick, not second.scanned)


def write_scan_csv(path: str | Path, scan: ScanResult) -> None:
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f)
        w.writerow(["velocity", "focus_metric", "selected"])
        for v, m in zip(scan.candidates, scan.metrics):
            w.writerow([repr(v), repr(m), int(v == scan.best_velocity)])


def write_loop_csv(path: str | Path, report: LoopReport) -> None:
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f)
        w.writerow(["iteration", "velocity", "focus_metric", "max_abs_lag",
                    "lags", "scanned", "next_velocity"])
        for it in report.iterations:
            w.writerow([
                it.iteration, repr(it.velocity), repr(it.focus),
                it.max_abs_lag, ";".join(str(l) for l in it.lags),
                int(it.scanned), repr(it.next_velocity),
            ])
