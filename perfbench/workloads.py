"""The benchmark's workloads: inputs made from a seed, the timed job, the
oracle each job is checked against, and the traced replay of one job.

Every workload migrates onto the grid of ``configs/migrate_*.cfg``
(``0,20,101,0,0.004,351``, offset edges ``0,500,1000,1500,2000``, aperture
600 m, obliquity weighting).  ``Scale.small()`` shrinks everything for the
self-check in ``test_perfbench.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pktm import (
    GridSpec,
    JobConfig,
    KernelParams,
    MigrationJob,
    MigrationMapFn,
    OffsetBinning,
    RickerWavelet,
    Scatterer,
    Survey,
    TraceHeader,
    VelocityModel,
    WeightMode,
    constant_velocity_scan,
    focus_metric,
    make_acquisition,
    reassemble_image,
    run_job,
    stack_offsets,
    synth_survey,
)
from pktm.storage import read_survey, write_image, write_survey

import layers
import oracle

EDGES = (0.0, 500.0, 1000.0, 1500.0, 2000.0)
APERTURE = 600.0
TRUE_VELOCITY = 2000.0
CANDIDATES = (1800.0, 1900.0, 2000.0, 2100.0, 2200.0)
RICKER_HZ = 25.0


@dataclass(frozen=True)
class Geometry:
    """Arguments of :func:`pktm.make_acquisition` after the time axis."""

    n_sources: int
    source_x0: float
    source_dx: float
    n_receivers: int
    receiver_x0: float
    receiver_dx: float


@dataclass(frozen=True)
class Scale:
    """Problem size shared by the workloads."""

    grid: GridSpec
    dt: float
    n_samples: int
    survey: Geometry      # migrate_mp's 800-trace survey
    demo: Geometry        # configs/diffractor_survey.cfg

    @classmethod
    def full(cls) -> "Scale":
        return cls(
            grid=GridSpec(0.0, 20.0, 101, 0.0, 0.004, 351, len(EDGES) - 1),
            dt=0.004, n_samples=501,
            survey=Geometry(40, 50.0, 50.0, 20, 100.0, 100.0),
            demo=Geometry(20, 50.0, 100.0, 20, 100.0, 100.0))

    @classmethod
    def small(cls) -> "Scale":
        return cls(
            grid=GridSpec(0.0, 40.0, 51, 0.0, 0.008, 126, len(EDGES) - 1),
            dt=0.008, n_samples=151,
            survey=Geometry(10, 100.0, 200.0, 10, 100.0, 200.0),
            demo=Geometry(8, 100.0, 250.0, 8, 150.0, 250.0))

    @property
    def x_max(self) -> float:
        return self.grid.x_min + (self.grid.nx - 1) * self.grid.dx

    @property
    def tau_max(self) -> float:
        return self.grid.tau_min + (self.grid.ntau - 1) * self.grid.dtau

    def headers(self, geometry: Geometry) -> list[TraceHeader]:
        g = geometry
        return make_acquisition(
            g.n_sources, g.source_x0, g.source_dx,
            g.n_receivers, g.receiver_x0, g.receiver_dx,
            0.0, self.dt, self.n_samples)

    def job(self, vel: VelocityModel) -> MigrationJob:
        return MigrationJob(
            self.grid, vel, KernelParams(APERTURE, WeightMode.OBLIQUITY),
            OffsetBinning(EDGES))

    def scatterer(self, rng: np.random.Generator, x_frac: float,
                  tau_frac: float, amplitude: float) -> Scatterer:
        """A scatterer jittered by the seed around a nominal grid position.

        The jitter (5% of the lateral extent, 2% of the time extent) keeps
        the amount of work nearly the same from seed to seed.
        """
        x = (x_frac + rng.uniform(-0.05, 0.05)) * self.x_max
        tau = (tau_frac + rng.uniform(-0.02, 0.02)) * self.tau_max
        return Scatterer(float(x), float(tau), amplitude)


def point_trace_pairs(headers: list[TraceHeader], job: MigrationJob) -> int:
    """The paper's cost-model count, from headers and grid alone: for each
    trace in an offset bin, the image columns within the aperture times
    ``ntau``."""
    xg = job.grid.x_axis()
    columns = 0
    for h in headers:
        if job.binning.bin_of(h.offset) is None:
            continue
        mid = 0.5 * (h.source_x + h.receiver_x)
        columns += int(np.count_nonzero(np.abs(xg - mid) <= job.params.aperture))
    return columns * job.grid.ntau


def _engine_config(mode: str, combiner: bool, spill: Path) -> JobConfig:
    return JobConfig(n_partitions=8, n_workers=2, mode=mode,
                     combiner_enabled=combiner, spill_dir=str(spill),
                     chunk_size=16)


# ---------------------------------------------------------------------------
# migrate_mp
# ---------------------------------------------------------------------------

@dataclass
class MigrateState:
    survey_path: Path
    out_path: Path
    job: MigrationJob
    oracle_bytes: bytes


class MigrateMP:
    """``pktm migrate`` in multiprocess mode: 2 spawned workers, R=8."""

    name = "migrate_mp"
    mode = "multiprocess"

    def __init__(self, scale: Scale):
        self.scale = scale
        self.headers = scale.headers(scale.survey)
        self.pairs_per_job = point_trace_pairs(
            self.headers, scale.job(VelocityModel.constant(TRUE_VELOCITY)))

    def setup(self, seed: int, work: Path) -> MigrateState:
        s = self.scale
        rng = np.random.default_rng(seed)
        scatterers = [s.scatterer(rng, 0.25, 0.3, 1.0),
                      s.scatterer(rng, 0.5, 0.5, -0.8),
                      s.scatterer(rng, 0.75, 0.7, 0.6)]
        vel = VelocityModel.constant(TRUE_VELOCITY)
        job = s.job(vel)
        survey_path = work / "survey.trc"
        write_survey(survey_path, synth_survey(
            self.headers, scatterers, vel, RickerWavelet(RICKER_HZ)))
        oracle_path = work / "oracle.img"
        oracle.in_child("serial_image", survey_path=survey_path, job=job,
                        out_path=oracle_path)
        return MigrateState(survey_path, work / "image.img", job,
                            oracle_path.read_bytes())

    def job(self, state: MigrateState, spill: Path,
            recorder: layers.EngineRecorder | None = None) -> Path:
        state.out_path.unlink(missing_ok=True)
        survey = read_survey(state.survey_path, state.job.binning)
        config = _engine_config(self.mode, False, spill)
        run = recorder.run_job if recorder else run_job
        totals = run(list(survey), MigrationMapFn(state.job), config)
        write_image(state.out_path, reassemble_image(totals, state.job.grid))
        return state.out_path

    def check(self, state: MigrateState, out: Path) -> str | None:
        if out.read_bytes() != state.oracle_bytes:
            return "image bytes differ from the serial oracle"
        return None

    def replay(self, state: MigrateState, tracer: layers.Tracer,
               spill: Path) -> str | None:
        with tracer.span("storage.read_survey"):
            survey = read_survey(state.survey_path, state.job.binning)
        totals = layers.replay_engine_job(
            tracer, list(survey), state.job,
            _engine_config(self.mode, False, spill), spill)
        with tracer.span("pipeline.reassemble_image"):
            image = reassemble_image(totals, state.job.grid)
        out = state.out_path.with_name("replay.img")
        with tracer.span("storage.write_image"):
            write_image(out, image)
        return self.check(state, out)


# ---------------------------------------------------------------------------
# scan_threaded
# ---------------------------------------------------------------------------

def _pick(metrics) -> float:
    """The candidate with the highest focus; ties go to the lower velocity."""
    best, _ = max(zip(CANDIDATES, metrics), key=lambda vm: (vm[1], -vm[0]))
    return best


@dataclass
class ScanState:
    survey: Survey
    oracle_metrics: tuple[float, ...]


class ScanThreaded:
    """``pktm scan`` in threaded mode: 2 threads, R=8, combiner on."""

    name = "scan_threaded"
    mode = "threaded"

    def __init__(self, scale: Scale):
        self.scale = scale
        self.headers = scale.headers(scale.demo)
        one = point_trace_pairs(
            self.headers, scale.job(VelocityModel.constant(TRUE_VELOCITY)))
        self.pairs_per_job = one * len(CANDIDATES)

    def _job(self, v: float) -> MigrationJob:
        return self.scale.job(VelocityModel.constant(v))

    def setup(self, seed: int, work: Path) -> ScanState:
        s = self.scale
        rng = np.random.default_rng(seed)
        vel = VelocityModel.constant(TRUE_VELOCITY)
        survey_path = work / "demo.trc"
        write_survey(survey_path, synth_survey(
            self.headers, [s.scatterer(rng, 0.5, 0.57, 1.0)], vel,
            RickerWavelet(RICKER_HZ)))
        binning = OffsetBinning(EDGES)
        job = self._job(TRUE_VELOCITY)
        metrics = oracle.in_child(
            "serial_scan", survey_path=survey_path, grid=job.grid,
            params=job.params, binning=binning, candidates=CANDIDATES)
        return ScanState(read_survey(survey_path, binning), tuple(metrics))

    def job(self, state: ScanState, spill: Path,
            recorder: layers.EngineRecorder | None = None) -> tuple:
        config = _engine_config(self.mode, True, spill)
        if recorder is None:
            job = self._job(TRUE_VELOCITY)  # grid and binning only
            result = constant_velocity_scan(
                state.survey, job.grid, job.params, job.binning,
                CANDIDATES, config)
            return result.metrics, result.best_velocity
        # constant_velocity_scan takes no observer: make its calls here
        metrics = []
        for v in CANDIDATES:
            job = self._job(v)
            totals = recorder.run_job(list(state.survey), MigrationMapFn(job),
                                      config)
            metrics.append(focus_metric(stack_offsets(
                reassemble_image(totals, job.grid))))
        return tuple(metrics), _pick(metrics)

    def check(self, state: ScanState, out: tuple) -> str | None:
        metrics, best = out
        if tuple(metrics) != state.oracle_metrics:
            return "focus metrics differ from the serial scan"
        if best != TRUE_VELOCITY:
            return f"picked {best!r}, not the true velocity {TRUE_VELOCITY!r}"
        return None

    def replay(self, state: ScanState, tracer: layers.Tracer,
               spill: Path) -> str | None:
        metrics = []
        for i, v in enumerate(CANDIDATES):
            job = self._job(v)
            totals = layers.replay_engine_job(
                tracer, list(state.survey), job,
                _engine_config(self.mode, True, spill), spill / f"v{i}")
            with tracer.span("pipeline.reassemble_image"):
                image = reassemble_image(totals, job.grid)
            with tracer.span("velocity.focus"):
                metrics.append(focus_metric(stack_offsets(image)))
        return self.check(state, (tuple(metrics), _pick(metrics)))


WORKLOADS = {w.name: w for w in (MigrateMP, ScanThreaded)}
