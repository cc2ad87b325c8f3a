import pickle
import sys
import weakref

import numpy as np

from pktm import kirchhoff
from pktm import (
    JobConfig,
    KernelParams,
    MigrationJob,
    MigrationMapFn,
    OffsetBinning,
    VelocityModel,
    WeightMode,
    migrate_survey,
    migrate_survey_serial,
    migrate_trace,
)
from conftest import random_survey


def fresh_job(job: MigrationJob) -> MigrationJob:
    """An equal job with an empty leg table of its own."""
    return MigrationJob(job.grid, job.vel, job.params, job.binning)


class TestMigrationMapFn:
    def test_emits_what_migrate_trace_emits(self, small_survey, small_job):
        fn = MigrationMapFn(small_job)
        trace = small_survey.traces[5]
        keys, values = fn(trace)
        c = migrate_trace(trace, small_job)
        assert keys.tobytes() == c.ordinals.tobytes()
        assert values.tobytes() == c.values.tobytes()

    def test_survives_pickling(self, small_survey, small_job):
        fn = pickle.loads(pickle.dumps(MigrationMapFn(small_job)))
        trace = small_survey.traces[0]
        keys, values = fn(trace)
        c = migrate_trace(trace, small_job)
        assert keys.tobytes() == c.ordinals.tobytes()
        assert values.tobytes() == c.values.tobytes()


class TestLegTableLifetime:
    """A job's leg table is never shipped and dies with its job."""

    def test_pickle_is_unchanged_by_migrating(self, small_survey, small_job):
        job = fresh_job(small_job)
        fn = MigrationMapFn(job)
        before = pickle.dumps(fn)
        for trace in small_survey.traces[:8]:
            fn(trace)
        assert job.leg_table.n_rows > 0
        assert pickle.dumps(fn) == before
        assert pickle.loads(before).job.leg_table.n_rows == 0

    def test_table_dies_with_its_job(self, small_survey, small_job, spill_dir):
        job = fresh_job(small_job)
        config = JobConfig(mode="threaded", n_workers=2, spill_dir=spill_dir)
        migrate_survey(small_survey, job, config)
        table = weakref.ref(job.leg_table)
        assert table().n_rows > 0
        del job
        assert table() is None

    def test_threads_growing_one_table_match_serial(self, small_grid,
                                                    spill_dir, monkeypatch):
        """Every trace of this survey brings two new surface positions, so
        the threads add rows to the shared table all through the map (the
        budget is raised to hold all 13 MB of them).  A race need not show
        in one run, so three jobs each build their table."""
        monkeypatch.setattr(kirchhoff, "TABLE_BUDGET_BYTES", 32 * 2**20)
        binning = OffsetBinning((0.0, 400.0, 800.0, 1600.0))
        job = MigrationJob(small_grid, VelocityModel(((0.0, 1800.0), (0.8, 2400.0))),
                           KernelParams(300.0, WeightMode.OBLIQUITY), binning)
        survey = random_survey(np.random.default_rng(4), binning,
                               n_traces=48, n_samples=160)
        oracle = migrate_survey_serial(survey, fresh_job(job))
        config = JobConfig(mode="threaded", n_workers=4, chunk_size=1,
                           spill_dir=spill_dir)
        # one row per distinct distance: a lost or doubled row shows here
        x = small_grid.x_axis()
        distances = {float(d) for t in survey
                     if np.any(np.abs(x - 0.5 * (t.header.source_x + t.header.receiver_x))
                               <= job.params.aperture)
                     for s in (t.header.source_x, t.header.receiver_x)
                     for d in np.abs(x - s)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                job = fresh_job(job)
                image = migrate_survey(survey, job, config)
                assert image.values.tobytes() == oracle.values.tobytes()
                assert job.leg_table.n_rows == len(distances)
        finally:
            sys.setswitchinterval(interval)


class TestMigrateSurvey:
    def test_default_engine_matches_serial_oracle(self, small_survey,
                                                  small_job, spill_dir):
        oracle = migrate_survey_serial(small_survey, small_job)
        image = migrate_survey(small_survey, small_job,
                               JobConfig(spill_dir=spill_dir))
        assert image.values.tobytes() == oracle.values.tobytes()

    def test_threaded_with_combiner_matches_oracle(self, small_survey,
                                                   small_job, spill_dir):
        oracle = migrate_survey_serial(small_survey, small_job)
        config = JobConfig(mode="threaded", n_workers=4,
                           combiner_enabled=True, n_partitions=5,
                           chunk_size=7, spill_dir=spill_dir)
        image = migrate_survey(small_survey, small_job, config)
        assert image.values.tobytes() == oracle.values.tobytes()

    def test_image_carries_job_grid(self, small_survey, small_job, spill_dir):
        image = migrate_survey(small_survey, small_job,
                               JobConfig(spill_dir=spill_dir))
        assert image.spec == small_job.grid
        assert image.values.shape == (3, 51, 201)

    def test_observer_is_invoked(self, small_survey, small_job, spill_dir):
        events = []
        migrate_survey(small_survey, small_job,
                       JobConfig(spill_dir=spill_dir, chunk_size=16),
                       observer=events.append)
        kinds = {e.kind for e in events}
        assert "map_task_done" in kinds
        assert "reduce_task_done" in kinds

    def test_nonzero_energy_lands_near_scatterer(self, small_survey,
                                                 small_job, spill_dir):
        image = migrate_survey(small_survey, small_job,
                               JobConfig(spill_dir=spill_dir))
        stacked = image.values.sum(axis=0)
        ix, itau = np.unravel_index(np.argmax(np.abs(stacked)), stacked.shape)
        # scatterer sits at x = 450 m, tau = 0.5 s on a 20 m x 4 ms grid
        assert abs(small_job.grid.x_axis()[ix] - 450.0) <= 40.0
        assert abs(small_job.grid.tau_axis()[itau] - 0.5) <= 0.012
