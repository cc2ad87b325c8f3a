import pickle
import sys
import weakref

import numpy as np
import pytest

from pktm import kirchhoff
from pktm import (
    JobConfig,
    KernelParams,
    MigrationJob,
    MigrationMapFn,
    OffsetBinning,
    Trace,
    TraceHeader,
    VelocityModel,
    WeightMode,
    migrate_survey,
    migrate_survey_serial,
    migrate_trace,
)
from pktm.exactsum import grouped_expansions
from pktm.pipeline import map_order
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


# --------------------------------------------------------------------------
# the order in which records reach the map
# --------------------------------------------------------------------------

ORDER_BINNING = OffsetBinning((0.0, 400.0, 800.0, 1200.0))


def header(trace_id, sx, rx):
    return TraceHeader(trace_id, sx, rx, 0.0, 0.004, 4)


class TestMapOrder:
    def test_bin_then_midpoint_then_trace_id(self):
        headers = [
            header(0, 0.0, 900.0),      # bin 2, midpoint 450
            header(1, 1000.0, 1100.0),  # bin 0, midpoint 1050
            header(2, 0.0, 2000.0),     # outside every bin, midpoint 1000
            header(3, 400.0, 500.0),    # bin 0, midpoint 450
            header(4, 500.0, 400.0),    # bin 0, midpoint 450: a tie with 3
            header(5, 0.0, 1300.0),     # outside every bin, midpoint 650
            header(6, 200.0, 700.0),    # bin 1, midpoint 450
            header(7, 0.0, 400.0),      # bin 1 (edges are closed below), 200
        ]
        traces = [Trace(h, np.zeros(4)) for h in headers]
        got = [t.header.trace_id for t in map_order(traces, ORDER_BINNING)]
        assert got == [3, 4, 1, 7, 6, 0, 5, 2]

    def test_depends_on_the_headers_alone(self):
        survey = random_survey(np.random.default_rng(3), ORDER_BINNING,
                               n_traces=60, n_samples=8)
        want = map_order(survey, ORDER_BINNING)
        rng = np.random.default_rng(9)
        for _ in range(5):
            shuffled = [survey.traces[i] for i in rng.permutation(len(survey))]
            assert map_order(shuffled, ORDER_BINNING) == want
        assert sorted(want, key=lambda t: t.header.trace_id) == list(survey)

    def test_empty(self):
        assert map_order([], ORDER_BINNING) == []


@pytest.fixture(scope="module")
def shuffled_case(small_grid):
    """A survey whose file order is not the map order, with traces outside
    every bin, and its serial image."""
    job = MigrationJob(small_grid, VelocityModel.constant(2000.0),
                       KernelParams(400.0, WeightMode.OBLIQUITY), ORDER_BINNING)
    survey = random_survey(np.random.default_rng(5), ORDER_BINNING,
                           n_traces=40, n_samples=160)
    assert map_order(survey, ORDER_BINNING) != list(survey)
    assert any(ORDER_BINNING.bin_of(t.header.offset) is None for t in survey)
    return survey, job, migrate_survey_serial(survey, fresh_job(job))


class TestMapOrderKeepsTheImage:
    @pytest.mark.parametrize("chunk_size", [1, 7, 16])
    @pytest.mark.parametrize("combiner", [False, True])
    @pytest.mark.parametrize("mode, workers", [
        ("serial", 1), ("threaded", 2), ("multiprocess", 2)])
    def test_matches_serial_oracle(self, shuffled_case, mode, workers,
                                   combiner, chunk_size, spill_dir):
        survey, job, oracle = shuffled_case
        config = JobConfig(mode=mode, n_workers=workers, n_partitions=3,
                           combiner_enabled=combiner, chunk_size=chunk_size,
                           spill_dir=spill_dir)
        image = migrate_survey(survey, fresh_job(job), config)
        assert image.values.tobytes() == oracle.values.tobytes()

    def test_combiner_keeps_fewer_records_in_map_order(self, small_survey,
                                                       small_job):
        """The point of the order: one task's traces share cells, so the
        combiner folds.  In the file order of this source-major survey it
        folds nothing at all."""
        fn = MigrationMapFn(small_job)
        chunk = JobConfig().chunk_size

        def kept(traces):
            n = 0
            for i in range(0, len(traces), chunk):
                out = [fn(t) for t in traces[i:i + chunk]]
                keys, _ = grouped_expansions(
                    np.concatenate([k for k, _ in out]),
                    np.concatenate([v for _, v in out]))
                n += keys.size
            return n

        in_file_order = kept(list(small_survey))
        in_map_order = kept(map_order(small_survey, small_job.binning))
        assert in_map_order < 0.6 * in_file_order
