import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pktm import (
    ConfigurationError,
    GridSpec,
    ImageGrid,
    KernelParams,
    MigrationJob,
    OffsetBinning,
    Survey,
    Trace,
    TraceHeader,
    VelocityModel,
    WeightMode,
    cell_key_ordinal,
    dsr_total_time,
    forward_model,
    interp_sample,
    migrate_survey_serial,
    migrate_trace,
    stack_offsets,
    weight,
    within_aperture,
)
from pktm import kirchhoff
from conftest import random_survey


def spike_trace(n=3, dt=0.004, t0=0.0, values=(0.0, 1.0, 0.0)):
    h = TraceHeader(0, 0.0, 0.0, t0, dt, n)
    return Trace(h, np.asarray(values, dtype=np.float64))


class TestInterpSample:
    def test_exact_on_sample(self):
        assert interp_sample(spike_trace(), 0.004) == 1.0

    def test_halfway(self):
        assert interp_sample(spike_trace(), 0.002) == 0.5

    def test_beyond_end_is_zero(self):
        assert interp_sample(spike_trace(), 0.02) == 0.0

    def test_before_start_is_zero(self):
        assert interp_sample(spike_trace(), -1e-9) == 0.0

    def test_last_sample_instant(self):
        t = spike_trace(values=(0.0, 0.5, -2.0))
        assert interp_sample(t, 0.008) == -2.0

    def test_respects_t0(self):
        t = spike_trace(t0=1.0, dt=0.25)
        assert interp_sample(t, 0.25) == 0.0
        assert interp_sample(t, 1.25) == 1.0

    def test_linear_between_all_samples(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(32)
        h = TraceHeader(0, 0.0, 0.0, 0.0, 0.01, 32)
        trace = Trace(h, samples)
        for k in range(31):
            t = 0.01 * k + 0.0037
            u = (t - 0.0) / 0.01
            frac = u - k
            expected = (1.0 - frac) * samples[k] + frac * samples[k + 1]
            assert interp_sample(trace, t) == pytest.approx(expected, rel=1e-14)


def tiny_job(aperture=400.0, weight=WeightMode.UNIT, n_bins=2):
    edges = tuple(600.0 * b for b in range(n_bins + 1))
    binning = OffsetBinning(edges)
    grid = GridSpec(0.0, 50.0, 21, 0.0, 0.004, 101, n_bins)
    return MigrationJob(grid, VelocityModel.constant(2000.0),
                        KernelParams(aperture, weight), binning)


class TestMigrateTrace:
    def test_grid_binning_mismatch_is_config_error(self):
        binning = OffsetBinning((0.0, 600.0))
        grid = GridSpec(0.0, 50.0, 21, 0.0, 0.004, 101, 2)
        with pytest.raises(ConfigurationError):
            MigrationJob(grid, VelocityModel.constant(2000.0),
                         KernelParams(400.0), binning)

    def test_trace_outside_every_bin_contributes_nothing(self):
        job = tiny_job()
        h = TraceHeader(0, 0.0, 5000.0, 0.0, 0.004, 101)  # offset 5000
        c = migrate_trace(Trace(h, np.ones(101)), job)
        assert len(c) == 0

    def test_emission_order_ascending(self):
        job = tiny_job()
        h = TraceHeader(0, 300.0, 700.0, 0.0, 0.004, 101)
        trace = Trace(h, np.random.default_rng(3).standard_normal(101))
        c = migrate_trace(trace, job)
        assert len(c) > 0
        ords = c.ordinals.astype(np.int64)
        assert np.all(np.diff(ords) > 0)

    def test_contributions_go_to_offset_bin(self):
        job = tiny_job()
        h = TraceHeader(0, 0.0, 700.0, 0.0, 0.004, 101)  # offset 700 -> bin 1
        c = migrate_trace(Trace(h, np.ones(101)), job)
        bins = {contrib.key.b for contrib in c}
        assert bins == {1}

    def test_aperture_excludes_far_cells(self):
        job = tiny_job(aperture=100.0)
        h = TraceHeader(0, 400.0, 600.0, 0.0, 0.004, 101)  # midpoint 500
        c = migrate_trace(Trace(h, np.ones(101)), job)
        xs = {500.0 + 0.0}  # accepted lateral positions
        lateral = {job.grid.x_axis()[contrib.key.ix] for contrib in c}
        assert lateral  # some cells accepted
        assert all(abs(x - 500.0) <= 100.0 for x in lateral)

    def test_zero_contributions_are_elided(self):
        job = tiny_job()
        h = TraceHeader(0, 300.0, 700.0, 0.0, 0.004, 101)
        c = migrate_trace(Trace(h, np.zeros(101)), job)
        assert len(c) == 0

    def test_value_matches_scalar_kernel(self):
        """One sampled cell must reproduce weight * interpolated amplitude."""
        from pktm import dsr_total_time, weight as weight_fn

        job = tiny_job(weight=WeightMode.OBLIQUITY)
        rng = np.random.default_rng(11)
        h = TraceHeader(0, 250.0, 650.0, 0.0, 0.004, 101)
        trace = Trace(h, rng.standard_normal(101))
        c = migrate_trace(trace, job)
        vel = job.vel
        checked = 0
        for contrib in list(c)[::37]:
            key = contrib.key
            x = job.grid.x_axis()[key.ix]
            tau = job.grid.tau_axis()[key.itau]
            t = dsr_total_time(x, tau, h.source_x, h.receiver_x, vel)
            w = weight_fn(x, tau, h.source_x, h.receiver_x, vel,
                          WeightMode.OBLIQUITY)
            assert contrib.value == w * interp_sample(trace, t)
            checked += 1
        assert checked > 0

    def test_cell_on_the_last_sample_reads_it(self):
        """Zero offset, zero aperture: the DSR times are the tau axis, and
        the last one falls exactly on the trace's last sample."""
        grid = GridSpec(0.0, 50.0, 3, 0.0, 0.25, 11, 1)
        job = MigrationJob(grid, VelocityModel.constant(2000.0),
                           KernelParams(0.0), OffsetBinning.single())
        samples = np.arange(1.0, 12.0)
        h = TraceHeader(0, 50.0, 50.0, 0.0, 0.25, 11)
        c = migrate_trace(Trace(h, samples), job)
        assert c.ordinals.tolist() == list(range(11, 22))
        assert c.values.tolist() == samples.tolist()

    def test_redundant_coverage_across_traces(self):
        """Neighboring traces must hit shared image cells."""
        job = tiny_job()
        h1 = TraceHeader(0, 300.0, 700.0, 0.0, 0.004, 101)
        h2 = TraceHeader(1, 350.0, 650.0, 0.0, 0.004, 101)
        c1 = migrate_trace(Trace(h1, np.ones(101)), job)
        c2 = migrate_trace(Trace(h2, np.ones(101)), job)
        shared = set(c1.ordinals.tolist()) & set(c2.ordinals.tolist())
        assert shared


@st.composite
def kernel_cases(draw):
    """A small grid, a piecewise-linear velocity, a kernel and one trace.

    Source and receiver are off the grid lattice in general.  The trace's
    t0 is sometimes the DSR time of one cell, so that one-sample traces
    (readable at t0 only) put a nonzero value on some cell.
    """
    n_knots = draw(st.integers(1, 3))
    knot_taus = sorted(draw(st.sets(st.floats(0.0, 1.0), min_size=n_knots,
                                    max_size=n_knots)))
    vel = VelocityModel(tuple(
        (t, draw(st.floats(500.0, 5000.0))) for t in knot_taus))
    binning = OffsetBinning((0.0, 300.0, math.inf))
    grid = GridSpec(draw(st.floats(-200.0, 200.0)), draw(st.floats(5.0, 100.0)),
                    draw(st.integers(1, 8)),
                    draw(st.one_of(st.just(0.0), st.floats(0.001, 0.5))),
                    draw(st.floats(0.001, 0.05)), draw(st.integers(1, 12)),
                    binning.n_bins)
    job = MigrationJob(grid, vel, KernelParams(
        draw(st.floats(0.0, 500.0)), draw(st.sampled_from(WeightMode))),
        binning)
    x_lo, x_hi = grid.x_min - 200.0, float(grid.x_axis()[-1]) + 200.0
    xs = draw(st.floats(x_lo, x_hi))
    xr = draw(st.floats(x_lo, x_hi))
    n = draw(st.integers(1, 12))
    dt = draw(st.floats(0.001, 0.05))
    if draw(st.booleans()):
        x = float(grid.x_axis()[draw(st.integers(0, grid.nx - 1))])
        tau = float(grid.tau_axis()[draw(st.integers(0, grid.ntau - 1))])
        t0 = dsr_total_time(x, tau, xs, xr, vel)
    else:
        t0 = draw(st.floats(0.0, 1.0))
    samples = draw(st.lists(st.floats(-2.0, 2.0).filter(lambda v: v != 0.0),
                            min_size=n, max_size=n))
    return job, Trace(TraceHeader(0, xs, xr, t0, dt, n), np.asarray(samples))


class TestKernelMatchesScalarOracle:
    """Every cell of ``migrate_trace`` against the scalar definitions."""

    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases())
    def test_every_cell_matches_scalar_kernel(self, case):
        job, trace = case
        h, grid = trace.header, job.grid
        c = migrate_trace(trace, job)
        emitted = dict(zip(c.ordinals.tolist(), c.values.tolist()))
        b = job.binning.bin_of(h.offset)
        xg, taus = grid.x_axis().tolist(), grid.tau_axis().tolist()
        expected = {}
        for ix, x in enumerate(xg):
            if not within_aperture(x, h.source_x, h.receiver_x, job.params):
                continue
            for itau, tau in enumerate(taus):
                t = dsr_total_time(x, tau, h.source_x, h.receiver_x, job.vel)
                value = weight(x, tau, h.source_x, h.receiver_x, job.vel,
                               job.params.weight_mode) * interp_sample(trace, t)
                if value != 0.0:
                    expected[(b * grid.nx + ix) * grid.ntau + itau] = value
        assert set(emitted) == set(expected)
        for o, value in emitted.items():
            assert math.copysign(1.0, value) == math.copysign(1.0, expected[o])
            assert value == expected[o]


class TestLegTable:
    def test_lattice_positions_share_rows(self):
        job = tiny_job(weight=WeightMode.OBLIQUITY)
        for s in (0.0, 50.0, 500.0, 1000.0, 25.0):
            h = TraceHeader(0, s, s, 0.0, 0.004, 101)
            migrate_trace(Trace(h, np.ones(101)), job)
        # distances 0, 50, ..., 1000 from the lattice points, and
        # 25, 75, ..., 975 from 25
        assert job.leg_table.n_rows == 21 + 20

    def test_spent_budget_computes_legs_per_trace(self, monkeypatch):
        """Past its budget the table indexes no more positions, and the
        kernel output stays bit-identical."""
        rng = np.random.default_rng(8)
        binning = OffsetBinning((0.0, 500.0, 2000.0))
        grid = GridSpec(0.0, 40.0, 24, 0.0, 0.004, 40, 2)
        vel = VelocityModel(((0.0, 1600.0), (1.0, 2600.0)))
        params = KernelParams(350.0, WeightMode.OBLIQUITY)
        survey = random_survey(rng, binning, n_traces=12, n_samples=80)
        full = MigrationJob(grid, vel, params, binning)
        # room for the rows of about three positions
        monkeypatch.setattr(kirchhoff, "TABLE_BUDGET_BYTES",
                            3 * grid.nx * grid.ntau * 16)
        small = MigrationJob(grid, vel, params, binning)
        for trace in survey:
            a, b = migrate_trace(trace, full), migrate_trace(trace, small)
            assert a.ordinals.tobytes() == b.ordinals.tobytes()
            assert a.values.tobytes() == b.values.tobytes()
        assert 0 < small.leg_table.n_rows < full.leg_table.n_rows
        headers = [t.header for t in survey]
        image = ImageGrid(grid, rng.standard_normal((2, 24, 40)))
        for a, b in zip(forward_model(image, headers, full),
                        forward_model(image, headers, small)):
            assert a.samples.tobytes() == b.samples.tobytes()


class TestAdjointPair:
    @pytest.mark.parametrize("weight", [WeightMode.UNIT, WeightMode.OBLIQUITY])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dot_product_identity(self, weight, seed):
        rng = np.random.default_rng(seed)
        binning = OffsetBinning((0.0, 500.0, 2000.0))
        grid = GridSpec(0.0, 40.0, 24, 0.0, 0.004, 40, 2)
        job = MigrationJob(grid, VelocityModel(((0.0, 1600.0), (1.0, 2600.0))),
                           KernelParams(350.0, weight), binning)
        survey = random_survey(rng, binning, n_traces=15, n_samples=80)
        headers = [t.header for t in survey]
        image = ImageGrid(grid, rng.standard_normal(grid.empty_image().values.shape))

        modeled = forward_model(image, headers, job)
        migrated = migrate_survey_serial(survey, job)
        lhs = sum(float(np.dot(m.samples, d.samples))
                  for m, d in zip(modeled, survey))
        rhs = float(np.sum(migrated.values * image.values))
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + abs(rhs))

    @pytest.mark.parametrize("weight", [WeightMode.UNIT, WeightMode.OBLIQUITY])
    def test_dot_product_identity_on_one_sample_traces(self, weight):
        """A one-sample trace is read, and written, only at t0 exactly.  A
        zero-offset trace over a grid column has DSR time tau there, so a
        t0 on the tau axis puts exactly one cell on its sample."""
        rng = np.random.default_rng(11)
        binning = OffsetBinning((0.0, 500.0))
        grid = GridSpec(0.0, 40.0, 24, 0.0, 0.004, 40, 1)
        job = MigrationJob(grid, VelocityModel(((0.0, 1600.0), (1.0, 2600.0))),
                           KernelParams(350.0, weight), binning)
        x, tau = grid.x_axis(), grid.tau_axis()
        cells = [(i % grid.nx, (7 * i + 3) % grid.ntau) for i in range(16)]
        headers = [TraceHeader(i, float(x[ix]), float(x[ix]), float(tau[it]),
                               0.004, 1)
                   for i, (ix, it) in enumerate(cells)]
        survey = Survey([Trace(h, rng.standard_normal(1)) for h in headers],
                        binning)
        image = ImageGrid(grid, rng.standard_normal(grid.empty_image().values.shape))

        modeled = forward_model(image, headers, job)
        migrated = migrate_survey_serial(survey, job)
        for (ix, it), m, d in zip(cells, modeled, survey):
            assert m.samples[0] != 0.0
            if weight is WeightMode.UNIT:
                assert m.samples[0] == image.values[0, ix, it]
                assert migrated.values[0, ix, it] == d.samples[0]
        assert np.count_nonzero(migrated.values) == len(cells)
        lhs = sum(float(np.dot(m.samples, d.samples))
                  for m, d in zip(modeled, survey))
        rhs = float(np.sum(migrated.values * image.values))
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + abs(rhs))

    def test_forward_checks_grid(self):
        job = tiny_job()
        other = GridSpec(0.0, 50.0, 22, 0.0, 0.004, 101, 2)
        with pytest.raises(ConfigurationError):
            forward_model(ImageGrid(other, np.zeros((2, 22, 101))), [], job)

    def test_forward_samples_are_double_precision(self):
        job = tiny_job()
        h = TraceHeader(0, 300.0, 700.0, 0.0, 0.004, 101)
        image = ImageGrid(job.grid, np.ones((2, 21, 101)))
        (trace,) = forward_model(image, [h], job)
        assert trace.samples.dtype == np.float64


class TestOperatorLinearity:
    def test_migration_is_linear_in_the_data(self):
        rng = np.random.default_rng(5)
        binning = OffsetBinning((0.0, 2000.0))
        grid = GridSpec(0.0, 40.0, 20, 0.0, 0.004, 30, 1)
        job = MigrationJob(grid, VelocityModel.constant(2000.0),
                           KernelParams(300.0), binning)
        s1 = random_survey(rng, binning, n_traces=6, n_samples=60)
        alpha, beta = 1.7, -0.3
        d2 = [Trace(t.header, rng.standard_normal(60)) for t in s1]
        s2 = Survey(d2, binning)
        mixed = Survey(
            [Trace(a.header, alpha * a.samples + beta * b.samples)
             for a, b in zip(s1, s2)], binning)

        m_mixed = migrate_survey_serial(mixed, job)
        m1 = migrate_survey_serial(s1, job)
        m2 = migrate_survey_serial(s2, job)
        np.testing.assert_allclose(
            m_mixed.values, alpha * m1.values + beta * m2.values,
            rtol=1e-12, atol=1e-12)

    def test_modeling_is_linear_in_the_image(self):
        rng = np.random.default_rng(6)
        binning = OffsetBinning((0.0, 2000.0))
        grid = GridSpec(0.0, 40.0, 20, 0.0, 0.004, 30, 1)
        job = MigrationJob(grid, VelocityModel.constant(2000.0),
                           KernelParams(300.0), binning)
        headers = [t.header for t in random_survey(rng, binning, 5, 60)]
        m1 = ImageGrid(grid, rng.standard_normal((1, 20, 30)))
        m2 = ImageGrid(grid, rng.standard_normal((1, 20, 30)))
        mix = ImageGrid(grid, 2.0 * m1.values - 0.5 * m2.values)

        d_mix = forward_model(mix, headers, job)
        d1 = forward_model(m1, headers, job)
        d2 = forward_model(m2, headers, job)
        for dm, a, b in zip(d_mix, d1, d2):
            np.testing.assert_allclose(
                dm.samples, 2.0 * a.samples - 0.5 * b.samples,
                rtol=1e-12, atol=1e-12)


class TestMigrateSurveySerial:
    def test_matches_brute_force_grouping(self, small_survey, small_job):
        """Whole-survey result equals per-trace contributions folded by key."""
        image = migrate_survey_serial(small_survey, small_job)
        acc = {}
        for trace in small_survey:
            for o, v in zip(*[
                    migrate_trace(trace, small_job).ordinals.tolist(),
                    migrate_trace(trace, small_job).values.tolist()]):
                acc.setdefault(o, []).append(v)
        flat = image.values.reshape(-1)
        nonzero = np.flatnonzero(flat)
        assert set(nonzero.tolist()) <= set(acc)
        for o, parts in acc.items():
            assert flat[o] == math.fsum(parts)

    def test_bit_reproducible(self, small_survey, small_job):
        a = migrate_survey_serial(small_survey, small_job)
        b = migrate_survey_serial(small_survey, small_job)
        assert a.values.tobytes() == b.values.tobytes()


class TestStackOffsets:
    def test_sums_over_bins(self):
        grid = GridSpec(0.0, 1.0, 2, 0.0, 1.0, 3, 2)
        vals = np.arange(12, dtype=np.float64).reshape(2, 2, 3)
        stacked = stack_offsets(ImageGrid(grid, vals))
        np.testing.assert_array_equal(stacked, vals[0] + vals[1])
        assert stacked.shape == (2, 3)
