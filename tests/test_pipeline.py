import pickle
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from pktm import kirchhoff
from pktm import (
    ContractViolationError,
    GridSpec,
    JobConfig,
    KernelParams,
    KeyedTotals,
    MigrationJob,
    MigrationMapFn,
    OffsetBinning,
    Trace,
    TraceHeader,
    VelocityModel,
    WeightMode,
    make_acquisition,
    migrate_survey,
    migrate_survey_serial,
    migrate_trace,
    reassemble_image,
)
from pktm.exactsum import grouped_expansions
from pktm.pipeline import map_order
from pktm.traveltime import leg_times_grid
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
    """A job's leg table and stencil cache are never shipped, and both die
    with their job."""

    def test_pickle_is_unchanged_by_migrating(self, small_survey, small_job):
        job = fresh_job(small_job)
        fn = MigrationMapFn(job)
        before = pickle.dumps(fn)
        for trace in small_survey.traces[:8] * 3:
            fn(trace)
        assert job.leg_table.n_rows > 0
        assert job.stencils.hits > 0
        assert pickle.dumps(fn) == before
        restored = pickle.loads(before)
        assert restored.job.leg_table.n_rows == 0
        assert restored.job.stencils.lookups == 0
        assert not restored.job.stencils._entries

    def test_table_dies_with_its_job(self, small_survey, small_job, spill_dir):
        """Without a collection: a reference cycle between the job and
        its cache would keep both alive here."""
        job = fresh_job(small_job)
        config = JobConfig(mode="threaded", n_workers=2, spill_dir=spill_dir)
        migrate_survey(small_survey, job, config)
        table = weakref.ref(job.leg_table)
        stencils = weakref.ref(job.stencils)
        assert table().n_rows > 0
        assert stencils().lookups > 0
        del job
        assert table() is None
        assert stencils() is None

    def test_threads_growing_one_table_match_serial(self, small_grid,
                                                    spill_dir, monkeypatch):
        """Every trace of this survey brings two new surface positions, so
        the threads add rows to the shared table all through the map (the
        budget is raised to hold all 21 MB of them).  A race need not show
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
        # one row per distinct distance along the table's axis, which
        # reaches the aperture past either grid edge: a lost or doubled
        # row shows here
        x = small_grid.x_axis()
        pad = job.leg_table.pad
        x_table = small_grid.x_min + np.arange(-pad, x.size + pad) * small_grid.dx
        distances = {float(d) for t in survey
                     if np.any(np.abs(x - 0.5 * (t.header.source_x + t.header.receiver_x))
                               <= job.params.aperture)
                     for s in (t.header.source_x, t.header.receiver_x)
                     for d in np.abs(x_table - s)}
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


# --------------------------------------------------------------------------
# the stencil cache of MigrationMapFn
# --------------------------------------------------------------------------

def assert_cached_matches(fn, traces):
    """Run ``traces`` through ``fn`` in order; each output must equal an
    uncached migrate_trace on a job of its own, bit for bit."""
    reference = fresh_job(fn.job)
    for trace in traces:
        keys, values = fn(trace)
        c = migrate_trace(trace, reference)
        assert keys.tobytes() == c.ordinals.tobytes()
        assert values.tobytes() == c.values.tobytes()


def lattice_job(nx=51, aperture=200.0, dtau=0.004, ntau=101,
                weight=WeightMode.OBLIQUITY):
    """A 20 m grid from x = 0, one offset bin, 2000 m/s."""
    grid = GridSpec(0.0, 20.0, nx, 0.0, dtau, ntau, 1)
    return MigrationJob(grid, VelocityModel.constant(2000.0),
                        KernelParams(aperture, weight), OffsetBinning((0.0, 1000.0)))


def trace_at(sx, rx, rng, t0=0.0, dt=0.004, n=160, trace_id=0):
    return Trace(TraceHeader(trace_id, sx, rx, t0, dt, n), rng.standard_normal(n))


def distance_key(h, job):
    """``(time axis, forward pair, backward pair)`` of a trace's unclipped
    window: its sorted leg distances read forwards and backwards; None
    when the trace has no window."""
    window = kirchhoff._window(h, job)
    if window is None:
        return None
    _, lo, hi = window
    pad = job.leg_table.pad
    x = job.grid.x_min + np.arange(lo, hi, dtype=np.float64) * job.grid.dx
    assert x.tobytes() == job.leg_table.x[lo + pad:hi + pad].tobytes()
    legs = [np.abs(x - h.source_x), np.abs(x - h.receiver_x)]
    forward = sorted(d.tobytes() for d in legs)
    backward = sorted(d[::-1].tobytes() for d in legs)
    return (h.t0, h.dt, h.n_samples), forward, backward


TIME_AXES = [(0.0, 0.004, 160), (0.002, 0.004, 160), (0.0, 0.002, 160),
             (0.0, 0.004, 100)]   # (t0, dt, n)


@st.composite
def pair_cases(draw):
    """A weighting and two traces' ``(source_x, receiver_x, time axis)`` on
    ``lattice_job``'s 0-1000 m grid (200 m aperture).  The first sits on
    the lattice, between columns or off it, inside the grid or clipped at
    an edge; the second is the first moved by whole columns, mirrored
    about a column or a midpoint between two, swapped, shifted off the
    lattice, or given another offset or time axis."""
    weight = draw(st.sampled_from([WeightMode.UNIT, WeightMode.OBLIQUITY]))
    mid = draw(st.one_of(
        st.integers(-30, 130).map(lambda k: 10.0 * k),
        st.floats(-250.0, 1250.0, allow_nan=False)))
    half = draw(st.one_of(st.integers(0, 30).map(lambda k: 10.0 * k),
                          st.floats(0.0, 400.0, allow_nan=False)))
    sx, rx = mid - half, mid + half
    axis = draw(st.sampled_from(TIME_AXES))
    move = draw(st.sampled_from(
        ["same", "columns", "mirror", "swap", "off", "offset", "axis"]))
    axis2 = axis
    if move == "columns":
        k = 20.0 * draw(st.integers(-50, 50))
        sx2, rx2 = sx + k, rx + k
    elif move == "mirror":
        c = 10.0 * draw(st.integers(-20, 120))
        sx2, rx2 = 2.0 * c - sx, 2.0 * c - rx
    elif move == "swap":
        sx2, rx2 = rx, sx
    elif move == "off":
        d = draw(st.floats(-30.0, 30.0, allow_nan=False))
        sx2, rx2 = sx + d, rx + d
    elif move == "offset":
        d = draw(st.sampled_from([-10.0, 10.0, 20.0]))
        sx2, rx2 = sx - d, rx + d
    else:
        sx2, rx2 = sx, rx
    if move == "axis":
        axis2 = draw(st.sampled_from(TIME_AXES))
    return weight, (sx, rx, axis), (sx2, rx2, axis2)


class TestStencilCache:
    @pytest.mark.parametrize("weight", [WeightMode.UNIT, WeightMode.OBLIQUITY])
    def test_clipped_and_swapped_traces_hit_one_entry(self, weight):
        """Offset 100 m about midpoints 500, 40 and 980 m on a 0-1000 m grid
        with a 200 m aperture: one geometry, unclipped, clipped at the
        left edge and at the right, and with source and receiver swapped."""
        rng = np.random.default_rng(11)
        fn = MigrationMapFn(lattice_job(weight=weight))
        interior = [trace_at(450.0, 550.0, rng) for _ in range(2)]
        assert_cached_matches(fn, interior)   # stored, then read
        assert fn.job.stencils.hits == 1
        others = [trace_at(-10.0, 90.0, rng), trace_at(930.0, 1030.0, rng),
                  trace_at(550.0, 450.0, rng), trace_at(90.0, -10.0, rng)]
        assert_cached_matches(fn, others)
        assert fn.job.stencils.hits == 1 + len(others)
        # the same geometry on other time axes: other stencils, no hit
        assert_cached_matches(fn, [trace_at(450.0, 550.0, rng, t0=0.002),
                                   trace_at(450.0, 550.0, rng, dt=0.002),
                                   trace_at(450.0, 550.0, rng, n=100)])
        assert fn.job.stencils.hits == 1 + len(others)

    def test_least_recently_used_entry_is_evicted(self, monkeypatch):
        """A budget of three entries and a cycle of three geometries
        (offsets 100, 200 and 300 m about one midpoint): each is stored at
        its first sighting and read on every later pass.  A fourth then
        evicts the least recently used."""
        entry = 21 * 101 * 24   # 21 columns x 101 times x (i, frac, w)
        monkeypatch.setattr(kirchhoff, "STENCIL_BUDGET_BYTES", 3 * entry)
        rng = np.random.default_rng(17)
        fn = MigrationMapFn(lattice_job())

        def geometry(offset):
            return trace_at(500.0 - offset / 2, 500.0 + offset / 2, rng)

        cycle = [100.0, 200.0, 300.0]
        assert_cached_matches(fn, [geometry(o) for o in cycle])
        cache = fn.job.stencils
        assert (cache.hits, cache._bytes) == (0, 3 * entry)
        for n_pass in (1, 2):
            assert_cached_matches(fn, [geometry(o) for o in cycle])
            assert cache.hits == 3 * n_pass
        assert_cached_matches(fn, [geometry(400.0)])   # evicts 100 m
        assert_cached_matches(fn, [geometry(100.0)])   # evicts 200 m
        assert cache.hits == 6
        assert_cached_matches(fn, [geometry(o) for o in (300.0, 400.0, 100.0)])
        assert cache.hits == 9
        assert_cached_matches(fn, [geometry(200.0)])
        assert (cache.hits, cache.lookups) == (9, 15)

    @pytest.mark.parametrize("first", [455.0, 465.0])
    def test_mirrored_geometries_share_an_entry(self, first):
        """Offset 100 m about midpoints 5 m and 15 m past a column: each
        window is the other's seen from the other side.  Whichever stores
        the entry, both, clipped at either edge and with source and
        receiver swapped, read it."""
        rng = np.random.default_rng(16)
        fn = MigrationMapFn(lattice_job())
        assert_cached_matches(fn, [trace_at(first, first + 100.0, rng)
                                   for _ in range(2)])
        others = [trace_at(455.0, 555.0, rng), trace_at(465.0, 565.0, rng),
                  trace_at(565.0, 465.0, rng), trace_at(-5.0, 95.0, rng),
                  trace_at(5.0, 105.0, rng), trace_at(925.0, 1025.0, rng),
                  trace_at(1035.0, 935.0, rng)]
        assert_cached_matches(fn, others)
        assert fn.job.stencils.hits == 1 + len(others)
        assert len(fn.job.stencils._entries) == 1

    def test_clipped_trace_stores_the_unclipped_window(self):
        rng = np.random.default_rng(12)
        fn = MigrationMapFn(lattice_job())
        assert_cached_matches(fn, [trace_at(-10.0, 90.0, rng) for _ in range(2)])
        assert_cached_matches(fn, [trace_at(450.0, 550.0, rng),
                                   trace_at(1030.0, 930.0, rng)])
        assert fn.job.stencils.hits == 3

    @pytest.mark.parametrize("t0", [0.0, 0.0005])
    def test_sub_window_without_the_mask_of_its_entry(self, t0):
        """Zero offset 7 m past a column: the window reaches 187 m to one
        side and 193 m to the other.  The trace ends between the two DSR
        times at tau = 0.1 s, so the full window needs the mask, while a
        trace clipped at the grid edge keeps only its 187 m side, whose
        times all lie inside the trace."""
        rng = np.random.default_rng(13)
        job = lattice_job(nx=30, ntau=26)
        n = 216 - int(t0 > 0)   # the last sample at 0.215 s

        def trace(mid):
            return trace_at(mid, mid, rng, t0=t0, dt=0.001, n=n)

        # the grid ends at 580 m; 313 and 13 m mirror 307 and 567 m
        inner, edge, mirrored_edge = trace(307.0), trace(567.0), trace(13.0)
        x, tau = job.grid.x_axis(), job.grid.tau_axis()
        for t, masked in ((inner, True), (edge, False), (mirrored_edge, False)):
            # the DSR times of the grid columns in the aperture
            d = np.abs(x - t.header.source_x)
            dsr = 2.0 * leg_times_grid(d[d <= 200.0, None], tau, 2000.0)
            u = (dsr - t0) / 0.001
            assert bool(u.min() < 0.0 or u.max() >= n - 1) == masked
        fn = MigrationMapFn(job)
        assert_cached_matches(fn, [inner, inner, edge, trace(307.0),
                                   trace(313.0), mirrored_edge])
        assert fn.job.stencils.hits == 5

    @pytest.mark.parametrize("weight", [WeightMode.UNIT, WeightMode.OBLIQUITY])
    def test_one_sample_traces(self, weight):
        """A zero-offset trace over a column has DSR time tau there, so a
        t0 on the tau axis puts a cell on its sample."""
        job = lattice_job(weight=weight)
        t0 = float(job.grid.tau_axis()[40])
        traces = [Trace(TraceHeader(i, x, x, t0, 0.004, 1), np.array([1.5 + i]))
                  for i, x in enumerate((500.0, 500.0, 300.0, 0.0, 1000.0))]
        fn = MigrationMapFn(job)
        assert_cached_matches(fn, traces)
        assert fn.job.stencils.hits == 4
        assert all(fn(t)[0].size > 0 for t in traces)

    def test_off_lattice_survey_with_the_table_budget_spent(self, monkeypatch):
        """Past the leg table's budget, legs from positions the table never
        indexed are computed for each trace.  The cache keys those traces on
        their distances like any other, so the repeated passes hit."""
        binning = OffsetBinning((0.0, 500.0, 2000.0))
        grid = GridSpec(0.0, 40.0, 24, 0.0, 0.004, 40, 2)
        job = MigrationJob(grid, VelocityModel(((0.0, 1600.0), (1.0, 2600.0))),
                           KernelParams(350.0, WeightMode.OBLIQUITY), binning)
        survey = random_survey(np.random.default_rng(8), binning,
                               n_traces=12, n_samples=80)
        for trace in survey:
            migrate_trace(trace, job)
        # room for the rows of about four positions
        monkeypatch.setattr(kirchhoff, "TABLE_BUDGET_BYTES",
                            4 * (grid.nx + 2 * 9) * grid.ntau * 16)
        fn = MigrationMapFn(fresh_job(job))
        assert_cached_matches(fn, list(survey) * 3)
        assert fn.job.stencils.hits > 0
        assert 0 < fn.job.leg_table.n_rows < job.leg_table.n_rows

    def test_positions_past_a_full_table_hit(self, monkeypatch):
        """A leg table with room for one position, the first trace's source
        at 450 m (38 distances on the 71-column axis): the traces at the
        positions it never indexed share entries all the same."""
        monkeypatch.setattr(kirchhoff, "TABLE_BUDGET_BYTES",
                            38 * 2 * 101 * 8 + 71 * 8)
        rng = np.random.default_rng(18)
        fn = MigrationMapFn(lattice_job())
        table, cache = fn.job.leg_table, fn.job.stencils
        unindexed_hits = 0
        for mid in (500.0, 500.0, 603.0, 603.0, 707.0, 707.0, 296.0, 704.0):
            trace = trace_at(mid - 50.0, mid + 50.0, rng)
            hits = cache.hits
            assert_cached_matches(fn, [trace])
            h = trace.header
            if not {h.source_x, h.receiver_x} & table._rows_at.keys():
                unindexed_hits += cache.hits - hits
        assert list(table._rows_at) == [450.0]
        # 603 and 707 m repeat, and 704 m mirrors 296 m about 500 m
        assert unindexed_hits == 3
        assert cache.hits == 4

    @settings(max_examples=200, deadline=None)
    @given(case=pair_cases())
    def test_traces_share_an_entry_exactly_when_their_distances_match(
            self, case):
        """Two traces through one fresh cache: the second hits the first's
        entry exactly when its leg distances, as a sorted pair, are the
        first's read forwards or backwards, and its time axis is the
        first's.  Both outputs equal migrate_trace."""
        weight, first, second = case
        rng = np.random.default_rng(19)
        fn = MigrationMapFn(lattice_job(weight=weight))
        traces = [trace_at(sx, rx, rng, *axis) for sx, rx, axis in (first, second)]
        assert_cached_matches(fn, traces)
        keys = [distance_key(t.header, fn.job) for t in traces]
        want = keys[0] is not None and keys[1] is not None and (
            keys[1][0] == keys[0][0] and keys[1][1] in keys[0][1:])
        event(f"shares an entry: {want}")
        assert fn.job.stencils.hits == int(want)

    def test_threads_sharing_one_cache(self, small_survey, small_job,
                                       monkeypatch):
        """4 threads, switching every microsecond, migrate the survey three
        times through one map function whose budget holds about three
        entries, so they store and evict all along."""
        monkeypatch.setattr(kirchhoff, "STENCIL_BUDGET_BYTES", 3 * 41 * 201 * 24)
        traces = map_order(small_survey, small_job.binning)
        reference = fresh_job(small_job)
        want = [migrate_trace(t, reference) for t in traces]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                fn = MigrationMapFn(fresh_job(small_job))
                with ThreadPoolExecutor(max_workers=4) as pool:
                    got = list(pool.map(fn, traces * 3))
                for (keys, values), c in zip(got, want * 3):
                    assert keys.tobytes() == c.ordinals.tobytes()
                    assert values.tobytes() == c.values.tobytes()
                assert fn.job.stencils.hits > 0
        finally:
            sys.setswitchinterval(interval)

    def test_file_order_switches_the_cache_off(self):
        """The 800-trace survey of the multiprocess benchmark in file
        (source-major) order: its geometries recur too far apart to hit,
        so the cache switches off after its first 64 lookups."""
        headers = make_acquisition(40, 50.0, 50.0, 20, 100.0, 100.0,
                                   0.0, 0.004, 501)
        rng = np.random.default_rng(14)
        traces = [Trace(h, rng.standard_normal(501)) for h in headers]
        job = MigrationJob(GridSpec(0.0, 20.0, 101, 0.0, 0.004, 351, 4),
                           VelocityModel.constant(2000.0),
                           KernelParams(600.0, WeightMode.OBLIQUITY),
                           OffsetBinning((0.0, 500.0, 1000.0, 1500.0, 2000.0)))
        fn = MigrationMapFn(job)
        assert_cached_matches(fn, traces)
        assert not fn.job.stencils.enabled
        assert fn.job.stencils.lookups == 64
        assert fn.job.stencils.hits < 16

    def test_stored_arrays_are_read_only(self):
        rng = np.random.default_rng(15)
        for weight in (WeightMode.UNIT, WeightMode.OBLIQUITY):
            fn = MigrationMapFn(lattice_job(weight=weight))
            for _ in range(2):
                fn(trace_at(450.0, 550.0, rng))
            stencil = next(iter(fn.job.stencils._entries.values()))
            arrays = [a for a in stencil if a is not None]
            assert len(arrays) == (3 if weight is WeightMode.OBLIQUITY else 2)
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0, 0] = 0


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


class TestReassembleImage:
    GRID = GridSpec(0.0, 10.0, 3, 0.0, 0.01, 4, 2)   # 24 cells

    def test_empty_totals_give_zero_image(self):
        kt = KeyedTotals(np.array([], dtype=np.uint64), np.array([]))
        image = reassemble_image(kt, self.GRID)
        assert image.values.shape == (2, 3, 4)
        assert not image.values.any()

    def test_scatter_placement(self):
        kt = KeyedTotals(np.array([0, 13, 23], dtype=np.uint64),
                         np.array([1.0, -2.0, 3.0]))
        image = reassemble_image(kt, self.GRID)
        assert image.values[0, 0, 0] == 1.0
        assert image.values[1, 0, 1] == -2.0     # ordinal 13 = (1,0,1)
        assert image.values[1, 2, 3] == 3.0
        assert np.count_nonzero(image.values) == 3

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ContractViolationError):
            KeyedTotals(np.array([4, 4], dtype=np.uint64),
                        np.array([1.0, 2.0]))

    def test_descending_keys_rejected(self):
        with pytest.raises(ContractViolationError):
            KeyedTotals(np.array([5, 3], dtype=np.uint64),
                        np.array([1.0, 2.0]))

    def test_out_of_range_key_rejected(self):
        kt = KeyedTotals(np.array([24], dtype=np.uint64), np.array([1.0]))
        with pytest.raises(ContractViolationError):
            reassemble_image(kt, self.GRID)
