"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL verdict line (echoed again in the terminal summary).

The point-diffractor survey used by criteria 3-7 is frozen here: a 20 x 20
split-spread acquisition over one scatterer at (1000 m, 0.8 s) in a constant
2000 m/s medium, imaged on a 101 x 351 grid with four offset bins.
"""
import math
import os
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from pktm import (
    GridSpec,
    ImageGrid,
    JobConfig,
    KernelParams,
    MigrationJob,
    MigrationMapFn,
    OffsetBinning,
    RickerWavelet,
    Scatterer,
    Survey,
    Trace,
    TraceHeader,
    VelocityModel,
    WeightMode,
    constant_velocity_scan,
    dsr_total_time,
    estimate_flops,
    forward_model,
    imaging_loop,
    make_acquisition,
    migrate_survey_serial,
    one_way_time,
    reassemble_image,
    stack_offsets,
    synth_survey,
)
from pktm.exactsum import exact_sums, grouped_expansions
from pktm.mapreduce import run_job
from pktm.storage import (
    StorageError,
    read_image,
    read_survey,
    write_image,
    write_survey,
)

RESULTS: list[str] = []

# key streams of every engine job run by criteria 3-5, checked by criterion 6
CAPTURED_KEYS: list[tuple[str, np.ndarray]] = []


def record(n: int, ok: bool, detail: str) -> bool:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    return ok


# ---------------------------------------------------------------------------
# shared frozen geometry for criteria 3-7
# ---------------------------------------------------------------------------

TRUE_V = 2000.0
SCAT_CELL = (50, 200)            # x = 1000 m on a 20 m grid, tau = 0.8 s / 4 ms


@pytest.fixture(scope="module")
def setup():
    binning = OffsetBinning((0.0, 500.0, 1000.0, 1500.0, 2000.0))
    grid = GridSpec(0.0, 20.0, 101, 0.0, 0.004, 351, binning.n_bins)
    params = KernelParams(600.0, WeightMode.OBLIQUITY)
    headers = make_acquisition(20, 50.0, 100.0, 20, 100.0, 100.0,
                               0.0, 0.004, 501)
    survey = synth_survey(headers, [Scatterer(1000.0, 0.8, 1.0)],
                          VelocityModel.constant(TRUE_V), RickerWavelet(25.0),
                          binning)

    def job_at(v: float) -> MigrationJob:
        return MigrationJob(grid, VelocityModel.constant(v), params, binning)

    return SimpleNamespace(binning=binning, grid=grid, params=params,
                           survey=survey, job_at=job_at)


@pytest.fixture(scope="module")
def reference(setup, tmp_path_factory):
    """Serial-oracle image of the frozen survey and its on-disk bytes."""
    image = migrate_survey_serial(setup.survey, setup.job_at(TRUE_V))
    path = tmp_path_factory.mktemp("reference") / "reference.img"
    write_image(path, image)
    return SimpleNamespace(image=image, file_bytes=path.read_bytes())


@pytest.fixture(scope="module")
def spill_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance-spill"))


def engine_image(setup, velocity, label, spill, mode="serial", workers=1,
                 combiner=False, observer=None) -> ImageGrid:
    """One full engine job; its key stream is captured for criterion 6."""
    cfg = JobConfig(n_partitions=8, n_workers=workers, mode=mode,
                    combiner_enabled=combiner, spill_dir=spill)
    totals = run_job(list(setup.survey), MigrationMapFn(setup.job_at(velocity)),
                     cfg, observer=observer)
    CAPTURED_KEYS.append((label, np.asarray(totals.keys)))
    return reassemble_image(totals, setup.grid)


def image_file_bytes(image: ImageGrid, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    write_image(path, image)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_flop_estimate():
    t0 = time.monotonic()
    flops, gflop_years = estimate_flops(1e9, 1e7, 10.0)
    elapsed = time.monotonic() - t0
    flops_ok = flops == 1.0e17
    years_ok = abs(gflop_years - 3.17) / 3.17 <= 0.05
    ok = flops_ok and years_ok and elapsed < 5.0
    assert record(
        1, ok,
        f"estimate_flops(1e9, 1e7, 10) = {flops:.3e} flops, "
        f"{gflop_years:.4f} Gflop-years (within 5% of 3.17: {years_ok}) "
        f"[{elapsed:.2f}s]")


def test_criterion_2_adjoint_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240811)
    grid = GridSpec(0.0, 25.0, 48, 0.0, 0.004, 48, 2)
    binning = OffsetBinning(tuple(np.linspace(0.0, 2400.0, 3)))
    vel = VelocityModel(((0.0, 1800.0), (1.0, 2400.0)))
    job = MigrationJob(grid, vel,
                       KernelParams(400.0, WeightMode.OBLIQUITY), binning)
    headers = []
    for i in range(50):
        sx = rng.uniform(0.0, 1200.0)
        rx = sx + rng.uniform(10.0, 2000.0)
        headers.append(TraceHeader(i, sx, rx, 0.0, 0.004, 120))
    image = ImageGrid(grid, rng.standard_normal((2, 48, 48)))
    data = [Trace(h, rng.standard_normal(120)) for h in headers]

    modeled = forward_model(image, headers, job)
    migrated = migrate_survey_serial(Survey(data, binning), job)
    lhs = sum(float(np.dot(a.samples, b.samples))
              for a, b in zip(modeled, data))
    rhs = float(np.sum(migrated.values * image.values))
    rel = abs(lhs - rhs) / (abs(lhs) + abs(rhs))
    elapsed = time.monotonic() - t0

    ok = rel <= 1e-10 and elapsed < 10.0
    assert record(
        2, ok,
        f"|<Lm,d> - <m,L'd>| / (|<Lm,d>| + |<m,L'd>|) = {rel:.3e} "
        f"(tolerance 1e-10) [{elapsed:.2f}s]")


def test_criterion_3_diffractor_focusing(setup, reference, spill_root,
                                         tmp_path):
    t0 = time.monotonic()
    image_true = engine_image(setup, TRUE_V, "c3-true-v", spill_root)
    # the engine path must agree with the serial oracle before we measure it
    assert image_file_bytes(image_true, tmp_path, "true.img") == \
        reference.file_bytes

    stacked = stack_offsets(image_true)
    ix, itau = np.unravel_index(int(np.argmax(stacked)), stacked.shape)
    peak_true = stacked[SCAT_CELL]

    lows = []
    for factor, label in ((0.9, "c3-low-v"), (1.1, "c3-high-v")):
        img = engine_image(setup, TRUE_V * factor, label, spill_root)
        lows.append(stack_offsets(img)[SCAT_CELL])
    elapsed = time.monotonic() - t0

    argmax_ok = abs(ix - SCAT_CELL[0]) <= 1 and abs(itau - SCAT_CELL[1]) <= 1
    bracket_ok = all(low < peak_true for low in lows)
    ok = argmax_ok and bracket_ok and elapsed < 60.0
    assert record(
        3, ok,
        f"argmax at cell ({ix}, {itau}) vs scatterer {SCAT_CELL}; "
        f"true-cell amplitude {peak_true:.2f} vs {lows[0]:.2f} @0.9v, "
        f"{lows[1]:.2f} @1.1v [{elapsed:.1f}s]")


def test_criterion_4_engine_bit_identity(setup, reference, spill_root,
                                         tmp_path):
    t0 = time.monotonic()
    runs = [("serial", 1), ("threaded", 1), ("threaded", 2), ("threaded", 8),
            ("multiprocess", 2)]
    mismatches = []
    n_runs = 0
    for mode, workers in runs:
        for combiner in (False, True):
            label = f"c4-{mode}-w{workers}-{'on' if combiner else 'off'}"
            image = engine_image(setup, TRUE_V, label, spill_root,
                                 mode=mode, workers=workers,
                                 combiner=combiner)
            n_runs += 1
            if image_file_bytes(image, tmp_path, label + ".img") != \
                    reference.file_bytes:
                mismatches.append(label)
    elapsed = time.monotonic() - t0

    ok = not mismatches and elapsed < 300.0
    assert record(
        4, ok,
        f"{n_runs} engine runs (serial / threaded W=1,2,8 / multiprocess "
        f"W=2, combiner on+off) all byte-identical to the serial oracle"
        + (f"; MISMATCH {mismatches}" if mismatches else "")
        + f" [{elapsed:.1f}s]")


def test_criterion_5_worker_kill(setup, reference, spill_root, tmp_path):
    t0 = time.monotonic()
    state = {"killed_pid": None, "lost": False}

    def observer(event):
        if (event.kind == "map_task_done" and state["killed_pid"] is None
                and event.pid):
            os.kill(event.pid, signal.SIGKILL)
            state["killed_pid"] = event.pid
        elif event.kind == "worker_lost":
            state["lost"] = True

    image = engine_image(setup, TRUE_V, "c5-kill", spill_root,
                         mode="multiprocess", workers=2, observer=observer)
    identical = image_file_bytes(image, tmp_path, "kill.img") == \
        reference.file_bytes
    elapsed = time.monotonic() - t0

    ok = (state["killed_pid"] is not None and state["lost"] and identical
          and elapsed < 120.0)
    assert record(
        5, ok,
        f"SIGKILL of worker pid {state['killed_pid']} after its first "
        f"completed map task; worker loss observed: {state['lost']}; "
        f"output byte-identical: {identical} [{elapsed:.1f}s]")


def test_criterion_6_sort_contract(setup):
    if not CAPTURED_KEYS:
        pytest.skip("requires the criterion 3-5 jobs in the same session")
    bad = []
    for label, keys in CAPTURED_KEYS:
        k = keys.astype(np.int64)
        if k.size and (not np.all(np.diff(k) > 0)
                       or k[0] < 0 or k[-1] >= setup.grid.n_cells):
            bad.append(label)
    ok = not bad
    assert record(
        6, ok,
        f"reduced keys strictly ascending and in-range on all "
        f"{len(CAPTURED_KEYS)} criterion 3-5 jobs"
        + (f"; VIOLATED by {bad}" if bad else ""))


def test_criterion_7_velocity_recovery(setup):
    t0 = time.monotonic()
    candidates = [1800.0, 1900.0, 2000.0, 2100.0, 2200.0]
    scan = constant_velocity_scan(
        setup.survey, setup.grid, setup.params, setup.binning, candidates)
    loop = imaging_loop(
        setup.survey, setup.grid, setup.params, setup.binning,
        initial_velocity=1700.0, candidates=candidates,
        lag_tolerance=1)
    final_lags = loop.iterations[-1].lags
    elapsed = time.monotonic() - t0

    scan_ok = scan.best_velocity == 2000.0
    loop_ok = (loop.converged and loop.final_velocity == 2000.0
               and all(abs(lag) <= 1 for lag in final_lags))
    ok = scan_ok and loop_ok and elapsed < 300.0
    assert record(
        7, ok,
        f"scan over {{1800..2200}} picked {scan.best_velocity:.0f}; loop from "
        f"1700 finished at {loop.final_velocity:.0f} in "
        f"{len(loop.iterations)} iterations, converged={loop.converged}, "
        f"final lags {final_lags} [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# criterion 8: property suites at the required volumes
# ---------------------------------------------------------------------------

def _traveltime_sweep(n=10_000) -> int:
    rng = np.random.default_rng(8001)
    checked = 0
    for _ in range(n):
        tau = float(rng.uniform(0.0, 4.0))
        h1 = float(rng.uniform(0.0, 3000.0))
        h2 = h1 + float(rng.uniform(0.0, 2000.0))
        v = float(rng.uniform(1500.0, 5000.0))
        t1 = one_way_time(h1, tau, v)
        # lower bound: never earlier than the vertical or horizontal ray
        assert t1 >= max(tau / 2.0, h1 / v) * (1.0 - 1e-12)
        # monotone in distance
        assert one_way_time(h2, tau, v) >= t1
        # source/receiver exchange symmetry of the two-leg time
        x = float(rng.uniform(-2000.0, 2000.0))
        xs = float(rng.uniform(-2000.0, 2000.0))
        xr = float(rng.uniform(-2000.0, 2000.0))
        vel = VelocityModel.constant(v)
        assert dsr_total_time(x, tau, xs, xr, vel) == \
            dsr_total_time(x, tau, xr, xs, vel)
        checked += 1
    return checked


def _linearity_check() -> None:
    rng = np.random.default_rng(8003)
    binning = OffsetBinning((0.0, 900.0, 2400.0))
    grid = GridSpec(0.0, 40.0, 22, 0.0, 0.004, 36, 2)
    job = MigrationJob(grid, VelocityModel.constant(2100.0),
                       KernelParams(350.0, WeightMode.OBLIQUITY), binning)
    traces = []
    for i in range(12):
        sx = float(rng.uniform(0.0, 800.0))
        header = TraceHeader(i, sx, sx + float(rng.uniform(10.0, 1800.0)),
                             0.0, 0.004, 70)
        traces.append(header)
    d1 = Survey([Trace(h, rng.standard_normal(70)) for h in traces], binning)
    d2 = Survey([Trace(h, rng.standard_normal(70)) for h in traces], binning)
    mixed = Survey([Trace(a.header, 2.0 * a.samples - 0.75 * b.samples)
                    for a, b in zip(d1, d2)], binning)
    m_mixed = migrate_survey_serial(mixed, job).values
    m1 = migrate_survey_serial(d1, job).values
    m2 = migrate_survey_serial(d2, job).values
    np.testing.assert_allclose(m_mixed, 2.0 * m1 - 0.75 * m2,
                               rtol=1e-12, atol=1e-12)


def _combine_sweep(n=10_000) -> int:
    """The engine's map-side combiner, reduced by the engine's reduce,
    against brute-force per-key math.fsum over the raw unsorted stream.  A
    key whose values cancel may drop out of the combined stream and must
    then read as zero; every other key keeps its bits."""
    rng = np.random.default_rng(8002)
    magnitudes = np.array([1e-12, 1.0, 1e8, 1e16])
    cancelled = 0
    for i in range(n):
        size = int(rng.integers(0, 24))
        keys = rng.integers(0, 12, size).astype(np.uint64)
        vals = rng.standard_normal(size) * rng.choice(magnitudes, size)
        if i % 3 == 0:
            # negate a prefix: keys seen only there cancel exactly
            m = int(rng.integers(0, size + 1))
            order = rng.permutation(size + m)
            keys = np.concatenate((keys, keys[:m]))[order]
            vals = np.concatenate((vals, -vals[:m]))[order]
        acc = {}
        for k, v in zip(keys.tolist(), vals.tolist()):
            acc.setdefault(k, []).append(v)
        ck, cv = grouped_expansions(keys, vals)
        assert ck.shape[0] <= keys.shape[0]
        got = dict(zip(*[a.tolist() for a in exact_sums(ck, cv)]))
        assert set(got) <= set(acc)
        for k, values in acc.items():
            want = math.fsum(values)
            if k in got:
                assert np.float64(got[k]).tobytes() == np.float64(want).tobytes()
            else:
                assert want == 0.0
                cancelled += 1
    assert cancelled > 0
    return n


def _exact_sums_sweep(n=10_000) -> int:
    """The engine's reduce primitive against per-key math.fsum, bit for bit,
    on unsorted streams: wide magnitudes, ties, cancellation, sparse keys."""
    rng = np.random.default_rng(8003)
    magnitudes = np.array([1e-300, 1e-33, 1e-12, 0.5, 1.0, 1e8, 1e16, 1e300])
    sparse = np.array([0, 1, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    for i in range(n):
        size = int(rng.integers(0, 24))
        if i % 4 == 3:
            keys = rng.choice(sparse, size)
        else:
            keys = rng.integers(0, 12, size).astype(np.uint64)
        if i % 2:
            vals = rng.standard_normal(size) * rng.choice(magnitudes, size)
        else:
            vals = rng.integers(-8, 9, size) * 2.0 ** rng.integers(-80, 80, size)
        if size > 2 and i % 3 == 0:
            vals[size // 2:] = -vals[:size - size // 2]
        acc = {}
        for k, v in zip(keys.tolist(), vals.tolist()):
            acc.setdefault(k, []).append(v)
        expected = sorted(acc)
        uk, totals = exact_sums(keys, vals)
        assert uk.tolist() == expected
        assert totals.tobytes() == np.array(
            [math.fsum(acc[k]) for k in expected]).tobytes()
    return n


def _format_fuzz(tmp_path) -> tuple[int, int]:
    """Round-trips plus exhaustive single-byte mutation of the detectable
    header regions; returns (round-trips, rejected mutations).

    Every file is written new and unlinked once read.  Truncating or
    replacing a file whose blocks are already allocated frees them, and on
    an ext4 mount with online discard each free waits on the device (about
    60 ms), which over the 9,000 writes here costs minutes."""
    rng = np.random.default_rng(8004)

    roundtrips = 0
    for _ in range(150):
        n_traces = int(rng.integers(1, 4))
        n_samples = int(rng.integers(1, 16))
        traces = []
        for i in range(n_traces):
            h = TraceHeader(i, float(rng.uniform(0, 1e3)),
                            float(rng.uniform(0, 1e3)),
                            float(rng.uniform(0, 0.1)),
                            float(rng.uniform(1e-4, 0.01)), n_samples)
            traces.append(Trace(
                h, rng.standard_normal(n_samples).astype(np.float32)))
        survey = Survey(traces, OffsetBinning.single())
        p = tmp_path / "rt.trc"
        write_survey(p, survey)
        back = read_survey(p)
        p.unlink()
        assert len(back) == n_traces
        for a, b in zip(back, survey):
            assert a.header == b.header
            assert a.samples.tobytes() == b.samples.tobytes()
        roundtrips += 1

        nb, nx, ntau = (int(rng.integers(1, 4)) for _ in range(3))
        grid = GridSpec(0.0, 10.0, nx, 0.0, 0.01, ntau, nb)
        image = ImageGrid(grid, rng.standard_normal((nb, nx, ntau)))
        p = tmp_path / "rt.img"
        write_image(p, image)
        back = read_image(p)
        p.unlink()
        assert back.spec == grid
        assert back.values.tobytes() == image.values.tobytes()
        roundtrips += 1

    # single-trace file: magic, trace count, and the sample count are all
    # verifiable against the actual byte count, so every flip must be caught
    h = TraceHeader(0, 10.0, 110.0, 0.0, 0.004, 5)
    trace_path = tmp_path / "fuzz.trc"
    write_survey(trace_path,
                 Survey([Trace(h, np.arange(5, dtype=np.float32))],
                        OffsetBinning.single()))
    trace_bytes = trace_path.read_bytes()
    trace_path.unlink()
    trace_detectable = list(range(0, 8)) + list(range(40, 44))

    grid = GridSpec(0.0, 10.0, 2, 0.0, 0.01, 3, 2)
    image_path = tmp_path / "fuzz.img"
    write_image(image_path, ImageGrid(grid, np.ones((2, 2, 3))))
    image_bytes = image_path.read_bytes()
    image_path.unlink()
    image_detectable = list(range(0, 4)) + list(range(36, 48))

    rejected = 0
    for pristine, path, positions, reader in (
            (trace_bytes, trace_path, trace_detectable, read_survey),
            (image_bytes, image_path, image_detectable, read_image)):
        for pos in positions:
            for flip in range(1, 256):
                mutated = bytearray(pristine)
                mutated[pos] ^= flip
                path.write_bytes(bytes(mutated))
                with pytest.raises(StorageError):
                    reader(path)
                path.unlink()
                rejected += 1

    # arbitrary-position flips may hit undetectable payload bytes; those must
    # parse to exactly what a rewrite reproduces, never crash
    for pristine, path, reader, writer in (
            (trace_bytes, trace_path, read_survey, write_survey),
            (image_bytes, image_path, read_image, write_image)):
        for _ in range(500):
            pos = int(rng.integers(0, len(pristine)))
            flip = int(rng.integers(1, 256))
            mutated = bytes(
                b ^ (flip if i == pos else 0)
                for i, b in enumerate(pristine))
            path.write_bytes(mutated)
            try:
                parsed = reader(path)
            except StorageError:
                continue
            finally:
                path.unlink()
            writer(path, parsed)
            assert path.read_bytes() == mutated
            path.unlink()
    return roundtrips, rejected


def test_criterion_8_property_suites(tmp_path):
    t0 = time.monotonic()
    n_traveltime = _traveltime_sweep()
    _linearity_check()
    n_combine = _combine_sweep()
    n_exact = _exact_sums_sweep()
    n_roundtrips, n_rejected = _format_fuzz(tmp_path)
    elapsed = time.monotonic() - t0

    ok = (n_traveltime >= 10_000 and n_combine >= 10_000
          and n_exact >= 10_000 and n_rejected >= 1_000)
    assert record(
        8, ok,
        f"traveltime invariants x{n_traveltime}, operator linearity, "
        f"combiner-vs-brute x{n_combine}, exact_sums-vs-fsum x{n_exact}, "
        f"{n_roundtrips} file round-trips, "
        f"{n_rejected} detectable header mutations rejected [{elapsed:.1f}s]")
