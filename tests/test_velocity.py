import csv

import numpy as np
import pytest

from pktm import velocity
from pktm import (
    GridSpec,
    ImageGrid,
    KernelParams,
    LoopIteration,
    LoopReport,
    MoveoutResult,
    OffsetBinning,
    RickerWavelet,
    ScanResult,
    Scatterer,
    VelocityModel,
    WeightMode,
    constant_velocity_scan,
    focus_metric,
    imaging_loop,
    make_acquisition,
    residual_moveout,
    synth_survey,
)
from pktm.velocity import write_loop_csv, write_scan_csv


def image_with_columns(columns, nx=5, lateral=2):
    """Image whose bins carry the given columns at one lateral index."""
    n_bins = len(columns)
    ntau = len(columns[0])
    grid = GridSpec(0.0, 10.0, nx, 0.0, 0.004, ntau, n_bins)
    values = np.zeros((n_bins, nx, ntau))
    for b, col in enumerate(columns):
        values[b, lateral, :] = col
    return ImageGrid(grid, values)


def pulse(ntau, center, width=3):
    col = np.zeros(ntau)
    lo = max(center - width, 0)
    hi = min(center + width + 1, ntau)
    col[lo:hi] = np.hanning(2 * width + 1)[lo - (center - width):
                                           hi - (center - width)]
    return col


class TestFocusMetric:
    def test_zero_image(self):
        assert focus_metric(np.zeros((4, 7))) == 0.0

    def test_sum_of_squares(self):
        arr = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert focus_metric(arr) == 1.0 + 4.0 + 9.0 + 0.25

    def test_amplitude_scaling_is_quadratic(self):
        arr = np.random.default_rng(0).standard_normal((6, 6))
        assert focus_metric(3.0 * arr) == pytest.approx(9.0 * focus_metric(arr))


class TestResidualMoveout:
    def test_reference_bin_lag_is_zero(self):
        ref = pulse(64, 30)
        rmo = residual_moveout(image_with_columns([ref, ref]))
        assert rmo.lags[0] == 0
        assert not rmo.degenerate[0]

    def test_recovers_known_shifts(self):
        ref = pulse(64, 30)
        shifted_down = pulse(64, 34)    # later in time
        shifted_up = pulse(64, 25)
        rmo = residual_moveout(
            image_with_columns([ref, shifted_down, shifted_up]), max_lag=10)
        # col[t + s] aligns with ref[t]: a pulse centered later needs s > 0
        assert rmo.lags == (0, 4, -5)

    def test_lag_is_clipped_to_window(self):
        ref = pulse(64, 10)
        far = pulse(64, 50)
        rmo = residual_moveout(image_with_columns([ref, far]), max_lag=5)
        assert abs(rmo.lags[1]) <= 5

    def test_tie_prefers_small_then_negative(self):
        # correlation of col=[1,0,1] against ref=[0,1,0] is equal at s = -1
        # and s = +1 and zero at s = 0
        ref = np.array([0.0, 1.0, 0.0])
        col = np.array([1.0, 0.0, 1.0])
        rmo = residual_moveout(image_with_columns([ref, col]), max_lag=1)
        assert rmo.lags[1] == -1

    def test_strongest_lateral_is_chosen(self):
        grid = GridSpec(0.0, 10.0, 4, 0.0, 0.004, 32, 1)
        values = np.zeros((1, 4, 32))
        values[0, 1, 5] = 0.1
        values[0, 3, 9] = 2.0     # dominant column
        rmo = residual_moveout(ImageGrid(grid, values))
        assert rmo.lateral_index == 3

    def test_explicit_lateral_index(self):
        ref = pulse(32, 10)
        image = image_with_columns([ref, ref], nx=5, lateral=4)
        rmo = residual_moveout(image, lateral_index=4)
        assert rmo.lateral_index == 4
        assert rmo.lags == (0, 0)

    def test_bad_lateral_index(self):
        image = image_with_columns([pulse(16, 8)])
        with pytest.raises(IndexError):
            residual_moveout(image, lateral_index=99)

    def test_negative_max_lag(self):
        image = image_with_columns([pulse(16, 8)])
        with pytest.raises(ValueError):
            residual_moveout(image, max_lag=-1)

    def test_dead_column_is_degenerate(self):
        ref = pulse(32, 16)
        dead = np.zeros(32)
        rmo = residual_moveout(image_with_columns([ref, dead]))
        assert rmo.lags[1] == 0
        assert rmo.degenerate == (False, True)

    def test_dead_reference_degenerates_everything(self):
        dead = np.zeros(32)
        live = pulse(32, 16)
        rmo = residual_moveout(image_with_columns([dead, live]),
                               lateral_index=2)
        assert rmo.lags == (0, 0)
        assert rmo.degenerate == (True, True)

    def test_max_abs_lag(self):
        r = MoveoutResult(0, (0, -7, 3), (False, False, False))
        assert r.max_abs_lag == 7


def diffractor_survey(n_samples=301):
    headers = make_acquisition(10, 100.0, 150.0, 10, 150.0, 150.0,
                               0.0, 0.004, n_samples)
    return synth_survey(headers, [Scatterer(800.0, 0.5, 1.0)],
                        VelocityModel.constant(2000.0), RickerWavelet(25.0))


SCAN_GRID = GridSpec(400.0, 25.0, 33, 0.2, 0.004, 176, 2)
SCAN_BINNING = OffsetBinning((0.0, 700.0, 2200.0))
SCAN_PARAMS = KernelParams(500.0, WeightMode.OBLIQUITY)


class TestConstantVelocityScan:
    def test_true_velocity_wins(self):
        survey = diffractor_survey()
        scan = constant_velocity_scan(
            survey, SCAN_GRID, SCAN_PARAMS, SCAN_BINNING,
            [1700.0, 2000.0, 2300.0])
        assert scan.best_velocity == 2000.0
        assert len(scan.metrics) == 3
        assert max(scan.metrics) == scan.metrics[1]

    def test_all_zero_data_ties_to_lowest(self):
        headers = make_acquisition(3, 100.0, 200.0, 3, 150.0, 200.0,
                                   0.0, 0.004, 128)
        survey = synth_survey(headers, [], VelocityModel.constant(2000.0),
                              RickerWavelet(25.0))
        scan = constant_velocity_scan(
            survey, SCAN_GRID, SCAN_PARAMS, SCAN_BINNING,
            [2200.0, 1900.0, 2500.0])
        assert scan.metrics == (0.0, 0.0, 0.0)
        assert scan.best_velocity == 1900.0

    def test_progress_callback_order(self):
        survey = diffractor_survey(n_samples=160)
        seen = []
        constant_velocity_scan(
            survey, SCAN_GRID, SCAN_PARAMS, SCAN_BINNING,
            [1800.0, 2100.0], progress=lambda v, m: seen.append((v, m)))
        assert [v for v, _ in seen] == [1800.0, 2100.0]
        assert all(m >= 0.0 for _, m in seen)

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            constant_velocity_scan(diffractor_survey(160), SCAN_GRID,
                                   SCAN_PARAMS, SCAN_BINNING, [])

    def test_invalid_candidate(self):
        with pytest.raises(ValueError):
            constant_velocity_scan(diffractor_survey(160), SCAN_GRID,
                                   SCAN_PARAMS, SCAN_BINNING, [2000.0, -1.0])


class TestImagingLoop:
    def test_converges_from_wrong_velocity(self):
        survey = diffractor_survey()
        report = imaging_loop(
            survey, SCAN_GRID, SCAN_PARAMS, SCAN_BINNING,
            initial_velocity=1700.0,
            candidates=[1700.0, 1850.0, 2000.0, 2150.0],
            lag_tolerance=1)
        assert report.converged
        assert report.final_velocity == 2000.0
        assert report.iterations[0].scanned
        assert not report.iterations[-1].scanned
        assert report.iterations[-1].max_abs_lag <= 1

    def test_already_converged_stops_immediately(self):
        survey = diffractor_survey()
        report = imaging_loop(
            survey, SCAN_GRID, SCAN_PARAMS, SCAN_BINNING,
            initial_velocity=2000.0, candidates=[1800.0, 2000.0, 2200.0],
            lag_tolerance=1)
        assert report.converged
        assert len(report.iterations) == 1
        assert report.final_velocity == 2000.0

    def test_stops_unconverged_when_scan_cannot_improve(self):
        survey = diffractor_survey(n_samples=160)
        # candidates exclude anything nearer the truth than the start
        report = imaging_loop(
            survey, SCAN_GRID, SCAN_PARAMS, SCAN_BINNING,
            initial_velocity=1500.0, candidates=[1500.0],
            lag_tolerance=0)
        assert not report.converged
        assert len(report.iterations) == 1
        assert report.final_velocity == 1500.0

    def test_scans_at_most_once(self, monkeypatch):
        """Candidates short of the true 2000 m/s and a tolerance of 0: the
        scan picks 1850 m/s, the loop moves there, its lag still exceeds
        the tolerance, and the second pass reuses the first scan's pick.
        Two loop passes and the 2 candidates' migrations are all the
        migrations there are."""
        scans = []
        migrations = []

        def counting_scan(*args, **kwargs):
            scans.append(args)
            return constant_velocity_scan(*args, **kwargs)

        def counting_migrate(survey, job, config):
            migrations.append(job.vel(0.0))
            return migrate(survey, job, config)

        migrate = velocity._migrate
        monkeypatch.setattr(velocity, "constant_velocity_scan", counting_scan)
        monkeypatch.setattr(velocity, "_migrate", counting_migrate)
        report = imaging_loop(
            diffractor_survey(), SCAN_GRID, SCAN_PARAMS, SCAN_BINNING,
            initial_velocity=1700.0, candidates=[1700.0, 1850.0],
            lag_tolerance=0)
        assert len(scans) == 1
        assert [(i.velocity, i.scanned, i.next_velocity)
                for i in report.iterations] == [(1700.0, True, 1850.0),
                                                (1850.0, True, 1850.0)]
        assert (report.final_velocity, report.converged) == (1850.0, False)
        assert migrations == [1700.0, 1700.0, 1850.0, 1850.0]

    def test_rejects_bad_arguments(self):
        survey = diffractor_survey(n_samples=160)
        with pytest.raises(ValueError):
            imaging_loop(survey, SCAN_GRID, SCAN_PARAMS, SCAN_BINNING,
                         initial_velocity=-5.0, candidates=[2000.0])

    @pytest.mark.parametrize("candidates", [[], [-1.0], [float("nan")],
                                            [2000.0, 2000.0]])
    @pytest.mark.parametrize("run", ["scan", "loop"])
    def test_bad_candidates_fail_before_any_migration(
            self, monkeypatch, run, candidates):
        """At 2000 m/s the loop's first pass would converge and never
        scan; the candidates are still checked, and first."""
        migrations = []
        monkeypatch.setattr(velocity, "_migrate",
                            lambda *args: migrations.append(args))
        survey = diffractor_survey(n_samples=160)
        with pytest.raises(ValueError, match="candidate"):
            if run == "scan":
                constant_velocity_scan(survey, SCAN_GRID, SCAN_PARAMS,
                                       SCAN_BINNING, candidates)
            else:
                imaging_loop(survey, SCAN_GRID, SCAN_PARAMS, SCAN_BINNING,
                             initial_velocity=2000.0, candidates=candidates)
        assert migrations == []

    def test_negative_tolerance_fails_before_any_migration(
            self, monkeypatch):
        """No lag can be below 0, so the loop could never converge."""
        migrations = []
        monkeypatch.setattr(velocity, "_migrate",
                            lambda *args: migrations.append(args))
        with pytest.raises(ValueError,
                           match="lag_tolerance must be >= 0, got -1"):
            imaging_loop(diffractor_survey(n_samples=160), SCAN_GRID,
                         SCAN_PARAMS, SCAN_BINNING, initial_velocity=2000.0,
                         candidates=[2000.0], lag_tolerance=-1)
        assert migrations == []

    def test_negative_max_lag_fails_before_any_migration(self, monkeypatch):
        migrations = []
        monkeypatch.setattr(velocity, "_migrate",
                            lambda *args: migrations.append(args))
        with pytest.raises(ValueError, match="max_lag must be >= 0, got -1"):
            imaging_loop(diffractor_survey(n_samples=160), SCAN_GRID,
                         SCAN_PARAMS, SCAN_BINNING, initial_velocity=2000.0,
                         candidates=[2000.0], max_lag=-1)
        assert migrations == []


class TestCsvReports:
    def test_scan_csv(self, tmp_path):
        path = tmp_path / "scan.csv"
        scan = ScanResult((1800.0, 2000.0), (10.5, 99.25), 2000.0)
        write_scan_csv(path, scan)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["velocity", "focus_metric", "selected"]
        assert rows[1] == ["1800.0", "10.5", "0"]
        assert rows[2] == ["2000.0", "99.25", "1"]
        assert float(rows[2][1]) == 99.25

    def test_loop_csv(self, tmp_path):
        path = tmp_path / "loop.csv"
        report = LoopReport(
            (LoopIteration(0, 1700.0, 5.0, 4, (0, -4, 2), True, 2000.0),
             LoopIteration(1, 2000.0, 9.0, 0, (0, 0, 0), False, 2000.0)),
            2000.0, True)
        write_loop_csv(path, report)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][:2] == ["iteration", "velocity"]
        assert rows[1] == ["0", "1700.0", "5.0", "4", "0;-4;2", "1", "2000.0"]
        assert rows[2][5] == "0"
