import math

import numpy as np
import pytest

from pktm import (
    GridSpec,
    OffsetBinning,
    Survey,
    Trace,
    TraceHeader,
    VelocityModel,
    estimate_flops,
)


class TestEstimateFlops:
    def test_headline_job_size(self):
        flops, gflop_years = estimate_flops(1e9, 1e7, 10)
        assert flops == 1.0e17
        assert gflop_years == pytest.approx(3.17, rel=0.05)

    def test_zero_traces(self):
        assert estimate_flops(1e9, 0, 10) == (0.0, 0.0)

    def test_unit_inputs(self):
        flops, gflop_years = estimate_flops(1, 1, 1)
        assert flops == 1.0
        assert gflop_years == pytest.approx(1.0 / (1e9 * 365.25 * 86400))

    def test_overflow_is_an_error(self):
        with pytest.raises(OverflowError):
            estimate_flops(1e300, 1e300, 10)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_inputs_rejected(self, bad):
        with pytest.raises((ValueError, OverflowError)):
            estimate_flops(bad, 1.0, 1.0)


class TestTraceHeader:
    def test_offset_is_absolute(self):
        h = TraceHeader(0, 300.0, 100.0, 0.0, 0.004, 10)
        assert h.offset == 200.0

    def test_time_axis(self):
        h = TraceHeader(0, 0.0, 0.0, 0.1, 0.5, 3)
        np.testing.assert_allclose(h.time_axis(), [0.1, 0.6, 1.1])

    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0), dict(dt=-0.004), dict(n_samples=0),
        dict(source_x=float("nan")), dict(t0=float("inf")),
    ])
    def test_invalid_fields(self, kwargs):
        base = dict(trace_id=0, source_x=0.0, receiver_x=0.0, t0=0.0,
                    dt=0.004, n_samples=10)
        base.update(kwargs)
        with pytest.raises(ValueError):
            TraceHeader(**base)


class TestTrace:
    def test_sample_length_checked(self):
        h = TraceHeader(0, 0.0, 0.0, 0.0, 0.004, 5)
        with pytest.raises(ValueError):
            Trace(h, np.zeros(4))

    def test_samples_read_only(self):
        h = TraceHeader(0, 0.0, 0.0, 0.0, 0.004, 5)
        t = Trace(h, np.zeros(5))
        with pytest.raises(ValueError):
            t.samples[0] = 1.0

    def test_non_finite_samples_rejected(self):
        h = TraceHeader(0, 0.0, 0.0, 0.0, 0.004, 3)
        with pytest.raises(ValueError):
            Trace(h, np.array([0.0, np.nan, 0.0]))


class TestOffsetBinning:
    def test_bin_of_interior(self):
        b = OffsetBinning((0.0, 400.0, 800.0))
        assert b.bin_of(100.0) == 0
        assert b.bin_of(400.0) == 1     # lower edge inclusive
        assert b.bin_of(799.0) == 1

    def test_outside_returns_none(self):
        b = OffsetBinning((0.0, 400.0, 800.0))
        assert b.bin_of(-1.0) is None
        assert b.bin_of(800.0) is None  # upper edge exclusive
        assert b.bin_of(9000.0) is None

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            OffsetBinning((0.0, 400.0, 400.0))

    def test_single_covers_everything(self):
        b = OffsetBinning.single()
        assert b.n_bins == 1
        assert b.bin_of(0.0) == 0
        assert b.bin_of(1e9) == 0


class TestSurvey:
    def test_trace_ids_must_match_position(self):
        h0 = TraceHeader(0, 0.0, 10.0, 0.0, 0.004, 3)
        h2 = TraceHeader(2, 0.0, 10.0, 0.0, 0.004, 3)
        with pytest.raises(ValueError):
            Survey([Trace(h0, np.zeros(3)), Trace(h2, np.zeros(3))],
                   OffsetBinning.single())


class TestVelocityModel:
    def test_constant(self):
        v = VelocityModel.constant(2000.0)
        assert v(0.0) == 2000.0
        assert v(5.0) == 2000.0

    def test_interpolates_and_clamps(self):
        v = VelocityModel(((0.0, 1500.0), (1.0, 2500.0)))
        assert v(0.5) == pytest.approx(2000.0)
        assert v(-1.0) == 1500.0   # clamped below the first knot
        assert v(9.0) == 2500.0    # clamped above the last knot

    def test_knots_must_strictly_increase(self):
        with pytest.raises(ValueError):
            VelocityModel(((0.0, 1500.0), (0.0, 2000.0)))

    def test_velocities_must_be_positive(self):
        with pytest.raises(ValueError):
            VelocityModel(((0.0, 0.0),))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("field", ["time", "velocity"])
    def test_knots_must_be_finite(self, field, bad):
        """A nan velocity would migrate to an all-zero image."""
        knot = (bad, 2000.0) if field == "time" else (1.0, bad)
        with pytest.raises(ValueError, match="knots must be finite"):
            VelocityModel(((0.0, 1500.0), knot))

    def test_vectorized_call(self):
        v = VelocityModel(((0.0, 1000.0), (2.0, 3000.0)))
        np.testing.assert_allclose(
            v(np.array([0.0, 1.0, 2.0])), [1000.0, 2000.0, 3000.0])


class TestGridSpec:
    def test_axes(self):
        g = GridSpec(100.0, 50.0, 3, 0.5, 0.25, 2, 1)
        np.testing.assert_allclose(g.x_axis(), [100.0, 150.0, 200.0])
        np.testing.assert_allclose(g.tau_axis(), [0.5, 0.75])
        assert g.n_cells == 6

    @pytest.mark.parametrize("field, value", [
        ("dx", 0.0), ("dtau", -1.0), ("nx", 0), ("ntau", 0),
        ("n_offset_bins", 0), ("x_min", math.nan),
    ])
    def test_validation(self, field, value):
        kwargs = dict(x_min=0.0, dx=1.0, nx=2, tau_min=0.0, dtau=1.0,
                      ntau=2, n_offset_bins=1)
        kwargs[field] = value
        with pytest.raises(ValueError):
            GridSpec(**kwargs)
