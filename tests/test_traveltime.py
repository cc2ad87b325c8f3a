import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pktm import (
    GridSpec,
    KernelParams,
    VelocityModel,
    WeightMode,
    dsr_total_time,
    one_way_time,
    weight,
    within_aperture,
)
from pktm.kirchhoff import LegTable
from pktm.traveltime import leg_times_grid

V2000 = VelocityModel.constant(2000.0)

# physically sensible parameter ranges for the invariant suites; times and
# distances far below any sample interval would only exercise float
# underflow, not the physics
taus = st.one_of(st.just(0.0), st.floats(1e-9, 20.0))
offsets = st.one_of(st.just(0.0), st.floats(1e-6, 50_000.0))
positions = st.floats(-50_000.0, 50_000.0)
speeds = st.floats(300.0, 10_000.0)


class TestOneWayTime:
    def test_zero_offset_is_half_tau(self):
        assert one_way_time(0.0, 2.0, 1500.0) == 1.0

    def test_zero_tau_is_straight_ray(self):
        assert one_way_time(1500.0, 0.0, 1500.0) == 1.0

    def test_oblique(self):
        # sqrt(0.5^2 + 0.5^2)
        assert one_way_time(1000.0, 1.0, 2000.0) == pytest.approx(
            0.7071067811865476, abs=1e-15)

    @pytest.mark.parametrize("h, tau, v", [
        (1.0, 1.0, 0.0), (1.0, 1.0, -100.0), (-1.0, 1.0, 100.0),
        (1.0, -1.0, 100.0),
    ])
    def test_domain_errors(self, h, tau, v):
        with pytest.raises(ValueError):
            one_way_time(h, tau, v)

    @given(h=offsets, tau=taus, v=speeds)
    def test_lower_bound_half_tau(self, h, tau, v):
        assert one_way_time(h, tau, v) >= tau / 2.0

    @given(h1=offsets, h2=offsets, tau=taus, v=speeds)
    def test_monotone_in_offset(self, h1, h2, tau, v):
        lo, hi = sorted((h1, h2))
        assert one_way_time(lo, tau, v) <= one_way_time(hi, tau, v)

    @given(h=offsets, tau1=taus, tau2=taus, v=speeds)
    def test_monotone_in_tau(self, h, tau1, tau2, v):
        lo, hi = sorted((tau1, tau2))
        assert one_way_time(h, lo, v) <= one_way_time(h, hi, v)


class TestDsrTotalTime:
    def test_symmetric_split_spread(self):
        t = dsr_total_time(0.0, 1.0, -1000.0, 1000.0, V2000)
        assert t == pytest.approx(math.sqrt(2.0), abs=1e-15)

    @given(x=positions, tau=taus, xs=positions, xr=positions)
    def test_source_receiver_symmetry(self, x, tau, xs, xr):
        v = V2000
        assert dsr_total_time(x, tau, xs, xr, v) == dsr_total_time(
            x, tau, xr, xs, v)

    @given(x=positions, tau=taus, xs=positions, xr=positions)
    def test_never_earlier_than_tau(self, x, tau, xs, xr):
        assert dsr_total_time(x, tau, xs, xr, V2000) >= tau

    def test_uses_velocity_at_image_time(self):
        # the one-way legs must be evaluated with vrms(tau), not vrms(t)
        vel = VelocityModel(((0.0, 1000.0), (2.0, 3000.0)))
        t = dsr_total_time(0.0, 1.0, -500.0, 500.0, vel)
        v_at_tau = vel(1.0)
        expected = 2.0 * math.sqrt(0.25 + (500.0 / v_at_tau) ** 2)
        assert t == pytest.approx(expected, rel=1e-15)


class TestWeight:
    def test_unit_mode_is_exactly_one(self):
        w = weight(123.0, 0.7, 0.0, 800.0, V2000, WeightMode.UNIT)
        assert w == 1.0

    def test_obliquity_cosine_product(self):
        # both legs at 45 degrees: cos * cos = 0.5
        w = weight(0.0, 1.0, -1000.0, 1000.0, V2000, WeightMode.OBLIQUITY)
        assert w == pytest.approx(0.5, rel=1e-12)

    def test_tau_zero_coincident_is_one(self):
        assert weight(100.0, 0.0, 100.0, 100.0, V2000,
                      WeightMode.OBLIQUITY) == 1.0

    def test_tau_zero_offset_is_zero(self):
        assert weight(0.0, 0.0, 500.0, 500.0, V2000,
                      WeightMode.OBLIQUITY) == 0.0

    @given(x=positions, tau=taus, xs=positions, xr=positions)
    def test_bounded(self, x, tau, xs, xr):
        w = weight(x, tau, xs, xr, V2000, WeightMode.OBLIQUITY)
        assert 0.0 <= w <= 1.0

    def test_vertical_incidence_tends_to_one(self):
        w = weight(0.0, 2.0, 0.0, 0.0, V2000, WeightMode.OBLIQUITY)
        assert w == pytest.approx(1.0)


class TestWithinAperture:
    def test_midpoint_rule_boundary_inclusive(self):
        params = KernelParams(aperture=100.0)
        assert within_aperture(500.0, 0.0, 800.0, params)     # |500-400|=100
        assert not within_aperture(500.001, 0.0, 800.0, params)

    def test_zero_aperture_keeps_midpoint_only(self):
        params = KernelParams(aperture=0.0)
        assert within_aperture(400.0, 0.0, 800.0, params)
        assert not within_aperture(401.0, 0.0, 800.0, params)

    def test_negative_aperture_rejected(self):
        with pytest.raises(ValueError):
            KernelParams(aperture=-1.0)


class TestVectorizedKernels:
    """The array paths must agree bit for bit with the scalar definitions."""

    @settings(max_examples=50)
    @given(h=offsets, v=speeds)
    def test_leg_times_match_scalar(self, h, v):
        tau_axis = np.arange(32, dtype=np.float64) * 0.004
        v_axis = np.full(32, v)
        grid = leg_times_grid(h, tau_axis, v_axis)
        for i, tau in enumerate(tau_axis.tolist()):
            assert grid[i] == one_way_time(h, tau, v)

    def test_weights_match_scalar(self):
        # the kernel's obliquity weight is the product of two table cosines
        grid = GridSpec(0.0, 25.0, 8, 0.0, 0.01, 16, 1)
        table = LegTable(grid, V2000, WeightMode.OBLIQUITY)
        xs, xr, ix = -250.0, 600.0, 3
        x = float(grid.x_axis()[ix])
        _, cos_s = table.legs(xs, ix, ix + 1)
        _, cos_r = table.legs(xr, ix, ix + 1)
        w = (cos_s * cos_r)[0]
        for i, tau in enumerate(grid.tau_axis().tolist()):
            assert w[i] == weight(x, tau, xs, xr, V2000, WeightMode.OBLIQUITY)

    def test_unit_weights_grid_is_scalar_one(self):
        # unit weighting tabulates no cosines: the kernel multiplies by
        # nothing, which is the scalar weight 1 exactly
        grid = GridSpec(0.0, 25.0, 8, 0.0, 1.0, 8, 1)
        table = LegTable(grid, VelocityModel.constant(1500.0), WeightMode.UNIT)
        times, cosines = table.legs(100.0, 0, grid.nx)
        assert cosines is None
        assert times.shape == (grid.nx, grid.ntau)
        for tau in grid.tau_axis().tolist():
            assert weight(0.0, tau, 100.0, 100.0, V2000, WeightMode.UNIT) == 1.0
