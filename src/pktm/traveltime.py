"""Double-square-root traveltimes and amplitude weights for time migration.

Straight-ray kinematics with the RMS velocity evaluated at the image's
vertical two-way time: each leg of the reflection path contributes
sqrt((tau/2)^2 + (h/v)^2) seconds, where h is the lateral distance from the
image position to the source or receiver.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import VelocityModel


class WeightMode(enum.Enum):
    """Amplitude weighting applied to each summed sample."""

    UNIT = "unit"
    OBLIQUITY = "obliquity"


@dataclass(frozen=True)
class KernelParams:
    """Migration kernel acceptance and weighting knobs.

    ``aperture`` is the lateral half-width, around the source-receiver
    midpoint, within which image columns receive a trace's energy.
    """

    aperture: float
    weight_mode: WeightMode = WeightMode.UNIT

    def __post_init__(self):
        if not (self.aperture >= 0) or not math.isfinite(self.aperture):
            raise ValueError(f"aperture must be finite and >= 0, got {self.aperture}")


def one_way_time(h: float, tau: float, vrms: float) -> float:
    """One leg of the reflection path: sqrt((tau/2)^2 + (h/vrms)^2) seconds."""
    if not (vrms > 0):
        raise ValueError(f"vrms must be > 0, got {vrms}")
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    half = 0.5 * tau
    ratio = h / vrms
    return math.sqrt(half * half + ratio * ratio)


def dsr_total_time(
    x_img: float, tau: float, xs: float, xr: float, vel: VelocityModel
) -> float:
    """Two-way source-to-image-to-receiver time for an image point at (x_img, tau)."""
    v = vel(tau)
    return one_way_time(abs(x_img - xs), tau, v) + one_way_time(abs(x_img - xr), tau, v)


def weight(
    x_img: float,
    tau: float,
    xs: float,
    xr: float,
    vel: VelocityModel,
    mode: WeightMode,
) -> float:
    """Amplitude weight for one image point / trace pair; always in [0, 1].

    UNIT is exactly 1.  OBLIQUITY is cos(theta_s)*cos(theta_r) with
    cos(theta) = (tau/2) / T for each leg; at tau = 0 it is 1 when both legs
    are vertical (zero length) and 0 otherwise.
    """
    if mode is WeightMode.UNIT:
        return 1.0
    v = vel(tau)
    ts = one_way_time(abs(x_img - xs), tau, v)
    tr = one_way_time(abs(x_img - xr), tau, v)
    if tau == 0.0:
        return 1.0 if (ts == 0.0 and tr == 0.0) else 0.0
    half = 0.5 * tau
    # a zero leg with tau > 0 means (tau/2)^2 underflowed; the limit is a
    # vertical ray, cos(theta) = 1
    cos_s = half / ts if ts > 0.0 else 1.0
    cos_r = half / tr if tr > 0.0 else 1.0
    return cos_s * cos_r


def within_aperture(x_img: float, xs: float, xr: float, params: KernelParams) -> bool:
    """True iff the image position is within the aperture of the trace midpoint.

    Boundary inclusive, so serial and distributed runs accept the same cells.
    """
    mid = 0.5 * (xs + xr)
    return abs(x_img - mid) <= params.aperture


def leg_times_grid(
    h: float | np.ndarray, tau_axis: np.ndarray, v_axis: np.ndarray
) -> np.ndarray:
    """Vectorized one-way leg times along a tau axis for lateral distance
    ``h``, a scalar or a column of distances (one output row each).

    Elementwise identical to :func:`one_way_time` (same expression tree).
    """
    half = 0.5 * tau_axis
    ratio = h / v_axis
    return np.sqrt(half * half + ratio * ratio)

