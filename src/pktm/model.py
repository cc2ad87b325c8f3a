"""Core domain types: traces, acquisition geometry, velocity, image grids.

Amplitudes are stored in single precision and accumulated in double
precision.  All types are immutable value objects after construction and are
safe to share between concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

SECONDS_PER_YEAR = 365.25 * 86400.0


class ConfigurationError(ValueError):
    """Inconsistent job or grid configuration."""


@dataclass(frozen=True)
class TraceHeader:
    """Acquisition metadata of one receiver recording.

    Positions are scalar lateral coordinates in meters; the time axis starts
    at ``t0`` seconds with ``n_samples`` samples every ``dt`` seconds.
    """

    trace_id: int
    source_x: float
    receiver_x: float
    t0: float
    dt: float
    n_samples: int

    def __post_init__(self):
        if self.trace_id < 0:
            raise ValueError(f"trace_id must be >= 0, got {self.trace_id}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if not (math.isfinite(self.t0) and self.t0 >= 0):
            raise ValueError(f"t0 must be finite and >= 0, got {self.t0}")
        if not math.isfinite(self.source_x) or not math.isfinite(self.receiver_x):
            raise ValueError("source_x and receiver_x must be finite")

    @property
    def offset(self) -> float:
        """Source-receiver distance |source_x - receiver_x| in meters."""
        return abs(self.source_x - self.receiver_x)

    def time_axis(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_samples, dtype=np.float64) * self.dt


@dataclass(frozen=True)
class Trace:
    """One recorded (or modeled) trace: header plus amplitude samples.

    Samples are float32 for recorded data; modeling outputs may carry
    float64 samples, which are quantized to float32 only on file write.
    """

    header: TraceHeader
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.dtype not in (np.float32, np.float64):
            samples = samples.astype(np.float32)
        if samples.ndim != 1 or samples.shape[0] != self.header.n_samples:
            raise ValueError(
                f"expected {self.header.n_samples} samples, got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("trace samples must be finite")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class OffsetBinning:
    """Offset-bin edges in meters; bin b covers [edges[b], edges[b+1])."""

    edges: tuple[float, ...]

    def __post_init__(self):
        edges = tuple(float(e) for e in self.edges)
        if len(edges) < 2:
            raise ValueError("need at least two edges (one bin)")
        if any(math.isnan(e) for e in edges) or any(
                math.isinf(e) for e in edges[:-1]):
            # only the last edge may be +inf (an open-ended top bin)
            raise ValueError(f"edges must be finite, got {edges}")
        if edges[0] < 0:
            raise ValueError(f"edges[0] must be >= 0, got {edges[0]}")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"edges must be strictly increasing, got {edges}")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_edges_arr", np.asarray(edges, dtype=np.float64))

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    def bin_of(self, offset: float) -> int | None:
        """Bin index containing ``offset``, or None if it falls outside."""
        b = int(np.searchsorted(self._edges_arr, offset, side="right")) - 1
        if b < 0 or b >= self.n_bins:
            return None
        return b

    @classmethod
    def single(cls, upper: float = math.inf) -> "OffsetBinning":
        """One bin covering [0, upper)."""
        return cls((0.0, upper))


@dataclass(frozen=True)
class Survey:
    """Ordered trace collection plus its offset binning.

    trace_id values must equal each trace's position in the sequence.
    """

    traces: tuple[Trace, ...]
    offset_bins: OffsetBinning

    def __post_init__(self):
        traces = tuple(self.traces)
        for i, tr in enumerate(traces):
            if tr.header.trace_id != i:
                raise ValueError(
                    f"trace at position {i} has trace_id {tr.header.trace_id}"
                )
        object.__setattr__(self, "traces", traces)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)


@dataclass(frozen=True)
class VelocityModel:
    """Laterally invariant RMS velocity as a function of vertical two-way time.

    Piecewise linear between knots, constant beyond the end knots.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(t), float(v)) for t, v in self.knots)
        if not knots:
            raise ValueError("velocity model needs at least one knot")
        if not all(math.isfinite(t) and math.isfinite(v) for t, v in knots):
            raise ValueError(f"knots must be finite, got {knots}")
        taus = [t for t, _ in knots]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError("knot times must be strictly increasing")
        if any(v <= 0 for _, v in knots):
            raise ValueError("velocities must be positive")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_taus", np.asarray(taus, dtype=np.float64))
        object.__setattr__(
            self, "_vels", np.asarray([v for _, v in knots], dtype=np.float64)
        )

    @classmethod
    def constant(cls, vrms: float) -> "VelocityModel":
        return cls(((0.0, float(vrms)),))

    def __call__(self, tau):
        """Evaluate v_rms at two-way time tau (scalar or array)."""
        out = np.interp(tau, self._taus, self._vels)
        if np.ndim(tau) == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a common-offset image volume (no values).

    Cell (b, ix, itau) sits at lateral x = x_min + ix*dx and vertical
    two-way time tau = tau_min + itau*dtau in offset bin b.
    """

    x_min: float
    dx: float
    nx: int
    tau_min: float
    dtau: float
    ntau: int
    n_offset_bins: int

    def __post_init__(self):
        if not (math.isfinite(self.dx) and self.dx > 0):
            raise ValueError(f"dx must be finite and > 0, got {self.dx}")
        if not (math.isfinite(self.dtau) and self.dtau > 0):
            raise ValueError(f"dtau must be finite and > 0, got {self.dtau}")
        if not math.isfinite(self.x_min):
            raise ValueError(f"x_min must be finite, got {self.x_min}")
        if self.nx < 1 or self.ntau < 1 or self.n_offset_bins < 1:
            raise ValueError("nx, ntau and n_offset_bins must be >= 1")
        if not (math.isfinite(self.tau_min) and self.tau_min >= 0):
            raise ValueError(f"tau_min must be finite and >= 0, got {self.tau_min}")

    @property
    def n_cells(self) -> int:
        return self.n_offset_bins * self.nx * self.ntau

    def x_axis(self) -> np.ndarray:
        return self.x_min + np.arange(self.nx, dtype=np.float64) * self.dx

    def tau_axis(self) -> np.ndarray:
        return self.tau_min + np.arange(self.ntau, dtype=np.float64) * self.dtau


@dataclass(frozen=True)
class ImageGrid:
    """Common-offset image volume: grid geometry plus float64 cell values."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        expected = (self.spec.n_offset_bins, self.spec.nx, self.spec.ntau)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} != {expected}")
        if not np.all(np.isfinite(values)):
            raise ValueError("image values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def nx(self) -> int:
        return self.spec.nx

    @property
    def ntau(self) -> int:
        return self.spec.ntau

    @property
    def n_offset_bins(self) -> int:
        return self.spec.n_offset_bins


def estimate_flops(n_image_points: float, n_traces: float, f_k: float) -> tuple[float, float]:
    """Kirchhoff migration cost model: ops-per-point-per-trace times grid times traces.

    Returns (flops, gflop_years) where a Gflop-year is 1e9 flop/s sustained
    for one Julian year.  Raises OverflowError instead of returning inf.
    """
    for name, v in (("n_image_points", n_image_points), ("n_traces", n_traces), ("f_k", f_k)):
        if v < 0 or not math.isfinite(v):
            raise ValueError(f"{name} must be finite and >= 0, got {v}")
    flops = float(f_k) * float(n_image_points) * float(n_traces)
    if not math.isfinite(flops):
        raise OverflowError("flop count overflows float64")
    return flops, flops / (1e9 * SECONDS_PER_YEAR)
