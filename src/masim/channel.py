"""Far-field multipath channel model over a planar antenna movement region.

A channel is described by path state information (PSI): per-path elevation,
azimuth, amplitude and delay, plus a common large-scale gain. The receive
antenna moves in a small 2D region C_r, so each path's propagation distance
changes by a position-dependent delta

    d_l(r) = x * cos(theta_l) * sin(phi_l) + y * sin(theta_l)

and the narrowband channel seen at position r = (x, y) is

    h(r) = sqrt(beta) * sum_l a_l * exp(-j*2*pi*(d_l(r)/lambda + fc*tau_l))

The small-scale gain g(r) = |h(r)|^2 / beta is what the measurement campaign
maps over the region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT_M_PER_S

from .codec import JsonCodec


MAX_GRID_POINTS = 10**6
"""Largest sampling grid a MovementRegion accepts (the paper's largest is 101 x 101)."""


def to_db(values, floor: float = 1e-30):
    """10*log10 with a floor so exact nulls do not produce -inf."""
    return 10.0 * np.log10(np.maximum(values, floor))


@dataclass(frozen=True)
class PathComponent:
    """One propagation path: angles in degrees, amplitude linear, delay in seconds."""

    elevation_deg: float
    azimuth_deg: float
    amplitude: float
    delay_s: float

    def __post_init__(self):
        if not -90.0 <= self.elevation_deg <= 90.0:
            raise ValueError(f"elevation_deg out of [-90, 90]: {self.elevation_deg}")
        if not -90.0 <= self.azimuth_deg <= 90.0:
            raise ValueError(f"azimuth_deg out of [-90, 90]: {self.azimuth_deg}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be >= 0: {self.amplitude}")
        if self.delay_s < 0.0:
            raise ValueError(f"delay_s must be >= 0: {self.delay_s}")

    @property
    def direction(self) -> tuple[float, float]:
        """Direction coefficients (u, v) with d = x*u + y*v."""
        el = math.radians(self.elevation_deg)
        az = math.radians(self.azimuth_deg)
        return math.cos(el) * math.sin(az), math.sin(el)


@dataclass(frozen=True)
class PathStateInfo:
    """A set of paths plus large-scale gain and the carrier they were observed at.

    When constructed with normalized=True the amplitudes must satisfy
    sum(a_l^2) in [0.99, 1.01]; this is the convention used for path sets
    estimated from a sounding campaign, where the strongest few paths carry
    nearly all received power.
    """

    paths: tuple[PathComponent, ...]
    carrier_hz: float
    large_scale_gain: float = 1.0
    normalized: bool = False

    def __post_init__(self):
        if len(self.paths) == 0:
            raise ValueError("PathStateInfo needs at least one path")
        object.__setattr__(self, "paths", tuple(self.paths))
        if self.carrier_hz <= 0.0:
            raise ValueError(f"carrier_hz must be > 0: {self.carrier_hz}")
        if self.large_scale_gain <= 0.0:
            raise ValueError(f"large_scale_gain must be > 0: {self.large_scale_gain}")
        if self.normalized:
            total = sum(p.amplitude**2 for p in self.paths)
            if not 0.99 <= total <= 1.01:
                raise ValueError(f"normalized PSI requires sum(a^2) in [0.99, 1.01], got {total:.6f}")

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_PER_S / self.carrier_hz

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([p.amplitude for p in self.paths])

    @property
    def delays_s(self) -> np.ndarray:
        return np.array([p.delay_s for p in self.paths])

    @property
    def directions(self) -> np.ndarray:
        """(L, 2) array of per-path direction coefficients (u, v)."""
        return np.array([p.direction for p in self.paths])


@dataclass(frozen=True)
class Position:
    """Antenna position in the movement plane, meters, region center at (0, 0)."""

    x_m: float
    y_m: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x_m, self.y_m])


@dataclass(frozen=True)
class MovementRegion(JsonCodec):
    """Rectangular movement region with a sampling grid.

    The slide home position anchors the region, so it spans [0, x_extent_m]
    x [0, y_extent_m] and the home corner (0, 0) doubles as the phase
    reference point of the field response. A 1D track is a region with one
    extent set to zero.
    """

    x_extent_m: float
    y_extent_m: float
    x_step_m: float
    y_step_m: float

    def __post_init__(self):
        if self.x_extent_m < 0.0 or self.y_extent_m < 0.0:
            raise ValueError("extents must be >= 0")
        if self.x_step_m <= 0.0 or self.y_step_m <= 0.0:
            raise ValueError("grid steps must be > 0")
        ny, nx = self.shape
        if ny * nx > MAX_GRID_POINTS:
            raise ValueError(f"a {ny} x {nx} grid exceeds {MAX_GRID_POINTS} points")

    @staticmethod
    def _axis_count(extent: float, step: float) -> int:
        # K + 1 points k*step, K chosen so the grid stays inside the extent
        # (within float tolerance of one cell); counted without building the
        # axis, so an oversized grid is refused rather than allocated
        cells = extent / step + 1e-9
        if not cells < MAX_GRID_POINTS:  # also refuses inf and nan
            raise ValueError(f"an extent of {extent} m at a {step} m step exceeds {MAX_GRID_POINTS} grid points")
        return math.floor(cells) + 1

    def grid_x(self) -> np.ndarray:
        return self.x_step_m * np.arange(self._axis_count(self.x_extent_m, self.x_step_m))

    def grid_y(self) -> np.ndarray:
        return self.y_step_m * np.arange(self._axis_count(self.y_extent_m, self.y_step_m))

    @property
    def shape(self) -> tuple[int, int]:
        """(n_y, n_x) of the sampling grid."""
        return (
            self._axis_count(self.y_extent_m, self.y_step_m),
            self._axis_count(self.x_extent_m, self.x_step_m),
        )

    @property
    def num_points(self) -> int:
        ny, nx = self.shape
        return ny * nx

    def positions(self) -> list[Position]:
        """Grid positions row-major by y then x (y slowest)."""
        xs = self.grid_x()
        ys = self.grid_y()
        return [Position(float(x), float(y)) for y in ys for x in xs]

    def contains(self, pos: Position, tol: float = 1e-12) -> bool:
        return (-tol <= pos.x_m <= self.x_extent_m + tol) and (-tol <= pos.y_m <= self.y_extent_m + tol)

    def clamp(self, x_m: float, y_m: float) -> Position:
        return Position(
            float(np.clip(x_m, 0.0, self.x_extent_m)),
            float(np.clip(y_m, 0.0, self.y_extent_m)),
        )


def path_distance_delta(path: PathComponent, position: Position) -> float:
    """Propagation distance change d_l(r) of one path when the antenna sits at r."""
    u, v = path.direction
    return position.x_m * u + position.y_m * v


def field_response_vector(psi: PathStateInfo, position: Position) -> np.ndarray:
    """Field response vector f(r), one unit-modulus entry exp(+j*2*pi*d_l(r)/lambda) per path."""
    lam = psi.wavelength_m
    d = psi.directions @ position.as_array()
    return np.exp(2j * np.pi * d / lam)


def path_coefficients(psi: PathStateInfo) -> np.ndarray:
    """Per-path complex coefficients b_l = a_l * exp(-j*2*pi*fc*tau_l)."""
    return psi.amplitudes * np.exp(-2j * np.pi * psi.carrier_hz * psi.delays_s)


def channel_response(psi: PathStateInfo, position: Position) -> complex:
    """Narrowband channel h(r) = sqrt(beta) * f(r)^H b."""
    frv = field_response_vector(psi, position)
    return complex(math.sqrt(psi.large_scale_gain) * np.vdot(frv, path_coefficients(psi)))


def small_scale_gain(psi: PathStateInfo, position: Position) -> float:
    """Small-scale gain g(r) = |h(r)|^2 / beta, in [0, (sum a_l)^2]."""
    h = channel_response(psi, position)
    return abs(h) ** 2 / psi.large_scale_gain


@dataclass(frozen=True)
class GainMap:
    """Simulated small-scale gain sampled on a region grid.

    values is (n_y, n_x), row i holds y_m[i]. CSV export is row-major by y
    then x with columns x_m, y_m, gain_db.
    """

    x_m: np.ndarray
    y_m: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.y_m), len(self.x_m)):
            raise ValueError("values shape must be (len(y_m), len(x_m))")

    @property
    def values_db(self) -> np.ndarray:
        return to_db(self.values)

    def argmax_position(self) -> Position:
        """Grid position of the maximum, ties broken by smallest (y, then x)."""
        iy, ix = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return Position(float(self.x_m[ix]), float(self.y_m[iy]))

    def to_csv(self, path) -> None:
        write_grid_csv(path, self.x_m, self.y_m, self.values_db, "gain_db")


def write_grid_csv(path, x_m, y_m, values, value_column: str) -> None:
    """Write a gridded scalar field as x_m,y_m,<value> rows, 9 significant digits."""
    lines = [f"x_m,y_m,{value_column}"]
    for iy, y in enumerate(y_m):
        for ix, x in enumerate(x_m):
            lines.append(f"{x:.9g},{y:.9g},{values[iy, ix]:.9g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_grid_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Read a gridded CSV back into (x_m, y_m, values, value_column)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["x_m", "y_m"] or len(header) != 3:
            raise ValueError(f"unexpected grid CSV header: {header}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    xs = np.unique(rows[:, 0])
    ys = np.unique(rows[:, 1])
    if len(rows) != len(xs) * len(ys):
        raise ValueError("grid CSV does not cover a complete grid")
    values = rows[:, 2].reshape(len(ys), len(xs))
    return xs, ys, values, header[2]


def gain_field(psi: PathStateInfo, x_m: np.ndarray, y_m: np.ndarray) -> np.ndarray:
    """Vectorized g(r) over the outer grid of x_m and y_m, returned as (n_y, n_x).

    Equivalent to looping small_scale_gain over the grid; kept as one numpy
    expression so large grids stay cheap and evaluation order deterministic.
    """
    lam = psi.wavelength_m
    uv = psi.directions  # (L, 2)
    taus = psi.delays_s
    amps = psi.amplitudes
    fc = psi.carrier_hz
    # per-path phase in cycles: d_l(r)/lambda + fc*tau_l, shape (L, n_y, n_x)
    d = uv[:, 0, None, None] * x_m[None, None, :] + uv[:, 1, None, None] * y_m[None, :, None]
    cycles = d / lam + (fc * taus)[:, None, None]
    field = np.sum(amps[:, None, None] * np.exp(-2j * np.pi * cycles), axis=0)
    return np.abs(field) ** 2


def gain_map(psi: PathStateInfo, region: MovementRegion) -> GainMap:
    """Simulate the small-scale gain over the region grid."""
    xs = region.grid_x()
    ys = region.grid_y()
    return GainMap(x_m=xs, y_m=ys, values=gain_field(psi, xs, ys))
