"""Far-field multipath channel model over a planar antenna movement region.

A channel is described by path state information (PSI): per-path elevation,
azimuth, amplitude and delay, plus a common large-scale gain. The receive
antenna moves in a small 2D region C_r, so each path's propagation distance
changes by a position-dependent delta

    d_l(r) = x * cos(theta_l) * sin(phi_l) + y * sin(theta_l)

and the narrowband channel seen at position r = (x, y) is

    h(r) = sqrt(beta) * sum_l a_l * exp(-j*2*pi*(d_l(r)/lambda + fc*tau_l))

A subcarrier at offset f from the carrier sees fc + f in place of fc.
channel_response evaluates this one formula for every caller. The
small-scale gain g(r) = |h(r)|^2 / beta is what the measurement campaign
maps over the region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT_M_PER_S

from .codec import JsonCodec


MAX_GRID_POINTS = 10**6
"""Largest sampling grid a MovementRegion accepts (the paper's largest is 101 x 101)."""


CSV_BLOCK_ROWS = 2**16
"""Rows write_csv formats per write."""


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

    # the per-path arrays are built once per (immutable) path set and shared
    # read-only, so a per-probe channel evaluation does not rebuild them

    @cached_property
    def amplitudes(self) -> np.ndarray:
        return _read_only([p.amplitude for p in self.paths])

    @cached_property
    def delays_s(self) -> np.ndarray:
        return _read_only([p.delay_s for p in self.paths])

    @cached_property
    def directions(self) -> np.ndarray:
        """(L, 2) array of per-path direction coefficients (u, v)."""
        return _read_only([p.direction for p in self.paths])


def _read_only(values) -> np.ndarray:
    arr = np.array(values)
    arr.flags.writeable = False
    return arr


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


def channel_response(psi: PathStateInfo, positions, offsets_hz=(0.0,)) -> np.ndarray:
    """The model's response h(r_q, fc + f_k) at Q positions and K frequency offsets, (Q, K).

    positions is anything reshapeable to (Q, 2) of (x, y) in meters. Entry
    (q, k) is sqrt(beta) * sum_l a_l * exp(-j*2*pi*(d_l(r_q)/lambda + (fc + f_k)*tau_l)),
    evaluated as the (Q, L) steering phases times the (L, K) path
    coefficients. This is the only place the model is evaluated: the tone
    channel, the gain field and OFDM sounding all call it.
    """
    d = np.asarray(positions).reshape(-1, 2) @ psi.directions.T  # (Q, L) path distance deltas
    steer = -2j * np.pi * d
    steer /= psi.wavelength_m
    np.exp(steer, out=steer)  # in place: on a gain map (Q, L) is the largest array
    freqs = psi.carrier_hz + np.asarray(offsets_hz)[None, :]
    coeff = (
        math.sqrt(psi.large_scale_gain)
        * psi.amplitudes[:, None]
        * np.exp(-2j * np.pi * freqs * psi.delays_s[:, None])
    )  # (L, K)
    return steer @ coeff


def _argmax_position(x_m, y_m, values) -> Position:
    """Grid position of the maximum of values (n_y, n_x), ties broken by smallest (y, then x)."""
    iy, ix = np.unravel_index(int(np.argmax(values)), values.shape)
    return Position(float(x_m[ix]), float(y_m[iy]))


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
        return _argmax_position(self.x_m, self.y_m, self.values)

    def to_csv(self, path) -> None:
        write_grid_csv(path, self.x_m, self.y_m, self.values_db, "gain_db")


@dataclass(frozen=True)
class DbMap:
    """A dB-valued map on a grid: a metered power map, or any map read back from CSV.

    values_db is (n_y, n_x), row i holds y_m[i]; column names the CSV value
    column (e.g. power_dbr, gain_db).
    """

    x_m: np.ndarray
    y_m: np.ndarray
    values_db: np.ndarray
    column: str

    def __post_init__(self):
        if self.values_db.shape != (len(self.y_m), len(self.x_m)):
            raise ValueError("values shape must be (len(y_m), len(x_m))")

    def argmax_position(self) -> Position:
        """Grid position of the maximum, ties broken by smallest (y, then x)."""
        return _argmax_position(self.x_m, self.y_m, self.values_db)

    def to_csv(self, path) -> None:
        write_grid_csv(path, self.x_m, self.y_m, self.values_db, self.column)


def write_csv(path, names, *columns) -> None:
    """Write columns that broadcast to one 2-D shape under a header of names, 9 significant digits.

    One CSV row per element of that shape, row-major: an axis passed as a
    [:, None] or [None, :] view is never repeated out to the full shape.
    """
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        write_csv_rows(fh, *columns)


def write_csv_rows(fh, *columns) -> None:
    """Append write_csv's rows of columns to the open text file fh, with no header.

    A writer that derives a column a block of leading rows at a time calls
    this once per block; the rows come out as one write_csv call would write them.
    """
    row = ",".join(["{:.9g}"] * len(columns)) + "\n"
    columns = np.broadcast_arrays(*columns)
    n_rows, n_cols = columns[0].shape
    step = max(1, CSV_BLOCK_ROWS // n_cols)
    # Python scalars format fastest; converting a block of leading rows at a time bounds their memory
    for start in range(0, n_rows, step):
        block = [c[start:start + step].ravel().tolist() for c in columns]
        fh.write("".join(map(row.format, *block)))


def write_grid_csv(path, x_m, y_m, values, value_column: str) -> None:
    """Write a gridded scalar field (n_y, n_x) as x_m,y_m,<value> rows, row-major by y then x."""
    write_csv(path, ["x_m", "y_m", value_column],
              x_m[None, :], y_m[:, None], values)


def read_grid_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Read a gridded CSV back into (x_m, y_m, values, value_column).

    Rows must be exactly what write_grid_csv writes: three columns of finite
    numbers, a complete grid, row-major by y then x. Anything else is a
    ValueError.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["x_m", "y_m"] or len(header) != 3:
            raise ValueError(f"unexpected grid CSV header: {header}")
        body = fh.read()
    if not body.strip():
        raise ValueError(f"grid CSV has no rows: {path}")
    rows = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    if rows.shape[1] != 3:
        raise ValueError(f"grid CSV rows must have 3 columns, found {rows.shape[1]}: {path}")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"grid CSV holds a non-finite value: {path}")
    xs, ys = row_major_axes(rows[:, 0], rows[:, 1], f"the rows of {path}")
    return xs, ys, rows[:, 2].reshape(len(ys), len(xs)), header[2]


def row_major_axes(x: np.ndarray, y: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(x values, y values) of the complete grid that points (x, y) list row-major by y then x.

    Raises ValueError, naming the points as what, when they are not exactly
    that grid in that order: the message gives the first duplicated point,
    else the number of missing points, else says the order is wrong.
    """
    xs, ys = np.unique(x), np.unique(y)
    if not (np.array_equal(x, np.tile(xs, len(ys))) and np.array_equal(y, np.repeat(ys, len(xs)))):
        _, inverse, counts = np.unique(np.column_stack([x, y]), axis=0, return_inverse=True, return_counts=True)
        if len(counts) < len(x):
            i = int(np.argmax(counts[inverse.ravel()] > 1))
            raise ValueError(f"{what} are not a complete grid: duplicated point ({float(x[i])!r}, {float(y[i])!r})")
        if len(counts) < len(xs) * len(ys):
            raise ValueError(f"{what} are not a complete grid: {len(xs) * len(ys) - len(counts)} "
                             f"of {len(xs) * len(ys)} points missing")
        raise ValueError(f"{what} are not listed row-major by y then x")
    return xs, ys


def grid_order(x: np.ndarray, y: np.ndarray, what: str) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(order, (x values, y values)): the stable row-major (y, then x) order of points (x, y) and their grid's axes.

    x[order], y[order] list the complete grid row-major; points that do not
    tile one raise row_major_axes' ValueError, naming them as what.
    """
    order = np.lexsort((x, y))  # stable, like sorted()
    return order, row_major_axes(x[order], y[order], what)


def gain_field(psi: PathStateInfo, x_m: np.ndarray, y_m: np.ndarray) -> np.ndarray:
    """Small-scale gain g(r) = |h(r)|^2 / beta over the outer grid of x_m and y_m, (n_y, n_x)."""
    h = channel_response(psi, np.stack(np.meshgrid(x_m, y_m), axis=-1))
    return (np.abs(h) ** 2 / psi.large_scale_gain).reshape(len(y_m), len(x_m))


def gain_map(psi: PathStateInfo, region: MovementRegion) -> GainMap:
    """Simulate the small-scale gain over the region grid."""
    xs = region.grid_x()
    ys = region.grid_y()
    return GainMap(x_m=xs, y_m=ys, values=gain_field(psi, xs, ys))
