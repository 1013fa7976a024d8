"""Far-field multipath channel model over a planar antenna movement region.

A channel is described by path state information (PSI): per-path elevation,
azimuth, amplitude and delay at a carrier frequency. The receive
antenna moves in a small 2D region C_r, so each path's propagation distance
changes by a position-dependent delta

    d_l(r) = x * cos(theta_l) * sin(phi_l) + y * sin(theta_l)

and the narrowband channel seen at position r = (x, y) is

    h(r) = sum_l a_l * exp(-j*2*pi*(d_l(r)/lambda + fc*tau_l))

A subcarrier at offset f from the carrier sees fc + f in place of fc.
response_factors evaluates this one formula for every caller, and
channel_response returns its product. d_l = x*u_l + y*v_l separates in x and
y, so on a grid gain_field evaluates the same formula as E_y diag(c) E_x^T, in
(n_x + n_y)*L exponentials. The small-scale gain g(r) = |h(r)|^2 is what the
campaign maps over the region; a measurement's link budget is a constant offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codec import JsonCodec


SPEED_OF_LIGHT_M_PER_S = 299_792_458.0
"""Speed of light in vacuum, m/s (exact by the SI definition of the metre)."""

MAX_GRID_POINTS = 10**6
"""Largest sampling grid a MovementRegion accepts (the paper's largest is 101 x 101)."""

MAX_STATE_PATHS = 64
"""Most paths a PathStateInfo holds: 8x estimator.MAX_PATHS; every channel evaluation's arrays grow with it."""


CSV_BLOCK_ROWS = 2**16
"""Rows write_csv formats per write."""


def to_db(values):
    """10*log10 with a floor of 1e-30 so exact nulls do not produce -inf."""
    return 10.0 * np.log10(np.maximum(values, 1e-30))


def direction(elevation_deg: float, azimuth_deg: float) -> tuple[float, float]:
    """Direction coefficients (u, v) = (cos(el) sin(az), sin(el)) of a path at these angles, d = x*u + y*v."""
    el, az = math.radians(elevation_deg), math.radians(azimuth_deg)
    return math.cos(el) * math.sin(az), math.sin(el)


def path_phase(d: np.ndarray, wavelength_m: float) -> np.ndarray:
    """exp(-j*2*pi*d/lambda) of path distance deltas d, overwriting d: the one place a distance becomes a phase."""
    d *= -2.0 * np.pi
    d *= 1.0 / wavelength_m  # the phase in real arithmetic: no complex division per element
    phase = 1j * d
    return np.exp(phase, out=phase)  # in place: no second array


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
        return direction(self.elevation_deg, self.azimuth_deg)


@dataclass(frozen=True)
class PathStateInfo(JsonCodec):
    """A set of paths and the carrier they were observed at."""

    paths: tuple[PathComponent, ...]
    carrier_hz: float

    def __post_init__(self):
        if len(self.paths) == 0:
            raise ValueError("PathStateInfo needs at least one path")
        if len(self.paths) > MAX_STATE_PATHS:
            raise ValueError(f"PathStateInfo holds at most {MAX_STATE_PATHS} paths, got {len(self.paths)}")
        object.__setattr__(self, "paths", tuple(self.paths))
        if self.carrier_hz <= 0.0:
            raise ValueError(f"carrier_hz must be > 0: {self.carrier_hz}")

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

    @cached_property
    def carrier_coefficients(self) -> np.ndarray:
        """(L, 1) path coefficients at the carrier, a_l * exp(-j*2*pi*fc*tau_l)."""
        return _read_only(_path_coefficients(self, (0.0,)))


def _read_only(values) -> np.ndarray:
    arr = np.asarray(values)
    arr.flags.writeable = False
    return arr


def _path_coefficients(psi: PathStateInfo, offsets_hz) -> np.ndarray:
    """(L, K) path coefficients a_l * exp(-j*2*pi*(fc + f_k)*tau_l) at K offsets f_k from the carrier."""
    freqs = psi.carrier_hz + np.asarray(offsets_hz)[None, :]
    return psi.amplitudes[:, None] * np.exp(-2j * np.pi * freqs * psi.delays_s[:, None])


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

    def positions_array(self) -> np.ndarray:
        """(Q, 2) array of the grid's (x, y) points, row-major by y then x (y slowest)."""
        return np.stack(np.meshgrid(self.grid_x(), self.grid_y()), axis=-1).reshape(-1, 2)

    def contains(self, pos: Position) -> bool:
        """Whether pos lies in the region, up to 1e-12 m."""
        return (-1e-12 <= pos.x_m <= self.x_extent_m + 1e-12) and (-1e-12 <= pos.y_m <= self.y_extent_m + 1e-12)

    def clamp(self, x_m: float, y_m: float) -> Position:
        # np.clip(x, 0.0, extent) of numpy 2 at a tenth of its cost; x first keeps a -0.0 or NaN x
        return Position(min(max(x_m, 0.0), self.x_extent_m), min(max(y_m, 0.0), self.y_extent_m))


def response_factors(psi: PathStateInfo, positions, offsets_hz=None) -> tuple[np.ndarray, np.ndarray]:
    """The (Q, L) steering phases and (L, K) path coefficients whose product is channel_response.

    With no offsets_hz the coefficients are psi.carrier_coefficients (K = 1). A
    caller that multiplies the response by a fixed matrix on the right can
    fold that matrix into the L rows of the coefficients first.
    """
    steer = path_phase(np.asarray(positions).reshape(-1, 2) @ psi.directions.T, psi.wavelength_m)  # (Q, L)
    coeff = psi.carrier_coefficients if offsets_hz is None else _path_coefficients(psi, offsets_hz)
    return steer, coeff


def channel_response(psi: PathStateInfo, positions, offsets_hz=None) -> np.ndarray:
    """The model's response h(r_q, fc + f_k) at Q positions and K frequency offsets, (Q, K).

    positions is anything reshapeable to (Q, 2) of (x, y) in meters; no
    offsets_hz means the carrier alone, (Q, 1). Entry
    (q, k) is sum_l a_l * exp(-j*2*pi*(d_l(r_q)/lambda + (fc + f_k)*tau_l)),
    evaluated as the (Q, L) steering phases times the (L, K) path
    coefficients of response_factors. Those two factors are the only
    evaluation of the model: the tone channel calls this, OFDM sounding
    multiplies the factors itself to fold its snapshot synthesis into the
    coefficients, and gain_field factors a grid along its x and y axes.
    """
    steer, coeff = response_factors(psi, positions, offsets_hz)
    return steer @ coeff


@dataclass(frozen=True)
class DbMap:
    """A dB-valued map on a grid: a simulated gain map, a metered power map, or any map read back from CSV.

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
        iy, ix = np.unravel_index(int(np.argmax(self.values_db)), self.values_db.shape)
        return Position(float(self.x_m[ix]), float(self.y_m[iy]))

    def to_csv(self, path) -> None:
        write_csv(path, ["x_m", "y_m", self.column], self.x_m[None, :], self.y_m[:, None], self.values_db)

    @classmethod
    def read_csv(cls, path) -> "DbMap":
        """Read back a map that to_csv wrote.

        Rows must be exactly what to_csv writes: three columns of finite
        numbers, a complete grid, row-major by y then x, under a *_db or
        *_dbr value column. Anything else is a ValueError.
        """
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header[:2] != ["x_m", "y_m"] or len(header) != 3:
                raise ValueError(f"unexpected grid CSV header: {header}")
            body = fh.read()
        if not header[2].endswith(("_db", "_dbr")):
            raise ValueError(f"{path}: column {header[2]!r} is not a dB quantity")
        if not body.strip():
            raise ValueError(f"grid CSV has no rows: {path}")
        rows = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
        if rows.shape[1] != 3:
            raise ValueError(f"grid CSV rows must have 3 columns, found {rows.shape[1]}: {path}")
        if not np.all(np.isfinite(rows)):
            raise ValueError(f"grid CSV holds a non-finite value: {path}")
        xs, ys = row_major_axes(rows[:, 0], rows[:, 1], f"the rows of {path}")
        return cls(x_m=xs, y_m=ys, values_db=rows[:, 2].reshape(len(ys), len(xs)), column=header[2])


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


def gain_field(psi: PathStateInfo, x_m: np.ndarray, y_m: np.ndarray) -> np.ndarray:
    """Small-scale gain g(r) = |h(r)|^2 over the outer grid of x_m and y_m, (n_y, n_x).

    channel_response's formula as E_y diag(c) E_x^T, in (n_x + n_y)*L exponentials.
    """
    e_x, _ = response_factors(psi, np.column_stack((x_m, np.zeros(len(x_m)))))
    e_y, coeff = response_factors(psi, np.column_stack((np.zeros(len(y_m)), y_m)))
    return np.abs((e_y * coeff.T) @ e_x.T) ** 2


def gain_map(psi: PathStateInfo, region: MovementRegion) -> DbMap:
    """Simulate the small-scale gain over the region grid, in dB (column gain_db)."""
    xs = region.grid_x()
    ys = region.grid_y()
    return DbMap(x_m=xs, y_m=ys, values_db=to_db(gain_field(psi, xs, ys)), column="gain_db")
