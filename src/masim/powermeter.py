"""Tone power measurement: a single-bin DFT at the tone's bin of an Ns-point grid.

A captured tone y[n] = h*sqrt(pt)*exp(j*2*pi*f0*n*T) + z[n] is rectangular
windowed over its N samples. The meter evaluates the one DFT bin nearest the
known tone frequency on an Ns-point bin grid (Ns >= N, `fft_size`) and
normalizes its energy by N^2:

    p_hat = |sum_n y[n]*exp(-j*2*pi*k_hat*n/Ns)|^2 / N^2,   k_hat = round(Ns*T*f0)

This is exactly bin k_hat of the N-sample window zero-padded to Ns points and
FFT'd, without computing the other Ns - 1 bins (Goertzel 1958 is the
streaming form of the same sum). For an on-bin tone it is exact; off-bin
tones see the usual sinc^2 scalloping of the rectangular window. Coherent
integration over N samples buys ~10*log10(N) of SNR against white noise.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import Position, to_db, write_grid_csv
from .signals import IQRecord


MAX_FFT_SIZE = 2**53
"""Largest bin grid Ns: float64 holds every bin index up to here, so round(Ns*T*f0) is exact."""


def default_fft_size(num_samples: int) -> int:
    """Next power of two at or above 8x the window length."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    size = 1
    while size < 8 * num_samples:
        size *= 2
    return size


@lru_cache(maxsize=8)
def _bin_phasor(num_samples: int, fft_size: int, k_hat: int) -> np.ndarray:
    """Read-only exp(-j*2*pi*k_hat*n/Ns) for n = 0..N-1, the DFT row of bin k_hat.

    The phase is reduced modulo one cycle in floating point before scaling by
    2*pi: exact on power-of-two grids, and free of integer overflow at any Ns.
    Cached because a sweep or a placement meters every record on one key.
    """
    cycles = np.mod(np.arange(num_samples) * (k_hat / fft_size), 1.0)
    phasor = np.exp(-2j * np.pi * cycles)
    phasor.flags.writeable = False
    return phasor


@dataclass(frozen=True)
class PowerMeasurement:
    """One metered record; fft_size is the bin grid Ns and peak_bin the bin read on it."""

    position: Position
    power_linear: float
    power_db: float
    fft_size: int
    num_samples: int
    peak_bin: int


def measure_power(record: IQRecord, f0_hz: float, fft_size: int | None = None) -> PowerMeasurement:
    """Estimate receive power of a tone capture at the known tone frequency."""
    n = record.num_samples
    t = record.sample_interval_s
    if abs(f0_hz) >= 0.5 / t:
        raise ValueError(f"tone frequency {f0_hz} Hz outside the Nyquist band")
    ns = default_fft_size(n) if fft_size is None else int(fft_size)
    if ns < n:
        raise ValueError(f"fft_size {ns} is smaller than the record ({n} samples)")
    if ns > MAX_FFT_SIZE:
        raise ValueError(f"fft_size {ns} exceeds {MAX_FFT_SIZE}, past which the tone bin index is not exact")
    k_hat = int(round(ns * t * f0_hz)) % ns
    p_lin = float(np.abs(record.samples @ _bin_phasor(n, ns, k_hat)) ** 2) / n**2
    return PowerMeasurement(
        position=record.position,
        power_linear=p_lin,
        power_db=float(to_db(p_lin)),
        fft_size=ns,
        num_samples=n,
        peak_bin=k_hat,
    )


@dataclass(frozen=True)
class PowerMap:
    """Measured power over a campaign grid, in dB relative to unit transmit scale (dBr).

    No absolute power calibration is applied: values differ from the
    simulated gain map by the constant 10*log10(beta*pt).
    """

    x_m: np.ndarray
    y_m: np.ndarray
    values_dbr: np.ndarray

    def __post_init__(self):
        if self.values_dbr.shape != (len(self.y_m), len(self.x_m)):
            raise ValueError("values shape must be (len(y_m), len(x_m))")

    def argmax_position(self) -> Position:
        iy, ix = np.unravel_index(int(np.argmax(self.values_dbr)), self.values_dbr.shape)
        return Position(float(self.x_m[ix]), float(self.y_m[iy]))

    def to_csv(self, path) -> None:
        write_grid_csv(path, self.x_m, self.y_m, self.values_dbr, "power_dbr")


def sweep_measure(records: Iterable[IQRecord], f0_hz: float, fft_size: int | None = None) -> PowerMap:
    """Meter every record of a tone campaign and assemble the grid power map.

    records is any iterable, consumed once, one record at a time; only each
    record's position and power are kept. All records must share the sample
    interval and length, and their positions must tile a complete
    rectangular grid.
    """
    xy, powers = [], []
    for rec in records:
        if not xy:
            t0, n0 = rec.sample_interval_s, rec.num_samples
        elif rec.sample_interval_s != t0 or rec.num_samples != n0:
            raise ValueError("records disagree on sample interval or length")
        xy.append((rec.position.x_m, rec.position.y_m))
        powers.append(measure_power(rec, f0_hz, fft_size).power_db)
    if not xy:
        raise ValueError("no records to measure")

    pos = np.array(xy)
    xs = np.unique(pos[:, 0])
    ys = np.unique(pos[:, 1])
    if len(xs) * len(ys) != len(pos):
        raise ValueError("record positions do not tile a complete grid")
    values = np.full((len(ys), len(xs)), np.nan)
    for (x, y), power in zip(xy, powers):
        iy = int(np.searchsorted(ys, y))
        ix = int(np.searchsorted(xs, x))
        if not np.isnan(values[iy, ix]):
            raise ValueError(f"duplicate record position {Position(x, y)}")
        values[iy, ix] = power
    return PowerMap(x_m=xs, y_m=ys, values_dbr=values)
