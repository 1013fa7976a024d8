"""Tone power measurement: a single-bin DFT at the tone's bin of an Ns-point grid.

A captured tone y[n] = h*sqrt(pt)*exp(j*2*pi*f0*n*T) + z[n] is rectangular
windowed over its N samples. The meter evaluates the one DFT bin nearest the
known tone frequency f0 on an Ns-point bin grid, Ns = default_fft_size(N)
(the next power of two at or above 8N), and normalizes its energy by N^2:

    p_hat = |sum_n y[n]*exp(-j*2*pi*k_hat*n/Ns)|^2 / N^2,   k_hat = round(Ns*T*f0)

This is exactly bin k_hat of the N-sample window zero-padded to Ns points and
FFT'd, without computing the other Ns - 1 bins (Goertzel 1958 is the
streaming form of the same sum). For an on-bin tone it is exact; off-bin
tones see the usual sinc^2 scalloping of the rectangular window. Coherent
integration over N samples buys ~10*log10(N) of SNR against white noise.

Callers pass the scenario's tone_f0_hz as f0; neither Ns nor f0 is an option.
sweep_measure meters a whole tone sweep into a channel.DbMap of power_dbr
on the grid of the movement region it was captured over.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import DbMap, MovementRegion, to_db


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
    Cached because a sweep or a placement meters every capture on one key.
    """
    cycles = np.mod(np.arange(num_samples) * (k_hat / fft_size), 1.0)
    phasor = np.exp(-2j * np.pi * cycles)
    phasor.flags.writeable = False
    return phasor


@dataclass(frozen=True)
class PowerMeasurement:
    """One metered capture; fft_size is the bin grid Ns and peak_bin the bin read on it."""

    power_linear: float
    power_db: float
    fft_size: int
    num_samples: int
    peak_bin: int


def measure_power(samples: np.ndarray, sample_interval_s: float, f0_hz: float) -> PowerMeasurement:
    """Estimate receive power of a tone capture at the known tone frequency."""
    n = len(samples)
    t = sample_interval_s
    if abs(f0_hz) >= 0.5 / t:
        raise ValueError(f"tone frequency {f0_hz} Hz outside the Nyquist band")
    ns = default_fft_size(n)
    k_hat = int(round(ns * t * f0_hz)) % ns
    p_lin = float(np.abs(samples @ _bin_phasor(n, ns, k_hat)) ** 2) / n**2
    return PowerMeasurement(
        power_linear=p_lin,
        power_db=float(to_db(p_lin)),
        fft_size=ns,
        num_samples=n,
        peak_bin=k_hat,
    )


def sweep_measure(region: MovementRegion, captures: Iterable[np.ndarray], sample_interval_s: float,
                  f0_hz: float) -> DbMap:
    """Meter every capture of a tone sweep over region and assemble the grid power map.

    Capture q was taken at point q of the region, row-major (y, then x) as
    region.positions() lists them. captures is any iterable of sample
    arrays, consumed once, one capture at a time; only each capture's power
    is kept. The captures must share one length, and there must be exactly
    region.num_points of them, or ValueError is raised. The map's column is
    power_dbr: dB relative to unit transmit scale, with no absolute power
    calibration, so its values differ from the simulated gain map by the
    constant 10*log10(beta*pt).
    """
    powers = []
    for samples in captures:
        if powers and len(samples) != n0:
            raise ValueError("captures disagree on length")
        n0 = len(samples)
        powers.append(measure_power(samples, sample_interval_s, f0_hz).power_db)
    if len(powers) != region.num_points:
        raise ValueError(f"{len(powers)} captures for the {region.num_points} points of the region")
    return DbMap(x_m=region.grid_x(), y_m=region.grid_y(), values_db=np.array(powers).reshape(region.shape),
                 column="power_dbr")
