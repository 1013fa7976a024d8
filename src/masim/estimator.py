"""Channel sounding estimator: PAS search, per-path ZF beamforming, OFDM radar.

The sounding campaign treats the Q antenna positions of a grid sweep as one
large virtual array. Processing follows the measurement chain:

  1. power angular spectrum PAS(theta, phi) = f^H R f over an angle grid,
     where R is the sample covariance of received snapshots and f the
     virtual-array response at the scanned angle,
  2. peak picking on the PAS to count paths and read their angles,
  3. per-path zero-forcing weights that null every other found path,
  4. symbol averaging of the equalized per-subcarrier response: a
     SoundingCampaign keeps this h_freq, one channel frequency response per
     position, and the PAS snapshots, never time-domain records
     (harness.build_sounding_campaign draws the two statistics directly, and
     an on-disk campaign holds them),
  5. per-path delay and amplitude from the beamformed delay profile, and a
     power delay spectrum (PDS) per position as a by-product; both read
     the delay domain a block of positions at a time.

Delay estimates carry the carrier phase: after locating the delay-domain
peak, tau_hat is snapped to the nearest value whose carrier rotation
exp(-j*2*pi*fc*tau) reproduces the measured path phase. This keeps gain
fields simulated from the estimate phase-faithful to the measurement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.constants import c as SPEED_OF_LIGHT_M_PER_S

from .channel import grid_order, to_db, write_csv
from .codec import JsonCodec
from .signals import OfdmNumerology


PAS_TAPER_BETA = 2.8
"""Kaiser window beta of the PAS aperture taper."""

DELAY_OVERSAMPLE = 8
"""Zero-padding factor of the beamformed delay profile."""

MIN_PEAK_TO_MEDIAN_DB = 12.0
"""A path's delay profile must peak this far over its median to be kept."""

MAX_SNAPSHOTS = 128
"""Payload snapshots a campaign keeps per position for the PAS."""


class DegenerateGeometryError(ValueError):
    """Raised when the sounding geometry cannot resolve the paths: found angles too
    close for the aperture to separate, or a grid step above lambda/2, which aliases."""


@dataclass(frozen=True)
class AngleGrid:
    """Uniform search grid over elevation x azimuth, degrees, [-90, 90] each."""

    elevation_step_deg: float = 0.5
    azimuth_step_deg: float = 0.5

    def __post_init__(self):
        for step in (self.elevation_step_deg, self.azimuth_step_deg):
            if not (math.isfinite(step) and step > 0.0):
                raise ValueError(f"angle steps must be finite and > 0: {step}")
            if abs(180.0 / step - round(180.0 / step)) > 1e-9:
                raise ValueError(f"angle step {step} does not divide the 180 degree range")

    def elevations_deg(self) -> np.ndarray:
        n = int(round(180.0 / self.elevation_step_deg))
        return -90.0 + self.elevation_step_deg * np.arange(n + 1)

    def azimuths_deg(self) -> np.ndarray:
        n = int(round(180.0 / self.azimuth_step_deg))
        return -90.0 + self.azimuth_step_deg * np.arange(n + 1)


def array_response(elevation_deg: float, azimuth_deg: float, positions: np.ndarray, wavelength_m: float) -> np.ndarray:
    """Virtual-array response f(theta, phi), entry exp(-j*2*pi*d(theta,phi,r_q)/lambda) per position."""
    el = math.radians(elevation_deg)
    az = math.radians(azimuth_deg)
    d = positions[:, 0] * (math.cos(el) * math.sin(az)) + positions[:, 1] * math.sin(el)
    return np.exp(-2j * np.pi * d / wavelength_m)


def _snapshot_indices(numerology: OfdmNumerology, max_snapshots: int) -> np.ndarray:
    """Frame indices of up to max_snapshots payload samples, evenly spread, CP samples excluded."""
    num = numerology
    sym = num.samples_per_symbol
    payload_idx = np.concatenate(
        [m * sym + num.cp_samples + np.arange(num.num_subcarriers) for m in range(num.num_symbols)]
    )
    if max_snapshots < len(payload_idx):
        sel = np.unique(np.round(np.linspace(0, len(payload_idx) - 1, max_snapshots)).astype(int))
        payload_idx = payload_idx[sel]
    return payload_idx


class SoundingCampaign:
    """A full OFDM sounding sweep, as the per-position statistics the estimator reads.

    Row q of positions (Q, 2), h_freq (Q, I) and snapshots (Q, n_snap)
    belongs to one position, in any order. h_freq is its channel frequency
    response on the I subcarriers: the FFT of each symbol's payload,
    equalized by the known (I, M) tx_symbols grid and coherently averaged
    over the M symbols. snapshots are n_snap received payload time samples,
    CP excluded, for the PAS. The arrays are kept, not copied. Rows are
    sorted stably into row-major (y, then x) order, the snapshots lazily by
    samples_matrix, so every estimate is independent of the order they came
    in; the positions must tile a complete grid of at least 2 points, or
    ValueError is raised.

    harness.build_sounding_campaign draws these statistics with the noise
    law of the time-domain records they summarize; harness.load_sounding_campaign
    reads them back from an on-disk campaign.
    """

    def __init__(self, numerology: OfdmNumerology, tx_symbols: np.ndarray, carrier_hz: float,
                 positions: np.ndarray, h_freq: np.ndarray, snapshots: np.ndarray):
        i, m = numerology.num_subcarriers, numerology.num_symbols
        if tx_symbols.shape != (i, m):
            raise ValueError(f"tx_symbols must be ({i}, {m}), got {tx_symbols.shape}")
        if carrier_hz <= 0.0:
            raise ValueError("carrier_hz must be > 0")
        q = len(positions)
        if q < 2:
            raise ValueError("a sounding campaign needs at least 2 positions")
        if h_freq.shape != (q, i):
            raise ValueError(f"h_freq must be ({q}, {i}) for {q} positions, got {h_freq.shape}")
        if snapshots.ndim != 2 or len(snapshots) != q or snapshots.shape[1] < 1:
            raise ValueError(f"snapshots must be ({q}, n_snap >= 1) for {q} positions, got {snapshots.shape}")
        order, self._axes = grid_order(positions[:, 0], positions[:, 1], "sounding positions")
        if np.any(order != np.arange(q)):
            positions, h_freq = positions[order], h_freq[order]
        else:
            order = None
        h_freq.flags.writeable = False
        self.numerology, self.tx_symbols, self.carrier_hz = numerology, tx_symbols, carrier_hz
        self.h_freq = h_freq  # (Q, I)
        self._positions = positions
        self._snapshots, self._order = snapshots, order
        self._samples: np.ndarray | None = None

    @property
    def num_positions(self) -> int:
        return len(self._positions)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_PER_S / self.carrier_hz

    def positions_array(self) -> np.ndarray:
        return self._positions.copy()

    def samples_matrix(self) -> np.ndarray:
        """(Q, n_snap) block of the retained payload snapshots in (y, x) order, sorted on first use.

        Snapshots that came in (y, x) order are returned as they are, not copied.
        """
        if self._samples is None:
            snaps = self._snapshots if self._order is None else self._snapshots[self._order]
            self._samples, self._snapshots = snaps, None
        return self._samples

    def grid_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(x values, y values) of the complete grid the positions tile."""
        return self._axes


@dataclass(frozen=True)
class PasMatrix:
    """Power angular spectrum over the angle grid, raw quadratic-form values."""

    values: np.ndarray  # (n_elevation, n_azimuth)
    elevations_deg: np.ndarray
    azimuths_deg: np.ndarray

    @property
    def values_db_rel_max(self) -> np.ndarray:
        return to_db(self.values / np.max(self.values))

    def to_csv(self, path) -> None:
        """Rows of elevation_deg,azimuth_deg,pas_db with the max pinned at 0 dB."""
        n_el, n_az = self.values.shape
        write_csv(path, ["elevation_deg", "azimuth_deg", "pas_db"], np.repeat(self.elevations_deg, n_az),
                  np.tile(self.azimuths_deg, n_el), self.values_db_rel_max.ravel())


@dataclass(frozen=True)
class SpectrumPeak:
    elevation_deg: float
    azimuth_deg: float
    value: float
    rel_max_db: float


@dataclass(frozen=True)
class PdsMatrix:
    """Per-position power delay spectrum, each row normalized to peak 1."""

    values: np.ndarray  # (Q, num_delay_bins)
    delay_step_s: float

    def delays_s(self) -> np.ndarray:
        return self.delay_step_s * np.arange(self.values.shape[1])

    def to_csv(self, path) -> None:
        """Rows of position_index,delay_ns,pds_db, positions in (y, x) order."""
        q, n = self.values.shape
        write_csv(path, ["position_index", "delay_ns", "pds_db"], np.repeat(np.arange(q), n),
                  np.tile(self.delays_s() * 1e9, q), to_db(self.values).ravel())


@dataclass(frozen=True)
class EstimatedPath:
    elevation_deg: float
    azimuth_deg: float
    amplitude: float
    delay_s: float
    prominence_db: float


@dataclass(frozen=True)
class EstimatedPsi(JsonCodec):
    """Estimated path state information, paths sorted by descending amplitude.

    Amplitudes are normalized against the total measured channel power, so
    sum(amplitude^2) is the power fraction the found paths explain (<= 1).
    prominence_db is each path's PAS peak height relative to the strongest
    peak (0 for the dominant path, negative below it).
    """

    paths: tuple[EstimatedPath, ...]
    carrier_hz: float
    grid_step_deg: float

    def __post_init__(self):
        amps = [p.amplitude for p in self.paths]
        if any(amps[i] < amps[i + 1] for i in range(len(amps) - 1)):
            raise ValueError("estimated paths must be sorted by descending amplitude")
        if sum(a * a for a in amps) > 1.0 + 1e-6:
            raise ValueError("estimated amplitudes exceed unit total power")

    @property
    def num_paths(self) -> int:
        return len(self.paths)


def compute_pas(campaign: SoundingCampaign, grid: AngleGrid | None = None) -> PasMatrix:
    """Power angular spectrum PAS(theta, phi) = f^H R f over the angle grid.

    R is the sample covariance of the campaign's retained snapshots: up to
    MAX_SNAPSHOTS received time samples per position, evenly spread over the
    frame, CP excluded. A separable Kaiser taper (beta PAS_TAPER_BETA) is
    applied across the position grid before correlation; the rectangular
    aperture's -13 dB sidelobes would otherwise masquerade as paths. The scan
    is a separable two-stage transform over the campaign's grid axes, so
    large sweeps stay affordable.
    """
    grid = grid or AngleGrid()
    els = grid.elevations_deg()
    azs = grid.azimuths_deg()
    lam = campaign.wavelength_m
    snaps = campaign.samples_matrix().T  # (n_snap, Q)
    n_snap = snaps.shape[0]
    el_rad = np.radians(els)
    sin_az = np.sin(np.radians(azs))

    xs, ys = campaign.grid_axes()
    w2d = np.outer(np.kaiser(len(ys), PAS_TAPER_BETA), np.kaiser(len(xs), PAS_TAPER_BETA))
    s3 = snaps.reshape(n_snap, len(ys), len(xs)) * w2d[None, :, :]
    # stage 1: collapse y for every elevation, C[e, n, x]
    e_y = np.exp(2j * np.pi * np.outer(np.sin(el_rad), ys) / lam)
    c = np.tensordot(e_y, s3, axes=([1], [1]))
    # stage 2: per elevation row, collapse x for every azimuth
    pas = np.empty((len(els), len(azs)))
    for ie in range(len(els)):
        u_row = math.cos(el_rad[ie]) * sin_az
        e_x = np.exp(2j * np.pi * np.outer(u_row, xs) / lam)
        t = e_x @ c[ie].T  # (n_az, n_snap)
        pas[ie] = np.sum(np.abs(t) ** 2, axis=1)
    return PasMatrix(values=pas, elevations_deg=els, azimuths_deg=azs)


def find_paths(pas: PasMatrix, max_paths: int = 8, prominence_db: float = 20.0) -> list[SpectrumPeak]:
    """Pick path candidates: 8-neighborhood local maxima within prominence_db of the global max."""
    if max_paths < 1:
        raise ValueError(f"max_paths must be >= 1: {max_paths}")
    if not (math.isfinite(prominence_db) and prominence_db >= 0.0):
        raise ValueError(f"prominence_db must be finite and >= 0: {prominence_db}")
    v = pas.values
    local_max = v == ndimage.maximum_filter(v, size=3, mode="constant", cval=-np.inf)
    peak_val = float(np.max(v))
    if peak_val <= 0.0:
        return []
    keep = local_max & (v >= peak_val * 10.0 ** (-prominence_db / 10.0))
    ie_all, ia_all = np.nonzero(keep)
    order = np.argsort(v[ie_all, ia_all])[::-1]
    peaks = []
    for k in order[:max_paths]:
        ie, ia = int(ie_all[k]), int(ia_all[k])
        val = float(v[ie, ia])
        peaks.append(
            SpectrumPeak(
                elevation_deg=float(pas.elevations_deg[ie]),
                azimuth_deg=float(pas.azimuths_deg[ia]),
                value=val,
                rel_max_db=float(10.0 * np.log10(val / peak_val)),
            )
        )
    return peaks


def zf_weights(
    found_angles: list[tuple[float, float]],
    target_index: int,
    positions: np.ndarray,
    wavelength_m: float,
) -> np.ndarray:
    """Zero-forcing beamformer for one found path.

    w = (1/sqrt(Q)) * (I - F (F^H F)^-1 F^H) f_target, where F stacks the
    array responses of every other found path. The projection is applied
    twice for numerically exact nulls. Raises DegenerateGeometryError when
    the interferer geometry is rank deficient for this aperture.
    """
    q = positions.shape[0]
    n_paths = len(found_angles)
    if not 0 <= target_index < n_paths:
        raise IndexError(f"target_index {target_index} out of range for {n_paths} paths")
    if q <= n_paths:
        raise DegenerateGeometryError(f"{q} positions cannot zero-force {n_paths} paths")
    el, az = found_angles[target_index]
    f_t = array_response(el, az, positions, wavelength_m)
    others = [a for i, a in enumerate(found_angles) if i != target_index]
    if not others:
        return f_t / math.sqrt(q)
    f_mat = np.column_stack([array_response(e, a, positions, wavelength_m) for (e, a) in others])
    gram = f_mat.conj().T @ f_mat
    if np.linalg.cond(gram) > 1e10:
        raise DegenerateGeometryError("found angles are too close for the aperture to separate")
    w = f_t - f_mat @ np.linalg.solve(gram, f_mat.conj().T @ f_t)
    w = w - f_mat @ np.linalg.solve(gram, f_mat.conj().T @ w)
    if np.linalg.norm(w) < 1e-6 * np.linalg.norm(f_t):
        # nothing of the target survives the interferer nulls, so the
        # beamformed response would be pure noise amplification
        raise DegenerateGeometryError("target steering vector lies in the interferer span")
    return w / math.sqrt(q)


def frequency_response(campaign: SoundingCampaign) -> np.ndarray:
    """Channel frequency response per position, (Q, I), read-only."""
    return campaign.h_freq


def _delay_power(h_freq: np.ndarray, first_bin: int = 0) -> np.ndarray:
    """|I-point IDFT|^2 of each row of h_freq at delay bins first_bin..I-1, (Q, I - first_bin).

    Rows are transformed a block at a time, so no (Q, I) complex delay
    response is ever held; each row's values do not depend on the blocking.
    """
    q, i_n = h_freq.shape
    power = np.empty((q, i_n - first_bin))
    block = max(1, (1 << 20) // i_n)  # about 16 MiB of delay response per block
    for start in range(0, q, block):
        rows = slice(start, start + block)
        power[rows] = np.abs(np.fft.ifft(h_freq[rows], axis=1)[:, first_bin:]) ** 2
    return power


def compute_pds(campaign: SoundingCampaign) -> PdsMatrix:
    """Power delay spectrum per position from the I-point IDFT of the frequency response.

    Each position's spectrum is normalized by its own peak, so the maximum
    of every row is exactly 1.
    """
    pds = _delay_power(frequency_response(campaign))
    peaks = np.max(pds, axis=1)
    if np.any(peaks == 0.0):
        raise ValueError("all-zero delay response at some position")
    pds /= peaks[:, None]
    return PdsMatrix(values=pds, delay_step_s=campaign.numerology.delay_step_s)


def _parabolic_offset(y_m1: float, y_0: float, y_p1: float) -> float:
    """Vertex offset of the parabola through three equispaced samples, clipped to [-0.5, 0.5]."""
    denom = y_m1 - 2.0 * y_0 + y_p1
    if denom == 0.0:
        return 0.0
    return float(np.clip(0.5 * (y_m1 - y_p1) / denom, -0.5, 0.5))


def estimate_delay_amplitude(
    campaign: SoundingCampaign,
    weights: list[np.ndarray],
    angles: list[tuple[float, float]],
    peaks_rel_db: list[float],
    grid_step_deg: float,
) -> EstimatedPsi:
    """Per-path delays and amplitudes from the beamformed frequency responses.

    For each found path the ZF-beamformed response G[i] is transformed to an
    oversampled delay profile; the peak is refined by parabolic
    interpolation of |h[n]|^2 and then snapped to the nearest delay that
    reproduces the measured carrier phase. The amplitude is the coherent
    subcarrier average |mean_i G[i]*exp(j*2*pi*i*df*tau_hat)|, normalized by
    the total channel power so path amplitudes follow the unit-power
    convention of estimated PSI. Paths without a dominant delay peak are
    dropped with a warning.
    """
    if not len(weights) == len(angles) == len(peaks_rel_db):
        raise ValueError("weights, angles and peaks_rel_db must pair up")
    num = campaign.numerology
    i_n = num.num_subcarriers
    df = num.subcarrier_spacing_hz
    fc = campaign.carrier_hz
    h_freq = frequency_response(campaign)
    positions = campaign.positions_array()
    lam = campaign.wavelength_m
    idx = np.arange(i_n)
    n_fft = DELAY_OVERSAMPLE * i_n

    # total channel power per subcarrier, noise-debiased from the upper half
    # of the delay range where no physical path can sit
    noise_per_bin = float(np.mean(_delay_power(h_freq, i_n // 2)))
    p_total = float(np.mean(np.abs(h_freq) ** 2)) - i_n * noise_per_bin
    if p_total <= 0.0:
        raise ValueError("measured channel power does not rise above the noise floor")

    found = []
    for k, (w, (el, az)) in enumerate(zip(weights, angles)):
        f_hat = array_response(el, az, positions, lam)
        denom = np.vdot(w, f_hat)
        g = (w.conj() @ h_freq) / denom
        profile = np.abs(np.fft.ifft(g, n=n_fft)) ** 2
        peak = int(np.argmax(profile))
        med = float(np.median(profile))
        peak_db = 10.0 * math.log10(profile[peak] / med) if med > 0.0 else np.inf
        if peak_db < MIN_PEAK_TO_MEDIAN_DB:
            warnings.warn(
                f"path {k} at ({el}, {az}) deg has no dominant delay peak "
                f"({peak_db:.1f} dB over median), dropping it"
            )
            continue
        y3 = profile.take([peak - 1, peak, peak + 1], mode="wrap")
        delta = _parabolic_offset(*y3)
        tau0 = (peak + delta) * num.delay_step_s / DELAY_OVERSAMPLE
        # measured carrier phase of the path, then phase-consistent snap
        rot = np.exp(2j * np.pi * idx * df * tau0)
        m0 = np.mean(g * rot)
        psi_ph = math.atan2(m0.imag, m0.real)
        cycles = round(tau0 * fc + psi_ph / (2.0 * math.pi))
        tau_hat = (cycles - psi_ph / (2.0 * math.pi)) / fc
        while tau_hat < 0.0:
            tau_hat += 1.0 / fc
        rot = np.exp(2j * np.pi * idx * df * tau_hat)
        amp_raw = abs(np.mean(g * rot))
        found.append((el, az, amp_raw, tau_hat, peaks_rel_db[k]))

    amps = np.array([f[2] for f in found]) / math.sqrt(p_total)
    total = float(np.sum(amps**2))
    if total > 1.0:
        amps = amps / math.sqrt(total)
    order = np.argsort(amps)[::-1]
    paths = tuple(
        EstimatedPath(
            elevation_deg=found[k][0],
            azimuth_deg=found[k][1],
            amplitude=float(amps[k]),
            delay_s=found[k][3],
            prominence_db=found[k][4],
        )
        for k in order
    )
    return EstimatedPsi(paths=paths, carrier_hz=fc, grid_step_deg=grid_step_deg)


def estimate_psi(
    campaign: SoundingCampaign,
    grid: AngleGrid | None = None,
    max_paths: int = 8,
    prominence_db: float = 20.0,
    pas: PasMatrix | None = None,
) -> EstimatedPsi:
    """Full estimation chain: PAS, peak picking, ZF beamforming, delay/amplitude.

    Pass a precomputed pas (from compute_pas on the same campaign and grid)
    to skip the spectrum scan. A grid step above lambda/2 along either axis
    lets grating lobes into the |u|, |v| <= 1 scan (Van Trees, Optimum Array
    Processing, ch. 2), so it raises DegenerateGeometryError.
    """
    grid = grid or AngleGrid()
    lam = campaign.wavelength_m
    for axis in campaign.grid_axes():
        step = float(np.max(np.diff(axis), initial=0.0))
        if step > lam / 2.0 * (1.0 + 1e-9):
            raise DegenerateGeometryError(
                f"sounding step {step * 1e3:.4g} mm exceeds lambda/2 = {lam * 500.0:.4g} mm; the angles would alias"
            )
    if pas is None:
        pas = compute_pas(campaign, grid)
    peaks = find_paths(pas, max_paths=max_paths, prominence_db=prominence_db)
    if not peaks:
        raise ValueError("no paths found in the angular spectrum")
    angles = [(p.elevation_deg, p.azimuth_deg) for p in peaks]
    positions = campaign.positions_array()
    weights = [zf_weights(angles, i, positions, lam) for i in range(len(angles))]
    return estimate_delay_amplitude(campaign, weights, angles, [p.rel_max_db for p in peaks], grid.elevation_step_deg)
