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

from .channel import CSV_BLOCK_ROWS, SPEED_OF_LIGHT_M_PER_S, MovementRegion, to_db, write_csv, write_csv_rows
from .codec import JsonCodec
from .signals import OfdmNumerology


PAS_TAPER_BETA = 2.8
"""Kaiser window beta of the PAS aperture taper."""

DELAY_OVERSAMPLE = 8
"""Zero-padding factor of the beamformed delay profile."""

MIN_PEAK_TO_MEDIAN_DB = 12.0
"""A path's delay profile must peak this far over its median to be kept."""

MAX_ANGLE_CELLS = 2**24
"""Largest elevation x azimuth search grid an AngleGrid accepts (0.05 degree steps give 3601 x 3601)."""


class DegenerateGeometryError(ValueError):
    """Raised when the sounding geometry cannot resolve the paths: found angles too
    close for the aperture to separate, or a grid step above lambda/2, which aliases."""


@dataclass(frozen=True)
class AngleGrid:
    """Uniform search grid over elevation x azimuth, degrees, [-90, 90] each."""

    elevation_step_deg: float = 0.5
    azimuth_step_deg: float = 0.5

    def __post_init__(self):
        steps = (self.elevation_step_deg, self.azimuth_step_deg)
        for step in steps:
            if not (math.isfinite(step) and step > 0.0):
                raise ValueError(f"angle steps must be finite and > 0: {step}")
        # counted from the steps, so an oversized grid is refused before its axes exist
        n_el, n_az = (180.0 / step + 1.0 for step in steps)
        if not n_el * n_az <= MAX_ANGLE_CELLS:  # also refuses an inf count
            raise ValueError(f"a {n_el:.0f} x {n_az:.0f} angle grid exceeds {MAX_ANGLE_CELLS} cells")
        for step in steps:
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


class SoundingCampaign:
    """A full OFDM sounding sweep, as the per-position statistics the estimator reads.

    Row q of h_freq (Q, I) and snapshots (Q, n_snap) belongs to point q of
    region, row-major (y, then x) as region.positions() lists them. h_freq
    is that position's channel frequency response on the I subcarriers: the
    FFT of each symbol's payload, equalized by the known transmit symbols
    and coherently averaged over the M symbols. snapshots are n_snap
    received payload time samples, CP excluded, for the PAS. The arrays are
    kept, not copied. The region's axes are uniform, which compute_pas's lag
    sums and its aperture taper both rest on.

    harness.build_sounding_campaign draws these statistics with the noise
    law of the time-domain records they summarize; harness.load_sounding_campaign
    reads them back from an on-disk campaign.
    """

    def __init__(self, region: MovementRegion, numerology: OfdmNumerology, carrier_hz: float,
                 h_freq: np.ndarray, snapshots: np.ndarray):
        if carrier_hz <= 0.0:
            raise ValueError("carrier_hz must be > 0")
        q, i = region.num_points, numerology.num_subcarriers
        if q < 2:
            raise ValueError("a sounding campaign needs at least 2 positions")
        if h_freq.shape != (q, i):
            raise ValueError(f"h_freq must be ({q}, {i}) for {q} positions, got {h_freq.shape}")
        if snapshots.ndim != 2 or len(snapshots) != q or snapshots.shape[1] < 1:
            raise ValueError(f"snapshots must be ({q}, n_snap >= 1) for {q} positions, got {snapshots.shape}")
        h_freq.flags.writeable = False
        self.region, self.numerology, self.carrier_hz = region, numerology, carrier_hz
        self.h_freq = h_freq  # (Q, I)
        # samples_matrix takes the snapshots over on its first call, the call
        # whose bytes perfbench/worker.py counts
        self._snapshots = snapshots
        self._samples: np.ndarray | None = None

    @property
    def num_positions(self) -> int:
        return self.region.num_points

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_PER_S / self.carrier_hz

    def positions_array(self) -> np.ndarray:
        return self.region.positions_array()

    def samples_matrix(self) -> np.ndarray:
        """(Q, n_snap) block of the retained payload snapshots, row-major like the region's points, not copied."""
        if self._samples is None:
            self._samples, self._snapshots = self._snapshots, None
        return self._samples

    def grid_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(x values, y values) of the region's grid."""
        return self.region.grid_x(), self.region.grid_y()


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
        write_csv(path, ["elevation_deg", "azimuth_deg", "pas_db"], self.elevations_deg[:, None],
                  self.azimuths_deg[None, :], self.values_db_rel_max)


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
        """Rows of position_index,delay_ns,pds_db, positions in (y, x) order.

        Values are converted to dB a block of positions at a time, so no
        (Q, num_delay_bins) dB matrix is ever held.
        """
        q, n_bins = self.values.shape
        index, delays_ns = np.arange(q)[:, None], (self.delays_s() * 1e9)[None, :]
        step = max(1, CSV_BLOCK_ROWS // n_bins)
        with open(path, "w") as fh:
            fh.write("position_index,delay_ns,pds_db\n")
            for start in range(0, q, step):
                rows = slice(start, start + step)
                write_csv_rows(fh, index[rows], delays_ns, to_db(self.values[rows]))


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
        if len(self.paths) == 0:
            raise ValueError("EstimatedPsi needs at least one path")
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
    harness.MAX_SNAPSHOTS received time samples per position, evenly spread
    over the frame, CP excluded. A separable Kaiser taper (beta
    PAS_TAPER_BETA) is applied across the position grid before correlation;
    the rectangular aperture's -13 dB sidelobes would otherwise masquerade
    as paths.

    The scan runs in two stages over the campaign's grid axes. Stage 1
    collapses y for every elevation e into C[e, n, k], snapshot n at the
    k-th x position. On the uniform x axis (step dx) f^H R f of that
    elevation is then a trig polynomial in one phasor z = exp(j 2 pi u dx /
    lambda), u = cos(el) sin(az) (Van Trees, Optimum Array Processing, ch. 2):

      PAS = s_0 + 2 Re sum_{d >= 1} s_d z^d,  s_d = sum_n sum_k C[e, n, k+d] conj(C[e, n, k])

    The lag sums s_d are diagonal sums of C's x Gram matrix, formed a block
    of elevations at a time, and stage 2 evaluates the polynomial by
    Horner's rule. Round-off negatives are clipped to 0.
    """
    grid = grid or AngleGrid()
    els = grid.elevations_deg()
    azs = grid.azimuths_deg()
    lam = campaign.wavelength_m
    snaps = campaign.samples_matrix().T  # (n_snap, Q)
    n_snap = snaps.shape[0]
    el_rad = np.radians(els)

    xs, ys = campaign.grid_axes()
    nx = len(xs)
    w2d = np.outer(np.kaiser(len(ys), PAS_TAPER_BETA), np.kaiser(nx, PAS_TAPER_BETA))
    s3 = snaps.reshape(n_snap, len(ys), nx) * w2d[None, :, :]
    e_y = np.exp(2j * np.pi * np.outer(np.sin(el_rad), ys) / lam)
    lag = np.empty((len(els), nx), dtype=np.complex128)
    block = max(1, (1 << 18) // (n_snap * nx))  # about 4 MiB of C per block of elevations
    for start in range(0, len(els), block):
        rows = slice(start, start + block)
        # stage 1: collapse y for these elevations, C[e, n, k]
        c = np.tensordot(e_y[rows], s3, axes=([1], [1]))
        gram = np.matmul(c.transpose(0, 2, 1), c.conj())  # gram[e, k, k'] = sum_n C[e, n, k] conj(C[e, n, k'])
        for d in range(nx):
            lag[rows, d] = np.trace(gram, offset=-d, axis1=1, axis2=2)
    # stage 2: the lag polynomial in z at every (elevation, azimuth)
    dx = (xs[-1] - xs[0]) / max(nx - 1, 1)
    z = np.exp(2j * np.pi * dx / lam * np.outer(np.cos(el_rad), np.sin(np.radians(azs))))
    acc = np.zeros_like(z)
    for d in range(nx - 1, 0, -1):
        acc += lag[:, d, None]
        acc *= z
    pas = lag[:, :1].real + 2.0 * acc.real
    np.maximum(pas, 0.0, out=pas)
    return PasMatrix(values=pas, elevations_deg=els, azimuths_deg=azs)


def _neighborhood_max(v: np.ndarray) -> np.ndarray:
    """The maximum over each entry's 3 x 3 neighborhood, cells outside v counting as -inf."""
    p = np.pad(v, 1, constant_values=-np.inf)
    rows = np.maximum(np.maximum(p[:-2], p[1:-1]), p[2:])  # max over the row above, this row and the row below
    return np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


def find_paths(pas: PasMatrix, max_paths: int = 8, prominence_db: float = 20.0) -> list[SpectrumPeak]:
    """Pick path candidates: 8-neighborhood local maxima within prominence_db of the global max."""
    if max_paths < 1:
        raise ValueError(f"max_paths must be >= 1: {max_paths}")
    if not (math.isfinite(prominence_db) and prominence_db >= 0.0):
        raise ValueError(f"prominence_db must be finite and >= 0: {prominence_db}")
    v = pas.values
    local_max = v == _neighborhood_max(v)
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
    dropped with a warning; ValueError is raised when that drops them all.
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
    if not found:
        raise ValueError(f"no path found in the angular spectrum has a dominant delay peak ({len(angles)} dropped)")

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
