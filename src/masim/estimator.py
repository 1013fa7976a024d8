"""Channel sounding estimator: PAS search, zero-forcing (ZF) path fit, OFDM radar.

The sounding campaign treats the Q antenna positions of a grid sweep as one
large virtual array. Processing follows the measurement chain:

  1. power angular spectrum PAS(theta, phi) = f^H R f over a fixed 0.5
     degree angle grid, where R is the sample covariance of received
     snapshots and f the virtual-array response at the scanned angle,
  2. peak picking on the PAS to count paths and read their angles,
  3. zero-forcing as one least-squares fit of the frequency response
     h_freq (step 4) on the found paths' array responses F, (F^H F)^-1 F^H
     h_freq: row l is path l's response with every other found path nulled,
  4. symbol averaging of the equalized per-subcarrier response: a
     SoundingCampaign keeps one row per position, this h_freq (one channel
     frequency response) and then the PAS snapshots, never time-domain
     records (harness.build_sounding_campaign draws the rows directly, and
     an on-disk campaign's record files are the same rows),
  5. per-path delay and amplitude from the beamformed delay profile, and a
     power delay spectrum (PDS) per position as a by-product; both read
     the campaign's one delay transform (SoundingCampaign.delay_power).

The estimate is a channel.PathStateInfo, the same type a planted channel
is, so it feeds gain_map, coarse_position and optimize directly.

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

from .channel import (
    CSV_BLOCK_ROWS,
    SPEED_OF_LIGHT_M_PER_S,
    MovementRegion,
    PathComponent,
    PathStateInfo,
    direction,
    path_phase,
    to_db,
    write_csv,
    write_csv_rows,
)
from .signals import OfdmNumerology, row_blocks


PAS_TAPER_BETA = 2.8
"""Kaiser window beta of the PAS aperture taper."""

DELAY_OVERSAMPLE = 8
"""Zero-padding factor of the beamformed delay profile."""

MIN_PEAK_TO_MEDIAN_DB = 12.0
"""A path's delay profile must peak this far over its median to be kept."""

MAX_PATHS = 8
"""Most PAS peaks find_paths returns, strongest first."""

PEAK_PROMINENCE_DB = 20.0
"""find_paths keeps only PAS peaks within this many dB of the global maximum."""

ANGLE_STEP_DEG = 0.5
"""Step of the PAS scan grid, degrees, in elevation and azimuth alike."""

SCAN_ANGLES_DEG = -90.0 + ANGLE_STEP_DEG * np.arange(361)
"""The PAS scan axis, -90 to 90 degrees, for elevation and azimuth alike."""
SCAN_ANGLES_DEG.flags.writeable = False


class DegenerateGeometryError(ValueError):
    """Raised when the sounding geometry cannot resolve the paths: found angles too
    close for the aperture to separate, or a grid step above lambda/2, which aliases."""


def array_response(elevation_deg: float, azimuth_deg: float, positions: np.ndarray, wavelength_m: float) -> np.ndarray:
    """Virtual-array response f(theta, phi): the steering response_factors gives a unit path at those angles."""
    d = positions @ np.array([direction(elevation_deg, azimuth_deg)]).T  # (Q, 1), as response_factors forms it
    return path_phase(d, wavelength_m)[:, 0]


class SoundingCampaign:
    """A full OFDM sounding sweep, as the per-position statistics the estimator reads.

    rows (Q, I + n_snap) holds them as a campaign's record files do: row q
    belongs to point q of region, row-major (y, then x) as
    region.positions_array() lists them, and holds that position's I h_freq
    values, then its n_snap snapshots. h_freq = rows[:, :I] is the channel
    frequency response on the I subcarriers: the FFT of each symbol's
    payload, equalized by the known transmit symbols and coherently
    averaged over the M symbols. The snapshots, rows[:, I:], are n_snap
    received payload time samples, CP excluded, for the PAS. Both are views
    of rows, which is kept, not copied. The region's axes are uniform, which
    compute_pas's lag sums and its aperture taper both rest on.

    harness.build_sounding_campaign draws these rows with the noise law of
    the time-domain records they summarize; harness.load_sounding_campaign
    reads them back from an on-disk campaign.
    """

    def __init__(self, region: MovementRegion, numerology: OfdmNumerology, carrier_hz: float, rows: np.ndarray):
        if carrier_hz <= 0.0:
            raise ValueError("carrier_hz must be > 0")
        q, i = region.num_points, numerology.num_subcarriers
        if q < 2:
            raise ValueError("a sounding campaign needs at least 2 positions")
        if rows.ndim != 2 or len(rows) != q or rows.shape[1] <= i:
            raise ValueError(f"rows must be ({q}, {i} + n_snap), n_snap >= 1, for {q} positions, got {rows.shape}")
        self.region, self.numerology, self.carrier_hz = region, numerology, carrier_hz
        self.rows = rows  # (Q, I + n_snap)
        self.h_freq = rows[:, :i]  # (Q, I)
        self.h_freq.flags.writeable = False
        # samples_matrix takes the snapshots over on its first call, the call
        # whose bytes perfbench/worker.py counts
        self._snapshots = rows[:, i:]
        self._samples: np.ndarray | None = None
        self._delay_power: np.ndarray | None = None  # until compute_pds takes it over

    @property
    def num_positions(self) -> int:
        return self.region.num_points

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_PER_S / self.carrier_hz

    def samples_matrix(self) -> np.ndarray:
        """(Q, n_snap) view of the retained payload snapshots in rows, row-major like the region's points."""
        if self._samples is None:
            self._samples, self._snapshots = self._snapshots, None
        return self._samples

    def delay_power(self) -> np.ndarray:
        """(Q, I) |I-point IDFT|^2 of the h_freq rows, transformed once and kept until compute_pds takes it over.

        Rows are transformed in the record blocks, row_blocks(*rows.shape), so no
        (Q, I) complex delay response is ever held; each row's values do not depend on the blocking.
        """
        if self._delay_power is None:
            self._delay_power = np.empty(self.h_freq.shape)
            for rows in row_blocks(*self.rows.shape):
                out = self._delay_power[rows]
                np.square(np.abs(np.fft.ifft(self.h_freq[rows], axis=1), out=out), out=out)
        return self._delay_power


@dataclass(frozen=True)
class PasMatrix:
    """Power angular spectrum over the SCAN_ANGLES_DEG grid, raw quadratic-form values."""

    values: np.ndarray  # (elevation, azimuth), both on SCAN_ANGLES_DEG

    def __post_init__(self):
        # find_paths and to_csv read cell (i, j) as SCAN_ANGLES_DEG[i], SCAN_ANGLES_DEG[j]
        shape = (len(SCAN_ANGLES_DEG),) * 2
        if np.shape(self.values) != shape:
            raise ValueError(f"PAS values must be {shape}, got {np.shape(self.values)}")

    @property
    def values_db_rel_max(self) -> np.ndarray:
        return to_db(self.values / np.max(self.values))

    def to_csv(self, path) -> None:
        """Rows of elevation_deg,azimuth_deg,pas_db with the max pinned at 0 dB."""
        write_csv(path, ["elevation_deg", "azimuth_deg", "pas_db"], SCAN_ANGLES_DEG[:, None],
                  SCAN_ANGLES_DEG[None, :], self.values_db_rel_max)


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


def compute_pas(campaign: SoundingCampaign) -> PasMatrix:
    """Power angular spectrum PAS(theta, phi) = f^H R f over the SCAN_ANGLES_DEG grid.

    R is the sample covariance of the campaign's retained snapshots: up to
    harness.MAX_SNAPSHOTS received time samples per position, evenly spread
    over the first symbol's payload. A separable Kaiser taper (beta
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
    els = azs = SCAN_ANGLES_DEG
    lam = campaign.wavelength_m
    snaps = campaign.samples_matrix().T  # (n_snap, Q)
    n_snap = snaps.shape[0]
    el_rad = np.radians(els)

    xs, ys = campaign.region.grid_x(), campaign.region.grid_y()
    nx = len(xs)
    w2d = np.outer(np.kaiser(len(ys), PAS_TAPER_BETA), np.kaiser(nx, PAS_TAPER_BETA))
    s3 = snaps.reshape(n_snap, len(ys), nx) * w2d[None, :, :]
    e_y = path_phase(np.outer(np.sin(el_rad), ys), lam).conj()  # f^H: the conjugate steering
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
    # z depends on el only through the even cos(el), and the scan axis is symmetric: el < 0 rows mirror el > 0 ones
    z = path_phase(dx * np.outer(np.cos(el_rad[len(els) // 2:]), np.sin(np.radians(azs))), lam).conj()
    z = np.concatenate([z[:0:-1], z])
    acc = np.zeros_like(z)
    for d in range(nx - 1, 0, -1):
        acc += lag[:, d, None]
        acc *= z
    pas = lag[:, :1].real + 2.0 * acc.real
    np.maximum(pas, 0.0, out=pas)
    return PasMatrix(values=pas)


def _neighborhood_max(v: np.ndarray) -> np.ndarray:
    """The maximum over each entry's 3 x 3 neighborhood, cells outside v counting as -inf."""
    p = np.pad(v, 1, constant_values=-np.inf)
    rows = np.maximum(np.maximum(p[:-2], p[1:-1]), p[2:])  # max over the row above, this row and the row below
    return np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


def find_paths(pas: PasMatrix) -> list[SpectrumPeak]:
    """Pick path candidates: 8-neighborhood local maxima within PEAK_PROMINENCE_DB of the global max.

    At most MAX_PATHS of them come back, strongest first.
    """
    v = pas.values
    local_max = v == _neighborhood_max(v)
    peak_val = float(np.max(v))
    if peak_val <= 0.0:
        return []
    keep = local_max & (v >= peak_val * 10.0 ** (-PEAK_PROMINENCE_DB / 10.0))
    ie_all, ia_all = np.nonzero(keep)
    order = np.argsort(v[ie_all, ia_all])[::-1]
    peaks = []
    for k in order[:MAX_PATHS]:
        ie, ia = int(ie_all[k]), int(ia_all[k])
        val = float(v[ie, ia])
        peaks.append(
            SpectrumPeak(
                elevation_deg=float(SCAN_ANGLES_DEG[ie]),
                azimuth_deg=float(SCAN_ANGLES_DEG[ia]),
                value=val,
                rel_max_db=float(10.0 * np.log10(val / peak_val)),
            )
        )
    return peaks


def _path_fit(found_angles: list[tuple[float, float]], positions: np.ndarray,
              wavelength_m: float) -> tuple[np.ndarray, np.ndarray]:
    """F (Q, L), the found paths' array responses, and (F^H F)^-1: the least-squares fit of a response on them.

    F^H F is an einsum, not a BLAS product, so its sums over positions run in
    one order at any BLAS thread count. Raises DegenerateGeometryError when
    Q <= L or cond(F^H F) > 1e10: the aperture cannot separate the angles.
    """
    q, n_paths = positions.shape[0], len(found_angles)
    if q <= n_paths:
        raise DegenerateGeometryError(f"{q} positions cannot zero-force {n_paths} paths")
    f_mat = np.column_stack([array_response(el, az, positions, wavelength_m) for (el, az) in found_angles])
    gram = np.einsum("qk,ql->kl", f_mat.conj(), f_mat)
    if np.linalg.cond(gram) > 1e10:
        raise DegenerateGeometryError("found angles are too close for the aperture to separate")
    return f_mat, np.linalg.inv(gram)


def zf_weights(found_angles: list[tuple[float, float]], target_index: int, positions: np.ndarray,
               wavelength_m: float) -> np.ndarray:
    """Zero-forcing beamformer for one found path: its weights in the least-squares fit on every found path.

    Column t of F (F^H F)^-1 over ((F^H F)^-1)_tt sqrt(Q), that is
    (1/sqrt(Q)) (I - F_o (F_o^H F_o)^-1 F_o^H) f_t with F_o the other found
    paths' responses: it nulls them. Raises DegenerateGeometryError as the fit does.
    """
    if not 0 <= target_index < len(found_angles):
        raise IndexError(f"target_index {target_index} out of range for {len(found_angles)} paths")
    f_mat, gram_inv = _path_fit(found_angles, positions, wavelength_m)
    return f_mat @ gram_inv[:, target_index] / (gram_inv[target_index, target_index].real * math.sqrt(len(positions)))


def frequency_response(campaign: SoundingCampaign) -> np.ndarray:
    """Channel frequency response per position, (Q, I), read-only."""
    return campaign.h_freq


def first_noise_bin(numerology: OfdmNumerology) -> int:
    """The first delay bin past half the delay range and past the CP, the longest delay a sounding admits."""
    first = max(numerology.num_subcarriers // 2, numerology.cp_samples + 1)
    if first >= numerology.num_subcarriers:
        raise ValueError(f"a cyclic prefix of {numerology.cp_samples} samples leaves no delay bin for the noise floor")
    return first


def _noise_per_bin(campaign: SoundingCampaign) -> float:
    """Mean delay power per bin from first_noise_bin on, where no physical path can sit; ValueError if there is none."""
    upper = campaign.delay_power()[:, first_noise_bin(campaign.numerology):]
    return float(np.sum(np.sum(upper, axis=1)) / upper.size)  # row sums, then their sum: one order, no copy


def compute_pds(campaign: SoundingCampaign) -> PdsMatrix:
    """Power delay spectrum per position from the I-point IDFT of the frequency response.

    Each position's spectrum is normalized by its own peak, so the maximum
    of every row is exactly 1. It takes the campaign's delay power over and
    normalizes it in place, so a later call transforms afresh and leaves this one be.
    """
    pds, campaign._delay_power = campaign.delay_power(), None
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


def _cap_unit_power(amps: np.ndarray) -> np.ndarray:
    """amps scaled to a total power of 1 when theirs exceeds it, so that sum(amps**2), summed in their order, is <= 1.

    Dividing by the root of the total can round that sum up to
    1.0000000000000002, so the scaled amplitudes then step down one ulp at a
    time until the cap holds.
    """
    total = sum(a * a for a in amps.tolist())
    if total > 1.0:
        amps = amps / math.sqrt(total)
        while sum(a * a for a in amps.tolist()) > 1.0:
            amps = np.nextafter(amps, 0.0)
    return amps


def estimate_delay_amplitude(campaign: SoundingCampaign, angles: list[tuple[float, float]]) -> PathStateInfo:
    """Per-path delays and amplitudes from the zero-forced frequency responses.

    One least-squares fit of h_freq on the found paths' array responses,
    (F^H F)^-1 F^H h_freq, gives every path's ZF-beamformed response G[i],
    each transformed to an oversampled delay profile; the peak is refined
    by parabolic interpolation of |h[n]|^2 and then snapped to the nearest
    delay that reproduces the measured carrier phase. The amplitude is the coherent
    subcarrier average |mean_i G[i]*exp(j*2*pi*i*df*tau_hat)|, normalized by
    the total channel power, so sum(amplitude^2) is the power fraction the
    found paths explain (<= 1). The PathStateInfo returned lists its paths
    by descending amplitude. Paths without a dominant delay peak are
    dropped with a warning; ValueError is raised for no angles or no path left.
    """
    num = campaign.numerology
    i_n = num.num_subcarriers
    df = num.subcarrier_spacing_hz
    fc = campaign.carrier_hz
    h_freq = frequency_response(campaign)
    positions = campaign.region.positions_array()
    lam = campaign.wavelength_m
    idx = np.arange(i_n)
    n_fft = DELAY_OVERSAMPLE * i_n

    if not angles:
        raise ValueError("no paths found in the angular spectrum")
    f_mat, gram_inv = _path_fit(angles, positions, lam)
    # total channel power per subcarrier, noise-debiased
    p_total = float(np.mean(np.abs(h_freq) ** 2)) - i_n * _noise_per_bin(campaign)
    if p_total <= 0.0:
        raise ValueError("measured channel power does not rise above the noise floor")

    # one (Q,) @ (Q, I) product per path: a batched (L, Q) one splits its sums over positions across BLAS threads
    responses = gram_inv @ np.array([f.conj() @ h_freq for f in f_mat.T])
    found = []
    for k, (g, (el, az)) in enumerate(zip(responses, angles)):
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
        found.append((el, az, amp_raw, tau_hat))
    if not found:
        raise ValueError(f"no path found in the angular spectrum has a dominant delay peak ({len(angles)} dropped)")

    amps = np.array([f[2] for f in found]) / math.sqrt(p_total)
    order = np.argsort(amps)[::-1]
    amps = _cap_unit_power(amps[order])
    paths = tuple(PathComponent(found[k][0], found[k][1], float(a), found[k][3]) for k, a in zip(order, amps))
    return PathStateInfo(paths=paths, carrier_hz=fc)


def estimate_psi(campaign: SoundingCampaign, pas: PasMatrix | None = None) -> PathStateInfo:
    """Full estimation chain: PAS, peak picking, the ZF fit, delay/amplitude.

    Pass a precomputed pas (from compute_pas on the same campaign) to skip
    the spectrum scan. A sounding step above lambda/2 along either axis
    lets grating lobes into the |u|, |v| <= 1 scan (Van Trees, Optimum Array
    Processing, ch. 2), so it raises DegenerateGeometryError.
    """
    lam = campaign.wavelength_m
    for axis in (campaign.region.grid_x(), campaign.region.grid_y()):
        step = float(np.max(np.diff(axis), initial=0.0))
        if step > lam / 2.0 * (1.0 + 1e-9):
            raise DegenerateGeometryError(
                f"sounding step {step * 1e3:.4g} mm exceeds lambda/2 = {lam * 500.0:.4g} mm; the angles would alias"
            )
    if pas is None:
        pas = compute_pas(campaign)
    peaks = find_paths(pas)
    return estimate_delay_amplitude(campaign, [(p.elevation_deg, p.azimuth_deg) for p in peaks])
