"""Shared fixtures: the two hall scenarios at a test-sized OFDM numerology.

The heavyweight pieces (sounding campaigns, the full estimation chain) are
session-scoped; everything downstream reuses them instead of re-synthesizing.
The time-domain OFDM frames, and their reduction to the statistics a
SoundingCampaign keeps, live here as the oracle of build_sounding_campaign;
so do the conditional law written out with the cross-covariance A, the
oracle of its noisy draws, the dense snapshot synthesis T, the oracle of
its batched IFFT, and the QPSK grid computed from its bits.
"""

import math

import numpy as np
import pytest

from masim import (
    build_sounding_campaign,
    estimate_psi,
    hall_psi_3p5ghz,
    hall_psi_27p5ghz,
)
from masim.channel import MovementRegion, channel_response
from masim.estimator import SoundingCampaign
from masim.harness import MAX_SNAPSHOTS, ScenarioConfig, _snapshot_indices
from masim.signals import NoiseSpec, OfdmNumerology, add_noise, derive_seed, qpsk_symbols

# 832 x 480 kHz = 399.36 MHz occupied, 52-sample CP: same bandwidth class as
# the default numerology but ~200x fewer samples per frame, so campaign
# synthesis stays in the seconds range.
TEST_NUMEROLOGY = OfdmNumerology(
    subcarrier_spacing_hz=480e3,
    num_subcarriers=832,
    num_symbols=2,
    cp_duration_s=1.0 / (16.0 * 480e3),
)


def make_hi_scenario(master_seed: int = 1, noise_power: float = 0.01) -> ScenarioConfig:
    """27.5 GHz scenario on the 50 mm plane, test numerology, 20 dB SNR by default."""
    return ScenarioConfig(
        carrier_hz=27.5e9,
        bandwidth_hz=400e6,
        tx_position_m=(0.0, 1.3, 6.8),
        region=MovementRegion(0.05, 0.05, 0.5e-3, 0.5e-3),
        sounding_region=MovementRegion(0.05, 0.05, 1e-3, 1e-3),
        numerology=TEST_NUMEROLOGY,
        noise_power=noise_power,
        tone_f0_hz=50e6,
        samples_per_measurement=4096,
        master_seed=master_seed,
    )


def make_lo_scenario(master_seed: int = 11, noise_power: float = 0.0) -> ScenarioConfig:
    """3.5 GHz scenario: 500 mm line for power sweeps, 500 mm plane for sounding."""
    return ScenarioConfig(
        carrier_hz=3.5e9,
        bandwidth_hz=400e6,
        tx_position_m=(-0.8, 1.3, 6.8),
        region=MovementRegion(0.5, 0.0, 1e-3, 1e-3),
        sounding_region=MovementRegion(0.5, 0.5, 5e-3, 5e-3),
        numerology=TEST_NUMEROLOGY,
        noise_power=noise_power,
        tone_f0_hz=50e6,
        samples_per_measurement=4096,
        master_seed=master_seed,
    )


def tx_grid(cfg: ScenarioConfig) -> np.ndarray:
    """The (I, M) QPSK grid every sounding frame of cfg carries, seeded by derive_seed(master_seed, "tx").

    build_sounding_campaign draws only its first column, the prefix of the same seeded draws.
    """
    num = cfg.numerology
    return qpsk_symbols(num.num_subcarriers, num.num_symbols, derive_seed(cfg.master_seed, "tx"))


def snapshot_synthesis(cfg: ScenarioConfig) -> np.ndarray:
    """T (I, n_snap), which makes the snapshots from the subcarriers: T[i, s] = tx[i, 0] exp(j 2 pi i k_s / I).

    The dense form of the build's batched IFFT: its snapshots are h_freq T plus noise.
    """
    i_n = cfg.numerology.num_subcarriers
    subcarrier = np.arange(i_n)
    root_index = np.multiply.outer(subcarrier, _snapshot_indices(cfg.numerology)) % i_n  # i k_s mod I
    return tx_grid(cfg)[:, :1] * np.exp(2j * np.pi * subcarrier / i_n)[root_index]


def frame_snapshot_indices(numerology: OfdmNumerology) -> np.ndarray:
    """Frame indices of min(MAX_SNAPSHOTS, I) payload samples of the first symbol, evenly spread, CP samples excluded.

    Built from the explicit list of the first symbol's payload frame indices:
    the oracle of harness._snapshot_indices, which returns the same samples as
    payload offsets without that list.
    """
    payload_idx = numerology.cp_samples + np.arange(numerology.num_subcarriers)
    if MAX_SNAPSHOTS < len(payload_idx):
        sel = np.unique(np.round(np.linspace(0, len(payload_idx) - 1, MAX_SNAPSHOTS)).astype(int))
        payload_idx = payload_idx[sel]
    return payload_idx


def sounding_frames(psi, positions, numerology, tx_symbols) -> np.ndarray:
    """Noiseless received OFDM frames for a block of positions, (Q, frame_samples).

    Frequency-domain synthesis: the per-position channel response on the I
    occupied subcarriers multiplies each symbol's subcarrier grid; one
    batched IFFT per symbol gives its payload, and the last cp_samples of
    the payload are prepended as the cyclic prefix.
    """
    n_sub = numerology.num_subcarriers
    h_freq = channel_response(psi, positions, np.arange(n_sub) * numerology.subcarrier_spacing_hz)  # (Q, I)
    n_cp = numerology.cp_samples
    sym_len = n_sub + n_cp
    frames = np.empty((len(positions), numerology.frame_samples), dtype=np.complex128)
    for m in range(numerology.num_symbols):
        payload = np.fft.ifft(tx_symbols[:, m][None, :] * h_freq, axis=1) * n_sub
        frames[:, m * sym_len : m * sym_len + n_cp] = payload[:, n_sub - n_cp :]
        frames[:, m * sym_len + n_cp : (m + 1) * sym_len] = payload
    return frames


def sounding_records(cfg: ScenarioConfig, psi, tx_symbols):
    """Yield one noisy time-domain OFDM capture per point of cfg.sounding_region, row-major.

    Position q's noise is seeded by derive_seed(master_seed, "sound", q).
    """
    num = cfg.numerology
    noise = NoiseSpec(cfg.noise_power, num.occupied_bandwidth_hz)
    positions = cfg.sounding_region.positions_array()
    block = max(1, (1 << 22) // num.frame_samples)  # about 64 MiB of frames at a time
    for start in range(0, len(positions), block):
        frames = sounding_frames(psi, positions[start : start + block], num, tx_symbols)
        for k, frame in enumerate(frames):
            yield add_noise(frame, noise, derive_seed(cfg.master_seed, "sound", start + k))


def records_campaign(cfg: ScenarioConfig, psi) -> SoundingCampaign:
    """cfg's sounding campaign reduced from time-domain records: the oracle of build_sounding_campaign.

    Each record is reduced, one at a time, to its payload samples at
    frame_snapshot_indices and its h_freq row: the FFT of each symbol's payload
    equalized by the transmit symbols and averaged over the M symbols.
    build_sounding_campaign draws the same statistics directly;
    its noise follows the same law but not the same draws.
    """
    num = cfg.numerology
    tx = tx_grid(cfg)
    snap_idx = frame_snapshot_indices(num)
    den = num.num_subcarriers * tx.T  # (M, I)
    h_freq, snaps = [], []
    for samples in sounding_records(cfg, psi, tx):
        payload = samples.reshape(num.num_symbols, num.samples_per_symbol)[:, num.cp_samples :]
        h_freq.append(np.mean(np.fft.fft(payload, axis=1) / den, axis=0))
        snaps.append(samples[snap_idx])
    return SoundingCampaign(cfg.sounding_region, num, cfg.carrier_hz, np.hstack([h_freq, snaps]))


def conditioning_campaign(cfg: ScenarioConfig, psi) -> SoundingCampaign:
    """cfg's sounding campaign drawn by the textbook conditional law: the oracle of the noisy build.

    The same draws and law as build_sounding_campaign, with the
    cross-covariance A[i, s] = exp(-j 2 pi i k_s / I) / (M I tx[i, m_s]) of
    h_freq's noise with the snapshot noise over s2 formed as its own
    (I, n_snap) array: h_freq = H + w with w ~ CN(0, s2/M) white, and the
    snapshot noise given w has mean C_zw C_ww^-1 w = M A^H w and covariance
    s2 (1 - M A^H A), drawn as its Hermitian root R (from eigh of that
    covariance) applied to white e ~ CN(0, s2). As rows: snapshots =
    H T + w M conj(A) + e R^T. The oracle does not assume what the build
    does, that this covariance is s2 (1 - 1/M) times the identity.
    """
    num = cfg.numerology
    i_n, m_n = num.num_subcarriers, num.num_symbols
    tx = tx_grid(cfg)
    sym, k = np.divmod(frame_snapshot_indices(num), num.samples_per_symbol)
    k -= num.cp_samples
    subcarrier = np.arange(i_n)
    # (I, n_snap) exp(j 2 pi (i k mod I) / I), looked up in the table of the I roots of unity
    twiddle = np.exp(2j * np.pi * subcarrier / i_n)[np.outer(subcarrier, k) % i_n]
    synth = tx[:, sym] * twiddle  # T
    a = twiddle.conj() / (m_n * i_n * tx[:, sym])  # A
    mu, v = np.linalg.eigh(np.eye(len(k)) - m_n * (a.conj().T @ a))
    root = (v * np.sqrt(np.maximum(mu, 0.0))) @ v.conj().T  # R
    scale = math.sqrt(cfg.noise_power / 2.0)
    h = channel_response(psi, cfg.sounding_region.positions_array(), subcarrier * num.subcarrier_spacing_hz)
    noise = np.empty((len(h), len(k) + i_n), dtype=np.complex128)
    for q, row in enumerate(noise):
        np.random.default_rng(derive_seed(cfg.master_seed, "sound", q)).standard_normal(out=row.view(np.float64))
    noise *= scale
    e, w = noise[:, : len(k)], noise[:, len(k) :] / math.sqrt(m_n)
    h_freq = h + w
    snaps = h @ synth + w @ (m_n * a.conj()) + e @ root.T
    return SoundingCampaign(cfg.sounding_region, num, cfg.carrier_hz, np.hstack([h_freq, snaps]))


def arithmetic_qpsk(num_subcarriers: int, num_symbols: int, seed: int) -> np.ndarray:
    """The seeded QPSK grid computed element by element from its bits: the oracle of qpsk_symbols' table lookup.

    The bit pairs are drawn symbol by symbol, (M, I, 2), and the grid is their transpose (I, M).
    """
    bits = np.random.default_rng(seed).integers(0, 2, size=(num_symbols, num_subcarriers, 2))
    re = 2.0 * bits[..., 0] - 1.0
    im = 2.0 * bits[..., 1] - 1.0
    return np.ascontiguousarray(((re + 1j * im) / np.sqrt(2.0 * num_subcarriers)).T)


# Campaign builds and estimates take a second or more each, so they are
# memoized at module level rather than only fixture-scoped: the acceptance
# tests call the get_* forms directly inside their timed sections (paying
# the cost exactly once per process) and the fixtures below resolve to the
# same objects.
_cache: dict = {}


def get_hi_campaign():
    """51x51 noisy sounding sweep of the 27.5 GHz hall paths (20 dB SNR)."""
    if "hi_campaign" not in _cache:
        _cache["hi_campaign"] = build_sounding_campaign(make_hi_scenario(), hall_psi_27p5ghz())
    return _cache["hi_campaign"]


def get_hi_estimate():
    if "hi_estimate" not in _cache:
        _cache["hi_estimate"] = estimate_psi(get_hi_campaign())
    return _cache["hi_estimate"]


def get_lo_campaign():
    """101x101 noiseless sounding sweep of the 3.5 GHz hall paths."""
    if "lo_campaign" not in _cache:
        _cache["lo_campaign"] = build_sounding_campaign(make_lo_scenario(), hall_psi_3p5ghz())
    return _cache["lo_campaign"]


def get_lo_estimate():
    if "lo_estimate" not in _cache:
        _cache["lo_estimate"] = estimate_psi(get_lo_campaign())
    return _cache["lo_estimate"]


@pytest.fixture(scope="session")
def hi_psi():
    return hall_psi_27p5ghz()


@pytest.fixture(scope="session")
def lo_psi():
    return hall_psi_3p5ghz()


@pytest.fixture(scope="session")
def hi_campaign():
    return get_hi_campaign()


@pytest.fixture(scope="session")
def hi_estimate():
    return get_hi_estimate()


@pytest.fixture(scope="session")
def lo_campaign():
    return get_lo_campaign()


@pytest.fixture(scope="session")
def lo_estimate():
    return get_lo_estimate()
