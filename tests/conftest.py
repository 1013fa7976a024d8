"""Shared fixtures: the two hall scenarios at a test-sized OFDM numerology.

The heavyweight pieces (sounding campaigns, the full estimation chain) are
session-scoped; everything downstream reuses them instead of re-synthesizing.
The time-domain OFDM frames, and their reduction to the statistics a
SoundingCampaign keeps, live here as the oracle of build_sounding_campaign;
so does the conditioning formula written out with the cross-covariance A,
the oracle of its noisy draws.
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
from masim.harness import ScenarioConfig, _snapshot_indices, _tx_symbols
from masim.signals import NoiseSpec, OfdmNumerology, add_noise, derive_seed

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
    noise = NoiseSpec(cfg.noise_power, num.sample_rate_hz)
    positions = cfg.sounding_region.positions_array()
    block = max(1, (1 << 22) // num.frame_samples)  # about 64 MiB of frames at a time
    for start in range(0, len(positions), block):
        frames = sounding_frames(psi, positions[start : start + block], num, tx_symbols)
        for k, frame in enumerate(frames):
            yield add_noise(frame, noise, derive_seed(cfg.master_seed, "sound", start + k))


def records_campaign(cfg: ScenarioConfig, psi) -> SoundingCampaign:
    """cfg's sounding campaign reduced from time-domain records: the oracle of build_sounding_campaign.

    Each record is reduced, one at a time, to its payload samples at
    _snapshot_indices and its h_freq row: the FFT of each symbol's payload
    equalized by the transmit symbols and averaged over the M symbols.
    build_sounding_campaign draws the same statistics directly;
    its noise follows the same law but not the same draws.
    """
    num = cfg.numerology
    tx = _tx_symbols(cfg)
    snap_idx = _snapshot_indices(num)
    den = num.num_subcarriers * tx.T  # (M, I)
    h_freq, snaps = [], []
    for samples in sounding_records(cfg, psi, tx):
        payload = samples.reshape(num.num_symbols, num.samples_per_symbol)[:, num.cp_samples :]
        h_freq.append(np.mean(np.fft.fft(payload, axis=1) / den, axis=0))
        snaps.append(samples[snap_idx])
    return SoundingCampaign(cfg.sounding_region, num, cfg.carrier_hz, np.array(h_freq), np.array(snaps))


def conditioning_campaign(cfg: ScenarioConfig, psi) -> SoundingCampaign:
    """cfg's sounding campaign drawn with the cross-covariance A written out: the oracle of the noisy build.

    The same draws and law as build_sounding_campaign, through the textbook
    form: snapshots = H T + z and h_freq = H + A z + w, with
    A[i, s] = exp(-j 2 pi i k_s / I) / (M I tx[i, m_s]) formed as its own
    (I, n_snap) array, and w = g / sqrt(M) + A V diag(c) V^H A^H g for the
    eigendecomposition A^H A = V diag(lam) V^H.
    """
    num = cfg.numerology
    i_n, m_n = num.num_subcarriers, num.num_symbols
    tx = _tx_symbols(cfg)
    sym, k = np.divmod(_snapshot_indices(num), num.samples_per_symbol)
    k -= num.cp_samples
    subcarrier = np.arange(i_n)
    # (I, n_snap) exp(j 2 pi (i k mod I) / I), looked up in the table of the I roots of unity
    twiddle = np.exp(2j * np.pi * subcarrier / i_n)[np.outer(subcarrier, k) % i_n]
    synth = tx[:, sym] * twiddle  # T
    a = twiddle.conj() / (m_n * i_n * tx[:, sym])  # A
    lam, v = np.linalg.eigh(a.conj().T @ a)
    c = -1.0 / (np.sqrt(np.maximum(1.0 / m_n - lam, 0.0)) + 1.0 / math.sqrt(m_n))
    av = a @ v
    scale = math.sqrt(cfg.noise_power / 2.0)
    h = channel_response(psi, cfg.sounding_region.positions_array(), subcarrier * num.subcarrier_spacing_hz)
    noise = np.empty((len(h), len(k) + i_n), dtype=np.complex128)
    for q, row in enumerate(noise):
        np.random.default_rng(derive_seed(cfg.master_seed, "sound", q)).standard_normal(out=row.view(np.float64))
    noise *= scale
    z, g = noise[:, : len(k)], noise[:, len(k) :]
    snaps = h @ synth + z
    h_freq = h + g / math.sqrt(m_n) + (z + ((g @ av.conj()) * c) @ v.T) @ a.T
    return SoundingCampaign(cfg.sounding_region, num, cfg.carrier_hz, h_freq, snaps)


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
