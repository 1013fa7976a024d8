"""Shared fixtures: the two hall scenarios at a test-sized OFDM numerology.

The heavyweight pieces (sounding campaigns, the full estimation chain) are
session-scoped; everything downstream reuses them instead of re-synthesizing.
"""

import struct

import pytest

from masim import (
    build_sounding_campaign,
    estimate_psi,
    hall_psi_3p5ghz,
    hall_psi_27p5ghz,
)
from masim.channel import MovementRegion
from masim.estimator import SoundingCampaign
from masim.harness import ScenarioConfig, _tx_symbols, iter_sounding_records
from masim.signals import OfdmNumerology

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


def forge_sample_count(path, n: int) -> None:
    """Overwrite the sample count N in a .maiq record header (bytes 32..40)."""
    blob = bytearray(path.read_bytes())
    struct.pack_into("<Q", blob, 32, n)
    path.write_bytes(bytes(blob))


def records_campaign(cfg: ScenarioConfig, psi) -> SoundingCampaign:
    """cfg's sounding campaign reduced from its time-domain records, as a loaded campaign is.

    build_sounding_campaign draws the same statistics directly; its noise
    follows the same law but not the same draws, so tests that pin the
    record path bit for bit compare against this one.
    """
    tx = _tx_symbols(cfg)
    return SoundingCampaign(iter_sounding_records(cfg, psi, tx), cfg.numerology, tx, cfg.carrier_hz,
                            num_records=cfg.sounding_region.num_points)


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
