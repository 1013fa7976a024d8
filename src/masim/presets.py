"""Bundled campaign presets and reference path sets.

The two scenarios mirror the indoor-hall desk setup the toolkit reproduces:
a sub-6 GHz band at 3.5 GHz probed over a 500 mm track (power) and a
500 x 500 mm plane (sounding), and a millimeter-wave band at 27.5 GHz over
a 50 x 50 mm plane. The bundled path sets are the dominant paths estimated
from sounding sweeps of that hall, amplitudes normalized so the listed
paths carry ~99.5% (3.5 GHz) and ~100% (27.5 GHz) of received power.
"""

from __future__ import annotations

from .channel import MovementRegion, PathComponent, PathStateInfo
from .harness import ScenarioConfig
from .signals import OfdmNumerology

TX_POSITION_MAIN_M = (0.0, 1.3, 6.8)


def hall_psi_3p5ghz() -> PathStateInfo:
    """Five-path indoor-hall PSI estimated at 3.5 GHz (elevation, azimuth, amplitude, delay)."""
    return PathStateInfo(
        paths=(
            PathComponent(-0.5, 49.5, 0.6284, 34.8e-9),
            PathComponent(2.0, 2.0, 0.6075, 22.6e-9),
            PathComponent(1.0, -47.0, 0.4128, 34.8e-9),
            PathComponent(15.5, 51.5, 0.1798, 36.7e-9),
            PathComponent(14.0, -52.0, 0.1673, 40.5e-9),
        ),
        carrier_hz=3.5e9,
        normalized=True,
    )


def hall_psi_27p5ghz() -> PathStateInfo:
    """Three-path indoor-hall PSI estimated at 27.5 GHz."""
    return PathStateInfo(
        paths=(
            PathComponent(3.0, 2.0, 0.8886, 22.7e-9),
            PathComponent(2.5, -48.5, 0.3423, 35.3e-9),
            PathComponent(2.5, 49.5, 0.3053, 34.8e-9),
        ),
        carrier_hz=27.5e9,
        normalized=True,
    )


def scenario_3p5ghz(master_seed: int = 1, noise_power: float = 0.0) -> ScenarioConfig:
    """3.5 GHz campaign: 500 mm 1D power track at 1 mm, 500 x 500 mm sounding at 5 mm."""
    bandwidth = 400e6
    return ScenarioConfig(
        carrier_hz=3.5e9,
        bandwidth_hz=bandwidth,
        tx_position_m=TX_POSITION_MAIN_M,
        region=MovementRegion(x_extent_m=0.5, y_extent_m=0.0, x_step_m=1e-3, y_step_m=1e-3),
        sounding_region=MovementRegion(x_extent_m=0.5, y_extent_m=0.5, x_step_m=5e-3, y_step_m=5e-3),
        numerology=OfdmNumerology.default(),
        noise_power=noise_power,
        tone_f0_hz=bandwidth / 8.0,
        samples_per_measurement=4096,
        master_seed=master_seed,
    )


def scenario_27p5ghz(master_seed: int = 1, noise_power: float = 0.0) -> ScenarioConfig:
    """27.5 GHz campaign: 50 x 50 mm power grid at 0.5 mm, sounding at 1 mm."""
    bandwidth = 400e6
    return ScenarioConfig(
        carrier_hz=27.5e9,
        bandwidth_hz=bandwidth,
        tx_position_m=TX_POSITION_MAIN_M,
        region=MovementRegion(x_extent_m=0.05, y_extent_m=0.05, x_step_m=0.5e-3, y_step_m=0.5e-3),
        sounding_region=MovementRegion(x_extent_m=0.05, y_extent_m=0.05, x_step_m=1e-3, y_step_m=1e-3),
        numerology=OfdmNumerology.default(),
        noise_power=noise_power,
        tone_f0_hz=bandwidth / 8.0,
        samples_per_measurement=4096,
        master_seed=master_seed,
    )
