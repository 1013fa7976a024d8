"""Bundled presets: each scenario pairs with its hall path set and keeps the paper's grids and frame."""

import pytest

from masim.harness import ScenarioConfig, _check_carrier
from masim.presets import hall_psi_3p5ghz, hall_psi_27p5ghz, scenario_3p5ghz, scenario_27p5ghz
from masim.signals import OfdmNumerology

PRESETS = {
    "3p5ghz": (scenario_3p5ghz, hall_psi_3p5ghz, (1, 501), (101, 101)),
    "27p5ghz": (scenario_27p5ghz, hall_psi_27p5ghz, (101, 101), (51, 51)),
}


@pytest.fixture(params=sorted(PRESETS))
def preset(request):
    make_cfg, make_psi, power_shape, sounding_shape = PRESETS[request.param]
    return make_cfg(), make_psi(), power_shape, sounding_shape


def test_carrier_agrees_with_hall_psi(preset):
    cfg, psi, _, _ = preset
    _check_carrier(cfg, psi)


def test_hall_psi_power_window(preset):
    # the bundled paths carry nearly all received power: sum(a^2) in [0.99, 1.01]
    _, psi, _, _ = preset
    assert 0.99 <= sum(p.amplitude**2 for p in psi.paths) <= 1.01


def test_grids(preset):
    cfg, _, power_shape, sounding_shape = preset
    assert cfg.region.shape == power_shape
    assert cfg.sounding_region.shape == sounding_shape


def test_default_frame(preset):
    cfg, _, _, _ = preset
    assert cfg.numerology == OfdmNumerology.default()
    assert cfg.numerology.frame_samples == 336_600


def test_json_round_trip(preset):
    cfg, _, _, _ = preset
    assert ScenarioConfig.from_json_dict(cfg.to_json_dict()) == cfg
