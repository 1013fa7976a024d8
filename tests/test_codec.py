"""The strict JSON codec: field-driven decoding, malformed inputs, format pinning."""

import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masim.channel import MovementRegion, PathComponent, PathStateInfo
from masim.cli import main as cli_main
from masim.codec import ConfigError, decode, encode
from masim.harness import CampaignManifest, CompareReport, ScenarioConfig
from masim.presets import hall_psi_27p5ghz

from conftest import make_hi_scenario


def valid_manifest() -> dict:
    # a two-point sounding line: one digest per point
    scenario = dataclasses.replace(make_hi_scenario(), sounding_region=MovementRegion(1e-3, 0.0, 1e-3, 1e-3))
    return CampaignManifest(
        mode="ofdm",
        scenario=scenario,
        sha256=(hashlib.sha256(b"a").hexdigest(), hashlib.sha256(b"b").hexdigest()),
    ).to_json_dict()


def valid_estimate() -> dict:
    # an estimated_psi.json as save_psi writes it: descending amplitudes
    return encode(PathStateInfo(
        paths=(PathComponent(3.0, 2.0, 0.9, 22.7e-9), PathComponent(2.5, -48.5, 0.3, 35.3e-9)),
        carrier_hz=27.5e9,
    ))


READERS = {
    "scenario": (lambda: make_hi_scenario().to_json_dict(), ScenarioConfig.from_json_dict),
    "psi": (lambda: encode(hall_psi_27p5ghz()), PathStateInfo.from_json_dict),
    "manifest": (valid_manifest, CampaignManifest.from_json_dict),
    "estimate": (valid_estimate, PathStateInfo.from_json_dict),
}


def node_paths(value, prefix=()):
    """Key/index path of every value below the root of a JSON tree."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def replaced(data, path, new):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return data


# one of each JSON kind, plus the numbers float() and int() mishandle
SPECIAL_VALUES = [None, True, "832", [], [1.0], {}, {"x": 1}, math.inf, -math.inf, 10**400, -(10**400), 1.7]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.text(max_size=5)
    | st.sampled_from(SPECIAL_VALUES)
    | st.integers()
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


class TestRoundTrip:
    def test_scenario_hash_is_pinned(self):
        # the hash covers the canonical JSON encoding, so format drift shows here
        assert make_hi_scenario().scenario_hash() == "8703a553b1ef"

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_reader_round_trips_its_writer(self, name):
        make, read = READERS[name]
        data = make()
        assert read(data).to_json_dict() == data

    def test_complex_and_tuple_encoding(self):
        report = CompareReport(1.0, 0.5, 0.0, 0.0, (1, -2))
        assert report.to_json_dict()["argmax_shift_steps"] == [1, -2]
        assert CompareReport.from_json_dict(report.to_json_dict()) == report

    def test_ints_widen_to_float_fields(self):
        data = make_hi_scenario().to_json_dict()
        data["region"]["y_extent_m"] = 0
        cfg = ScenarioConfig.from_json_dict(data)
        assert cfg.region.y_extent_m == 0.0 and isinstance(cfg.region.y_extent_m, float)


class TestStrictness:
    def test_missing_field_named(self):
        data = make_hi_scenario().to_json_dict()
        del data["region"]["x_step_m"]
        with pytest.raises(ConfigError, match=r"ScenarioConfig\.region: missing fields \['x_step_m'\]"):
            ScenarioConfig.from_json_dict(data)

    def test_field_path_in_message(self):
        data = encode(hall_psi_27p5ghz())
        data["paths"][1]["delay_s"] = "20ns"
        with pytest.raises(ConfigError, match=r"PathStateInfo\.paths\[1\]\.delay_s: expected a number, got str"):
            PathStateInfo.from_json_dict(data)

    def test_constructor_value_error_becomes_config_error(self):
        data = encode(hall_psi_27p5ghz())
        data["paths"][0]["elevation_deg"] = 91.0
        with pytest.raises(ConfigError, match="elevation_deg out of"):
            PathStateInfo.from_json_dict(data)

    def test_fixed_length_tuple(self):
        data = make_hi_scenario().to_json_dict()
        data["tx_position_m"] = [0.0, 1.3]
        with pytest.raises(ConfigError, match="expected 3 items, got 2"):
            ScenarioConfig.from_json_dict(data)

    def test_manifest_format_checked(self):
        data = valid_manifest()
        assert data["format"] == "maiq-campaign/7"
        for old in (f"maiq-campaign/{n}" for n in range(7)):
            data["format"] = old
            with pytest.raises(ConfigError, match="unsupported manifest format"):
                CampaignManifest.from_json_dict(data)
        del data["format"]
        with pytest.raises(ConfigError, match="format"):
            CampaignManifest.from_json_dict(data)

    def test_optional_fields_still_required(self):
        # a dataclass default does not make a field optional on disk
        @dataclasses.dataclass(frozen=True)
        class WithDefault:
            step_m: float
            scale: float = 1.0

        assert decode(WithDefault, {"step_m": 1e-3, "scale": 1.0}, "WithDefault") == WithDefault(1e-3)
        with pytest.raises(ConfigError, match="missing fields \\['scale'\\]"):
            decode(WithDefault, {"step_m": 1e-3}, "WithDefault")

    def test_unsupported_type_is_a_programming_error(self):
        with pytest.raises(TypeError):
            decode(dict, {}, "x")

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_every_node_with_every_special_value(self, name):
        make, read = READERS[name]
        valid = make()
        for path in node_paths(valid):
            for value in SPECIAL_VALUES:
                try:
                    read(replaced(valid, path, value))
                except ConfigError:
                    pass

    @pytest.mark.parametrize("name", sorted(READERS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), value=json_values)
    def test_any_node_replacement_decodes_or_raises_config_error(self, name, data, value):
        make, read = READERS[name]
        valid = make()
        path = data.draw(st.sampled_from(list(node_paths(valid))))
        try:
            read(replaced(valid, path, value))
        except ConfigError:
            pass


# one malformed scenario or path state field per case: a null, a non-finite
# or fractional seed, a scalar for a list, a string for an int or a float
MALFORMED = [
    ("scenario", ("carrier_hz",), None),
    ("scenario", ("master_seed",), math.inf),
    ("scenario", ("master_seed",), 1.7),
    ("scenario", ("tx_position_m",), 5),
    ("scenario", ("numerology", "num_subcarriers"), "832"),
    ("psi", ("paths",), 5),
    ("psi", ("paths",), [1]),
    ("psi", ("paths", 0, "amplitude"), None),
    ("psi", ("carrier_hz",), "false"),
]


@pytest.mark.parametrize("which,path,value", MALFORMED)
def test_cli_rejects_malformed_input(tmp_path, capsys, which, path, value):
    cfg = make_hi_scenario().to_json_dict()
    psi = encode(hall_psi_27p5ghz())
    if which == "scenario":
        cfg = replaced(cfg, path, value)
    else:
        psi = replaced(psi, path, value)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "psi.json").write_text(json.dumps(psi))
    rc = cli_main(["simulate", "--config", str(tmp_path / "cfg.json"), "--psi", str(tmp_path / "psi.json"),
                   "--out", str(tmp_path / "gain.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "gain.csv").exists()
