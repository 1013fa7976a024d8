"""Campaign serialization, synthesis fidelity, pipeline caching, map comparison, CLI."""

import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import masim
from masim import estimator, harness
from masim.channel import MAX_STATE_PATHS, DbMap, MovementRegion, PathComponent, PathStateInfo, Position, gain_map
from masim.codec import encode
from masim.cli import main as cli_main
from masim.harness import (
    MAX_SNAPSHOTS,
    CampaignManifest,
    ConfigError,
    ScenarioConfig,
    StageError,
    _row_shape,
    _snapshot_indices,
    build_sounding_campaign,
    compare_maps,
    iter_tone_records,
    load_campaign,
    load_psi,
    load_sounding_campaign,
    measure_campaign,
    run_pipeline,
    save_psi,
    synthesize_campaign,
)
from masim.estimator import ANGLE_STEP_DEG, estimate_psi
from masim.presets import hall_psi_3p5ghz, hall_psi_27p5ghz, scenario_27p5ghz
from masim.signals import (
    NoiseSpec,
    OfdmNumerology,
    add_noise,
    apply_channel,
    derive_seed,
    gen_tone,
    qpsk_symbols,
    row_blocks,
    write_iq_record,
)

from conftest import (
    TEST_NUMEROLOGY,
    conditioning_campaign,
    frame_snapshot_indices,
    make_hi_scenario,
    records_campaign,
    snapshot_synthesis,
    sounding_records,
    tx_grid,
)


def pipeline_config(master_seed=21, noise_power=0.01):
    """Small but fully workable scenario: 21-point tone line, 26x26 sounding plane."""
    cfg = make_hi_scenario(master_seed=master_seed, noise_power=noise_power)
    return ScenarioConfig.from_json_dict(
        {
            **cfg.to_json_dict(),
            "region": {"x_extent_m": 0.02, "y_extent_m": 0.0, "x_step_m": 1e-3, "y_step_m": 1e-3},
            "sounding_region": {
                "x_extent_m": 0.025, "y_extent_m": 0.025, "x_step_m": 1e-3, "y_step_m": 1e-3,
            },
        }
    )


ALL_STAGES = ["sound", "estimate", "measure", "optimize", "export"]


@pytest.fixture(scope="module")
def five_stage_run(tmp_path_factory):
    """Every stage of pipeline_config() at the default stage parameters."""
    return run_pipeline(pipeline_config(), hall_psi_27p5ghz(), ALL_STAGES, tmp_path_factory.mktemp("pipeline"))


def multi_block_config():
    """pipeline_config() with campaigns of three record files: 21 tone captures of 2**17 samples
    (7 a block), and 51 x 51 sounding positions of 960 statistics (867 a block)."""
    return dataclasses.replace(pipeline_config(), samples_per_measurement=2**17,
                               sounding_region=MovementRegion(0.05, 0.05, 1e-3, 1e-3))


@pytest.fixture(scope="module")
def multi_block(tmp_path_factory):
    """The tone and the ofdm campaign of multi_block_config(), by mode; tests tamper with copies."""
    root = tmp_path_factory.mktemp("multi_block")
    dirs = {mode: synthesize_campaign(multi_block_config(), hall_psi_27p5ghz(), mode, root / mode)
            for mode in ("tone", "ofdm")}
    for cdir in dirs.values():
        assert sorted(p.name for p in cdir.iterdir()) == [f"block_000{b}.maiq" for b in range(3)] + ["manifest.json"]
    return dirs


def campaign_copy(multi_block, mode, tmp_path) -> Path:
    return Path(shutil.copytree(multi_block[mode], tmp_path / "camp"))


def input_files(tmp_path, cfg=None):
    """Write pipeline_config() (or cfg) and the 27.5 GHz hall paths for the CLI."""
    cfg_path = tmp_path / "scenario.json"
    psi_path = tmp_path / "psi.json"
    (cfg or pipeline_config()).save(cfg_path)
    save_psi(psi_path, hall_psi_27p5ghz())
    return str(cfg_path), str(psi_path)


class TestScenarioConfig:
    def test_json_round_trip(self):
        cfg = make_hi_scenario()
        assert ScenarioConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = make_hi_scenario()
        path = tmp_path / "scenario.json"
        cfg.save(path)
        assert ScenarioConfig.load(path) == cfg

    def test_hash_stable_under_key_order(self):
        cfg = make_hi_scenario()
        data = cfg.to_json_dict()
        reordered = dict(reversed(list(data.items())))
        assert ScenarioConfig.from_json_dict(reordered).scenario_hash() == cfg.scenario_hash()

    @pytest.mark.parametrize("where", ["top", "region", "numerology"])
    def test_unknown_keys_rejected_at_every_level(self, where):
        data = make_hi_scenario().to_json_dict()
        if where == "top":
            data["bogus"] = 1
        elif where == "region":
            data["region"]["bogus"] = 1
        else:
            data["numerology"]["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            ScenarioConfig.from_json_dict(data)

    def test_rejects_oversized_numerology(self):
        data = make_hi_scenario().to_json_dict()
        data["bandwidth_hz"] = 100e6  # occupied 399.36 MHz will not fit
        with pytest.raises(ConfigError, match="bandwidth"):
            ScenarioConfig.from_json_dict(data)

    @pytest.mark.parametrize("patch", [  # (fields patched in, message match)
        ({"samples_per_measurement": 2**40}, "samples_per_measurement .*-sample cap per tone record"),
        # frames of 884 samples: no record holds a frame, but the cap bounds the frame the sounder sends
        ({"numerology": {**TEST_NUMEROLOGY.to_json_dict(), "num_symbols": 2**30}},
         r"frame_samples .*-sample cap per frame \(M symbols of I \+ CP samples\)"),
    ])
    def test_rejects_oversized_records(self, patch):
        fields, match = patch
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig.from_json_dict({**make_hi_scenario().to_json_dict(), **fields})

    def test_campaign_cap_counts_the_record_length(self, monkeypatch):
        # at I = 16 a record holds 16 + 16 values, not 16 + MAX_SNAPSHOTS: a cap of exactly
        # 100 such records takes a 10 x 10 sweep and refuses a 101-point one; nothing is drawn
        base = sounding_config(TINY_NUM)
        monkeypatch.setattr(harness, "MAX_CAMPAIGN_BYTES", 100 * 32 * 16)
        fits = dataclasses.replace(base, sounding_region=MovementRegion(9e-3, 9e-3, 1e-3, 1e-3))
        assert _row_shape(fits, "ofdm") == (100, 32)
        with pytest.raises(ConfigError, match="1 x 101 sounding_region holds 51712 bytes .* over the 51200-byte cap"):
            dataclasses.replace(base, sounding_region=MovementRegion(0.1, 0.0, 1e-3, 1e-3))

    def test_rejects_out_of_band_tone(self):
        data = make_hi_scenario().to_json_dict()
        data["tone_f0_hz"] = 300e6
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json_dict(data)

    def test_rejects_negative_seed(self):
        data = make_hi_scenario().to_json_dict()
        data["master_seed"] = -1
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json_dict(data)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ScenarioConfig.load(tmp_path / "nope.json")


class TestPsiSerialization:
    def test_round_trip_exact(self):
        psi = hall_psi_27p5ghz()
        back = PathStateInfo.from_json_dict(encode(psi))
        assert back == psi
        for a, b in zip(back.paths, psi.paths):
            assert a.delay_s == b.delay_s  # bitwise, not approximately

    def test_file_round_trip(self, tmp_path):
        psi = hall_psi_27p5ghz()
        path = tmp_path / "psi.json"
        save_psi(path, psi)
        assert load_psi(path) == psi

    def test_rejects_unknown_fields(self):
        data = encode(hall_psi_27p5ghz())
        data["paths"][0]["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            PathStateInfo.from_json_dict(data)


class TestToneSynthesis:
    def test_records_match_direct_application(self):
        cfg = pipeline_config()
        psi = hall_psi_27p5ghz()
        tone = gen_tone(cfg.tone_f0_hz, cfg.samples_per_measurement, 1.0 / cfg.bandwidth_hz)
        spec = NoiseSpec(cfg.noise_power, cfg.bandwidth_hz)
        captures = list(iter_tone_records(cfg, psi))
        assert len(captures) == cfg.region.num_points
        positions = [Position(x, y) for y in cfg.region.grid_y() for x in cfg.region.grid_x()]
        for i, (samples, pos) in enumerate(zip(captures, positions)):
            expect = add_noise(apply_channel(tone, psi, pos), spec, derive_seed(cfg.master_seed, "tone", i))
            np.testing.assert_array_equal(samples, expect)

    def test_carrier_checked_at_call(self):
        # a refusal needs no iteration, so a caller can check before it makes a directory
        with pytest.raises(ConfigError, match="carrier"):
            iter_tone_records(pipeline_config(), hall_psi_3p5ghz())


class TestSoundingSynthesis:
    def test_vectorized_matches_per_record_application(self):
        # the frame oracle of the tests against a reference: per-path response H[i]
        # at each position, then each symbol's payload as an explicit I-point
        # inverse DFT with its CP
        cfg = pipeline_config(noise_power=0.0)
        psi = hall_psi_27p5ghz()
        num = TEST_NUMEROLOGY
        tx_symbols = qpsk_symbols(num.num_subcarriers, num.num_symbols, derive_seed(cfg.master_seed, "tx"))
        i_idx = np.arange(num.num_subcarriers)
        idft = np.exp(2j * np.pi * np.outer(i_idx, i_idx) / num.num_subcarriers)  # [k, i]
        positions = cfg.sounding_region.positions_array()
        for i, samples in enumerate(sounding_records(cfg, psi, tx_symbols)):
            if i % 97 != 0:  # spot-check; the full sweep is 676 records
                continue
            x, y = positions[i]
            h_i = np.zeros(num.num_subcarriers, dtype=complex)
            for path in psi.paths:
                el, az = math.radians(path.elevation_deg), math.radians(path.azimuth_deg)
                d = x * math.cos(el) * math.sin(az) + y * math.sin(el)
                h_i += path.amplitude * np.exp(
                    -2j * np.pi * (d / psi.wavelength_m + (psi.carrier_hz + i_idx * num.subcarrier_spacing_hz)
                                   * path.delay_s)
                )
            payload = idft @ (tx_symbols * h_i[:, None])  # (I, M)
            expect = np.concatenate([payload[-num.cp_samples:], payload]).T.reshape(-1)
            np.testing.assert_allclose(samples, expect, atol=1e-12)

    def test_noise_seeds_are_position_indexed(self, five_stage_run):
        # record q's h_freq noise is the last I complex normals of derive_seed(master_seed, "sound", q),
        # scaled to CN(0, s2/M)
        cfg = pipeline_config()
        manifest, records = load_campaign(five_stage_run.artifacts["sounding_campaign"])
        clean = build_sounding_campaign(dataclasses.replace(cfg, noise_power=0.0), hall_psi_27p5ghz())
        num = cfg.numerology
        i_n, scale = num.num_subcarriers, math.sqrt(cfg.noise_power / (2.0 * num.num_symbols))
        assert len(records) == cfg.sounding_region.num_points
        assert len(manifest.sha256) == len(row_blocks(*_row_shape(cfg, "ofdm"))) == 1
        for q, samples in enumerate(records):
            w = samples[:i_n] - clean.h_freq[q]
            normals = np.random.default_rng(derive_seed(cfg.master_seed, "sound", q)).standard_normal(2 * len(samples))
            np.testing.assert_allclose(w, scale * normals[-2 * i_n:].view(complex), rtol=0, atol=1e-12)


def sounding_config(numerology, extent=(0.005, 0.005), step=1e-3, master_seed=21, noise_power=0.0):
    """pipeline_config() sounding an extent (x, y) at step with the given numerology."""
    cfg = pipeline_config(master_seed=master_seed, noise_power=noise_power)
    return dataclasses.replace(cfg, numerology=numerology,
                               sounding_region=MovementRegion(extent[0], extent[1], step, step))


# M >= 3 symbols; I = 16 < MAX_SNAPSHOTS, so all 16 payload samples of the first symbol are snapshots
TINY_NUM = OfdmNumerology(subcarrier_spacing_hz=480e3, num_subcarriers=16, num_symbols=12,
                          cp_duration_s=2.0 / (16 * 480e3))


class TestInMemoryCampaign:
    """build_sounding_campaign draws the statistics the record reduction would give."""

    @pytest.mark.parametrize("numerology", [TEST_NUMEROLOGY, TINY_NUM], ids=["test", "tiny"])
    def test_noiseless_matches_record_reduction(self, numerology):
        cfg = sounding_config(numerology)
        psi = hall_psi_27p5ghz()
        direct, reduced = build_sounding_campaign(cfg, psi), records_campaign(cfg, psi)
        assert direct.region == reduced.region
        np.testing.assert_allclose(direct.h_freq, reduced.h_freq, rtol=0, atol=1e-12)
        np.testing.assert_allclose(direct.samples_matrix(), reduced.samples_matrix(), rtol=0, atol=1e-12)
        assert not direct.h_freq.flags.writeable

    @pytest.mark.parametrize("numerology", [TEST_NUMEROLOGY, TINY_NUM], ids=["test", "tiny"])
    def test_noisy_matches_conditioning_oracle(self, numerology):
        # the build forms A = conj(T) / M from T alone; the oracle forms A on its own
        cfg = sounding_config(numerology, extent=(0.009, 0.006), noise_power=0.3)
        psi = hall_psi_27p5ghz()
        built, oracle = build_sounding_campaign(cfg, psi), conditioning_campaign(cfg, psi)
        np.testing.assert_allclose(built.h_freq, oracle.h_freq, rtol=0, atol=1e-12)
        np.testing.assert_allclose(built.samples_matrix(), oracle.samples_matrix(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("numerology", [TEST_NUMEROLOGY, TINY_NUM], ids=["test", "tiny"])
    def test_transmit_symbols_have_constant_modulus(self, numerology):
        # |tx|^2 = 1/I is what makes the cross-covariance A equal conj(T) / M
        tx = tx_grid(sounding_config(numerology))
        np.testing.assert_allclose(numerology.num_subcarriers * np.abs(tx) ** 2, 1.0, rtol=0, atol=1e-15)

    def test_noise_follows_the_record_law(self):
        # 60 x 60 positions, each its own noise seed: h_freq noise CN(0, s2/M) white
        # across subcarriers, white snapshot noise CN(0, s2), cross-covariance s2 * A with
        # A[i, s] = exp(-j 2 pi i k_s / I) / (M I tx[i, 0]) for snapshot s at sample k_s of the first symbol
        s2, num = 0.3, TINY_NUM
        i_n, m_n = num.num_subcarriers, num.num_symbols
        cfg = sounding_config(num, extent=(0.059, 0.059), noise_power=s2)
        psi = hall_psi_27p5ghz()
        noisy = build_sounding_campaign(cfg, psi)
        clean = build_sounding_campaign(dataclasses.replace(cfg, noise_power=0.0), psi)
        h = noisy.h_freq - clean.h_freq  # (N, I)
        z = noisy.samples_matrix() - clean.samples_matrix()  # (N, n_snap)
        n = len(h)
        assert n == 3600 and z.shape[1] == i_n
        # 5 standard errors of each estimate, from the sample count
        tol = 5.0 / math.sqrt(n)
        np.testing.assert_allclose(np.mean(np.abs(h) ** 2, axis=0), s2 / m_n, rtol=tol)
        np.testing.assert_allclose(np.mean(np.abs(z) ** 2, axis=0), s2, rtol=tol)
        cov_h, cov_z = h.T @ h.conj() / n, z.T @ z.conj() / n
        assert np.max(np.abs(cov_h - np.diag(np.diag(cov_h)))) < tol * s2 / m_n
        assert np.max(np.abs(cov_z - np.diag(np.diag(cov_z)))) < tol * s2
        assert np.max(np.abs(np.mean(h, axis=0))) < tol * math.sqrt(s2 / m_n)
        k = np.arange(i_n)  # I = 16 < 128: every payload sample of the first symbol
        idx = np.arange(i_n)[:, None]
        a = np.exp(-2j * np.pi * idx * k / i_n) / (m_n * i_n * tx_grid(cfg)[:, :1])
        cross = h.T @ z.conj() / n  # (I, n_snap)
        assert np.max(np.abs(cross - s2 * a)) < tol * s2 / math.sqrt(m_n)

    def test_positions_keep_their_draws_when_the_sweep_grows(self):
        # rows added to the end of the sweep leave the earlier positions' statistics
        # bit-identical, across a change of the position blocks too
        psi = hall_psi_27p5ghz()
        small = build_sounding_campaign(sounding_config(TEST_NUMEROLOGY, (0.05, 0.03), noise_power=0.01), psi)
        large = build_sounding_campaign(sounding_config(TEST_NUMEROLOGY, (0.05, 0.04), noise_power=0.01), psi)
        q = small.num_positions
        assert (q, large.num_positions) == (51 * 31, 51 * 41)
        np.testing.assert_array_equal(large.region.positions_array()[:q], small.region.positions_array())
        np.testing.assert_array_equal(large.h_freq[:q], small.h_freq)
        np.testing.assert_array_equal(large.samples_matrix()[:q], small.samples_matrix())

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 12).flatmap(lambda n: st.sampled_from([(d, n // d) for d in range(1, n + 1) if n % d == 0])),
        st.sampled_from([TEST_NUMEROLOGY, TINY_NUM]),
        st.integers(0, 2**32),
    )
    def test_small_sweeps_keep_the_rows_of_a_larger_one(self, grid, numerology, master_seed):
        # a sweep of 2 to 12 positions is one block of a few rows; no product may reach
        # numpy's single-row kernel, so each row is bit for bit the larger sweep's
        nx, ny = grid
        psi = hall_psi_27p5ghz()
        small, large = (
            build_sounding_campaign(sounding_config(numerology, ((nx - 1) * 1e-3, (rows - 1) * 1e-3),
                                                    master_seed=master_seed, noise_power=0.01), psi)
            for rows in (ny, ny + 30)
        )
        q = small.num_positions
        assert q == nx * ny
        np.testing.assert_array_equal(large.region.positions_array()[:q], small.region.positions_array())
        np.testing.assert_array_equal(large.h_freq[:q], small.h_freq)
        np.testing.assert_array_equal(large.samples_matrix()[:q], small.samples_matrix())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4096), st.integers(1, 256), st.integers(0, 2**32))
    def test_snapshot_synthesis_is_orthonormal(self, num_subcarriers, num_symbols, master_seed):
        # distinct offsets of one symbol and |tx|^2 = 1/I make T^H T the identity, so the
        # snapshot noise given h_freq's is white: the law build_sounding_campaign draws
        num = OfdmNumerology(15e3, num_subcarriers, num_symbols, 0.0)
        k = _snapshot_indices(num)
        assert len(k) == min(MAX_SNAPSHOTS, num_subcarriers)
        assert len(np.unique(k)) == len(k)
        assert k.min() >= 0 and k.max() < num_subcarriers
        synth = snapshot_synthesis(sounding_config(num, master_seed=master_seed))
        assert synth.shape == (num_subcarriers, len(k))
        np.testing.assert_allclose(synth.conj().T @ synth, np.eye(len(k)), rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.sampled_from([1, 2, 3, 127, 128, 129, 1021, 4093, 4096]), st.integers(1, 4096)),
        st.integers(1, 8),
        st.integers(0, 2**32),
    )
    def test_snapshots_are_h_freq_times_the_dense_synthesis(self, num_subcarriers, num_symbols, master_seed):
        # the build's batched IFFT of h_freq tx[:, 0], read at the offsets k_s, is h_freq T;
        # a CP of one symbol time holds every hall path delay
        num = OfdmNumerology(15e3, num_subcarriers, num_symbols, 1.0 / 15e3)
        cfg = sounding_config(num, master_seed=master_seed)
        camp = build_sounding_campaign(cfg, hall_psi_27p5ghz())
        err = np.abs(camp.samples_matrix() - camp.h_freq @ snapshot_synthesis(cfg))
        assert np.all(np.max(err, axis=1) <= 1e-12 * np.linalg.norm(camp.h_freq, axis=1))

    def test_draws_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # a noisy campaign built at one BLAS thread and at two holds the same bytes
        script = (
            "import hashlib, sys\n"
            "from masim import build_sounding_campaign, hall_psi_27p5ghz\n"
            "from masim.harness import ScenarioConfig\n"
            "camp = build_sounding_campaign(ScenarioConfig.load(sys.argv[1]), hall_psi_27p5ghz())\n"
            "print(hashlib.sha256(camp.h_freq).hexdigest(), hashlib.sha256(camp.samples_matrix()).hexdigest())\n"
        )
        cfg_path = tmp_path / "scenario.json"
        sounding_config(TEST_NUMEROLOGY, extent=(0.009, 0.009), noise_power=0.3).save(cfg_path)
        path = os.pathsep.join([str(Path(masim.__file__).parents[1]), *sys.path])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "PYTHONPATH": path}
            run = subprocess.run([sys.executable, "-c", script, str(cfg_path)], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(run.stdout)
        assert digests[0] == digests[1]

    def test_refuses_delay_beyond_cyclic_prefix(self):
        num = TINY_NUM
        psi = PathStateInfo(paths=(PathComponent(3.0, 2.0, 1.0, 2 * num.cp_duration_s),), carrier_hz=27.5e9)
        with pytest.raises(ConfigError, match="cyclic prefix"):
            build_sounding_campaign(sounding_config(num), psi)

    def test_paper_numerology_preset_recovers_paths(self):
        # the 27.5 GHz preset's 51 x 51 sweep at 3168 x 100, built in memory
        cfg = scenario_27p5ghz(noise_power=0.01)
        truth = hall_psi_27p5ghz()
        est = estimate_psi(build_sounding_campaign(cfg, truth))
        assert est.num_paths == truth.num_paths
        for p in truth.paths:
            err = min(max(abs(e.elevation_deg - p.elevation_deg), abs(e.azimuth_deg - p.azimuth_deg))
                      for e in est.paths)
            assert err <= ANGLE_STEP_DEG + 1e-9

    @pytest.mark.parametrize("numerology", [
        OfdmNumerology.default(),
        TEST_NUMEROLOGY,
        OfdmNumerology(480e3, 127, 1, 0.0),  # I = 127, 128 and 129 around MAX_SNAPSHOTS
        OfdmNumerology(480e3, 128, 2, 4 / (128 * 480e3)),
        OfdmNumerology(480e3, 129, 3, 4 / (129 * 480e3)),
    ])
    def test_snapshot_indices_match_frame_indices(self, numerology):
        k = _snapshot_indices(numerology)
        np.testing.assert_array_equal(k, frame_snapshot_indices(numerology) - numerology.cp_samples)
        assert len(k) == min(MAX_SNAPSHOTS, numerology.num_subcarriers)


class TestCampaignFiles:
    def test_tone_round_trip(self, tmp_path):
        cfg = pipeline_config()
        psi = hall_psi_27p5ghz()
        cdir = synthesize_campaign(cfg, psi, "tone", tmp_path / "camp")
        manifest, records = load_campaign(cdir)
        assert manifest.mode == "tone"
        assert manifest.scenario == cfg
        assert len(records) == cfg.region.num_points
        direct = list(iter_tone_records(cfg, psi))
        for got, expect in zip(records, direct):
            np.testing.assert_array_equal(got, expect)

    def test_ofdm_round_trip_rebuilds_tx_grid(self, tmp_path):
        # each record holds its position's h_freq row, then its snapshot row; the
        # loaded campaign is the built one, bit for bit
        cfg = pipeline_config()
        psi = hall_psi_27p5ghz()
        cdir = synthesize_campaign(cfg, psi, "ofdm", tmp_path / "camp")
        campaign = load_sounding_campaign(cdir)
        assert CampaignManifest.load(cdir).mode == "ofdm"
        built = build_sounding_campaign(cfg, psi)
        assert campaign.region == built.region == cfg.sounding_region
        np.testing.assert_array_equal(campaign.h_freq, built.h_freq)
        np.testing.assert_array_equal(campaign.samples_matrix(), built.samples_matrix())
        _, records = load_campaign(cdir)
        i_n = cfg.numerology.num_subcarriers
        assert len(records) == cfg.sounding_region.num_points
        for q in (0, 17, len(records) - 1):
            np.testing.assert_array_equal(records[q][:i_n], built.h_freq[q])
            np.testing.assert_array_equal(records[q][i_n:], built.samples_matrix()[q])

    def test_on_disk_estimate_equals_in_memory(self, five_stage_run):
        campaign = load_sounding_campaign(five_stage_run.artifacts["sounding_campaign"])
        assert estimate_psi(campaign) == estimate_psi(build_sounding_campaign(pipeline_config(), hall_psi_27p5ghz()))

    def test_estimate_file_is_the_in_memory_estimate(self, five_stage_run, tmp_path):
        # the estimate is a PathStateInfo: it feeds gain_map directly, and its file reads back equal
        art = five_stage_run.artifacts
        campaign = load_sounding_campaign(art["sounding_campaign"])
        est = estimate_psi(campaign)
        assert est == load_psi(art["estimated_psi"])
        cfg_path = tmp_path / "scenario.json"
        pipeline_config().save(cfg_path)
        assert cli_main(["simulate", "--config", str(cfg_path), "--psi", str(art["estimated_psi"]),
                         "--out", str(tmp_path / "from_file.csv")]) == 0
        gain_map(est, pipeline_config().region).to_csv(tmp_path / "in_memory.csv")
        assert (tmp_path / "in_memory.csv").read_bytes() == (tmp_path / "from_file.csv").read_bytes()

    def test_statistics_record_of_wrong_length_is_refused(self, multi_block, tmp_path):
        # the middle block file one value short, with its manifest digest made consistent
        cdir = campaign_copy(multi_block, "ofdm", tmp_path)
        _, records = load_campaign(cdir)
        short = np.concatenate(records[867:2 * 867])[:-1]
        write_iq_record(cdir / "block_0001.maiq", short)
        mpath = cdir / "manifest.json"
        data = json.loads(mpath.read_text())
        data["sha256"][1] = hashlib.sha256(short).hexdigest()
        mpath.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"truncated IQ record .*block_0001\.maiq: 13317104 bytes, "
                                             r"not the 13317120 of 832320"):
            load_sounding_campaign(cdir)

    def test_unknown_mode_leaves_no_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="mode"):
            synthesize_campaign(pipeline_config(), hall_psi_27p5ghz(), "radar", tmp_path / "camp")
        assert not (tmp_path / "camp").exists()

    def test_manifest_rejects_tampered_scenario(self, tmp_path):
        cfg = pipeline_config()
        cdir = synthesize_campaign(cfg, hall_psi_27p5ghz(), "tone", tmp_path / "camp")
        mpath = cdir / "manifest.json"
        data = json.loads(mpath.read_text())
        data["scenario"]["master_seed"] = 999  # no longer matches scenario_hash
        mpath.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="hash"):
            load_campaign(cdir)

    def test_manifest_rejects_moved_record(self, multi_block, tmp_path):
        # a file's name is its block of positions: two swapped record files of one size fail their digests
        cdir = campaign_copy(multi_block, "tone", tmp_path)
        a, b = cdir / "block_0000.maiq", cdir / "block_0001.maiq"
        blob_a, blob_b = a.read_bytes(), b.read_bytes()
        a.write_bytes(blob_b)
        b.write_bytes(blob_a)
        with pytest.raises(ConfigError, match="block_0000.maiq: sha256"):
            load_campaign(cdir)

    @pytest.mark.parametrize("mode", ["tone", "ofdm"])
    def test_digests_are_of_the_file_bytes(self, multi_block, mode):
        # the digest covers the little-endian bytes on disk, whatever the host's byte order
        cdir = multi_block[mode]
        digests = CampaignManifest.load(cdir).sha256
        assert len(digests) > 1
        for b, digest in enumerate(digests):
            assert hashlib.sha256((cdir / f"block_{b:04d}.maiq").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_manifest_digest_count_must_match_region(self, multi_block, tmp_path, delta):
        cdir = campaign_copy(multi_block, "tone", tmp_path)
        mpath = cdir / "manifest.json"
        data = json.loads(mpath.read_text())
        data["sha256"] = data["sha256"][:-1] if delta < 0 else data["sha256"] + [data["sha256"][0]]
        mpath.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"holds {3 + delta} record digests, the 21 points of its region "
                                              "make 3 row blocks"):
            load_campaign(cdir)

    def test_missing_record_file(self, multi_block, tmp_path):
        cdir = campaign_copy(multi_block, "tone", tmp_path)
        (cdir / "block_0002.maiq").unlink()
        with pytest.raises(ConfigError, match="lists block_0002.maiq but the file is missing"):
            load_campaign(cdir)

    def test_measure_campaign_uses_manifest_tone(self, tmp_path):
        # -fs/16 is on the meter's bin grid, so a unit tone reads the gain map with
        # no offset; a meter reading any other bin would see the tone scalloped below it
        cfg = dataclasses.replace(pipeline_config(noise_power=0.0), tone_f0_hz=-25e6)
        psi = hall_psi_27p5ghz()
        cdir = synthesize_campaign(cfg, psi, "tone", tmp_path / "camp")
        pm = measure_campaign(cdir)
        gm = gain_map(psi, cfg.region)
        report = compare_maps(gm, pm)
        assert report.correlation >= 1.0 - 1e-9
        assert report.max_abs_residual_db < 1e-9
        assert abs(report.offset_db) < 1e-9

    def test_measure_campaign_streams_records(self, tmp_path):
        # 256 captures of 256 KiB in 4 block files of 4 MiB: holding them all would cost 4 blocks' bytes;
        # streaming holds the block being read, a copy of the last capture metered, and the cached phasor,
        # so holding the block before it too (two blocks) fails
        cfg = ScenarioConfig.from_json_dict({
            **pipeline_config().to_json_dict(),
            "region": {"x_extent_m": 0.015, "y_extent_m": 0.015, "x_step_m": 1e-3, "y_step_m": 1e-3},
            "samples_per_measurement": 16384,
        })
        cdir = synthesize_campaign(cfg, hall_psi_27p5ghz(), "tone", tmp_path / "camp")
        block_bytes = (cdir / "block_0000.maiq").stat().st_size
        assert len(list(cdir.glob("*.maiq"))) == 4 and block_bytes == 64 * cfg.samples_per_measurement * 16
        tracemalloc.start()
        try:
            pm = measure_campaign(cdir)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pm.values_db.shape == (16, 16)
        assert peak < 1.5 * block_bytes, f"peak {peak / block_bytes:.2f} blocks"

    def test_measure_campaign_checks_mode_first(self, tmp_path):
        cfg = pipeline_config()
        cdir = synthesize_campaign(cfg, hall_psi_27p5ghz(), "ofdm", tmp_path / "camp")
        (cdir / "block_0000.maiq").unlink()  # a read would fail on this instead
        with pytest.raises(ConfigError, match="expected a tone campaign"):
            measure_campaign(cdir)

    def test_manifest_mode_validation(self):
        cfg = pipeline_config()
        with pytest.raises(ConfigError, match="mode"):
            CampaignManifest(mode="chirp", scenario=cfg, sha256=())


# 8192 + 128 statistics a sounding row: 126 rows a block
BLOCK_NUM = OfdmNumerology(30e3, 8192, 2, 1.0 / (16.0 * 30e3))


def line_config(mode, num_rows):
    """pipeline_config() whose tone campaign (2**16 samples a row, 16 rows a block) or ofdm campaign is a line of num_rows."""
    line = MovementRegion((num_rows - 1) * 1e-3, 0.0, 1e-3, 1e-3)
    cfg = dataclasses.replace(pipeline_config(), numerology=BLOCK_NUM, samples_per_measurement=2**16)
    return dataclasses.replace(cfg, **{"region" if mode == "tone" else "sounding_region": line})


class TestRowBlockRecords:
    """A campaign's record files are its row blocks: the rows read back bit for bit, and the files are byte-stable."""

    @pytest.mark.parametrize("mode, block_rows", [("tone", 16), ("ofdm", 126)])
    @pytest.mark.parametrize("blocks, extra", [(1, 0), (3, 0), (3, 1)], ids=["one_block", "k_blocks", "k_blocks_and_a_row"])
    def test_round_trip(self, tmp_path, mode, block_rows, blocks, extra):
        num_rows = blocks * block_rows + extra
        cfg, psi = line_config(mode, num_rows), hall_psi_27p5ghz()
        dirs = [synthesize_campaign(cfg, psi, mode, tmp_path / name) for name in ("a", "b")]
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == [f"block_{b:04d}.maiq" for b in range(blocks + extra)] + ["manifest.json"]
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
        _, rows = load_campaign(dirs[0])
        if mode == "tone":
            written = list(iter_tone_records(cfg, psi))
        else:
            built, loaded = build_sounding_campaign(cfg, psi), load_sounding_campaign(dirs[0])
            assert np.array_equal(loaded.h_freq, built.h_freq)
            assert np.array_equal(loaded.samples_matrix(), built.samples_matrix())
            written = np.concatenate([built.h_freq, built.samples_matrix()], axis=1)
        assert len(rows) == len(written) == num_rows
        assert all(np.array_equal(row, want) for row, want in zip(rows, written))

    def test_ofdm_writer_holds_a_few_blocks(self, tmp_path):
        # 676 positions in 6 block files of about 14 MiB: the writer holds the block it draws into, that block's
        # noise and its transform, about three blocks; building the whole campaign first held over eight
        cfg = dataclasses.replace(pipeline_config(), numerology=BLOCK_NUM,
                                  sounding_region=MovementRegion(0.025, 0.025, 1e-3, 1e-3))
        tracemalloc.start()
        try:
            cdir = synthesize_campaign(cfg, hall_psi_27p5ghz(), "ofdm", tmp_path / "camp")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = (cdir / "block_0000.maiq").stat().st_size
        assert len(list(cdir.glob("*.maiq"))) == 6 and block_bytes == 112 * 8320 * 16
        assert peak < 4 * block_bytes, f"peak {peak / block_bytes:.2f} blocks"


class TestPipeline:
    def test_stage_closure_and_caching(self, tmp_path):
        cfg = pipeline_config()
        psi = hall_psi_27p5ghz()
        # optimize pulls estimate pulls sound; export collects everything requested
        res1 = run_pipeline(cfg, psi, ["measure", "optimize", "export"], tmp_path / "run")
        assert set(res1.stage_dirs) == {"sound", "estimate", "measure", "optimize", "export"}
        assert res1.cached == set()
        for art in res1.artifacts.values():
            assert art.exists()
        res2 = run_pipeline(cfg, psi, ["measure", "optimize", "export"], tmp_path / "run")
        assert res2.cached == {"sound", "estimate", "measure", "optimize", "export"}
        assert res2.stage_dirs == res1.stage_dirs

    def test_parameter_change_invalidates_dependents_only(self, tmp_path):
        cfg = pipeline_config()
        psi = hall_psi_27p5ghz()
        run_pipeline(cfg, psi, ["optimize"], tmp_path / "run")
        res = run_pipeline(cfg, psi, ["optimize"], tmp_path / "run", optimize_budget=40)
        assert res.cached == {"sound", "estimate"}  # upstream inputs unchanged, optimize params differ

    def test_byte_identical_across_roots(self, tmp_path):
        cfg = pipeline_config()
        psi = hall_psi_27p5ghz()
        res_a = run_pipeline(cfg, psi, ["measure", "estimate"], tmp_path / "a")
        res_b = run_pipeline(cfg, psi, ["measure", "estimate"], tmp_path / "b")
        files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
        rel_a = [p.relative_to(tmp_path / "a") for p in files_a]
        rel_b = [p.relative_to(tmp_path / "b") for p in files_b]
        assert rel_a == rel_b
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_stage_error_names_failing_stage(self, tmp_path):
        cfg = pipeline_config()
        # 6x6 grid spans half a wavelength: the estimator cannot separate 3 paths
        cfg = ScenarioConfig.from_json_dict(
            {
                **cfg.to_json_dict(),
                "sounding_region": {
                    "x_extent_m": 0.005, "y_extent_m": 0.005, "x_step_m": 1e-3, "y_step_m": 1e-3,
                },
            }
        )
        with pytest.raises(StageError) as err:
            run_pipeline(cfg, hall_psi_27p5ghz(), ["estimate"], tmp_path / "run")
        assert err.value.stage == "estimate"

    def test_stage_directory_names_pinned(self, five_stage_run):
        # each name hashes the stage's payload: a change here orphans every cached tree
        assert {name: d.name for name, d in five_stage_run.stage_dirs.items()} == {
            "sound": "sound-d0cabf55cc77",
            "estimate": "estimate-d7cb140a558f",
            "measure": "measure-99bf6e5277fd",
            "optimize": "optimize-ca7e4b915846",
            "export": "export-7be0ff0da521",
        }

    def test_measure_stage_writes_only_its_power_map(self, five_stage_run):
        # the tone captures are metered as they are made; no campaign is kept
        assert sorted(p.name for p in five_stage_run.stage_dirs["measure"].iterdir()) == [".complete", "power_map.csv"]
        assert "tone_campaign" not in five_stage_run.artifacts

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown pipeline stages"):
            run_pipeline(pipeline_config(), hall_psi_27p5ghz(), ["calibrate"], tmp_path / "run")

    def test_zero_budget_rejected_before_out_dir(self, tmp_path):
        with pytest.raises(ConfigError, match="optimize_budget must be >= 1"):
            run_pipeline(pipeline_config(), hall_psi_27p5ghz(), ["optimize"], tmp_path / "run", optimize_budget=0)
        assert not (tmp_path / "run").exists()


class TestCompareMaps:
    def test_identical_maps(self):
        gm = gain_map(hall_psi_27p5ghz(), MovementRegion(0.01, 0.01, 1e-3, 1e-3))
        report = compare_maps(gm, gm)
        assert report.correlation == pytest.approx(1.0, abs=1e-12)
        assert report.offset_db == 0.0  # b - a is exactly zero
        assert report.max_abs_residual_db == 0.0
        assert report.argmax_shift_steps == (0, 0)

    def test_constant_offset_absorbed(self):
        from masim.channel import DbMap

        gm = gain_map(hall_psi_27p5ghz(), MovementRegion(0.01, 0.01, 1e-3, 1e-3))
        shifted = DbMap(x_m=gm.x_m, y_m=gm.y_m, values_db=gm.values_db + 3.0, column="gain_db")
        report = compare_maps(gm, shifted)
        assert report.offset_db == pytest.approx(3.0, abs=1e-12)
        assert report.max_abs_residual_db < 1e-12
        assert report.correlation == pytest.approx(1.0, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        gm1 = gain_map(hall_psi_27p5ghz(), MovementRegion(0.01, 0.01, 1e-3, 1e-3))
        gm2 = gain_map(hall_psi_27p5ghz(), MovementRegion(0.01, 0.01, 2e-3, 2e-3))
        with pytest.raises(ValueError, match="grid"):
            compare_maps(gm1, gm2)

    def test_report_round_trip(self, tmp_path):
        gm = gain_map(hall_psi_27p5ghz(), MovementRegion(0.005, 0.005, 1e-3, 1e-3))
        report = compare_maps(gm, gm)
        data = report.to_json_dict()
        assert set(data) == {
            "correlation", "offset_db", "max_abs_residual_db", "rms_residual_db", "argmax_shift_steps",
        }

    def test_load_map_csv_requires_db_column(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("x_m,y_m,volts\n0,0,1\n")
        with pytest.raises(ValueError, match="dB quantity"):
            DbMap.read_csv(path)

    def test_load_map_csv_reads_power_map(self, tmp_path):
        gm = gain_map(hall_psi_27p5ghz(), MovementRegion(0.004, 0.004, 1e-3, 1e-3))
        path = tmp_path / "gain.csv"
        gm.to_csv(path)
        loaded = DbMap.read_csv(path)
        np.testing.assert_allclose(loaded.values_db, gm.values_db, atol=1e-6)


class TestCli:
    def test_simulate_and_compare(self, tmp_path):
        cfg = pipeline_config(noise_power=0.0)
        cfg_path = tmp_path / "scenario.json"
        psi_path = tmp_path / "psi.json"
        cfg.save(cfg_path)
        save_psi(psi_path, hall_psi_27p5ghz())
        out = tmp_path / "gain.csv"
        rc = cli_main(["simulate", "--config", str(cfg_path), "--psi", str(psi_path), "--out", str(out)])
        assert rc == 0 and out.exists()
        rc = cli_main(["compare", "--a", str(out), "--b", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("body", [
        "",  # header only: was an IndexError traceback
        "0,0,1\n0,0.001,2\n0.001,0,3\n0.001,0.001,4\n",  # x-major: was read transposed
        "0,0,1\n0,0,2\n0.001,0.001,3\n0.001,0.001,4\n",  # duplicates: passed as a 2 x 2 grid
        "0,0,1\n0.001,0,2\n0,0.001,nan\n0.001,0.001,4\n",  # NaN: was exit 0 with a non-JSON report
        "0,0,1\n0.001,0,2\n0,0.001,inf\n0.001,0.001,4\n",  # inf: was exit 0, "offset_db": Infinity
    ], ids=["header_only", "x_major", "duplicated", "nan_value", "inf_value"])
    def test_compare_rejects_malformed_map(self, tmp_path, capsys, body):
        good = tmp_path / "good.csv"
        gain_map(hall_psi_27p5ghz(), MovementRegion(0.001, 0.001, 1e-3, 1e-3)).to_csv(good)
        bad = tmp_path / "bad.csv"
        bad.write_text("x_m,y_m,gain_db\n" + body)
        assert cli_main(["compare", "--a", str(good), "--b", str(bad)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli_main(["simulate", "--config", str(bad), "--psi", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        # used to exit 1 with a RecursionError traceback from the JSON parser
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200_000)
        rc = cli_main(["simulate", "--config", str(bad), "--psi", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "nests too deeply" in capsys.readouterr().err

    def test_forged_record_header_exits_2(self, multi_block, tmp_path, capsys):
        # a record file holds samples only; one carrying a 48-byte header is the wrong size
        cdir = campaign_copy(multi_block, "tone", tmp_path)
        path = cdir / "block_0001.maiq"
        path.write_bytes(b"MAIQ" + bytes(44) + path.read_bytes())
        rc = cli_main(["measure", "--campaign", str(cdir), "--out", str(tmp_path / "pm.csv")])
        assert rc == 2
        assert "block_0001.maiq" in capsys.readouterr().err

    @pytest.mark.parametrize("offset", [0, 24, -1])
    def test_rewritten_record_byte_exits_2(self, multi_block, tmp_path, capsys, offset):
        # the digest covers every byte of the file; byte 24 once held the sample
        # interval, outside every check, and a rewrite of it metered a wrong map
        cdir = campaign_copy(multi_block, "tone", tmp_path)
        path = cdir / "block_0002.maiq"
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0x40
        path.write_bytes(bytes(blob))
        out = tmp_path / "pm.csv"
        assert cli_main(["measure", "--campaign", str(cdir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "block_0002.maiq" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode, command", [("ofdm", "estimate"), ("tone", "measure")])
    def test_flipped_payload_byte_exits_2(self, multi_block, tmp_path, capsys, mode, command):
        # position and seed still match the manifest; only the payload digest catches this
        cdir = campaign_copy(multi_block, mode, tmp_path)
        path = cdir / "block_0001.maiq"
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x01
        path.write_bytes(bytes(blob))
        rc = cli_main([command, "--campaign", str(cdir), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "block_0001.maiq" in err and "sha256" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, psi, message", [
        ("ofdm", PathStateInfo(paths=(PathComponent(3.0, 2.0, 1.0, 1e-6),), carrier_hz=27.5e9), "cyclic prefix"),
        ("ofdm", hall_psi_3p5ghz(), "carrier"),
        ("tone", hall_psi_3p5ghz(), "carrier"),
    ], ids=["ofdm-delay_past_cp", "ofdm-carrier", "tone-carrier"])
    def test_refused_sound_leaves_no_directory(self, tmp_path, capsys, mode, psi, message):
        # the out directory used to be made before the lazy record generator
        # ran its checks, so a refused campaign left it behind, empty
        cfg_path, psi_path = input_files(tmp_path)
        save_psi(psi_path, psi)
        rc = cli_main(["sound", "--config", cfg_path, "--psi", psi_path, "--mode", mode,
                       "--out-dir", str(tmp_path / "camp")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "camp").exists()

    def test_oversized_record_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.json"
        psi_path = tmp_path / "psi.json"
        cfg_path.write_text(json.dumps({**pipeline_config().to_json_dict(), "samples_per_measurement": 2**40}))
        save_psi(psi_path, hall_psi_27p5ghz())
        rc = cli_main(["sound", "--config", str(cfg_path), "--psi", str(psi_path),
                       "--mode", "tone", "--out-dir", str(tmp_path / "camp")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "samples_per_measurement" in err and err.count("\n") == 1

    def test_forged_statistics_record_exits_2(self, multi_block, tmp_path, capsys):
        cdir = campaign_copy(multi_block, "ofdm", tmp_path)
        path = cdir / "block_0002.maiq"
        path.write_bytes(path.read_bytes()[: 16 * 867 * TEST_NUMEROLOGY.num_subcarriers])  # as long as h_freq only
        rc = cli_main(["estimate", "--campaign", str(cdir), "--out", str(tmp_path / "est.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "block_0002.maiq" in err and err.count("\n") == 1

    def test_oversized_sounding_campaign_exits_2(self, tmp_path, capsys):
        # 1000 x 1000 positions at the paper numerology: about 52.7 GB of statistics,
        # refused as the config is read, before anything is allocated
        data = {**pipeline_config().to_json_dict(), "numerology": OfdmNumerology.default().to_json_dict(),
                "bandwidth_hz": 400e6,
                "sounding_region": {"x_extent_m": 0.999, "y_extent_m": 0.999, "x_step_m": 1e-3, "y_step_m": 1e-3}}
        cfg_path, psi_path = tmp_path / "scenario.json", tmp_path / "psi.json"
        cfg_path.write_text(json.dumps(data))
        save_psi(psi_path, hall_psi_27p5ghz())
        rc = cli_main(["sound", "--config", str(cfg_path), "--psi", str(psi_path),
                       "--mode", "ofdm", "--out-dir", str(tmp_path / "camp")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "1000 x 1000 sounding_region" in err and "cap per campaign" in err and err.count("\n") == 1
        assert not (tmp_path / "camp").exists()

    def test_one_point_sounding_region_exits_2(self, tmp_path, capsys, monkeypatch):
        # refused as the config is read: nothing is drawn and no directory is made
        data = {**pipeline_config().to_json_dict(),
                "sounding_region": {"x_extent_m": 0.0, "y_extent_m": 0.0, "x_step_m": 1e-3, "y_step_m": 1e-3}}
        cfg_path, psi_path = tmp_path / "scenario.json", tmp_path / "psi.json"
        cfg_path.write_text(json.dumps(data))
        save_psi(psi_path, hall_psi_27p5ghz())
        monkeypatch.setattr(harness, "_sounding_drawer", None)  # a draw would raise TypeError, not exit 2
        rc = cli_main(["sound", "--config", str(cfg_path), "--psi", str(psi_path),
                       "--mode", "ofdm", "--out-dir", str(tmp_path / "camp")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "1 x 1 sounding_region" in err and "2 positions" in err and err.count("\n") == 1
        assert not (tmp_path / "camp").exists()

    def test_zero_budget_exits_2_before_any_stage(self, tmp_path, capsys):
        # used to run sound and estimate, then exit 3 leaving an empty optimize directory
        cfg_path, psi_path = input_files(tmp_path)
        out = tmp_path / "pipe"
        rc = cli_main(["export", "--config", cfg_path, "--psi", psi_path, "--stages", "optimize",
                       "--budget", "0", "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "optimize_budget must be >= 1" in err and err.count("\n") == 1
        assert not out.exists()

    def test_estimate_with_every_path_dropped_exits_2(self, tmp_path, capsys, monkeypatch):
        # one real path, held to an unreachable peak-to-median bar so that its delay
        # profile is refused whatever the draws; this used to write "paths": [] and
        # then die with an IndexError
        region = MovementRegion(0.01, 0.01, 1e-3, 1e-3)
        cfg = ScenarioConfig(
            carrier_hz=27.5e9, bandwidth_hz=400e6, tx_position_m=(0.0, 1.3, 6.8), region=region,
            sounding_region=region, numerology=OfdmNumerology(480e3, 64, 4, 4 / (64 * 480e3)), noise_power=0.01,
            tone_f0_hz=50e6, samples_per_measurement=256, master_seed=7,
        )
        psi = PathStateInfo(paths=(PathComponent(3.0, 2.0, 1.0, 20e-9),), carrier_hz=27.5e9)
        cdir = synthesize_campaign(cfg, psi, "ofdm", tmp_path / "camp")
        capsys.readouterr()
        out = tmp_path / "est.json"
        monkeypatch.setattr(estimator, "MAX_PATHS", 1)  # the one path's peak, not a sidelobe or a noise peak
        monkeypatch.setattr(estimator, "MIN_PEAK_TO_MEDIAN_DB", math.inf)
        with pytest.warns(UserWarning, match="dropping it"):
            rc = cli_main(["estimate", "--campaign", str(cdir), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "dominant delay peak" in err and err.count("\n") == 1
        assert not out.exists()

    def test_stage_failure_exits_3(self, tmp_path):
        cfg = pipeline_config()
        cfg = ScenarioConfig.from_json_dict(
            {
                **cfg.to_json_dict(),
                "sounding_region": {
                    "x_extent_m": 0.005, "y_extent_m": 0.005, "x_step_m": 1e-3, "y_step_m": 1e-3,
                },
            }
        )
        cfg_path = tmp_path / "scenario.json"
        psi_path = tmp_path / "psi.json"
        cfg.save(cfg_path)
        save_psi(psi_path, hall_psi_27p5ghz())
        rc = cli_main(
            ["export", "--config", str(cfg_path), "--psi", str(psi_path),
             "--stages", "estimate", "--out-dir", str(tmp_path / "run")]
        )
        assert rc == 3

    def test_estimate_matches_stage(self, five_stage_run, tmp_path):
        art = five_stage_run.artifacts
        campaign = str(art["sounding_campaign"])
        full, bare = tmp_path / "full", tmp_path / "bare"
        full.mkdir()
        bare.mkdir()
        assert cli_main(["estimate", "--campaign", campaign, "--out", str(full / "estimated_psi.json"),
                         "--pas", str(full / "pas.csv"), "--pds", str(full / "pds.csv")]) == 0
        for key in ("estimated_psi", "pas", "pds"):
            assert (full / art[key].name).read_bytes() == art[key].read_bytes(), key
        assert cli_main(["estimate", "--campaign", campaign, "--out", str(bare / "est.json")]) == 0
        assert [p.name for p in bare.iterdir()] == ["est.json"]

    def test_estimate_file_of_an_earlier_format_refused(self, tmp_path, capsys):
        # estimator output used to carry grid_step_deg and a per-path prominence_db,
        # which the PSI reader dropped, and a path state file used to carry
        # large_scale_gain and normalized, which it filled in when absent; such a
        # file now fails like any unknown field
        cfg_path, _ = input_files(tmp_path)
        path = {"elevation_deg": 3.0, "azimuth_deg": 2.0, "amplitude": 0.9, "delay_s": 22.7e-9}
        olds = {
            "grid_step_deg": {"carrier_hz": 27.5e9, "grid_step_deg": 0.5, "paths": [{**path, "prominence_db": 0.0}]},
            "large_scale_gain": {"carrier_hz": 27.5e9, "large_scale_gain": 1.0, "paths": [path]},
            "normalized": {"carrier_hz": 27.5e9, "normalized": False, "paths": [path]},
        }
        out = tmp_path / "gain.csv"
        for field, old in olds.items():
            (tmp_path / "est.json").write_text(json.dumps(old))
            rc = cli_main(["simulate", "--config", cfg_path, "--psi", str(tmp_path / "est.json"), "--out", str(out)])
            assert rc == 2, field
            err = capsys.readouterr().err
            assert field in err and err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--config", "{cfg}", "--psi", "{other}", "--out", "{out}"],
        ["optimize", "--psi", "{other}", "--config", "{cfg}", "--out", "{out}"],
        ["optimize", "--psi", "{psi}", "--est", "{other}", "--config", "{cfg}", "--out", "{out}"],
        ["export", "--config", "{cfg}", "--psi", "{other}", "--out-dir", "{out}"],
    ], ids=["simulate", "optimize-psi", "optimize-est", "export"])
    def test_path_state_at_another_carrier_exits_2(self, tmp_path, capsys, command):
        # each used to exit 0, having worked at the 3.5 GHz wavelength over a 27.5 GHz scenario
        cfg_path, psi_path = input_files(tmp_path)
        other = tmp_path / "psi_3p5ghz.json"
        save_psi(other, hall_psi_3p5ghz())
        out = tmp_path / "out"
        assert cli_main([arg.format(cfg=cfg_path, psi=psi_path, other=other, out=out) for arg in command]) == 2
        err = capsys.readouterr().err
        assert "carrier" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--config", "{cfg}", "--psi", "{psi}", "--out", "{out}"],
        ["sound", "--config", "{cfg}", "--psi", "{psi}", "--out-dir", "{out}"],
    ], ids=["simulate", "sound"])
    def test_path_state_over_the_path_cap_exits_2(self, tmp_path, capsys, command):
        # the path count sizes every channel evaluation, so a path list past the cap is refused on load
        cfg_path, psi_path = input_files(tmp_path)
        data = hall_psi_27p5ghz().to_json_dict()
        path = data["paths"][0]
        for count, rc in ((MAX_STATE_PATHS + 1, 2), (MAX_STATE_PATHS, 0)):
            Path(psi_path).write_text(json.dumps({**data, "paths": [path] * count}))
            out = tmp_path / f"out_{count}"
            assert cli_main([arg.format(cfg=cfg_path, psi=psi_path, out=out) for arg in command]) == rc
            err = capsys.readouterr().err
            if rc == 2:
                assert "at most 64 paths, got 65" in err and err.count("\n") == 1
                assert not out.exists()
            else:
                assert err == "" and out.exists()

    def test_optimize_matches_stage(self, five_stage_run, tmp_path):
        art = five_stage_run.artifacts
        cfg_path, psi_path = input_files(tmp_path)
        out = tmp_path / "move_result.json"
        assert cli_main(["optimize", "--psi", psi_path, "--est", str(art["estimated_psi"]),
                         "--config", cfg_path, "--out", str(out)]) == 0
        assert out.read_bytes() == art["move_result"].read_bytes()

    def test_measure_matches_stage(self, five_stage_run, tmp_path, capsys):
        # the CLI meters a written tone campaign, the stage the same captures as they are made
        cfg_path, psi_path = input_files(tmp_path)
        cdir, out = tmp_path / "tone_campaign", tmp_path / "power_map.csv"
        assert cli_main(["sound", "--config", cfg_path, "--psi", psi_path, "--mode", "tone",
                         "--out-dir", str(cdir)]) == 0
        assert capsys.readouterr().out == f"wrote 21 tone positions to {cdir}\n"
        assert cli_main(["measure", "--campaign", str(cdir), "--out", str(out)]) == 0
        assert out.read_bytes() == five_stage_run.artifacts["power_map"].read_bytes()

    def test_export_runs_then_caches_every_stage(self, tmp_path, capsys):
        cfg_path, psi_path = input_files(tmp_path)
        argv = ["export", "--config", cfg_path, "--psi", psi_path, "--stages", "measure,optimize",
                "--out-dir", str(tmp_path / "run")]
        for tag in ("ran", "cached"):
            assert cli_main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line.split(" (")[0] for line in lines[:-1]] == [f"{name}: {tag}" for name in sorted(ALL_STAGES)]
            assert lines[-1].startswith("artifacts in ")
