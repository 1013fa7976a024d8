"""Waveform synthesis, channel application, noise, and IQ file format tests."""

import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masim.channel import PathComponent, PathStateInfo, Position, channel_response, gain_field
from masim.codec import ConfigError
from masim.harness import build_sounding_campaign
from masim.signals import (
    NoiseSpec,
    OfdmNumerology,
    add_noise,
    apply_channel,
    derive_seed,
    gen_tone,
    qpsk_symbols,
    read_iq_record,
    row_blocks,
    write_iq_record,
)

from conftest import TEST_NUMEROLOGY, arithmetic_qpsk, make_hi_scenario, sounding_frames


def single_path(el=0.0, az=0.0, amp=1.0, delay=0.0, fc=27.5e9):
    return PathStateInfo(paths=(PathComponent(el, az, amp, delay),), carrier_hz=fc)


def transmitted_frame(num, symbols):
    """The CP-OFDM frame of an (I, M) symbol grid: sounding synthesis through a unit channel (h = 1)."""
    return sounding_frames(single_path(), np.zeros((1, 2)), num, symbols)[0]


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(42, "tone", 3) == derive_seed(42, "tone", 3)

    def test_labels_separate_streams(self):
        seeds = {
            derive_seed(42, "tone", 1),
            derive_seed(42, "sound", 1),
            derive_seed(42, "tone", 2),
            derive_seed(43, "tone", 1),
            derive_seed(42, "probe", 1),
        }
        assert len(seeds) == 5

    def test_nonnegative(self):
        for i in range(20):
            assert derive_seed(7, "mc", i) >= 0


class TestGenTone:
    def test_quarter_rate(self):
        # f0 = fs/4 steps through the quadrature points
        tone = gen_tone(1e6, 4, 0.25e-6)
        np.testing.assert_allclose(tone, [1, 1j, -1, -1j], atol=1e-12)

    def test_dc(self):
        np.testing.assert_array_equal(gen_tone(0.0, 8, 1e-6), np.ones(8))

    def test_unit_amplitude(self):
        tone = gen_tone(50e6, 4096, 1 / 400e6)
        np.testing.assert_allclose(np.abs(tone), 1.0, atol=1e-12)

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError, match="aliases"):
            gen_tone(200e6, 16, 1 / 400e6)

    def test_negative_frequency_allowed(self):
        tone = gen_tone(-1e6, 4, 0.25e-6)
        np.testing.assert_allclose(tone, [1, -1j, -1, 1j], atol=1e-12)


class TestQpsk:
    def test_constant_modulus(self):
        b = qpsk_symbols(64, 3, seed=9)
        np.testing.assert_allclose(np.abs(b), 1 / 8.0, atol=1e-15)

    def test_unit_total_power(self):
        b = qpsk_symbols(832, 2, seed=5)
        np.testing.assert_allclose(np.sum(np.abs(b) ** 2, axis=0), 1.0, atol=1e-12)

    def test_seeded(self):
        np.testing.assert_array_equal(qpsk_symbols(16, 2, 1), qpsk_symbols(16, 2, 1))
        assert not np.array_equal(qpsk_symbols(16, 2, 1), qpsk_symbols(16, 2, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4000), st.integers(1, 40), st.integers(0, 2**64 - 1))
    def test_table_lookup_is_the_arithmetic_grid(self, num_subcarriers, num_symbols, seed):
        # the 4-symbol alphabet looked up gives every bit, signed zeros included, of the per-element form
        got = qpsk_symbols(num_subcarriers, num_symbols, seed)
        want = arithmetic_qpsk(num_subcarriers, num_symbols, seed)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4000), st.integers(1, 40), st.integers(0, 2**64 - 1))
    def test_first_symbol_is_a_prefix_of_the_draws(self, num_subcarriers, num_symbols, seed):
        # the sounding build draws the one-symbol grid alone: it must be the larger grid's first column
        grid = qpsk_symbols(num_subcarriers, num_symbols, seed)
        first = qpsk_symbols(num_subcarriers, 1, seed)
        assert grid.flags.c_contiguous and first.flags.c_contiguous
        assert grid.shape == (num_subcarriers, num_symbols) and first.shape == (num_subcarriers, 1)
        assert np.array_equal(first.view(np.uint64), np.ascontiguousarray(grid[:, :1]).view(np.uint64))


class TestGenOfdm:
    """CP-OFDM frame generation, through the sounder's synthesis with a unit channel."""

    def test_four_subcarrier_idft_by_hand(self):
        num = OfdmNumerology(subcarrier_spacing_hz=1e6, num_subcarriers=4, num_symbols=1, cp_duration_s=0.0)
        b = np.array([[1.0], [1j], [-1.0], [0.5]], dtype=complex)
        frame = transmitted_frame(num, b)
        k = np.arange(4)
        expect = sum(b[i, 0] * np.exp(2j * np.pi * i * k / 4) for i in range(4))
        np.testing.assert_allclose(frame, expect, atol=1e-12)

    def test_cyclic_prefix_is_exact_copy(self):
        num = TEST_NUMEROLOGY
        frame = transmitted_frame(num, qpsk_symbols(num.num_subcarriers, num.num_symbols, 3))
        n_cp = num.cp_samples
        per = num.samples_per_symbol
        for m in range(num.num_symbols):
            sym = frame[m * per : (m + 1) * per]
            np.testing.assert_array_equal(sym[:n_cp], sym[per - n_cp :])

    def test_qpsk_frame_mean_power_near_unity(self):
        num = TEST_NUMEROLOGY
        frame = transmitted_frame(num, qpsk_symbols(num.num_subcarriers, num.num_symbols, 7))
        # payload power is exactly sum|b|^2 = 1; the CP resamples a random
        # subset of payload samples, so the frame mean moves by < 1%
        assert np.mean(np.abs(frame) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_payload_power_exact(self):
        num = TEST_NUMEROLOGY
        grid = qpsk_symbols(num.num_subcarriers, num.num_symbols, 11)
        frame = transmitted_frame(num, grid)
        payload = frame.reshape(num.num_symbols, num.samples_per_symbol)[:, num.cp_samples:]
        for m in range(num.num_symbols):
            assert np.mean(np.abs(payload[m]) ** 2) == pytest.approx(
                np.sum(np.abs(grid[:, m]) ** 2), rel=1e-12
            )

    def test_numerology_rejects_fractional_cp(self):
        with pytest.raises(ValueError, match="cp_duration_s"):
            OfdmNumerology(480e3, 832, 2, cp_duration_s=1.3e-9)

    def test_default_numerology_consistency(self):
        num = OfdmNumerology.default()
        assert num.occupied_bandwidth_hz == pytest.approx(380.16e6)
        assert num.delay_step_s == pytest.approx(2.63047138047138e-9, rel=1e-12)
        assert num.frame_samples == num.num_symbols * (num.cp_samples + num.num_subcarriers)


class TestApplyChannel:
    def test_tone_mode_is_flat_fading(self):
        psi = single_path(3.0, 2.0, 0.7, 20e-9)
        pos = Position(0.004, 0.009)
        tx = gen_tone(50e6, 64, 1 / 400e6)
        rx = apply_channel(np.sqrt(2.0) * tx, psi, pos)
        h = channel_response(psi, pos.as_array())[0, 0]
        np.testing.assert_allclose(rx, h * np.sqrt(2.0) * tx, atol=1e-14)

    def test_ofdm_mode_matches_subcarrier_oracle(self):
        # sounding synthesis, demodulated, gives b[i, m] * H[i] with H from a per-path loop
        num = OfdmNumerology(subcarrier_spacing_hz=480e3, num_subcarriers=64, num_symbols=2,
                             cp_duration_s=4.0 / (64 * 480e3))
        psi = PathStateInfo(
            paths=(PathComponent(3.0, 2.0, 0.8, 22.7e-9), PathComponent(-10.0, 40.0, 0.4, 35.3e-9)),
            carrier_hz=27.5e9,
        )
        pos = Position(0.003, 0.004)
        b = qpsk_symbols(num.num_subcarriers, num.num_symbols, 21)
        rx = sounding_frames(psi, np.array([[pos.x_m, pos.y_m]]), num, b)[0]

        lam = psi.wavelength_m
        p = num.samples_per_symbol
        i_idx = np.arange(num.num_subcarriers)
        h_i = np.zeros(num.num_subcarriers, dtype=complex)
        for path in psi.paths:
            d = (pos.x_m * np.cos(np.radians(path.elevation_deg)) * np.sin(np.radians(path.azimuth_deg))
                 + pos.y_m * np.sin(np.radians(path.elevation_deg)))
            h_l = path.amplitude * np.exp(-2j * np.pi * (d / lam + psi.carrier_hz * path.delay_s))
            h_i += h_l * np.exp(-2j * np.pi * i_idx * num.subcarrier_spacing_hz * path.delay_s)
        for m in range(num.num_symbols):
            payload = rx[m * p + num.cp_samples : (m + 1) * p]
            demod = np.fft.fft(payload)[: num.num_subcarriers] / num.num_subcarriers
            np.testing.assert_allclose(demod, b[:, m] * h_i, atol=1e-12)

    def test_ofdm_mode_rejects_delay_beyond_cp(self):
        cfg = make_hi_scenario()
        num = cfg.numerology
        psi = single_path(delay=2 * num.cp_duration_s)
        with pytest.raises(ConfigError, match="cyclic prefix"):
            build_sounding_campaign(cfg, psi)

    @settings(max_examples=25)
    @given(
        a_re=st.floats(-2, 2), a_im=st.floats(-2, 2),
        b_re=st.floats(-2, 2), b_im=st.floats(-2, 2),
    )
    def test_linearity_in_tx(self, a_re, a_im, b_re, b_im):
        psi = single_path(5.0, -20.0, 0.9, 30e-9)
        pos = Position(0.006, 0.002)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        z = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        a = a_re + 1j * a_im
        b = b_re + 1j * b_im
        lhs = apply_channel(a * x + b * z, psi, pos)
        rhs = a * apply_channel(x, psi, pos) + b * apply_channel(z, psi, pos)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_tone_power_accounting(self):
        psi = single_path(3.0, 2.0, 0.6, 25e-9)
        pos = Position(0.01, 0.003)
        tx = gen_tone(50e6, 256, 1 / 400e6)
        rx = apply_channel(np.sqrt(3.0) * tx, psi, pos)
        got = np.mean(np.abs(rx) ** 2)
        gain = gain_field(psi, np.array([pos.x_m]), np.array([pos.y_m]))[0, 0]
        assert got == pytest.approx(gain * 3.0, rel=1e-12)


class TestAddNoise:
    def test_zero_power_identity(self):
        x = np.ones(16, dtype=complex)
        y = add_noise(x, NoiseSpec(0.0, 400e6), seed=1)
        np.testing.assert_array_equal(x, y)

    def test_seed_determinism(self):
        x = np.zeros(128, dtype=complex)
        spec = NoiseSpec(0.1, 400e6)
        np.testing.assert_array_equal(add_noise(x, spec, 5), add_noise(x, spec, 5))
        assert not np.array_equal(add_noise(x, spec, 5), add_noise(x, spec, 6))
        # a Generator is drawn from as default_rng(seed) would be: tone records keep their bytes
        seed = derive_seed(4, "tone", 3)
        assert add_noise(x, spec, np.random.default_rng(seed)).tobytes() == add_noise(x, spec, seed).tobytes()

    def test_variance_law_of_large_numbers(self):
        n = 1_000_000
        noise = add_noise(np.zeros(n, dtype=complex), NoiseSpec(0.25, 400e6), seed=7)
        var = np.mean(np.abs(noise) ** 2)
        assert 0.995 * 0.25 < var < 1.005 * 0.25
        # circular symmetry: halves split evenly, no mean offset
        assert np.mean(noise.real**2) == pytest.approx(0.125, rel=0.02)
        assert abs(np.mean(noise)) < 3 * np.sqrt(0.25 / n)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            NoiseSpec(-1e-3, 400e6)

    @pytest.mark.parametrize("kind", ["complex", "real", "one sample", "zero power"])
    def test_matches_two_draw_oracle_bit_for_bit(self, kind):
        # the former function: real parts and imaginary parts from two draws,
        # added to the samples as a fresh complex array
        def oracle(samples, spec, seed):
            if spec.power == 0.0:
                return np.array(samples, dtype=np.complex128, copy=True)
            rng = np.random.default_rng(seed)
            scale = np.sqrt(spec.power / 2.0)
            n = rng.standard_normal(len(samples)) + 1j * rng.standard_normal(len(samples))
            return np.asarray(samples, dtype=np.complex128) + scale * n

        rng = np.random.default_rng(3)
        n = 1 if kind == "one sample" else 257
        x = rng.standard_normal(n)
        if kind != "real":
            x = x + 1j * rng.standard_normal(n)
        spec = NoiseSpec(0.0 if kind == "zero power" else 0.37, 400e6)
        for seed in range(500):
            got, want = add_noise(x, spec, seed), oracle(x, spec, seed)
            assert got.dtype == np.complex128 and not np.shares_memory(got, x)
            assert got.tobytes() == want.tobytes()


class TestRowBlocks:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 30000), st.integers(1, 2**24))
    def test_equal_blocks_cover_the_rows(self, num_rows, row_values):
        blocks = row_blocks(num_rows, row_values)
        assert blocks == row_blocks(num_rows, row_values)  # the two counts alone set them
        assert blocks[0].start == 0 and blocks[-1].stop == num_rows
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        assert max(sizes) - min(sizes) <= 1
        if num_rows >= 2:
            assert min(sizes) >= 2  # no single-row block
        for size in sizes:
            # at most 2**20 values, unless rows of over a third of that meet the two-row floor:
            # then a block holds two rows, or three in one block when num_rows is odd
            assert size * row_values <= 2**20 or (3 * row_values > 2**20 and size <= 2 + num_rows % 2)
        cap = max(2, 2**20 // row_values)
        assert len(blocks) == 1 or num_rows > (len(blocks) - 1) * cap  # as few blocks as fit

    # a block is a campaign record file: a change here is a new layout and needs a new MANIFEST_FORMAT
    @pytest.mark.parametrize("num_rows, row_values, sizes", [
        (10201, 3296, [309] * 8 + [310] + ([309] * 7 + [310]) * 3),  # the 3.5 GHz preset's sounding rows
        (2601, 3296, [289] * 9),  # the 27.5 GHz preset's
        (676, 960, [676]),
        (7, 2**19 + 1, [2, 2, 3]),
        (1, 5, [1]),
    ])
    def test_pinned_blocks(self, num_rows, row_values, sizes):
        assert [b.stop - b.start for b in row_blocks(num_rows, row_values)] == sizes


class TestIqRecordFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        path = tmp_path / "rec.maiq"
        write_iq_record(path, samples)
        np.testing.assert_array_equal(read_iq_record(path, 64), samples)

    def test_write_is_byte_stable(self, tmp_path):
        samples = np.arange(8) * (1 + 1j)
        a, b = tmp_path / "a.maiq", tmp_path / "b.maiq"
        write_iq_record(a, samples)
        write_iq_record(b, samples)
        assert a.read_bytes() == b.read_bytes()

    def test_file_is_the_samples_alone(self, tmp_path):
        # no header: the file is the N little-endian complex128 values
        samples = np.array([1.5 - 2j, -0.25 + 1e-300j, 0j])
        path = tmp_path / "rec.maiq"
        write_iq_record(path, samples)
        assert path.read_bytes() == samples.astype("<c16").tobytes()

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "rec.maiq"
        write_iq_record(path, np.ones(16, dtype=complex))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated IQ record .*: 248 bytes, not the 256 of 16 samples"):
            read_iq_record(path, 16)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "rec.maiq"
        write_iq_record(path, np.ones(16, dtype=complex))
        with open(path, "ab") as fh:
            fh.write(bytes(16))
        with pytest.raises(ValueError, match="oversized"):
            read_iq_record(path, 16)

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        # a file that shrinks between the size check and the read
        path = tmp_path / "rec.maiq"
        write_iq_record(path, np.ones(16, dtype=complex))
        full_size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-64])
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=full_size))
        with pytest.raises(ValueError, match="short read"):
            read_iq_record(path, 16)

    def test_payload_write_holds_no_copy(self, tmp_path):
        # the payload is written from the sample array's own buffer, not a bytes copy
        n = 1 << 16  # a 1 MiB payload
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        path = tmp_path / "rec.maiq"
        tracemalloc.start()
        try:
            write_iq_record(path, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 16 * n, f"{peak / (16 * n):.2f} payloads' bytes"
        np.testing.assert_array_equal(read_iq_record(path, n), samples)

    def test_payload_read_holds_one_copy(self, tmp_path):
        # reading into the sample array directly: no bytes object, no astype copy
        n = 1 << 16  # a 1 MiB payload
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        path = tmp_path / "rec.maiq"
        write_iq_record(path, samples)
        tracemalloc.start()
        try:
            back = read_iq_record(path, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 16 * n, f"{peak / (16 * n):.2f} payloads' bytes"
        assert back.tobytes() == samples.tobytes()
        assert back.flags.writeable and back.dtype == np.complex128
