"""Single-bin DFT tone power meter tests: the zero-padded FFT oracle, exactness
on-bin, scalloping off-bin, noise behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masim.channel import MovementRegion, Position, gain_map
from masim.harness import compare_maps
from masim.powermeter import _bin_phasor, default_fft_size, measure_power, sweep_measure
from masim.presets import hall_psi_3p5ghz
from masim.signals import NoiseSpec, add_noise, apply_channel, derive_seed, gen_tone

FS = 400e6
T = 1 / FS


def tone_capture(h, num_samples=4096, f0=50e6, tx_power=1.0):
    return h * np.sqrt(tx_power) * gen_tone(f0, num_samples, T)


def zero_padded_fft_bin(samples, f0_hz, fft_size):
    """Reference meter: bin k_hat of the capture zero-padded to fft_size points and FFT'd."""
    n = len(samples)
    padded = np.zeros(fft_size, dtype=np.complex128)
    padded[:n] = samples
    k_hat = int(round(fft_size * T * f0_hz)) % fft_size
    return k_hat, float(np.abs(np.fft.fft(padded)[k_hat]) ** 2) / n**2


class TestZeroPad:
    """The meter against its definition: one bin of the zero-padded FFT."""

    def test_default_size_is_8x_next_pow2(self):
        assert default_fft_size(4096) == 32768
        assert default_fft_size(1000) == 8192

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_zero_padded_fft(self, data):
        n = data.draw(st.integers(min_value=1, max_value=128), label="n")
        ns = default_fft_size(n)
        values = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
        samples = np.array(data.draw(st.lists(values, min_size=n, max_size=n), label="samples"), dtype=np.complex128)
        f0 = data.draw(st.floats(min_value=-0.49, max_value=0.49), label="f0 / fs") * FS
        m = measure_power(samples, T, f0)
        k_hat, p_ref = zero_padded_fft_bin(samples, f0, ns)
        assert m.peak_bin == k_hat
        # approx's default abs=1e-12 covers a bin that rounds to ~0 in both sums
        assert m.power_linear == pytest.approx(p_ref, rel=1e-9)

    def test_cached_phasor_is_read_only(self):
        phasor = _bin_phasor(64, 512, 64)
        assert _bin_phasor(64, 512, 64) is phasor
        with pytest.raises(ValueError, match="read-only"):
            phasor[0] = 0.0


class TestMeasurePower:
    def test_on_bin_exact(self):
        # |h|^2 = 0.5 at p_t = 2 must read exactly 1.0: the tone sits on an
        # FFT bin (f0 = fs/8 divides the padded grid), so no scalloping
        h = np.sqrt(0.5) * np.exp(1j * 0.7)
        m = measure_power(tone_capture(h, tx_power=2.0), T, 50e6)
        assert m.power_linear == pytest.approx(1.0, rel=1e-12)
        assert m.power_db == pytest.approx(0.0, abs=1e-9)

    def test_reports_expected_bin(self):
        m = measure_power(tone_capture(1.0), T, 50e6)
        # f0/fs = 1/8 of a 32768-point grid
        assert m.peak_bin == 4096
        assert m.fft_size == 32768

    def test_negative_frequency_bin_wraps(self):
        m = measure_power(tone_capture(1.0, f0=-50e6), T, f0_hz=-50e6)
        assert m.peak_bin == 32768 - 4096

    def test_off_bin_scalloping_matches_sinc(self):
        # worst case: tone half a bin off the padded grid
        n, ns = 4096, 32768
        k = 2048
        f_mid = (k + 0.5) / (ns * T)
        m = measure_power(gen_tone(f_mid, n, T), T, f_mid)
        delta = n * (T * f_mid - m.peak_bin / ns)
        assert m.power_linear == pytest.approx(float(np.sinc(delta)) ** 2, rel=1e-6)

    def test_longer_window_same_power(self):
        p_short = measure_power(tone_capture(0.8, num_samples=2048), T, 50e6).power_linear
        p_long = measure_power(tone_capture(0.8, num_samples=8192), T, 50e6).power_linear
        assert p_long == pytest.approx(p_short, rel=1e-9)

    @settings(max_examples=30)
    @given(scale_db=st.floats(min_value=-40.0, max_value=20.0, allow_nan=False))
    def test_scale_equivariance(self, scale_db):
        c = 10.0 ** (scale_db / 20.0)
        base = measure_power(tone_capture(1.0, num_samples=512), T, 50e6)
        scaled = measure_power(tone_capture(c, num_samples=512), T, 50e6)
        assert scaled.power_db == pytest.approx(base.power_db + scale_db, abs=1e-9)

    def test_rejects_out_of_band_tone(self):
        with pytest.raises(ValueError, match="Nyquist"):
            measure_power(tone_capture(1.0), T, f0_hz=300e6)

    def test_variance_shrinks_with_window_length(self):
        spec = NoiseSpec(0.25, FS)
        sizes = [256, 1024, 4096, 16384]
        variances = []
        for n in sizes:
            tone = gen_tone(50e6, n, T)
            vals = []
            for trial in range(200):
                noisy = add_noise(tone, spec, derive_seed(99, "var", n, trial))
                vals.append(measure_power(noisy, T, 50e6).power_linear)
            variances.append(np.var(vals))
        assert variances[0] > variances[1] > variances[2] > variances[3]


class TestSweep:
    def sweep_captures(self, noise_power=0.0, tx_power=1.0, region=MovementRegion(0.5, 0.0, 5e-3, 5e-3)):
        # the default 101-point line keeps this quick
        psi = hall_psi_3p5ghz()
        tone = gen_tone(50e6, 4096, T)
        spec = NoiseSpec(noise_power, FS) if noise_power > 0 else None
        captures = []
        for i, (x, y) in enumerate(region.positions_array()):
            rx = apply_channel(np.sqrt(tx_power) * tone, psi, Position(x, y))
            if spec is not None:
                rx = add_noise(rx, spec, derive_seed(4, "tone", i))
            captures.append(rx)
        return psi, region, captures

    def test_rejects_incomplete_grid(self):
        # three captures leave one point of a 2 x 2 region unmeasured
        region = MovementRegion(1e-3, 1e-3, 1e-3, 1e-3)
        with pytest.raises(ValueError, match="3 captures for the 4 points"):
            sweep_measure(region, [tone_capture(1.0, num_samples=64)] * 3, T, 50e6)

    def test_rejects_more_captures_than_points(self):
        region = MovementRegion(1e-3, 1e-3, 1e-3, 1e-3)
        with pytest.raises(ValueError, match="5 captures for the 4 points"):
            sweep_measure(region, iter([tone_capture(1.0, num_samples=64)] * 5), T, 50e6)

    def test_noiseless_sweep_matches_gain_map(self):
        psi, region, captures = self.sweep_captures(tx_power=2.0)
        pm = sweep_measure(region, captures, T, 50e6)
        gm = gain_map(psi, region)
        report = compare_maps(gm, pm)
        assert report.correlation >= 1.0 - 1e-9
        # offset is 10log10(beta * p_t) with beta = 1
        assert report.offset_db == pytest.approx(10 * np.log10(2.0), abs=1e-9)
        assert report.max_abs_residual_db < 1e-9

    def test_noisy_sweep_mostly_within_half_db(self):
        psi, region, captures = self.sweep_captures(noise_power=0.01)
        pm = sweep_measure(region, captures, T, 50e6)
        gm = gain_map(psi, region)
        dev = np.abs(pm.values_db - gm.values_db)
        assert np.mean(dev < 0.5) >= 0.99

    def test_one_pass_over_a_generator(self):
        # a campaign on disk is streamed in, so any one-pass iterable must do
        psi, region, captures = self.sweep_captures(noise_power=0.01)
        expect = sweep_measure(region, captures, T, 50e6)
        got = sweep_measure(region, (c for c in captures), T, 50e6)
        np.testing.assert_array_equal(got.values_db, expect.values_db)

    def test_powers_land_row_major_on_the_region_grid(self):
        # capture q belongs to point q of the region, y slowest
        psi, region, captures = self.sweep_captures(noise_power=0.01, region=MovementRegion(0.02, 0.015, 5e-3, 5e-3))
        pm = sweep_measure(region, captures, T, 50e6)
        assert pm.values_db.shape == region.shape == (4, 5)
        np.testing.assert_array_equal(pm.x_m, region.grid_x())
        np.testing.assert_array_equal(pm.y_m, region.grid_y())
        assert region.positions_array()[7].tolist() == [pm.x_m[2], pm.y_m[1]]
        assert pm.values_db[1, 2] == measure_power(captures[7], T, 50e6).power_db

    def test_rejects_empty_and_mixed_records(self):
        region = MovementRegion(1e-3, 0.0, 1e-3, 1e-3)
        with pytest.raises(ValueError, match="0 captures"):
            sweep_measure(region, iter([]), T, 50e6)
        captures = [tone_capture(1.0, num_samples=64), tone_capture(1.0, num_samples=32)]
        with pytest.raises(ValueError, match="disagree"):
            sweep_measure(region, iter(captures), T, 50e6)

    def test_map_shape_and_argmax(self):
        psi, region, captures = self.sweep_captures()
        pm = sweep_measure(region, captures, T, 50e6)
        assert pm.values_db.shape == region.shape
        best = pm.argmax_position()
        iy, ix = np.unravel_index(np.argmax(pm.values_db), pm.values_db.shape)
        assert best == Position(float(pm.x_m[ix]), float(pm.y_m[iy]))

    def test_csv_round_trip(self, tmp_path):
        from masim.channel import read_grid_csv

        _, region, captures = self.sweep_captures()
        pm = sweep_measure(region, captures, T, 50e6)
        path = tmp_path / "power.csv"
        pm.to_csv(path)
        xs, ys, values, column = read_grid_csv(path)
        assert column == "power_dbr"
        np.testing.assert_allclose(values, pm.values_db, atol=1e-6)
