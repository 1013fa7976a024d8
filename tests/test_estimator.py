"""Angle/delay/amplitude estimation chain tests.

The heavyweight campaign fixtures come from conftest: a noisy 27.5 GHz
51x51 sweep and a noiseless 3.5 GHz 101x101 sweep of the hall path sets.
"""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masim import estimator
from masim.channel import (
    CSV_BLOCK_ROWS,
    MovementRegion,
    PathComponent,
    PathStateInfo,
    channel_response,
    gain_field,
    path_phase,
    response_factors,
    to_db,
)
from masim.codec import ConfigError, encode
from masim.estimator import (
    ANGLE_STEP_DEG,
    PAS_TAPER_BETA,
    MAX_PATHS,
    PEAK_PROMINENCE_DB,
    SCAN_ANGLES_DEG,
    DegenerateGeometryError,
    PasMatrix,
    PdsMatrix,
    SoundingCampaign,
    _cap_unit_power,
    array_response,
    compute_pas,
    compute_pds,
    estimate_delay_amplitude,
    estimate_psi,
    find_paths,
    zf_weights,
)
from masim.harness import (
    build_sounding_campaign,
    load_psi,
    load_sounding_campaign,
    save_psi,
    synthesize_campaign,
)
from masim.mover import brute_force_best, coarse_position
from masim.presets import hall_psi_3p5ghz, hall_psi_27p5ghz
from masim.signals import OfdmNumerology, derive_seed, qpsk_symbols

from conftest import make_hi_scenario, make_lo_scenario, records_campaign, sounding_records

SMALL_NUM = OfdmNumerology(subcarrier_spacing_hz=480e3, num_subcarriers=64, num_symbols=16,
                           cp_duration_s=4.0 / (64 * 480e3))


def small_config(extent=0.02, step=1e-3, noise_power=0.0, seed=5, numerology=SMALL_NUM, y_extent=None):
    cfg = make_hi_scenario(master_seed=seed, noise_power=noise_power)
    y_extent = extent if y_extent is None else y_extent
    return type(cfg).from_json_dict(
        {
            **cfg.to_json_dict(),
            "sounding_region": {
                "x_extent_m": extent, "y_extent_m": y_extent, "x_step_m": step, "y_step_m": step,
            },
            "numerology": {
                "subcarrier_spacing_hz": numerology.subcarrier_spacing_hz,
                "num_subcarriers": numerology.num_subcarriers,
                "num_symbols": numerology.num_symbols,
                "cp_duration_s": numerology.cp_duration_s,
            },
        }
    )


def small_campaign(psi, **kwargs):
    return build_sounding_campaign(small_config(**kwargs), psi)


def tx_symbols_of(cfg):
    num = cfg.numerology
    return qpsk_symbols(num.num_subcarriers, num.num_symbols, derive_seed(cfg.master_seed, "tx"))


def one_path_psi(el=3.0, az=2.0, delay=22.7e-9):
    return PathStateInfo(paths=(PathComponent(el, az, 1.0, delay),), carrier_hz=27.5e9)


def noise_campaign(q_side=10, seed=3, power=0.5, n_snap=128):
    """Noise-only statistics on a q_side x q_side grid; power 0 gives all-zero ones."""
    rng = np.random.default_rng(seed)
    q = q_side * q_side

    def noise(cols):
        return math.sqrt(power / 2.0) * (rng.standard_normal((q, cols)) + 1j * rng.standard_normal((q, cols)))

    side = (q_side - 1) * 1e-3
    region = MovementRegion(side, side, 1e-3, 1e-3)
    return SoundingCampaign(region, SMALL_NUM, 27.5e9, np.hstack([noise(SMALL_NUM.num_subcarriers), noise(n_snap)]))


def oracle_raw_subcarrier_response(samples, num, tx_symbols):
    """The batched (Q, M, I) form of the campaign's response before calibration: per-symbol
    payload FFTs, equalized, symbol-averaged.

    samples is the (Q, N) matrix of all record samples, row-major like the region's points.
    """
    i_n, m_n = num.num_subcarriers, num.num_symbols
    y = samples.reshape(len(samples), m_n, num.samples_per_symbol)
    payload = y[:, :, num.cp_samples:]
    spec = np.fft.fft(payload, axis=2)  # (Q, M, I)
    eq = spec / (i_n * tx_symbols.T[None, :, :])
    return np.mean(eq, axis=1)


def oracle_snapshot_matrix(samples, num, max_snapshots=128):
    """(n_snap, Q) matrix of the first symbol's received snapshots, CP samples excluded, from the (Q, N) samples."""
    payload_idx = num.cp_samples + np.arange(num.num_subcarriers)
    if max_snapshots < len(payload_idx):
        sel = np.unique(np.round(np.linspace(0, len(payload_idx) - 1, max_snapshots)).astype(int))
        payload_idx = payload_idx[sel]
    return samples[:, payload_idx].T


def oracle_direct_pas(campaign):
    """PAS by a direct scan: f^H R f at every scan angle over all Q positions, one elevation row at a time.

    Uses the same separable Kaiser taper as compute_pas, applied per position.
    """
    xs, ys = campaign.region.grid_x(), campaign.region.grid_y()
    taper = np.outer(np.kaiser(len(ys), PAS_TAPER_BETA), np.kaiser(len(xs), PAS_TAPER_BETA)).ravel()
    pos = campaign.region.positions_array()  # row-major (y, x), like the taper
    y = campaign.samples_matrix() * taper[:, None]  # (Q, n_snap)
    lam = campaign.wavelength_m
    az = np.radians(SCAN_ANGLES_DEG)
    pas = np.empty((len(az), len(az)))
    for ie, el in enumerate(np.radians(SCAN_ANGLES_DEG)):
        d = np.outer(math.cos(el) * np.sin(az), pos[:, 0]) + math.sin(el) * pos[None, :, 1]
        pas[ie] = np.sum(np.abs(np.exp(2j * np.pi * d / lam) @ y) ** 2, axis=1)
    return pas


def full_table_pas(campaign):
    """compute_pas with its stage-2 phasor table z formed at every elevation, none mirrored: its bit-exact oracle."""
    els = azs = SCAN_ANGLES_DEG
    lam = campaign.wavelength_m
    snaps = campaign.samples_matrix().T
    n_snap = snaps.shape[0]
    el_rad = np.radians(els)
    xs, ys = campaign.region.grid_x(), campaign.region.grid_y()
    nx = len(xs)
    w2d = np.outer(np.kaiser(len(ys), PAS_TAPER_BETA), np.kaiser(nx, PAS_TAPER_BETA))
    s3 = snaps.reshape(n_snap, len(ys), nx) * w2d[None, :, :]
    e_y = path_phase(np.outer(np.sin(el_rad), ys), lam).conj()
    lag = np.empty((len(els), nx), dtype=np.complex128)
    block = max(1, (1 << 18) // (n_snap * nx))
    for start in range(0, len(els), block):
        rows = slice(start, start + block)
        c = np.tensordot(e_y[rows], s3, axes=([1], [1]))
        gram = np.matmul(c.transpose(0, 2, 1), c.conj())
        for d in range(nx):
            lag[rows, d] = np.trace(gram, offset=-d, axis1=1, axis2=2)
    dx = (xs[-1] - xs[0]) / max(nx - 1, 1)
    z = path_phase(dx * np.outer(np.cos(el_rad), np.sin(np.radians(azs))), lam).conj()
    acc = np.zeros_like(z)
    for d in range(nx - 1, 0, -1):
        acc += lag[:, d, None]
        acc *= z
    pas = lag[:, :1].real + 2.0 * acc.real
    np.maximum(pas, 0.0, out=pas)
    return pas


def separate_delay_power(h_freq, first_bin=0):
    """|I-point IDFT|^2 of each h_freq row at delay bins first_bin..I-1, (Q, I - first_bin), a block of rows at a time.

    The transform estimate_psi's noise floor (first_bin I // 2) and compute_pds (first_bin 0) each ran on
    its own: the oracle of the one SoundingCampaign.delay_power they share.
    """
    q, i_n = h_freq.shape
    power = np.empty((q, i_n - first_bin))
    block = max(1, (1 << 20) // i_n)
    for start in range(0, q, block):
        rows = slice(start, start + block)
        power[rows] = np.abs(np.fft.ifft(h_freq[rows], axis=1)[:, first_bin:]) ** 2
    return power


def delay_campaign():
    """A fresh noisy 11 x 11 sweep of the 27.5 GHz hall paths at 5 mm.

    The noise floor sums each row of its (121, 416) upper half, then the row
    sums; a mean over the whole half sums in another order, so the oracle
    sums as the floor does.
    """
    cfg = dataclasses.replace(make_hi_scenario(noise_power=0.01),
                              sounding_region=MovementRegion(0.05, 0.05, 5e-3, 5e-3))
    return build_sounding_campaign(cfg, hall_psi_27p5ghz())


class TestScanAxis:
    def test_covers_pm_90_in_half_degree_steps(self):
        assert ANGLE_STEP_DEG == 0.5
        np.testing.assert_array_equal(SCAN_ANGLES_DEG, -90.0 + 0.5 * np.arange(361))
        assert SCAN_ANGLES_DEG[0] == -90.0 and SCAN_ANGLES_DEG[-1] == 90.0 and len(SCAN_ANGLES_DEG) == 361
        assert not SCAN_ANGLES_DEG.flags.writeable


class TestArrayResponse:
    def test_reference_position_is_one(self):
        f = array_response(37.0, -12.0, np.zeros((1, 2)), 0.0109)
        np.testing.assert_allclose(f, [1.0], atol=1e-15)

    def test_half_wavelength_pair_at_endfire(self):
        lam = 0.0109
        positions = np.array([[0.0, 0.0], [lam / 2, 0.0]])
        f = array_response(0.0, 90.0, positions, lam)
        np.testing.assert_allclose(f, [1.0, -1.0], atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        el=st.one_of(st.sampled_from(SCAN_ANGLES_DEG.tolist()), st.floats(-90.0, 90.0)),
        az=st.one_of(st.sampled_from(SCAN_ANGLES_DEG.tolist()), st.floats(-90.0, 90.0)),
        carrier_hz=st.sampled_from([hall_psi_3p5ghz().carrier_hz, hall_psi_27p5ghz().carrier_hz]),
        q=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conjugate_of_field_response(self, el, az, carrier_hz, q, seed):
        # the estimator steers with exp(-j*2*pi*d/lambda), the conjugate of the
        # field response: the phase a unit, zero-delay path picks up in the
        # model, bit for bit, since both come from one kernel
        unit = PathStateInfo(paths=(PathComponent(el, az, 1.0, 0.0),), carrier_hz=carrier_hz)
        pos = np.random.default_rng(seed).uniform(0.0, 0.5, size=(q, 2))
        f = array_response(el, az, pos, unit.wavelength_m)
        assert np.array_equal(f, response_factors(unit, pos)[0][:, 0])

    def test_unit_modulus(self):
        rng = np.random.default_rng(2)
        positions = rng.uniform(0, 0.05, size=(40, 2))
        f = array_response(33.0, -71.0, positions, 0.0109)
        np.testing.assert_allclose(np.abs(f), 1.0, atol=1e-12)


class TestPas:
    def test_single_path_argmax_exact(self):
        camp = small_campaign(one_path_psi())
        pas = compute_pas(camp)
        ie, ia = np.unravel_index(np.argmax(pas.values), pas.values.shape)
        assert SCAN_ANGLES_DEG[ie] == 3.0
        assert SCAN_ANGLES_DEG[ia] == 2.0

    def test_noise_only_is_flat(self):
        pas = compute_pas(noise_campaign(n_snap=1024))
        ratio = float(np.max(pas.values) / np.min(pas.values))
        assert ratio < 2.0

    def test_values_nonnegative(self):
        pas = compute_pas(noise_campaign(seed=8))
        assert np.all(pas.values >= 0.0)

    def test_zero_samples_give_zero_spectrum(self):
        camp = noise_campaign(power=0.0)
        pas = compute_pas(camp)
        np.testing.assert_array_equal(pas.values, np.zeros_like(pas.values))
        assert find_paths(pas) == []

    def test_gridded_matches_generic_scan(self):
        camp = small_campaign(one_path_psi(), extent=0.005)
        np.testing.assert_allclose(compute_pas(camp).values, oracle_direct_pas(camp), rtol=1e-9)

    @pytest.mark.parametrize("extent, y_extent, shape", [
        (6e-3, 3e-3, (4, 7)),  # non-square
        (6e-3, 0.0, (1, 7)),  # a track along x
        (0.0, 6e-3, (7, 1)),  # a single x column: no lags beyond 0
        (0.032, 1e-3, (2, 33)),  # a wide x axis: degree 32, over more than one block of elevations
    ], ids=["7x4", "x_track", "x_column", "33x2"])
    def test_lag_sums_match_generic_scan(self, extent, y_extent, shape):
        camp = small_campaign(hall_psi_27p5ghz(), extent=extent, y_extent=y_extent)
        xs, ys = camp.region.grid_x(), camp.region.grid_y()
        assert (len(ys), len(xs)) == shape
        np.testing.assert_allclose(compute_pas(camp).values, oracle_direct_pas(camp), rtol=1e-9)

    @pytest.mark.parametrize("extent, y_extent", [(0.02, 0.02), (6e-3, 0.0), (0.0, 6e-3), (0.032, 1e-3)],
                             ids=["21x21", "x_track", "x_column", "33x2"])
    def test_mirrored_phasor_table_is_the_full_one(self, extent, y_extent):
        # cos(el) is even, so the el < 0 rows of z copied from the el > 0 rows change no bit of the PAS
        camp = small_campaign(hall_psi_27p5ghz(), extent=extent, y_extent=y_extent, noise_power=0.01)
        assert np.array_equal(compute_pas(camp).values, full_table_pas(camp))

    def test_campaign_must_tile_a_grid(self):
        # rows for 8 of the 9 points of a 3 x 3 region: the PAS scan runs over its whole grid
        region = MovementRegion(2e-3, 2e-3, 1e-3, 1e-3)
        h_freq = np.zeros((9, SMALL_NUM.num_subcarriers), dtype=complex)
        snaps = np.zeros((9, 128), dtype=complex)
        SoundingCampaign(region, SMALL_NUM, 27.5e9, np.hstack([h_freq, snaps]))
        with pytest.raises(ValueError, match="for 9 positions"):
            SoundingCampaign(region, SMALL_NUM, 27.5e9, np.hstack([h_freq[:-1], snaps[:-1]]))

    def test_csv_pins_max_at_zero_db(self, tmp_path):
        camp = small_campaign(one_path_psi(), extent=0.004)
        pas = compute_pas(camp)
        path = tmp_path / "pas.csv"
        pas.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "elevation_deg,azimuth_deg,pas_db"
        best = max(float(line.split(",")[2]) for line in path.read_text().splitlines()[1:])
        assert best == 0.0


class TestFindPaths:
    def test_single_path_single_peak(self):
        camp = small_campaign(one_path_psi())
        peaks = find_paths(compute_pas(camp))
        assert len(peaks) == 1
        assert (peaks[0].elevation_deg, peaks[0].azimuth_deg) == (3.0, 2.0)
        assert peaks[0].rel_max_db == 0.0

    def test_hall_27p5_returns_three(self, hi_campaign):
        peaks = find_paths(compute_pas(hi_campaign))
        assert len(peaks) == 3
        truth = [(3.0, 2.0), (2.5, -48.5), (2.5, 49.5)]
        for el, az in truth:
            best = min(peaks, key=lambda p: abs(p.elevation_deg - el) + abs(p.azimuth_deg - az))
            assert abs(best.elevation_deg - el) <= 0.5 + 1e-9
            assert abs(best.azimuth_deg - az) <= 0.5 + 1e-9

    def test_hall_3p5_returns_five_strongest_three_exact(self, lo_campaign):
        peaks = find_paths(compute_pas(lo_campaign))
        assert len(peaks) == 5
        assert [(p.elevation_deg, p.azimuth_deg) for p in peaks[:3]] == [
            (-0.5, 49.5),
            (2.0, 2.0),
            (1.0, -47.0),
        ]
        for p, (el, az) in zip(peaks[3:], [(15.5, 51.5), (14.0, -52.0)]):
            assert abs(p.elevation_deg - el) <= 0.5 + 1e-9
            assert abs(p.azimuth_deg - az) <= 0.5 + 1e-9

    def test_peaks_sorted_by_strength(self, lo_campaign):
        peaks = find_paths(compute_pas(lo_campaign))
        values = [p.value for p in peaks]
        assert values == sorted(values, reverse=True)
        assert peaks[0].rel_max_db == 0.0

    @pytest.mark.parametrize("shape", [(37, 37), (361,)])
    def test_pas_off_the_scan_grid_is_refused(self, shape):
        # a 37 x 37 PAS peaked at cell (20, 30) would read back as (-80, -75) degrees,
        # and a 1-D one would fail inside find_paths with a bare IndexError
        values = np.zeros(shape)
        values[(20, 30)[:len(shape)]] = 1.0
        with pytest.raises(ValueError, match=r"PAS values must be \(361, 361\)"):
            PasMatrix(values)

    def test_max_paths_caps_output(self):
        # 12 isolated peaks, all within PEAK_PROMINENCE_DB of the strongest: the MAX_PATHS strongest come back
        values = np.zeros((361, 361))
        heights = 1.0 - 0.05 * np.arange(12)
        cells = [(30 * (k // 4) + 30, 30 * (k % 4) + 30) for k in range(12)]
        for (ie, ia), height in zip(cells, heights):
            values[ie, ia] = height
        peaks = find_paths(PasMatrix(values))
        assert MAX_PATHS == 8 and len(peaks) == MAX_PATHS
        assert [p.value for p in peaks] == list(heights[:MAX_PATHS])

    def test_prominence_threshold_drops_weak_paths(self):
        # peaks at 0, -19.9 and -20.1 dB: the last is beyond PEAK_PROMINENCE_DB
        values = np.zeros((361, 361))
        for ie, rel_db in ((50, 0.0), (150, -19.9), (250, -20.1)):
            values[ie, 100] = 10.0 ** (rel_db / 10.0)
        peaks = find_paths(PasMatrix(values))
        assert PEAK_PROMINENCE_DB == 20.0
        assert [p.rel_max_db for p in peaks] == pytest.approx([0.0, -19.9])
        assert [(p.elevation_deg, p.azimuth_deg) for p in peaks] == [(-65.0, -40.0), (-15.0, -40.0)]


def two_projection_zf_weights(found_angles, target_index, positions, wavelength_m):
    """(1/sqrt(Q)) (I - F_o (F_o^H F_o)^-1 F_o^H) f_t, the projection applied twice, F_o the other found paths'
    responses: the per-path weights the estimator formed before its one fit, the oracle of zf_weights.

    Raises DegenerateGeometryError as they did: Q <= L, cond(F_o^H F_o) > 1e10, or a target that lies in
    the other paths' span.
    """
    q = positions.shape[0]
    if q <= len(found_angles):
        raise DegenerateGeometryError("too few positions")
    f_t = array_response(*found_angles[target_index], positions, wavelength_m)
    others = [a for i, a in enumerate(found_angles) if i != target_index]
    if not others:
        return f_t / math.sqrt(q)
    f_mat = np.column_stack([array_response(e, a, positions, wavelength_m) for (e, a) in others])
    gram = f_mat.conj().T @ f_mat
    if np.linalg.cond(gram) > 1e10:
        raise DegenerateGeometryError("angles too close")
    w = f_t - f_mat @ np.linalg.solve(gram, f_mat.conj().T @ f_t)
    w = w - f_mat @ np.linalg.solve(gram, f_mat.conj().T @ w)
    if np.linalg.norm(w) < 1e-6 * np.linalg.norm(f_t):
        raise DegenerateGeometryError("target in the interferer span")
    return w / math.sqrt(q)


class TestZeroForcing:
    @settings(max_examples=200, deadline=None)
    @given(
        side=st.integers(1, 12),
        aperture=st.floats(1e-3, 0.2),
        wavelength=st.floats(5e-3, 0.2),
        angles=st.lists(st.tuples(st.floats(-90.0, 90.0), st.floats(-90.0, 90.0)), min_size=1, max_size=6),
        target=st.integers(0, 5),
    )
    def test_matches_the_two_projection_weights(self, side, aperture, wavelength, angles, target):
        # the fit's weights equal the two projections wherever the full Gram matrix's condition is at most
        # 1e10, and every geometry those refused, the fit refuses too. The two agree to a few eps times that
        # condition, the error bound of a solve through the normal equations (Higham, Accuracy and Stability
        # of Numerical Algorithms, ch. 20), against the unit scale of f_t / sqrt(Q); relative to ||w|| alone
        # they part by up to 1e-6 where the target nearly lies in the other paths' span
        target %= len(angles)
        positions = MovementRegion(aperture, aperture, aperture / side, aperture / side).positions_array()
        try:
            want = two_projection_zf_weights(angles, target, positions, wavelength)
        except DegenerateGeometryError:
            with pytest.raises(DegenerateGeometryError):
                zf_weights(angles, target, positions, wavelength)
            return
        f_mat = np.column_stack([array_response(e, a, positions, wavelength) for (e, a) in angles])
        cond = np.linalg.cond(f_mat.conj().T @ f_mat)
        if cond > 1e10:
            return
        got = zf_weights(angles, target, positions, wavelength)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want) + 8 * np.finfo(float).eps * cond

    def test_single_path_weight_is_scaled_steering(self):
        lam = 0.0109
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 0.05, size=(25, 2))
        w = zf_weights([(3.0, 2.0)], 0, positions, lam)
        f = array_response(3.0, 2.0, positions, lam)
        np.testing.assert_allclose(w, f / 5.0, atol=1e-12)

    def test_orthogonal_pair_passes_untouched(self):
        lam = 0.01
        positions = np.column_stack([np.arange(8) * lam / 2, np.zeros(8)])
        angles = [(0.0, 0.0), (0.0, 90.0)]  # steering vectors orthogonal on this line
        f1 = array_response(0.0, 0.0, positions, lam)
        f2 = array_response(0.0, 90.0, positions, lam)
        assert abs(np.vdot(f1, f2)) < 1e-12
        w1 = zf_weights(angles, 0, positions, lam)
        np.testing.assert_allclose(w1, f1 / np.sqrt(8), atol=1e-12)

    def test_nulls_other_paths(self, lo_campaign):
        peaks = find_paths(compute_pas(lo_campaign))
        angles = [(p.elevation_deg, p.azimuth_deg) for p in peaks]
        positions = lo_campaign.region.positions_array()
        lam = lo_campaign.wavelength_m
        w0 = zf_weights(angles, 0, positions, lam)
        for el, az in angles[1:]:
            f = array_response(el, az, positions, lam)
            assert abs(np.vdot(w0, f)) < 1e-10
        # the target passes with real positive gain
        gain = np.vdot(w0, array_response(*angles[0], positions, lam))
        assert gain.real > 0.0 and abs(gain.imag) < 1e-10

    def test_duplicate_angles_degenerate(self):
        positions = np.random.default_rng(1).uniform(0, 0.05, size=(30, 2))
        with pytest.raises(DegenerateGeometryError):
            zf_weights([(3.0, 2.0), (3.0, 2.0)], 0, positions, 0.0109)

    def test_too_few_positions_degenerate(self):
        positions = np.zeros((3, 2))
        with pytest.raises(DegenerateGeometryError):
            zf_weights([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], 0, positions, 0.01)

    def test_target_index_range(self):
        with pytest.raises(IndexError):
            zf_weights([(0.0, 0.0)], 1, np.zeros((4, 2)), 0.01)


# 2048 subcarriers and 2 symbols: each statistics record is I + 128 = 2176 values
STREAM_NUM = OfdmNumerology(subcarrier_spacing_hz=120e3, num_subcarriers=2048, num_symbols=2,
                             cp_duration_s=128.0 / (2048 * 120e3))


class TestStreamedReductions:
    """The record oracle's per-record reductions equal, bit for bit, the batched reductions of the
    (Q, N) samples; a campaign takes one statistics row per region point and loads one record at a time."""

    def test_hi_campaign_matches_batched_oracle(self):
        cfg = make_hi_scenario()
        tx = tx_symbols_of(cfg)
        samples = np.vstack(list(sounding_records(cfg, hall_psi_27p5ghz(), tx)))
        camp = records_campaign(cfg, hall_psi_27p5ghz())
        assert np.array_equal(camp.h_freq, oracle_raw_subcarrier_response(samples, cfg.numerology, tx))
        assert np.array_equal(camp.samples_matrix(), oracle_snapshot_matrix(samples, cfg.numerology).T)

    @pytest.mark.parametrize("announced", [63, 65])
    def test_announced_count_must_match(self, announced):
        # 64 positions, with one row too few or too many
        camp = noise_campaign(q_side=8)
        h_freq = np.zeros((announced, SMALL_NUM.num_subcarriers), dtype=complex)
        snaps = np.zeros((announced, 128), dtype=complex)
        with pytest.raises(ValueError, match=r"rows must be \(64, 64 \+ n_snap\)"):
            SoundingCampaign(camp.region, SMALL_NUM, 27.5e9, np.hstack([h_freq, snaps]))

    def test_rejects_zero_snapshots(self):
        # 0 snapshots would leave an all-zero PAS with no paths in it
        camp = noise_campaign(q_side=2)
        with pytest.raises(ValueError, match="n_snap >= 1"):
            SoundingCampaign(camp.region, SMALL_NUM, 27.5e9, np.hstack([camp.h_freq, np.zeros((4, 0), dtype=complex)]))

    def test_memory_bounded_by_a_few_records(self, tmp_path):
        # loading keeps the statistics and the one record file being read, a block of 400 positions:
        # holding the block before it too (two blocks) or reading every block first (four) fails
        cfg = small_config(extent=0.039, numerology=STREAM_NUM)  # 40 x 40 positions
        cdir = synthesize_campaign(cfg, one_path_psi(), "ofdm", tmp_path / "camp")
        block_bytes = (cdir / "block_0000.maiq").stat().st_size
        assert len(list(cdir.glob("*.maiq"))) == 4 and block_bytes == 400 * 2176 * 16
        tracemalloc.start()
        try:
            camp = load_sounding_campaign(cdir)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = camp.h_freq.nbytes + camp.samples_matrix().nbytes
        assert camp.num_positions == 1600 and held == 4 * block_bytes
        assert peak - held < 1.5 * block_bytes, f"{(peak - held) / block_bytes:.2f} blocks over the statistics"

    def test_samples_matrix_is_the_snapshots_uncopied(self):
        h_freq = np.zeros((4, SMALL_NUM.num_subcarriers), dtype=complex)
        snaps = np.arange(8.0).reshape(4, 2).astype(complex)
        camp = SoundingCampaign(MovementRegion(1e-3, 1e-3, 1e-3, 1e-3), SMALL_NUM, 27.5e9, np.hstack([h_freq, snaps]))
        view = camp.samples_matrix()
        assert np.shares_memory(view, camp.rows) and np.array_equal(view, snaps)
        assert camp.samples_matrix() is view


class TestDelayAmplitude:
    def test_on_grid_delay_recovered_exactly(self):
        # 3 delay bins = 97.7 ns, simulable within the 130 ns cyclic prefix
        tau = 3.0 / SMALL_NUM.occupied_bandwidth_hz
        camp = small_campaign(one_path_psi(delay=tau))
        est = estimate_psi(camp)
        assert est.num_paths == 1
        assert est.paths[0].delay_s == pytest.approx(tau, abs=1e-13)
        assert est.paths[0].amplitude == pytest.approx(1.0, abs=1e-6)

    def test_bogus_angle_dropped_with_warning(self):
        camp = small_campaign(one_path_psi(), noise_power=0.01, seed=9)
        with pytest.warns(UserWarning, match="dropping"):
            est = estimate_delay_amplitude(camp, [(3.0, 2.0), (-40.0, -70.0)])
        assert est.num_paths == 1
        assert est.paths[0].elevation_deg == 3.0

    def test_every_path_dropped_raises(self, monkeypatch):
        # no delay peak clears an infinite bar, so the fit's two responses are both dropped;
        # an estimate with no paths used to be returned and written
        camp = small_campaign(one_path_psi(), noise_power=0.01, seed=9)
        monkeypatch.setattr(estimator, "MIN_PEAK_TO_MEDIAN_DB", math.inf)
        with pytest.warns(UserWarning, match="dropping"), pytest.raises(ValueError, match="dominant delay peak"):
            estimate_delay_amplitude(camp, [(3.0, 2.0), (-40.0, -70.0)])

    def test_no_angles_raises(self, monkeypatch):
        # an empty angle list reached the fit and failed there with numpy's "need at least one array to concatenate"
        camp = small_campaign(one_path_psi())
        with pytest.raises(ValueError, match="no paths found in the angular spectrum"):
            estimate_delay_amplitude(camp, [])
        monkeypatch.setattr(estimator, "find_paths", lambda pas: [])
        with pytest.raises(ValueError, match="no paths found in the angular spectrum"):
            estimate_psi(camp)

    def test_cyclic_prefix_past_half_a_symbol(self):
        # a 48-sample CP of I = 64 admits the strong path at 40.3 delay bins, in the upper half
        # of the delay range, which the noise floor read as path-free
        num = OfdmNumerology(480e3, 64, 16, 48 / (64 * 480e3))
        step = num.delay_step_s
        paths = (PathComponent(-20.0, 40.0, 0.9, 40.3 * step), PathComponent(3.0, 2.0, 0.4, 2.1 * step))
        psi = PathStateInfo(paths=paths, carrier_hz=27.5e9)
        est = estimate_psi(small_campaign(psi, extent=0.03, numerology=num, noise_power=0.01))
        assert [(p.elevation_deg, p.azimuth_deg) for p in est.paths] == [(-20.0, 40.0), (3.0, 2.0)]
        assert [p.delay_s / step for p in est.paths] == pytest.approx([40.3, 2.1], abs=1e-3)
        # the two explain all of the planted power, 0.97
        want = [0.9 / math.sqrt(0.97), 0.4 / math.sqrt(0.97)]
        assert [p.amplitude for p in est.paths] == pytest.approx(want, abs=1e-3)

    def test_cyclic_prefix_of_a_whole_symbol_leaves_no_noise_bin(self):
        num = OfdmNumerology(480e3, 64, 16, 64 / (64 * 480e3))
        camp = small_campaign(one_path_psi(), extent=0.03, numerology=num, noise_power=0.01)
        with pytest.raises(ValueError, match="no delay bin"):
            estimate_psi(camp)


class TestPds:
    def test_rows_peak_at_exactly_one(self, hi_campaign):
        pds = compute_pds(hi_campaign)
        np.testing.assert_array_equal(np.max(pds.values, axis=1), np.ones(pds.values.shape[0]))

    def test_single_path_energy_concentrates(self):
        tau = 3.0 / SMALL_NUM.occupied_bandwidth_hz
        camp = small_campaign(one_path_psi(delay=tau))
        pds = compute_pds(camp)
        bins = np.arange(pds.values.shape[1])
        mask_far = np.abs(bins - 3) > 3
        # leakage beyond +-3 bins of the planted delay stays 20 dB down
        assert np.max(pds.values[:, mask_far]) < 10.0 ** (-20.0 / 10.0)

    def test_delay_axis(self):
        camp = small_campaign(one_path_psi(), extent=0.003)
        pds = compute_pds(camp)
        step = 1.0 / SMALL_NUM.occupied_bandwidth_hz
        assert pds.delay_step_s == pytest.approx(step, rel=1e-12)
        np.testing.assert_allclose(pds.delays_s()[:3], [0.0, step, 2 * step], rtol=1e-12)

    def test_csv_converts_to_db_a_block_at_a_time(self, tmp_path, monkeypatch):
        # no (Q, num_delay_bins) dB matrix is held next to the values while the rows are written
        sizes = []

        def recording_to_db(values):
            sizes.append(values.size)
            return to_db(values)

        monkeypatch.setattr(estimator, "to_db", recording_to_db)
        pds = PdsMatrix(values=np.random.default_rng(2).uniform(1e-6, 1.0, (100, 2000)), delay_step_s=1e-9)
        pds.to_csv(tmp_path / "pds.csv")
        assert sum(sizes) == pds.values.size and max(sizes) <= CSV_BLOCK_ROWS


class TestOneDelayTransform:
    """estimate_psi's noise floor and compute_pds read one delay transform per campaign."""

    @pytest.fixture(scope="class")
    def oracle(self):
        # the noise floor, the estimate on it and the PDS, each from its own transform
        camp = delay_campaign()
        h = camp.h_freq
        upper = separate_delay_power(h, h.shape[1] // 2)
        noise = float(np.sum(np.sum(upper, axis=1)) / upper.size)  # row sums, then their sum
        pds = separate_delay_power(h)
        pds /= np.max(pds, axis=1)[:, None]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_noise_per_bin", lambda campaign: noise)
            est = estimate_psi(camp)
        return noise, est, pds

    @pytest.mark.parametrize("order", [("estimate", "pds"), ("pds", "estimate")], ids=["estimate_first", "pds_first"])
    def test_either_order_matches_the_separate_transforms(self, oracle, order):
        noise, want_est, want_pds = oracle
        camp = delay_campaign()
        spectra = []
        for call in order:
            for _ in range(2):
                if call == "estimate":
                    assert estimator._noise_per_bin(camp) == noise
                    assert estimate_psi(camp) == want_est
                else:
                    spectra.append(compute_pds(camp))
        # the first PDS is read after every later call: none of them wrote into it
        assert spectra[0].values is not spectra[1].values
        for pds in spectra:
            assert np.array_equal(pds.values, want_pds)

    def test_noise_floor_copies_no_delay_power(self):
        # the floor sums each row's upper bins where they lie; it used to copy the (Q, I/2) upper half first
        camp = delay_campaign()
        power = camp.delay_power()
        tracemalloc.start()
        try:
            estimator._noise_per_bin(camp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < power.nbytes / 8, f"{peak} bytes against an upper half of {power.nbytes // 2}"

    def test_estimate_keeps_the_transform_and_the_pds_takes_it(self):
        camp = delay_campaign()
        estimate_psi(camp)
        power = camp.delay_power()
        assert camp.delay_power() is power
        assert compute_pds(camp).values is power
        assert camp.delay_power() is not power


def two_projection_estimate(campaign):
    """estimate_psi with each path's response read as w_t^H h_freq / w_t^H f_t through the two-projection
    weights: the per-path chain the one fit replaced.

    The weights over conj(w_t^H f_t) stand in for F, and the identity for (F^H F)^-1, so the estimator's
    per-path products form exactly those responses.
    """
    pas = compute_pas(campaign)
    angles = [(p.elevation_deg, p.azimuth_deg) for p in find_paths(pas)]
    positions, lam = campaign.region.positions_array(), campaign.wavelength_m
    columns = []
    for t, angle in enumerate(angles):
        w = two_projection_zf_weights(angles, t, positions, lam)
        columns.append(w / np.conj(np.vdot(w, array_response(*angle, positions, lam))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "_path_fit", lambda *args: (np.column_stack(columns), np.eye(len(columns))))
        return estimate_psi(campaign, pas=pas)


# one sounding chain in a fresh process: the BLAS thread count it reports, asked as perfbench/worker.py's
# blas_threads asks, then the estimate's JSON
THREAD_SCRIPT = """
import ctypes, glob, json, sys
from pathlib import Path
import numpy as np
from masim import build_sounding_campaign, estimate_psi, hall_psi_3p5ghz
from masim.harness import ScenarioConfig

def blas_threads():
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0

camp = build_sounding_campaign(ScenarioConfig.load(sys.argv[1]), hall_psi_3p5ghz())
print(blas_threads())
print(json.dumps(estimate_psi(camp).to_json_dict()))
"""


class TestOneFit:
    """Every found path's response comes from one least-squares fit, and it gives the paths the per-path chain gave."""

    @pytest.fixture(scope="class")
    def noisy_lo_campaign(self):
        # 101 x 101 at 5 mm, 832 x 2, noise 0.01, seed 1
        return build_sounding_campaign(make_lo_scenario(master_seed=1, noise_power=0.01), hall_psi_3p5ghz())

    @pytest.mark.parametrize("campaign", ["hi_campaign", "noisy_lo_campaign"])
    def test_matches_the_per_path_chain(self, request, campaign):
        camp = request.getfixturevalue(campaign)
        got, want = estimate_psi(camp), two_projection_estimate(camp)
        assert want.num_paths >= 3
        angles = [[(p.elevation_deg, p.azimuth_deg) for p in est.paths] for est in (got, want)]
        assert angles[0] == angles[1]
        for g, w in zip(got.paths, want.paths):
            assert abs(g.delay_s - w.delay_s) <= 1e-15
            assert abs(g.amplitude - w.amplitude) <= 1e-12

    def test_estimate_is_the_same_at_one_and_two_blas_threads(self, tmp_path):
        # at 10,201 positions OpenBLAS splits a product's sums over positions across threads; the estimate's
        # bytes used to follow the thread count
        cfg_path = tmp_path / "scenario.json"
        make_lo_scenario(master_seed=1, noise_power=0.01).save(cfg_path)
        path = os.pathsep.join([str(Path(estimator.__file__).parents[1]), *sys.path])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "PYTHONPATH": path}
            run = subprocess.run([sys.executable, "-c", THREAD_SCRIPT, str(cfg_path)], env=env,
                                 capture_output=True, text=True, check=True)
            outputs.append(run.stdout.splitlines())
        if int(outputs[1][0]) < 2:
            pytest.skip(f"the two-thread process runs {outputs[1][0]} BLAS threads")
        assert outputs[0][1] == outputs[1][1]


class TestEstimatePsi:
    def test_step_above_half_wavelength_raises(self):
        # lambda/2 = 5.45 mm at 27.5 GHz; at 6.25 mm the estimate returned phantom
        # paths at azimuth -90 and 90 deg and raised nothing
        cfg = dataclasses.replace(make_hi_scenario(noise_power=0.01),
                                  sounding_region=MovementRegion(0.05, 0.05, 6.25e-3, 6.25e-3))
        with pytest.raises(DegenerateGeometryError, match="lambda/2"):
            estimate_psi(build_sounding_campaign(cfg, hall_psi_27p5ghz()))

    def test_step_below_half_wavelength_recovers_planted_paths(self):
        cfg = dataclasses.replace(make_hi_scenario(noise_power=0.01),
                                  sounding_region=MovementRegion(0.05, 0.05, 5e-3, 5e-3))
        truth = hall_psi_27p5ghz()
        est = estimate_psi(build_sounding_campaign(cfg, truth))
        assert est.num_paths == truth.num_paths
        for p in truth.paths:
            err = min(max(abs(e.elevation_deg - p.elevation_deg), abs(e.azimuth_deg - p.azimuth_deg))
                      for e in est.paths)
            assert err <= ANGLE_STEP_DEG + 1e-9

    def test_precomputed_pas_matches_internal(self, hi_campaign):
        pas = compute_pas(hi_campaign)
        est1 = estimate_psi(hi_campaign, pas=pas)
        est2 = estimate_psi(hi_campaign)
        assert est1 == est2

    def test_empty_spectrum_raises(self):
        camp = noise_campaign(power=0.0)
        with pytest.raises(ValueError, match="no paths|noise floor"):
            estimate_psi(camp)


class TestEstimatedPsiModel:
    """An estimate is a PathStateInfo: paths by descending amplitude, sum(a^2) <= 1."""

    def test_json_round_trip(self, hi_estimate, lo_estimate, tmp_path):
        for est in (hi_estimate, lo_estimate):
            save_psi(tmp_path / "estimated_psi.json", est)
            assert load_psi(tmp_path / "estimated_psi.json") == est

    def test_unknown_field_rejected(self):
        # the estimator output of an earlier format carried these two fields
        data = encode(PathStateInfo((PathComponent(3.0, 2.0, 0.9, 22.7e-9),), carrier_hz=27.5e9))
        data["paths"][0]["prominence_db"] = 0.0
        with pytest.raises(ConfigError, match=r"PathStateInfo\.paths\[0\]: unknown fields \['prominence_db'\]"):
            PathStateInfo.from_json_dict(data)
        data["grid_step_deg"] = 0.5
        with pytest.raises(ConfigError, match=r"PathStateInfo: unknown fields \['grid_step_deg'\]"):
            PathStateInfo.from_json_dict(data)

    def test_amplitude_order_enforced(self, hi_estimate, lo_estimate):
        for est in (hi_estimate, lo_estimate):
            assert isinstance(est, PathStateInfo)
            amps = [p.amplitude for p in est.paths]
            assert amps == sorted(amps, reverse=True)

    def test_empty_paths_refused(self):
        with pytest.raises(ValueError, match="at least one path"):
            PathStateInfo(paths=(), carrier_hz=1e9)
        with pytest.raises(ConfigError, match="at least one path"):
            PathStateInfo.from_json_dict({"paths": [], "carrier_hz": 1e9})

    def test_unit_power_cap_enforced(self, hi_estimate, lo_estimate):
        for est in (hi_estimate, lo_estimate):
            assert 0.0 < sum(p.amplitude**2 for p in est.paths) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=64))
    def test_unit_power_cap_is_exact(self, amps):
        # a total power above 1 is scaled to 1, and the sum of squares in order never rounds above it
        amps = np.array(amps)
        total = sum(a * a for a in amps.tolist())
        capped = _cap_unit_power(amps)
        if total <= 1.0:
            assert capped is amps
            return
        assert sum(a * a for a in capped.tolist()) <= 1.0
        np.testing.assert_allclose(capped, amps / math.sqrt(total), rtol=1e-14, atol=0)
        assert np.all(np.diff(capped[np.argsort(amps)]) >= 0.0)  # the order of the amplitudes holds

    def test_estimate_drives_coarse_position(self, hi_estimate, lo_estimate):
        # in memory, no file between them: the coarse pick lands within acceptance 8's 0.5 dB of the best
        for est, truth, cfg in ((hi_estimate, hall_psi_27p5ghz(), make_hi_scenario()),
                                (lo_estimate, hall_psi_3p5ghz(), make_lo_scenario())):
            pick = coarse_position(est, cfg.region)
            _, best = brute_force_best(truth, cfg.region)
            got = float(gain_field(truth, np.array([pick.x_m]), np.array([pick.y_m]))[0, 0])
            assert 10.0 * math.log10(best / got) <= 0.5
