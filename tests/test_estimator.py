"""Angle/delay/amplitude estimation chain tests.

The heavyweight campaign fixtures come from conftest: a noisy 27.5 GHz
51x51 sweep and a noiseless 3.5 GHz 101x101 sweep of the hall path sets.
"""

import math
import tracemalloc

import numpy as np
import pytest

from masim.channel import MovementRegion, PathComponent, PathStateInfo, Position, channel_response
from masim.estimator import (
    CALIBRATION_FLOOR,
    PAS_TAPER_BETA,
    AngleGrid,
    DegenerateGeometryError,
    EstimatedPath,
    EstimatedPsi,
    SoundingCampaign,
    array_response,
    compute_pas,
    compute_pds,
    estimate_delay_amplitude,
    estimate_psi,
    find_paths,
    frequency_response,
    zf_weights,
)
from masim.harness import build_sounding_campaign, iter_sounding_records
from masim.presets import hall_psi_27p5ghz
from masim.signals import IQRecord, NoiseSpec, OfdmNumerology, add_noise, derive_seed, qpsk_symbols

from conftest import make_hi_scenario, records_campaign

SMALL_NUM = OfdmNumerology(subcarrier_spacing_hz=480e3, num_subcarriers=64, num_symbols=16,
                           cp_duration_s=4.0 / (64 * 480e3))


def small_config(extent=0.02, step=1e-3, noise_power=0.0, seed=5, numerology=SMALL_NUM):
    cfg = make_hi_scenario(master_seed=seed, noise_power=noise_power)
    return type(cfg).from_json_dict(
        {
            **cfg.to_json_dict(),
            "sounding_region": {
                "x_extent_m": extent, "y_extent_m": extent, "x_step_m": step, "y_step_m": step,
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


def noise_campaign(q_side=10, seed=3, power=0.5, max_snapshots=128):
    """Noise-only records on a q_side x q_side grid; power 0 gives all-zero samples."""
    spec = NoiseSpec(power, SMALL_NUM.sample_rate_hz)
    t = SMALL_NUM.sample_interval_s
    n = SMALL_NUM.frame_samples
    records = []
    k = 0
    for iy in range(q_side):
        for ix in range(q_side):
            samples = add_noise(np.zeros(n, dtype=complex), spec, seed * 10000 + k)
            records.append(IQRecord(Position(ix * 1e-3, iy * 1e-3), samples, t, k))
            k += 1
    return SoundingCampaign(
        records=records,
        numerology=SMALL_NUM,
        tx_symbols=qpsk_symbols(SMALL_NUM.num_subcarriers, SMALL_NUM.num_symbols, 1),
        carrier_hz=27.5e9,
        max_snapshots=max_snapshots,
        num_records=len(records),
    )


def ripple_response():
    """A rippled system response over the SMALL_NUM subcarriers."""
    idx = np.arange(SMALL_NUM.num_subcarriers)
    return (1.0 + 0.3 * np.cos(2 * np.pi * idx / len(idx))) * np.exp(1j * 0.4 * np.sin(2 * np.pi * idx / len(idx)))


def ripple_records(sys=None):
    """Records of a 4x4 sweep through the system response sys (default: ripple_response()).

    Returns (records, tx_symbols, sys_response, truth), truth being the
    (Q, I) channel frequency response before the system response.
    """
    num = SMALL_NUM
    i_n, m_n = num.num_subcarriers, num.num_symbols
    psi = PathStateInfo(
        paths=(PathComponent(3.0, 2.0, 0.8, 22.7e-9), PathComponent(-5.0, 30.0, 0.5, 60e-9)),
        carrier_hz=27.5e9,
    )
    idx = np.arange(i_n)
    sys = ripple_response() if sys is None else sys
    b = qpsk_symbols(i_n, m_n, seed=6)
    lam = psi.wavelength_m
    region = MovementRegion(0.003, 0.003, 1e-3, 1e-3)
    records = []
    truth = []
    for k, pos in enumerate(region.positions()):
        h_i = np.zeros(i_n, dtype=complex)
        for p in psi.paths:
            d = (pos.x_m * np.cos(np.radians(p.elevation_deg)) * np.sin(np.radians(p.azimuth_deg))
                 + pos.y_m * np.sin(np.radians(p.elevation_deg)))
            h_l = p.amplitude * np.exp(-2j * np.pi * (d / lam + psi.carrier_hz * p.delay_s))
            h_i += h_l * np.exp(-2j * np.pi * idx * num.subcarrier_spacing_hz * p.delay_s)
        truth.append(h_i)
        payload = np.fft.ifft(b * sys[:, None] * h_i[:, None], axis=0) * i_n
        frame = np.concatenate([payload[-num.cp_samples :, :], payload], axis=0)
        records.append(IQRecord(pos, frame.T.reshape(-1), num.sample_interval_s, k))
    return records, b, sys, np.array(truth)


def oracle_raw_subcarrier_response(samples, num, tx_symbols):
    """The batched (Q, M, I) form of the campaign's response before calibration: per-symbol
    payload FFTs, equalized, symbol-averaged.

    samples is the (Q, N) matrix of all record samples in (y, x) order.
    """
    i_n, m_n = num.num_subcarriers, num.num_symbols
    y = samples.reshape(len(samples), m_n, num.samples_per_symbol)
    payload = y[:, :, num.cp_samples:]
    spec = np.fft.fft(payload, axis=2)  # (Q, M, I)
    eq = spec / (i_n * tx_symbols.T[None, :, :])
    return np.mean(eq, axis=1)


def oracle_snapshot_matrix(samples, num, max_snapshots=128):
    """(n_snap, Q) matrix of received snapshots, CP samples excluded, from the (Q, N) samples."""
    sym = num.samples_per_symbol
    payload_idx = np.concatenate(
        [m * sym + num.cp_samples + np.arange(num.num_subcarriers) for m in range(num.num_symbols)]
    )
    if max_snapshots < len(payload_idx):
        sel = np.unique(np.round(np.linspace(0, len(payload_idx) - 1, max_snapshots)).astype(int))
        payload_idx = payload_idx[sel]
    return samples[:, payload_idx].T


def oracle_direct_pas(campaign, grid):
    """PAS by a direct scan: f^H R f at every grid angle over all Q positions, one elevation row at a time.

    Uses the same separable Kaiser taper as compute_pas, applied per position.
    """
    xs, ys = campaign.grid_axes()
    taper = np.outer(np.kaiser(len(ys), PAS_TAPER_BETA), np.kaiser(len(xs), PAS_TAPER_BETA)).ravel()
    pos = campaign.positions_array()  # row-major (y, x), like the taper
    y = campaign.samples_matrix() * taper[:, None]  # (Q, n_snap)
    lam = campaign.wavelength_m
    az = np.radians(grid.azimuths_deg())
    pas = np.empty((len(grid.elevations_deg()), len(az)))
    for ie, el in enumerate(np.radians(grid.elevations_deg())):
        d = np.outer(math.cos(el) * np.sin(az), pos[:, 0]) + math.sin(el) * pos[None, :, 1]
        pas[ie] = np.sum(np.abs(np.exp(2j * np.pi * d / lam) @ y) ** 2, axis=1)
    return pas


def sorted_samples(records):
    """(Q, N) samples of records in (y, x) order, the order a campaign sorts its rows into."""
    return np.vstack([r.samples for r in sorted(records, key=lambda r: (r.position.y_m, r.position.x_m))])


class TestAngleGrid:
    def test_default_covers_pm_90(self):
        grid = AngleGrid()
        els = grid.elevations_deg()
        assert els[0] == -90.0 and els[-1] == 90.0 and len(els) == 361

    def test_rejects_non_dividing_step(self):
        with pytest.raises(ValueError, match="divide"):
            AngleGrid(elevation_step_deg=0.7)

    def test_rejects_nonpositive_step(self):
        # nan died in round(180 / step); inf was accepted with elevations [nan]
        for step in (0.0, math.nan, math.inf):
            for axis in ("elevation_step_deg", "azimuth_step_deg"):
                with pytest.raises(ValueError, match="angle steps"):
                    AngleGrid(**{axis: step})


class TestArrayResponse:
    def test_reference_position_is_one(self):
        f = array_response(37.0, -12.0, np.zeros((1, 2)), 0.0109)
        np.testing.assert_allclose(f, [1.0], atol=1e-15)

    def test_half_wavelength_pair_at_endfire(self):
        lam = 0.0109
        positions = np.array([[0.0, 0.0], [lam / 2, 0.0]])
        f = array_response(0.0, 90.0, positions, lam)
        np.testing.assert_allclose(f, [1.0, -1.0], atol=1e-12)

    def test_conjugate_of_field_response(self):
        # the estimator steers with exp(-j*2*pi*d/lambda), the conjugate of the
        # field response: the phase a unit, zero-delay path picks up in the model
        psi = PathStateInfo(
            paths=(
                PathComponent(3.0, 2.0, 0.8886, 22.7e-9),
                PathComponent(2.5, -48.5, 0.3423, 35.3e-9),
                PathComponent(2.5, 49.5, 0.3053, 34.8e-9),
            ),
            carrier_hz=27.5e9,
        )
        pos = np.array([[0.001, 0.001]])
        for p in psi.paths:
            unit = PathStateInfo(paths=(PathComponent(p.elevation_deg, p.azimuth_deg, 1.0, 0.0),),
                                 carrier_hz=psi.carrier_hz)
            f = array_response(p.elevation_deg, p.azimuth_deg, pos, psi.wavelength_m)
            assert f[0] == pytest.approx(channel_response(unit, pos)[0, 0], abs=1e-13)

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
        assert pas.elevations_deg[ie] == 3.0
        assert pas.azimuths_deg[ia] == 2.0

    def test_noise_only_is_flat(self):
        pas = compute_pas(noise_campaign(max_snapshots=1024), AngleGrid(2.0, 2.0))
        ratio = float(np.max(pas.values) / np.min(pas.values))
        assert ratio < 2.0

    def test_values_nonnegative(self):
        pas = compute_pas(noise_campaign(seed=8), AngleGrid(3.0, 4.0))
        assert np.all(pas.values >= 0.0)

    def test_zero_samples_give_zero_spectrum(self):
        camp = noise_campaign(power=0.0)
        pas = compute_pas(camp, AngleGrid(5.0, 5.0))
        np.testing.assert_array_equal(pas.values, np.zeros_like(pas.values))
        assert find_paths(pas) == []

    def test_gridded_matches_generic_scan(self):
        camp = small_campaign(one_path_psi(), extent=0.005)
        grid = AngleGrid(5.0, 5.0)
        np.testing.assert_allclose(compute_pas(camp, grid).values, oracle_direct_pas(camp, grid), rtol=1e-9)

    def test_campaign_must_tile_a_grid(self):
        # 8 of the 9 points of a 3 x 3 grid: the PAS scan runs over grid axes only
        zeros = np.zeros(SMALL_NUM.frame_samples, dtype=complex)
        records = [IQRecord(Position(ix * 1e-3, iy * 1e-3), zeros, SMALL_NUM.sample_interval_s, 3 * iy + ix)
                   for iy in range(3) for ix in range(3)]
        tx = qpsk_symbols(SMALL_NUM.num_subcarriers, SMALL_NUM.num_symbols, 1)
        SoundingCampaign(records=records, numerology=SMALL_NUM, tx_symbols=tx, carrier_hz=27.5e9, num_records=9)
        with pytest.raises(ValueError, match="complete grid"):
            SoundingCampaign(records=records[:-1], numerology=SMALL_NUM, tx_symbols=tx, carrier_hz=27.5e9,
                             num_records=8)

    def test_csv_pins_max_at_zero_db(self, tmp_path):
        camp = small_campaign(one_path_psi(), extent=0.004)
        pas = compute_pas(camp, AngleGrid(10.0, 10.0))
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

    def test_max_paths_caps_output(self, lo_campaign):
        peaks = find_paths(compute_pas(lo_campaign), max_paths=2)
        assert len(peaks) == 2

    @pytest.mark.parametrize("max_paths", [0, -1])
    def test_rejects_nonpositive_max_paths(self, max_paths):
        # -1 used to slice off the weakest peak, 0 to report "no paths found"
        pas = compute_pas(small_campaign(one_path_psi()))
        with pytest.raises(ValueError, match="max_paths"):
            find_paths(pas, max_paths=max_paths)

    @pytest.mark.parametrize("prominence_db", [-5.0, math.nan, math.inf])
    def test_rejects_bad_prominence(self, prominence_db):
        # -5 and nan kept no peak ("no paths found"); inf kept zero-valued maxima
        pas = compute_pas(small_campaign(one_path_psi(), extent=0.004), AngleGrid(10.0, 10.0))
        with pytest.raises(ValueError, match="prominence_db"):
            find_paths(pas, prominence_db=prominence_db)

    def test_prominence_threshold_drops_weak_paths(self, lo_campaign):
        # Table II peaks sit at 0, -0.4, -3.7, -11.6, -11.9 dB relative
        peaks = find_paths(compute_pas(lo_campaign), prominence_db=5.0)
        assert len(peaks) == 3


class TestZeroForcing:
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
        positions = lo_campaign.positions_array()
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


def ripple_campaign(records, b, sys_response=None, **kwargs):
    return SoundingCampaign(records=records, numerology=SMALL_NUM, tx_symbols=b, carrier_hz=27.5e9,
                            num_records=len(records), sys_response=sys_response, **kwargs)


class TestCalibration:
    def test_flat_response_divides_out(self):
        records, b, _, _ = ripple_records(sys=np.ones(SMALL_NUM.num_subcarriers))
        sys = 2.0 * np.exp(1j * np.pi / 4) * np.ones(SMALL_NUM.num_subcarriers)
        raw = ripple_campaign(records, b).h_freq
        cal = ripple_campaign(records, b, sys)
        assert cal.usable.all()
        np.testing.assert_allclose(cal.h_freq, raw * 0.5 * np.exp(-1j * np.pi / 4), atol=1e-12)

    def test_floor_flags_dead_subcarriers(self):
        # |H_sys| at or below the floor is dead; just above it is divided
        sys = np.ones(SMALL_NUM.num_subcarriers, dtype=complex)
        sys[1], sys[2], sys[3] = 1e-9, CALIBRATION_FLOOR, 2.0 * CALIBRATION_FLOOR
        records, b, _, _ = ripple_records(sys=np.ones(SMALL_NUM.num_subcarriers))
        camp = ripple_campaign(records, b, sys)
        assert np.flatnonzero(~camp.usable).tolist() == [1, 2]
        assert np.all(camp.h_freq[:, 1:3] == 0.0)
        assert np.all(camp.h_freq[:, 3] != 0.0)

    def test_ripple_round_trip(self):
        # synthesize through a rippled system response, then calibrate it out
        records, b, sys, truth = ripple_records()
        camp = ripple_campaign(records, b, sys)
        h_freq, usable = frequency_response(camp)
        assert usable.all()
        np.testing.assert_allclose(h_freq, truth, atol=1e-9)


STREAM_NUM = OfdmNumerology(subcarrier_spacing_hz=480e3, num_subcarriers=64, num_symbols=256,
                             cp_duration_s=4.0 / (64 * 480e3))


def stream_records(count=64, seed=0):
    """Noisy records of STREAM_NUM on an 8-wide grid, made one at a time."""
    spec = NoiseSpec(0.5, STREAM_NUM.sample_rate_hz)
    zeros = np.zeros(STREAM_NUM.frame_samples, dtype=complex)
    for k in range(count):
        pos = Position((k % 8) * 1e-3, (k // 8) * 1e-3)
        yield IQRecord(pos, add_noise(zeros, spec, seed + k), STREAM_NUM.sample_interval_s, k)


def stream_campaign(records, num_records=64, **kwargs):
    tx = qpsk_symbols(STREAM_NUM.num_subcarriers, STREAM_NUM.num_symbols, 1)
    return SoundingCampaign(records=records, numerology=STREAM_NUM, tx_symbols=tx, carrier_hz=27.5e9,
                            num_records=num_records, **kwargs)


class TestStreamedReductions:
    """Per-record reductions equal, bit for bit, the batched reductions of the (Q, N) samples."""

    def test_hi_campaign_matches_batched_oracle(self):
        cfg = make_hi_scenario()
        tx = tx_symbols_of(cfg)
        samples = sorted_samples(list(iter_sounding_records(cfg, hall_psi_27p5ghz(), tx)))
        camp = records_campaign(cfg, hall_psi_27p5ghz())
        assert np.array_equal(camp.h_freq, oracle_raw_subcarrier_response(samples, cfg.numerology, tx))
        assert np.array_equal(camp.samples_matrix(), oracle_snapshot_matrix(samples, cfg.numerology).T)

    def test_sys_response_campaign_matches_batched_oracle(self):
        records, b, sys, _ = ripple_records()
        # reversed capture order exercises the (y, x) sort
        camp = ripple_campaign(records[::-1], b, sys, max_snapshots=200)
        samples = sorted_samples(records)
        assert np.array_equal(camp.h_freq, oracle_raw_subcarrier_response(samples, SMALL_NUM, b) / sys)
        assert np.array_equal(camp.samples_matrix(), oracle_snapshot_matrix(samples, SMALL_NUM, 200).T)
        assert np.array_equal(camp.positions_array(), np.array([[r.position.x_m, r.position.y_m] for r in records]))

    @pytest.mark.parametrize("announced", [63, 65])
    def test_announced_count_must_match(self, announced):
        with pytest.raises(ValueError, match="announced"):
            stream_campaign(stream_records(), num_records=announced)

    def test_rejects_zero_snapshots(self):
        # 0 used to be accepted, leaving an all-zero PAS with no paths in it
        with pytest.raises(ValueError, match="max_snapshots"):
            stream_campaign(stream_records(count=2), max_snapshots=0)

    def test_memory_bounded_by_a_few_records(self):
        # keeping the 64 records would cost 64 records' bytes; the reductions
        # are under 1 record's worth (1 KiB of h_freq, 2 KiB of snapshots each)
        def traced_peak(consume):
            tracemalloc.start()
            try:
                consume(stream_records())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        record_bytes = STREAM_NUM.frame_samples * 16
        making = traced_peak(lambda records: all(records))  # synthesis of one record at a time
        building = traced_peak(stream_campaign)
        assert building - making < 3 * record_bytes, f"{(building - making) / record_bytes:.2f} records over synthesis"


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
        positions = camp.positions_array()
        lam = camp.wavelength_m
        angles = [(3.0, 2.0), (-40.0, -70.0)]
        weights = [zf_weights(angles, i, positions, lam) for i in range(2)]
        with pytest.warns(UserWarning, match="dropping"):
            est = estimate_delay_amplitude(camp, weights, angles, [0.0, 0.0], 0.5)
        assert est.num_paths == 1
        assert est.paths[0].elevation_deg == 3.0

    def test_weights_angles_must_pair(self):
        camp = small_campaign(one_path_psi(), extent=0.004)
        with pytest.raises(ValueError, match="pair"):
            estimate_delay_amplitude(camp, [np.ones(camp.num_positions)], [], [], 0.5)
        with pytest.raises(ValueError, match="pair"):
            estimate_delay_amplitude(camp, [np.ones(camp.num_positions)], [(3.0, 2.0)], [], 0.5)


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


class TestEstimatePsi:
    def test_record_order_irrelevant(self):
        cfg = small_config(noise_power=0.01, seed=13)
        psi = one_path_psi()
        tx = tx_symbols_of(cfg)
        est1 = estimate_psi(records_campaign(cfg, psi))
        shuffled = list(iter_sounding_records(cfg, psi, tx))
        np.random.default_rng(0).shuffle(shuffled)
        camp2 = SoundingCampaign(
            records=shuffled,
            numerology=cfg.numerology,
            tx_symbols=tx,
            carrier_hz=cfg.carrier_hz,
            num_records=len(shuffled),
        )
        est2 = estimate_psi(camp2)
        assert est1 == est2

    def test_precomputed_pas_matches_internal(self, hi_campaign):
        pas = compute_pas(hi_campaign)
        est1 = estimate_psi(hi_campaign, pas=pas)
        est2 = estimate_psi(hi_campaign)
        assert est1 == est2

    def test_empty_spectrum_raises(self):
        camp = noise_campaign(power=0.0)
        with pytest.raises(ValueError, match="no paths|noise floor"):
            estimate_psi(camp, AngleGrid(10.0, 10.0))


class TestEstimatedPsiModel:
    def make(self):
        return EstimatedPsi(
            paths=(
                EstimatedPath(3.0, 2.0, 0.9, 22.7e-9, 0.0),
                EstimatedPath(2.5, -48.5, 0.3, 35.3e-9, -8.3),
            ),
            carrier_hz=27.5e9,
            grid_step_deg=0.5,
        )

    def test_json_round_trip(self):
        est = self.make()
        assert EstimatedPsi.from_json_dict(est.to_json_dict()) == est

    def test_unknown_field_rejected(self):
        data = self.make().to_json_dict()
        data["mystery"] = 1
        with pytest.raises(ValueError, match="mystery"):
            EstimatedPsi.from_json_dict(data)

    def test_amplitude_order_enforced(self):
        with pytest.raises(ValueError, match="descending"):
            EstimatedPsi(
                paths=(
                    EstimatedPath(0.0, 0.0, 0.3, 0.0, 0.0),
                    EstimatedPath(1.0, 1.0, 0.9, 0.0, -1.0),
                ),
                carrier_hz=1e9,
                grid_step_deg=0.5,
            )

    def test_unit_power_cap_enforced(self):
        with pytest.raises(ValueError, match="power"):
            EstimatedPsi(
                paths=(EstimatedPath(0.0, 0.0, 1.2, 0.0, 0.0),),
                carrier_hz=1e9,
                grid_step_deg=0.5,
            )
