"""Numbered end-to-end acceptance checks with hard tolerance and runtime gates.

Each check prints one `acceptance N: ... PASS/FAIL` summary line (visible
without -s) before asserting, so a full run always yields a per-check
scoreboard. Runtime budgets are asserted, not just reported; the shared
campaign builds in conftest are memoized so the first check that needs one
pays for it inside its own timed section.
"""

import math
import time

import numpy as np

from masim.channel import MovementRegion, Position, channel_response, gain_field, gain_map
from masim.estimator import ANGLE_STEP_DEG, array_response, compute_pds, estimate_psi, zf_weights
from masim.harness import ScenarioConfig, run_pipeline
from masim.mover import SimulatedSlideTrack, brute_force_best, optimize
from masim.powermeter import measure_power, sweep_measure
from masim.presets import hall_psi_3p5ghz, hall_psi_27p5ghz
from masim.signals import NoiseSpec, OfdmNumerology, add_noise, apply_channel, gen_tone

from conftest import TEST_NUMEROLOGY, get_hi_campaign, get_hi_estimate, get_lo_campaign

MMWAVE_REGION = MovementRegion(0.05, 0.05, 0.5e-3, 0.5e-3)  # 101x101 fine grid


def _report(capsys, num, label, ok, detail, elapsed, budget_s):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance {num}: {label}: {status} [{detail}] ({elapsed:.1f}s of {budget_s:.0f}s)")


def _nearest_paths(truth_paths, est_paths):
    """Match each reference path to its angularly nearest estimate, bijectively."""
    pairs = []
    used = set()
    for tp in truth_paths:
        j = min(
            range(len(est_paths)),
            key=lambda k: (est_paths[k].elevation_deg - tp.elevation_deg) ** 2
            + (est_paths[k].azimuth_deg - tp.azimuth_deg) ** 2,
        )
        pairs.append((tp, est_paths[j]))
        used.add(j)
    assert len(used) == len(truth_paths), "path association collapsed onto one estimate"
    return pairs


def test_01_simulated_gain_extrema(capsys):
    t0 = time.perf_counter()
    gm = gain_map(hall_psi_27p5ghz(), MMWAVE_REGION)
    max_db = float(gm.values_db.max())
    min_db = float(gm.values_db.min())
    span_db = max_db - min_db
    elapsed = time.perf_counter() - t0
    ok = 3.5 <= max_db <= 3.9 and min_db <= -12.0 and span_db >= 16.0 and elapsed < 5.0
    _report(
        capsys, 1, "simulated gain extrema", ok,
        f"max {max_db:.3f} dB, min {min_db:.3f} dB, range {span_db:.3f} dB", elapsed, 5,
    )
    assert 3.5 <= max_db <= 3.9
    assert min_db <= -12.0
    assert span_db >= 16.0
    assert elapsed < 5.0


def test_02_gain_upper_bound(capsys):
    t0 = time.perf_counter()
    psi = hall_psi_27p5ghz()
    bound_lin = float(np.sum(psi.amplitudes)) ** 2
    max_lin = float(gain_field(psi, MMWAVE_REGION.grid_x(), MMWAVE_REGION.grid_y()).max())
    max_db = 10.0 * math.log10(max_lin)
    bound_db = 10.0 * math.log10(bound_lin)
    elapsed = time.perf_counter() - t0
    ok = max_lin <= bound_lin and max_db <= bound_db + 0.1 and elapsed < 5.0
    _report(
        capsys, 2, "coherent-sum upper bound", ok,
        f"max {max_db:.3f} dB vs bound {bound_db:.3f} dB", elapsed, 5,
    )
    assert abs(bound_lin - 2.3599) < 5e-4  # the planted amplitudes carry this bound
    assert max_lin <= bound_lin
    assert max_db <= bound_db + 0.1
    assert elapsed < 5.0


def test_03_psi_round_trip_27p5ghz(capsys):
    t0 = time.perf_counter()
    get_hi_campaign()  # 51x51 at 1 mm, 20 dB SNR
    est = get_hi_estimate()
    elapsed = time.perf_counter() - t0
    truth = hall_psi_27p5ghz()

    n_ok = est.num_paths == len(truth.paths)
    angle_err = delay_err = amp_err = float("inf")
    if n_ok:
        pairs = _nearest_paths(truth.paths, est.paths)
        angle_err = max(
            max(abs(e.elevation_deg - t.elevation_deg), abs(e.azimuth_deg - t.azimuth_deg))
            for t, e in pairs
        )
        delay_err = max(abs(e.delay_s - t.delay_s) for t, e in pairs)
        amp_err = max(abs(e.amplitude - t.amplitude) for t, e in pairs)
    power_frac = sum(p.amplitude**2 for p in est.paths)
    ok = (
        n_ok
        and angle_err <= 0.5 + 1e-9
        and delay_err <= 1e-9
        and amp_err <= 0.05
        and power_frac >= 0.99
        and elapsed < 120.0
    )
    _report(
        capsys, 3, "path recovery at 27.5 GHz", ok,
        f"{est.num_paths} paths, worst angle {angle_err:.3f} deg, "
        f"worst delay {delay_err * 1e9:.3f} ns, worst amplitude {amp_err:.4f}, "
        f"power fraction {power_frac:.4f}", elapsed, 120,
    )
    assert n_ok, f"expected {len(truth.paths)} paths, found {est.num_paths}"
    assert angle_err <= 0.5 + 1e-9
    assert delay_err <= 1e-9
    assert amp_err <= 0.05
    assert power_frac >= 0.99
    assert elapsed < 120.0


def test_04_psi_round_trip_3p5ghz(capsys):
    t0 = time.perf_counter()
    campaign = get_lo_campaign()  # 101x101 at 5 mm, noiseless
    est = estimate_psi(campaign)
    truth = hall_psi_3p5ghz()

    # the three strongest must land within one angle-grid step of the plant
    step = ANGLE_STEP_DEG
    pairs = _nearest_paths(truth.paths[:3], list(est.paths[:3]))
    angle_err = max(
        max(abs(e.elevation_deg - t.elevation_deg), abs(e.azimuth_deg - t.azimuth_deg))
        for t, e in pairs
    )

    # the equal-delay pair (34.8 ns at distinct azimuths) must be separable:
    # beamforming at one while nulling the rest leaves no response at the other
    angles = [(p.elevation_deg, p.azimuth_deg) for p in est.paths]
    positions = campaign.region.positions_array()
    lam = campaign.wavelength_m
    equal_delay = [tp for tp in truth.paths if abs(tp.delay_s - 34.8e-9) < 1e-12]
    idx = [
        min(
            range(len(est.paths)),
            key=lambda k: (est.paths[k].elevation_deg - tp.elevation_deg) ** 2
            + (est.paths[k].azimuth_deg - tp.azimuth_deg) ** 2,
        )
        for tp in equal_delay
    ]
    i_a, i_b = idx
    assert i_a != i_b
    w_a = zf_weights(angles, i_a, positions, lam)
    w_b = zf_weights(angles, i_b, positions, lam)
    f_a = array_response(*angles[i_a], positions, lam)
    f_b = array_response(*angles[i_b], positions, lam)
    # w^H f as a numpy sum, not the threaded BLAS dot np.vdot: the same digits at any thread count
    resid = max(abs(np.sum(w_a.conj() * f_b)), abs(np.sum(w_b.conj() * f_a)))
    elapsed = time.perf_counter() - t0

    ok = angle_err <= step + 1e-9 and resid < 1e-10 and elapsed < 120.0
    _report(
        capsys, 4, "path recovery at 3.5 GHz", ok,
        f"{est.num_paths} paths, strongest-three angle error {angle_err:.3f} deg, "
        f"equal-delay nulling residual {resid:.2e}", elapsed, 120,
    )
    assert angle_err <= step + 1e-9
    assert resid < 1e-10
    assert elapsed < 120.0


def test_05_tone_power_meter(capsys):
    t0 = time.perf_counter()
    psi = hall_psi_27p5ghz()
    f0, n, t = 50e6, 4096, 1.0 / 400e6
    tone = gen_tone(f0, n, t)

    # noiseless, tone exactly on an FFT bin: the meter must be exact
    best_pos, _ = brute_force_best(psi, MMWAVE_REGION)
    rel_err = 0.0
    for pos, pt in ((best_pos, 1.0), (Position(1e-3, 1e-3), 2.0)):
        rx = apply_channel(math.sqrt(pt) * tone, psi, pos)
        expect = abs(channel_response(psi, pos.as_array())[0, 0]) ** 2 * pt
        got = measure_power(rx, t, f0).power_linear
        rel_err = max(rel_err, abs(got - expect) / expect)

    # 20 dB SNR Monte Carlo: mean absolute dB error under 0.1 dB
    pos = Position(1e-3, 1e-3)
    rx_clean = apply_channel(tone, psi, pos)
    sig_power = abs(channel_response(psi, pos.as_array())[0, 0]) ** 2
    spec = NoiseSpec(power=sig_power / 100.0, bandwidth_hz=1.0 / t)
    true_db = 10.0 * math.log10(sig_power)
    errors = np.empty(1000)
    for i in range(1000):
        errors[i] = measure_power(add_noise(rx_clean, spec, i), t, f0).power_db - true_db
    mae_db = float(np.mean(np.abs(errors)))
    elapsed = time.perf_counter() - t0

    ok = rel_err <= 1e-9 and mae_db < 0.1 and elapsed < 30.0
    _report(
        capsys, 5, "tone power meter", ok,
        f"on-bin relative error {rel_err:.2e}, 20 dB SNR MAE {mae_db:.4f} dB over 1000 trials",
        elapsed, 30,
    )
    assert rel_err <= 1e-9
    assert mae_db < 0.1
    assert elapsed < 30.0


def test_06_delay_spectrum_properties(capsys):
    t0 = time.perf_counter()
    campaign = get_hi_campaign()
    pds = compute_pds(campaign)
    row_max = pds.values.max(axis=1)
    max_exact = bool(np.all(row_max == 1.0))
    los_bins = np.argmax(pds.values, axis=1)
    los_constant = len(np.unique(los_bins)) == 1
    expected_bin = round(min(p.delay_s for p in hall_psi_27p5ghz().paths) / campaign.numerology.delay_step_s)
    tau_d = OfdmNumerology.default().delay_step_s
    tau_ok = abs(tau_d - 2.630e-9) <= 1e-12
    elapsed = time.perf_counter() - t0

    ok = max_exact and los_constant and int(los_bins[0]) == expected_bin and tau_ok and elapsed < 60.0
    _report(
        capsys, 6, "delay spectrum properties", ok,
        f"per-position max exactly 1: {max_exact}, shared first-arrival bin {int(los_bins[0])}, "
        f"default delay step {tau_d * 1e9:.3f} ns", elapsed, 60,
    )
    assert max_exact
    assert los_constant
    assert int(los_bins[0]) == expected_bin
    assert tau_ok
    assert elapsed < 60.0


def test_07_power_map_matches_gain_map(capsys):
    from masim.harness import compare_maps

    t0 = time.perf_counter()
    psi = hall_psi_27p5ghz()
    pt = 2.0
    f0, n, t = 50e6, 1024, 1.0 / 400e6
    tone = gen_tone(f0, n, t)
    captures = [apply_channel(math.sqrt(pt) * tone, psi, Position(x, y))
                for x, y in MMWAVE_REGION.positions_array()]
    pm = sweep_measure(MMWAVE_REGION, captures, t, f0)
    gm = gain_map(psi, MMWAVE_REGION)
    report = compare_maps(gm, pm)
    expected_offset = 10.0 * math.log10(pt)
    elapsed = time.perf_counter() - t0

    ok = (
        report.correlation >= 1.0 - 1e-9
        and abs(report.offset_db - expected_offset) <= 1e-9
        and report.max_abs_residual_db <= 1e-9
        and elapsed < 60.0
    )
    _report(
        capsys, 7, "measured power vs simulated gain", ok,
        f"correlation {report.correlation:.12f}, offset {report.offset_db:.6f} dB "
        f"(expected {expected_offset:.6f}), residual {report.max_abs_residual_db:.2e} dB",
        elapsed, 60,
    )
    assert report.correlation >= 1.0 - 1e-9
    assert abs(report.offset_db - expected_offset) <= 1e-9
    assert report.max_abs_residual_db <= 1e-9
    assert elapsed < 60.0


def test_08_two_stage_positioning(capsys):
    t0 = time.perf_counter()
    psi = hall_psi_27p5ghz()
    track = SimulatedSlideTrack(
        psi=psi,
        region=MMWAVE_REGION,
        noise=NoiseSpec(power=0.01, bandwidth_hz=400e6),  # 20 dB below unit mean power
        f0_hz=50e6,
        num_samples=4096,
        master_seed=42,
    )
    result = optimize(psi, MMWAVE_REGION, track, refine_step_m=0.5e-3, budget=50)
    _, best_gain = brute_force_best(psi, MMWAVE_REGION)
    final = result.final_position
    achieved = float(gain_field(psi, np.array([final.x_m]), np.array([final.y_m]))[0, 0])
    gap_db = 10.0 * math.log10(best_gain / achieved)
    budget_frac = result.measurements_used / MMWAVE_REGION.num_points
    kinds = [k for k, _ in track.events]
    alternates = kinds == ["move", "ack", "measure"] * result.measurements_used
    elapsed = time.perf_counter() - t0

    ok = gap_db <= 0.5 and budget_frac <= 0.10 and alternates and elapsed < 60.0
    _report(
        capsys, 8, "two-stage antenna positioning", ok,
        f"gap to exhaustive best {gap_db:.3f} dB, {result.measurements_used} measurements "
        f"({100 * budget_frac:.1f}% of grid), strict move-ack-measure: {alternates}",
        elapsed, 60,
    )
    assert gap_db <= 0.5
    assert budget_frac <= 0.10
    assert alternates
    assert elapsed < 60.0


def test_09_pipeline_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        carrier_hz=27.5e9,
        bandwidth_hz=400e6,
        tx_position_m=(0.0, 1.3, 6.8),
        region=MovementRegion(0.02, 0.0, 1e-3, 1e-3),
        sounding_region=MovementRegion(0.025, 0.025, 1e-3, 1e-3),
        numerology=TEST_NUMEROLOGY,
        noise_power=0.01,
        tone_f0_hz=50e6,
        samples_per_measurement=4096,
        master_seed=7,
    )
    psi = hall_psi_27p5ghz()
    stages = ["sound", "estimate", "measure", "optimize", "export"]
    res_a = run_pipeline(cfg, psi, stages, tmp_path / "a")
    res_b = run_pipeline(cfg, psi, stages, tmp_path / "b")
    assert res_a.cached == set() and res_b.cached == set()

    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
    rel_a = [p.relative_to(tmp_path / "a") for p in files_a]
    rel_b = [p.relative_to(tmp_path / "b") for p in files_b]
    trees_match = rel_a == rel_b
    diffs = [] if trees_match else ["<tree layout differs>"]
    if trees_match:
        diffs = [str(pa.relative_to(tmp_path / "a"))
                 for pa, pb in zip(files_a, files_b) if pa.read_bytes() != pb.read_bytes()]
    elapsed = time.perf_counter() - t0

    ok = trees_match and not diffs and elapsed < 180.0
    _report(
        capsys, 9, "pipeline determinism", ok,
        f"{len(files_a)} artifacts, {len(diffs)} byte differences across independent runs",
        elapsed, 180,
    )
    assert trees_match
    assert diffs == []
    assert elapsed < 180.0
