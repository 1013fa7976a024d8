"""Two-stage position optimization tests: coarse placement, measured refinement, protocol, probe law."""

import tracemalloc

import numpy as np
import pytest

from masim import mover
from masim.channel import (
    DbMap,
    MovementRegion,
    PathComponent,
    PathStateInfo,
    Position,
    channel_response,
    gain_field,
    to_db,
)
from masim.mover import (
    MoveAborted,
    MoveResult,
    SimulatedSlideTrack,
    brute_force_best,
    coarse_position,
    optimize,
    refine,
)
from masim.powermeter import measure_power
from masim.presets import hall_psi_3p5ghz, hall_psi_27p5ghz, scenario_3p5ghz, scenario_27p5ghz
from masim.signals import NoiseSpec, add_noise, apply_channel, derive_seed, gen_tone


def table3():
    return hall_psi_27p5ghz()


def hi_region():
    return MovementRegion(0.05, 0.05, 0.5e-3, 0.5e-3)


def make_track(psi, region, noise_power=0.01, seed=42, f0_hz=50e6, num_samples=4096, cls=SimulatedSlideTrack):
    return cls(
        psi=psi,
        region=region,
        noise=NoiseSpec(noise_power, 400e6),
        f0_hz=f0_hz,
        num_samples=num_samples,
        master_seed=seed,
    )


class CaptureAndMeterTrack(SimulatedSlideTrack):
    """Oracle: each probe synthesizes the whole noisy tone capture and meters it, seeded by its own counter."""

    def __init__(self, psi, region, noise, f0_hz, num_samples, master_seed):
        super().__init__(psi, region, noise, f0_hz, num_samples, master_seed)
        self.master_seed, self._probes = master_seed, 0
        self.noise, self.f0_hz, self.t = noise, f0_hz, 1.0 / noise.bandwidth_hz
        self.tone = gen_tone(f0_hz, num_samples, self.t)

    def measure(self):
        if self._position is None:
            raise RuntimeError("measure() before any acknowledged move")
        self.events.append(("measure", self._position))
        seed = derive_seed(self.master_seed, "probe", self._probes)
        self._probes += 1
        rx = apply_channel(self.tone, self.psi, self._position)
        return measure_power(add_noise(rx, self.noise, seed), self.t, self.f0_hz).power_db


class TestPlanValidation:
    @pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf")])
    def test_rejects_bad_step(self, step):
        track = make_track(table3(), hi_region())
        with pytest.raises(ValueError, match="refine_step_m"):
            refine(track, hi_region(), Position(0, 0), step, 50)
        assert track.events == []

    def test_rejects_zero_budget(self):
        track = make_track(table3(), hi_region())
        with pytest.raises(ValueError, match="budget"):
            refine(track, hi_region(), Position(0, 0), 1e-3, 0)
        assert track.events == []


class TestCoarse:
    def test_matches_brute_force_for_planted_psi(self):
        psi = table3()
        region = hi_region()
        best_pos, best_gain = brute_force_best(psi, region)
        assert coarse_position(psi, region) == best_pos
        assert best_gain == float(np.max(gain_field(psi, region.grid_x(), region.grid_y())))

    @pytest.mark.parametrize("scenario, hall_psi", [(scenario_3p5ghz, hall_psi_3p5ghz),
                                                    (scenario_27p5ghz, hall_psi_27p5ghz)])
    def test_is_the_pointwise_argmax_on_preset_regions(self, scenario, hall_psi):
        # np.argmax over the row-major points keeps DbMap's tie order: smallest y, then x
        psi = hall_psi()
        for region in (scenario().region, scenario().sounding_region):
            points = region.positions_array()
            x, y = points[int(np.argmax(np.abs(channel_response(psi, points)[:, 0]) ** 2))]
            assert coarse_position(psi, region) == Position(float(x), float(y))

    def test_single_path_field_is_flat(self):
        # one path cannot interfere with itself: gain 1 everywhere (to roundoff)
        psi = PathStateInfo(paths=(PathComponent(3.0, 2.0, 1.0, 10e-9),), carrier_hz=27.5e9)
        region = MovementRegion(0.01, 0.01, 1e-3, 1e-3)
        np.testing.assert_allclose(gain_field(psi, region.grid_x(), region.grid_y()), 1.0, atol=1e-12)

    def test_exact_ties_break_to_smallest_y_then_x(self):
        values = np.zeros((3, 3))
        values[0, 1] = values[2, 2] = 2.0  # two exact ties
        gm = DbMap(x_m=np.array([0.0, 1.0, 2.0]), y_m=np.array([0.0, 1.0, 2.0]), values_db=values, column="gain_db")
        assert gm.argmax_position() == Position(1.0, 0.0)

    def test_costs_no_measurements(self):
        psi = table3()
        region = hi_region()
        track = make_track(psi, region)
        coarse_position(psi, region)
        assert track.events == []

    def test_perturbed_estimates_stay_within_3db(self):
        # estimator-shaped errors: delays off by whole carrier cycles (the
        # phase-consistent snap only errs that way) and angles off by up to
        # half the search grid step
        psi = table3()
        region = hi_region()
        _, best_gain = brute_force_best(psi, region)
        best_db = 10 * np.log10(best_gain)
        rng = np.random.default_rng(7)
        fc = psi.carrier_hz
        worst = 0.0
        for _ in range(100):
            paths = tuple(
                PathComponent(
                    p.elevation_deg + rng.uniform(-0.5, 0.5),
                    p.azimuth_deg + rng.uniform(-0.5, 0.5),
                    p.amplitude,
                    p.delay_s + rng.integers(-14, 15) / fc,
                )
                for p in psi.paths
            )
            est = PathStateInfo(paths=paths, carrier_hz=fc)
            pos = coarse_position(est, region)
            got_db = 10 * np.log10(_true_gain(psi, pos))
            worst = max(worst, best_db - got_db)
        assert worst < 3.0


def _true_gain(psi, pos):
    return float(gain_field(psi, np.array([pos.x_m]), np.array([pos.y_m]))[0, 0])


class TestRefine:
    def test_budget_is_hard_cap(self):
        psi = table3()
        region = hi_region()
        track = make_track(psi, region)
        result = refine(track, region, Position(0.02, 0.02), 0.5e-3, 5)
        assert result.measurements_used == 5
        assert len(result.trace) == 5

    def test_budget_one_measures_coarse_only(self):
        psi = table3()
        region = hi_region()
        track = make_track(psi, region)
        result = refine(track, region, Position(0.01, 0.015), 1e-3, 1)
        assert result.measurements_used == 1
        assert result.final_position == Position(0.01, 0.015)

    def test_final_is_best_of_trace(self):
        psi = table3()
        region = hi_region()
        result = refine(make_track(psi, region), region, Position(0.02, 0.02), 1e-3, 30)
        powers = [p for _, p in result.trace]
        assert result.final_power_dbr == max(powers)
        best_pos = result.trace[int(np.argmax(powers))][0]
        assert result.final_position == best_pos

    def test_noiseless_unimodal_climbs_to_peak(self):
        # single-fade bowl: two paths make a clean interference pattern
        psi = PathStateInfo(
            paths=(PathComponent(0.0, 30.0, 0.8, 20e-9), PathComponent(0.0, -30.0, 0.6, 25e-9)),
            carrier_hz=27.5e9,
        )
        region = MovementRegion(0.02, 0.02, 0.5e-3, 0.5e-3)
        track = make_track(psi, region, noise_power=0.0)
        start = Position(0.01, 0.01)
        result = refine(track, region, start, 1e-3, 60)
        assert _true_gain(psi, result.final_position) >= _true_gain(psi, start)
        assert result.measurements_used <= 60

    def test_abort_preserves_partial_trace(self):
        psi = table3()
        inner = MovementRegion(0.01, 0.01, 0.5e-3, 0.5e-3)
        outer = MovementRegion(0.05, 0.05, 0.5e-3, 0.5e-3)
        track = make_track(psi, inner)  # track cannot reach most of outer
        with pytest.raises(MoveAborted) as err:
            refine(track, outer, Position(0.03, 0.03), 1e-3, 20)
        assert isinstance(err.value.partial, MoveResult)
        assert err.value.partial.measurements_used == 0

    def test_strict_move_ack_measure_alternation(self):
        psi = table3()
        region = hi_region()
        track = make_track(psi, region)
        result = refine(track, region, Position(0.02, 0.02), 1e-3, 15)
        kinds = [kind for kind, _ in track.events]
        assert kinds == ["move", "ack", "measure"] * result.measurements_used

    def test_measure_before_move_rejected(self):
        track = make_track(table3(), hi_region())
        with pytest.raises(RuntimeError, match="before any acknowledged move"):
            track.measure()


class TestOptimize:
    def test_reaches_brute_force_neighborhood(self):
        psi = table3()
        region = hi_region()
        track = make_track(psi, region, seed=42)
        result = optimize(psi, region, track, refine_step_m=0.5e-3, budget=50)
        _, best_gain = brute_force_best(psi, region)
        best_db = 10 * np.log10(best_gain)
        true_db = 10 * np.log10(_true_gain(psi, result.final_position))
        assert true_db >= best_db - 0.5
        assert result.measurements_used <= 0.1 * region.num_points

    def test_json_trace_shape(self):
        psi = table3()
        region = hi_region()
        result = optimize(psi, region, make_track(psi, region), refine_step_m=1e-3, budget=8)
        data = result.to_json_dict()
        assert set(data) == {"final_position_m", "final_power_dbr", "measurements_used", "trace"}
        assert len(data["trace"]) == result.measurements_used
        assert data["trace"][0].keys() == {"x_m", "y_m", "power_dbr"}


class TestProbeLaw:
    """A probe draws the meter's bin with the law of metering a noisy capture."""

    POS = Position(0.0125, 0.031)

    @pytest.mark.parametrize("f0_hz", [50e6, 50.01e6])  # on the bin grid, and between two bins
    def test_noiseless_reading_equals_capture_and_meter(self, f0_hz):
        psi, region = table3(), hi_region()
        track = make_track(psi, region, noise_power=0.0, f0_hz=f0_hz)
        tone = gen_tone(f0_hz, 4096, 1 / 400e6)
        for x, y in [(0.0, 0.0), (0.0125, 0.031), (0.05, 0.0495), (0.0333, 0.002)]:
            pos = Position(x, y)
            assert track.move(pos)
            want = measure_power(apply_channel(tone, psi, pos), 1 / 400e6, f0_hz).power_linear
            assert 10 ** (track.measure() / 10) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("noise_power, num_samples", [(0.01, 4096), (64.0, 64)])
    def test_noisy_readings_match_capture_and_meter_in_law(self, noise_power, num_samples):
        # the scenario's 20 dB SNR, and a bin whose noise power sigma^2/N
        # equals the tone's, so a wrong noise scale moves the mean as well
        psi, region, trials = table3(), hi_region(), 4000
        fast = make_track(psi, region, noise_power, seed=5, num_samples=num_samples)
        slow = make_track(psi, region, noise_power, seed=6, num_samples=num_samples, cls=CaptureAndMeterTrack)
        readings = []
        for track in (fast, slow):
            assert track.move(self.POS)
            readings.append(10 ** (np.array([track.measure() for _ in range(trials)]) / 10))
        h = channel_response(psi, self.POS.as_array())[0, 0]
        unit = measure_power(gen_tone(50e6, num_samples, 1 / 400e6), 1 / 400e6, 50e6).power_linear
        expected_mean = abs(h) ** 2 * unit + noise_power / num_samples
        a, b = readings

        def mean_se(r):
            return r.mean(), r.std(ddof=1) / np.sqrt(len(r))

        def var_se(r):
            dev2 = (r - r.mean()) ** 2
            return r.var(ddof=1), dev2.std(ddof=1) / np.sqrt(len(r))

        for stat in (mean_se, var_se):
            (ma, sa), (mb, sb) = stat(a), stat(b)
            assert abs(ma - mb) < 5 * np.hypot(sa, sb), stat.__name__
        for r in readings:
            m, se = mean_se(r)
            assert abs(m - expected_mean) < 5 * se

    def test_readings_are_one_stream_of_two_normals_per_probe(self):
        # oracle: probe k reads |h*|S|/N + w_k|^2, w_k scaled from the k-th pair of
        # standard normals of the one stream derive_seed(master_seed, "probe")
        psi, region, noise_power, n = table3(), hi_region(), 64.0, 4096
        track = make_track(psi, region, noise_power, seed=9, num_samples=n)
        rng = np.random.default_rng(derive_seed(9, "probe"))
        unit = np.sqrt(measure_power(gen_tone(50e6, n, 1 / 400e6), 1 / 400e6, 50e6).power_linear)
        for x, y in [(0.0125, 0.031), (0.0125, 0.031), (0.05, 0.0495), (0.0, 0.0), (0.0333, 0.002)] * 4:
            pos = Position(x, y)
            assert track.move(pos)
            v = rng.standard_normal(2)
            w = (v[0] + 1j * v[1]) * np.sqrt(noise_power / n / 2.0)
            want = float(to_db(abs(channel_response(psi, pos.as_array())[0, 0] * unit + w) ** 2))
            assert track.measure() == want

    def test_seeds_one_stream_per_track(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return derive_seed(*args)

        monkeypatch.setattr("masim.mover.derive_seed", counting)
        psi, region = table3(), hi_region()
        result = optimize(psi, region, make_track(psi, region, seed=3), refine_step_m=0.5e-3, budget=50)
        assert result.measurements_used > 1
        assert calls == [(3, "probe")]

    def test_equal_master_seeds_give_identical_traces(self):
        psi, region = table3(), hi_region()
        a, b = (optimize(psi, region, make_track(psi, region, seed=42), refine_step_m=0.5e-3, budget=50)
                for _ in range(2))
        assert a.to_json_dict() == b.to_json_dict()

    def test_unit_tone_is_metered_once_per_key(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(len(args[0]))
            return measure_power(*args)

        mover._unit_tone_bin.cache_clear()
        monkeypatch.setattr("masim.mover.measure_power", counting)
        psi, region = table3(), hi_region()
        for seed in (1, 2, 3):
            make_track(psi, region, seed=seed)
        assert calls == [4096]
        make_track(psi, region, num_samples=1024)
        assert calls == [4096, 1024]

    def test_cached_unit_tone_places_as_a_metered_one(self):
        psi, region = table3(), hi_region()

        def place():
            track = make_track(psi, region, seed=11)
            return optimize(psi, region, track, refine_step_m=0.5e-3, budget=50).to_json_dict()

        mover._unit_tone_bin.cache_clear()
        missed = place()
        assert mover._unit_tone_bin.cache_info().misses == 1
        hit = place()
        assert mover._unit_tone_bin.cache_info().hits == 1
        assert hit == missed

    def test_measure_allocates_no_capture(self):
        # one 2^20-sample capture would be 16 MB; a probe draws two normals
        track = make_track(table3(), hi_region(), num_samples=2**20)
        assert track.move(self.POS)
        track.measure()
        tracemalloc.start()
        try:
            track.measure()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
