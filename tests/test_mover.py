"""Two-stage position optimization tests: coarse placement, measured refinement, protocol."""

import numpy as np
import pytest

from masim.channel import DbMap, MovementRegion, PathComponent, PathStateInfo, Position, gain_field
from masim.mover import (
    MoveAborted,
    MoveResult,
    SimulatedSlideTrack,
    brute_force_best,
    coarse_position,
    optimize,
    refine,
)
from masim.presets import hall_psi_27p5ghz
from masim.signals import NoiseSpec


def table3():
    return hall_psi_27p5ghz()


def hi_region():
    return MovementRegion(0.05, 0.05, 0.5e-3, 0.5e-3)


def make_track(psi, region, noise_power=0.01, seed=42):
    return SimulatedSlideTrack(
        psi=psi,
        region=region,
        noise=NoiseSpec(noise_power, 400e6),
        f0_hz=50e6,
        num_samples=4096,
        master_seed=seed,
    )


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
