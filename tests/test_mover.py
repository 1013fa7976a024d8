"""Two-stage position optimization tests: coarse placement, measured refinement, protocol."""

import numpy as np
import pytest

from masim.channel import MovementRegion, PathComponent, PathStateInfo, Position, gain_field, gain_map
from masim.mover import (
    MoveAborted,
    MovePlan,
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
    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            MovePlan(Position(0, 0), refine_step_m=0.0)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            MovePlan(Position(0, 0), budget=0)


class TestCoarse:
    def test_matches_brute_force_for_planted_psi(self):
        psi = table3()
        region = hi_region()
        best_pos, best_gain = brute_force_best(psi, region)
        assert coarse_position(psi, region) == best_pos
        gm = gain_map(psi, region)
        assert best_gain == pytest.approx(float(np.max(gm.values)), rel=1e-12)

    def test_single_path_field_is_flat(self):
        # one path cannot interfere with itself: gain 1 everywhere (to roundoff)
        psi = PathStateInfo(paths=(PathComponent(3.0, 2.0, 1.0, 10e-9),), carrier_hz=27.5e9)
        gm = gain_map(psi, MovementRegion(0.01, 0.01, 1e-3, 1e-3))
        np.testing.assert_allclose(gm.values, 1.0, atol=1e-12)

    def test_exact_ties_break_to_smallest_y_then_x(self):
        from masim.channel import GainMap

        values = np.zeros((3, 3))
        values[0, 1] = values[2, 2] = 2.0  # two exact ties
        gm = GainMap(x_m=np.array([0.0, 1.0, 2.0]), y_m=np.array([0.0, 1.0, 2.0]), values=values)
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
        plan = MovePlan(Position(0.02, 0.02), refine_step_m=0.5e-3, budget=5)
        result = refine(track, region, plan)
        assert result.measurements_used == 5
        assert len(result.trace) == 5

    def test_budget_one_measures_coarse_only(self):
        psi = table3()
        region = hi_region()
        track = make_track(psi, region)
        plan = MovePlan(Position(0.01, 0.015), budget=1)
        result = refine(track, region, plan)
        assert result.measurements_used == 1
        assert result.final_position == Position(0.01, 0.015)

    def test_final_is_best_of_trace(self):
        psi = table3()
        region = hi_region()
        result = refine(make_track(psi, region), region, MovePlan(Position(0.02, 0.02), budget=30))
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
        result = refine(track, region, MovePlan(start, refine_step_m=1e-3, budget=60))
        assert _true_gain(psi, result.final_position) >= _true_gain(psi, start)
        assert result.measurements_used <= 60

    def test_abort_preserves_partial_trace(self):
        psi = table3()
        inner = MovementRegion(0.01, 0.01, 0.5e-3, 0.5e-3)
        outer = MovementRegion(0.05, 0.05, 0.5e-3, 0.5e-3)
        track = make_track(psi, inner)  # track cannot reach most of outer
        plan = MovePlan(Position(0.03, 0.03), refine_step_m=1e-3, budget=20)
        with pytest.raises(MoveAborted) as err:
            refine(track, outer, plan)
        assert isinstance(err.value.partial, MoveResult)
        assert err.value.partial.measurements_used == 0

    def test_strict_move_ack_measure_alternation(self):
        psi = table3()
        region = hi_region()
        track = make_track(psi, region)
        result = refine(track, region, MovePlan(Position(0.02, 0.02), budget=15))
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
        result = optimize(psi, region, make_track(psi, region), budget=8)
        data = result.to_json_dict()
        assert set(data) == {"final_position_m", "final_power_dbr", "measurements_used", "trace"}
        assert len(data["trace"]) == result.measurements_used
        assert data["trace"][0].keys() == {"x_m", "y_m", "power_dbr"}
