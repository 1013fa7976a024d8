"""Geometry, field response, and gain map tests against frozen references.

Reference numbers were computed once with 40-digit mpmath from the same
formulas and are asserted here to double precision.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masim.channel import (
    MAX_STATE_PATHS,
    DbMap,
    MovementRegion,
    PathComponent,
    PathStateInfo,
    Position,
    channel_response,
    gain_field,
    gain_map,
    row_major_axes,
    to_db,
)
from masim.codec import ConfigError, encode
from masim.presets import hall_psi_3p5ghz, hall_psi_27p5ghz, scenario_3p5ghz, scenario_27p5ghz

LAMBDA_27P5 = 0.010901543927272727273  # c / 27.5 GHz


def table3():
    return PathStateInfo(
        paths=(
            PathComponent(3.0, 2.0, 0.8886, 22.7e-9),
            PathComponent(2.5, -48.5, 0.3423, 35.3e-9),
            PathComponent(2.5, 49.5, 0.3053, 34.8e-9),
        ),
        carrier_hz=27.5e9,
    )


def h_at(psi, pos):
    """Narrowband response h(r) at one position."""
    return complex(channel_response(psi, [[pos.x_m, pos.y_m]])[0, 0])


def gain_at(psi, pos):
    """Small-scale gain g(r) = |h(r)|^2 / beta at one position."""
    return float(gain_field(psi, np.array([pos.x_m]), np.array([pos.y_m]))[0, 0])


def distance_delta(path, pos):
    """d_l(r) of one path, as the model computes it: (x, y) against the direction (u, v)."""
    psi = PathStateInfo(paths=(path,), carrier_hz=27.5e9)
    return float((np.array([[pos.x_m, pos.y_m]]) @ psi.directions.T)[0, 0])


def steering(psi, pos):
    """Per-path steering phases exp(-j*2*pi*d_l(r)/lambda): each path alone, unit amplitude, zero delay."""
    return np.array([
        h_at(PathStateInfo(paths=(PathComponent(p.elevation_deg, p.azimuth_deg, 1.0, 0.0),),
                           carrier_hz=psi.carrier_hz), pos)
        for p in psi.paths
    ])


def loop_response(psi, x, y, offset_hz=0.0):
    """sum_l a_l * exp(-j*2*pi*(d_l(r)/lambda + (fc + f)*tau_l)), one path at a time."""
    h = 0j
    for p in psi.paths:
        el, az = math.radians(p.elevation_deg), math.radians(p.azimuth_deg)
        d = x * math.cos(el) * math.sin(az) + y * math.sin(el)
        cycles = d / psi.wavelength_m + (psi.carrier_hz + offset_hz) * p.delay_s
        h += p.amplitude * complex(math.cos(2 * math.pi * cycles), -math.sin(2 * math.pi * cycles))
    return h


def assert_matches_loop(psi, xy, offsets):
    """channel_response's (Q, L) x (L, K) kernel against loop_response at every position and offset."""
    got = channel_response(psi, xy, offsets)
    assert got.shape == (len(xy), len(offsets))
    expect = np.array([[loop_response(psi, x, y, f) for f in offsets] for x, y in xy])
    # phases reach ~6000 cycles, so the two evaluation orders part at ~1e-11;
    # the floor, below every normal float, covers a one-step subnormal split
    scale = sum(p.amplitude for p in psi.paths)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-9 * scale + np.finfo(float).tiny)


def angles_strategy():
    return st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


class TestGeometry:
    def test_distance_delta_reference(self):
        path = PathComponent(3.0, 2.0, 0.8886, 22.7e-9)
        d = distance_delta(path, Position(0.005, -0.005))
        assert d == pytest.approx(-8.7421440438782512e-05, abs=1e-18)

    def test_distance_delta_zero_at_reference_point(self):
        path = PathComponent(12.0, -31.0, 0.5, 10e-9)
        assert distance_delta(path, Position(0.0, 0.0)) == 0.0

    def test_broadside_path_ignores_x(self):
        # azimuth 0 and elevation 0: wavefront advances along neither axis
        path = PathComponent(0.0, 0.0, 1.0, 0.0)
        assert distance_delta(path, Position(0.02, 0.0)) == 0.0
        assert distance_delta(path, Position(0.0, 0.015)) == 0.0

    def test_wavelength(self):
        assert table3().wavelength_m == pytest.approx(LAMBDA_27P5, rel=1e-15)


class TestFieldResponse:
    """Field response f(r), entries exp(+j*2*pi*d_l(r)/lambda); the model steers with its conjugate."""

    def test_frozen_elements_at_1mm_1mm(self):
        frv = np.array(
            [
                0.998737672566542641 + 0.0502300845745401737j,
                0.918662514232639111 - 0.395043269710757309j,
                0.894721618521262094 + 0.446624255219858327j,
            ]
        )
        np.testing.assert_allclose(steering(table3(), Position(0.001, 0.001)), np.conj(frv), rtol=0, atol=1e-14)

    def test_reference_position_gives_ones(self):
        np.testing.assert_array_equal(steering(table3(), Position(0.0, 0.0)), np.ones(3, dtype=complex))

    @settings(max_examples=60)
    @given(
        el=angles_strategy(),
        az=angles_strategy(),
        x=finite(-0.5, 0.5),
        y=finite(-0.5, 0.5),
    )
    def test_unit_modulus(self, el, az, x, y):
        psi = PathStateInfo(paths=(PathComponent(el, az, 1.0, 0.0),), carrier_hz=27.5e9)
        assert abs(abs(h_at(psi, Position(x, y))) - 1.0) < 1e-12


class TestChannelResponse:
    def test_frozen_origin_3p5(self):
        psi = PathStateInfo(
            paths=(
                PathComponent(-0.5, 49.5, 0.6284, 34.8e-9),
                PathComponent(2.0, 2.0, 0.6075, 22.6e-9),
                PathComponent(1.0, -47.0, 0.4128, 34.8e-9),
                PathComponent(15.5, 51.5, 0.1798, 36.7e-9),
                PathComponent(14.0, -52.0, 0.1673, 40.5e-9),
            ),
            carrier_hz=3.5e9,
        )
        h = h_at(psi, Position(0.0, 0.0))
        # f_c*tau reaches ~140 cycles, so double evaluation of the phase
        # carries ~1e-13 of component error against the 40-digit reference
        assert h.real == pytest.approx(0.642226356996107206, abs=2e-12)
        assert h.imag == pytest.approx(0.744899248410220926, abs=2e-12)

    def test_frozen_27p5_at_1mm_1mm(self):
        h = h_at(table3(), Position(0.001, 0.001))
        assert h.real == pytest.approx(0.093300745759612692, abs=2e-12)
        assert h.imag == pytest.approx(-0.709374502339420171, abs=2e-12)

    def test_origin_reduces_to_coefficient_sum(self):
        psi = table3()
        h = h_at(psi, Position(0.0, 0.0))
        coefficients = psi.amplitudes * np.exp(-2j * np.pi * psi.carrier_hz * psi.delays_s)
        assert h == pytest.approx(np.sum(coefficients), abs=1e-15)

    @settings(max_examples=40)
    @given(shift_ns=finite(-22.0, 100.0), x=finite(0.0, 0.05), y=finite(0.0, 0.05))
    def test_gain_invariant_under_global_delay_shift(self, shift_ns, x, y):
        # lower bound keeps every shifted Table III delay nonnegative
        # a common delay offset is a unit-modulus rotation of h, so g is untouched
        psi = table3()
        shifted = PathStateInfo(
            paths=tuple(
                PathComponent(p.elevation_deg, p.azimuth_deg, p.amplitude, p.delay_s + shift_ns * 1e-9)
                for p in psi.paths
            ),
            carrier_hz=psi.carrier_hz,
        )
        pos = Position(x, y)
        g0 = gain_at(psi, pos)
        g1 = gain_at(shifted, pos)
        assert g1 == pytest.approx(g0, rel=1e-9, abs=1e-12)

    @settings(max_examples=60)
    @given(x=finite(-0.2, 0.2), y=finite(-0.2, 0.2))
    def test_gain_bounded_by_coherent_sum(self, x, y):
        psi = table3()
        bound = sum(p.amplitude for p in psi.paths) ** 2
        assert gain_at(psi, Position(x, y)) <= bound + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_path_loop(self, data):
        # the (Q, L) x (L, K) kernel against the model written out one path,
        # one position and one frequency offset at a time
        n_paths = data.draw(st.integers(1, 4))
        paths = tuple(
            PathComponent(data.draw(angles_strategy()), data.draw(angles_strategy()),
                          data.draw(finite(0.0, 2.0)), data.draw(finite(0.0, 100e-9)))
            for _ in range(n_paths)
        )
        psi = PathStateInfo(paths=paths, carrier_hz=data.draw(finite(1e9, 60e9)))
        xy = data.draw(st.lists(st.tuples(finite(-0.5, 0.5), finite(-0.5, 0.5)), min_size=1, max_size=4))
        offsets = data.draw(st.lists(finite(-200e6, 200e6), min_size=1, max_size=4))
        assert_matches_loop(psi, xy, offsets)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_carrier_coefficients_are_the_zero_offset_coefficients(self, data):
        # with no offsets the response reads the path set's cached coefficients;
        # they must be the bits the explicit zero offset computes
        n_paths = data.draw(st.integers(1, MAX_STATE_PATHS))
        paths = tuple(
            PathComponent(data.draw(angles_strategy()), data.draw(angles_strategy()),
                          data.draw(finite(0.0, 2.0)), data.draw(finite(0.0, 1e-6)))
            for _ in range(n_paths)
        )
        psi = PathStateInfo(paths=paths, carrier_hz=data.draw(finite(1e9, 60e9)))
        xy = data.draw(st.lists(st.tuples(finite(-0.5, 0.5), finite(-0.5, 0.5)), min_size=1, max_size=4))
        for r in (xy, xy[0]):
            assert np.array_equal(channel_response(psi, r), channel_response(psi, r, (0.0,)))
        coeff = psi.carrier_coefficients
        assert coeff.shape == (n_paths, 1) and not coeff.flags.writeable
        assert psi.carrier_coefficients is coeff

    def test_subnormal_amplitude_matches_per_path_loop(self):
        # the kernel gives 5e-324+5e-324j here and the loop 0+5e-324j; the
        # amplitude-scaled bound alone underflows to 0
        psi = PathStateInfo(paths=(PathComponent(27.3, 0.0, 5e-324, 32.359e-9),), carrier_hz=27.5e9)
        assert_matches_loop(psi, [(0.0, 0.046)], [0.0])


class TestPsiValidation:
    def test_rejects_empty_paths(self):
        with pytest.raises(ValueError, match="at least one path"):
            PathStateInfo(paths=(), carrier_hz=1e9)

    def test_path_count_capped(self):
        path = PathComponent(0.0, 0.0, 0.1, 0.0)
        assert PathStateInfo(paths=(path,) * MAX_STATE_PATHS, carrier_hz=1e9).num_paths == MAX_STATE_PATHS == 64
        with pytest.raises(ValueError, match="at most 64 paths, got 65"):
            PathStateInfo(paths=(path,) * (MAX_STATE_PATHS + 1), carrier_hz=1e9)
        data = {"paths": [encode(path)] * (MAX_STATE_PATHS + 1), "carrier_hz": 1e9}
        with pytest.raises(ConfigError, match=r"PathStateInfo: PathStateInfo holds at most 64 paths"):
            PathStateInfo.from_json_dict(data)

    def test_rejects_nonpositive_carrier(self):
        with pytest.raises(ValueError, match="carrier_hz"):
            PathStateInfo(paths=(PathComponent(0, 0, 1.0, 0.0),), carrier_hz=0.0)


class TestMovementRegion:
    def test_grid_runs_from_home_corner(self):
        region = MovementRegion(0.05, 0.05, 0.5e-3, 0.5e-3)
        assert region.shape == (101, 101)
        assert region.grid_x()[0] == 0.0
        assert region.grid_x()[-1] == pytest.approx(0.05, abs=1e-12)

    def test_preset_grid_sizes(self):
        assert MovementRegion(0.05, 0.05, 1e-3, 1e-3).num_points == 51 * 51
        assert MovementRegion(0.5, 0.0, 1e-3, 1e-3).num_points == 501
        assert MovementRegion(0.5, 0.5, 5e-3, 5e-3).num_points == 101 * 101

    def test_positions_row_major(self):
        region = MovementRegion(0.002, 0.001, 1e-3, 1e-3)
        assert region.positions_array().tolist() == [
            [0.0, 0.0], [0.001, 0.0], [0.002, 0.0], [0.0, 0.001], [0.001, 0.001], [0.002, 0.001]]

    def test_contains_boundary_and_outside(self):
        region = MovementRegion(0.01, 0.01, 1e-3, 1e-3)
        assert region.contains(Position(0.0, 0.0))
        assert region.contains(Position(0.01, 0.01))
        assert not region.contains(Position(-1e-3, 0.0))
        assert not region.contains(Position(0.0105, 0.0))

    def test_clamp(self):
        region = MovementRegion(0.01, 0.02, 1e-3, 1e-3)
        p = region.clamp(-5.0, 0.015)
        assert (p.x_m, p.y_m) == (0.0, 0.015)
        p = region.clamp(0.5, 0.5)
        assert (p.x_m, p.y_m) == (0.01, 0.02)

    @pytest.mark.parametrize("region", [MovementRegion(0.01, 0.02, 1e-3, 1e-3), MovementRegion(0.5, 0.0, 1e-3, 1e-3)])
    def test_clamp_matches_np_clip_bit_for_bit(self, region):
        # min(max(x, 0.0), extent) stands in for np.clip(x, 0.0, extent): x as
        # max's first argument keeps a NaN x, and a -0.0 x as numpy 2's np.clip
        # does (numpy 1's returns +0.0 there, so -0.0 is pinned on its own)
        values = [-5.0, -1e-12, -0.0, 0.0, 1e-12, 0.005, 0.01, 0.01 + 1e-12, 0.015, 0.02, 0.5, 7.0, math.nan]

        def bits(v):
            return "nan" if math.isnan(v) else struct.pack("<d", v)

        for x in values:
            for y in values:
                p = region.clamp(x, y)
                assert type(p.x_m) is float and type(p.y_m) is float
                for got, v, extent in ((p.x_m, x, region.x_extent_m), (p.y_m, y, region.y_extent_m)):
                    want = float(np.clip(v, 0.0, extent))
                    if bits(v) == bits(-0.0):
                        assert bits(got) == bits(-0.0) and want == 0.0
                    else:
                        assert bits(got) == bits(want), (v, extent)

    def test_line_region_has_single_row(self):
        region = MovementRegion(0.5, 0.0, 1e-3, 1e-3)
        assert region.grid_y().tolist() == [0.0]

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            MovementRegion(0.05, 0.05, 0.0, 1e-3)

    @pytest.mark.parametrize("step", [1e-7, 1e-300])
    def test_rejects_oversized_grid(self, step):
        # 1e-7 m over 50 mm is 500,001 x 500,001 points: refused from the axis
        # counts at construction, before positions_array() could expand it
        with pytest.raises(ValueError, match="exceeds"):
            MovementRegion(0.05, 0.05, step, step)


class TestGainMaps:
    def test_field_matches_scalar(self):
        psi = table3()
        region = MovementRegion(0.01, 0.01, 2e-3, 2e-3)
        xs, ys = region.grid_x(), region.grid_y()
        field = gain_field(psi, xs, ys)
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                assert field[iy, ix] == pytest.approx(abs(loop_response(psi, x, y)) ** 2, rel=1e-9)

    def test_map_argmax_matches_values(self):
        gm = gain_map(table3(), MovementRegion(0.05, 0.05, 2.5e-3, 2.5e-3))
        pos = gm.argmax_position()
        iy, ix = np.unravel_index(np.argmax(gm.values_db), gm.values_db.shape)
        assert pos.x_m == gm.x_m[ix] and pos.y_m == gm.y_m[iy]

    def test_map_is_the_field_in_db(self):
        region = MovementRegion(0.01, 0.01, 2e-3, 2e-3)
        gm = gain_map(table3(), region)
        assert gm.column == "gain_db"
        np.testing.assert_array_equal(gm.x_m, region.grid_x())
        np.testing.assert_array_equal(gm.y_m, region.grid_y())
        np.testing.assert_array_equal(gm.values_db, to_db(gain_field(table3(), region.grid_x(), region.grid_y())))

    def test_csv_round_trip(self, tmp_path):
        gm = gain_map(table3(), MovementRegion(0.004, 0.004, 1e-3, 1e-3))
        path = tmp_path / "gain.csv"
        gm.to_csv(path)
        back = DbMap.read_csv(path)
        assert back.column == "gain_db"
        np.testing.assert_allclose(back.x_m, gm.x_m, atol=1e-12)
        np.testing.assert_allclose(back.y_m, gm.y_m, atol=1e-12)
        np.testing.assert_allclose(back.values_db, gm.values_db, atol=1e-6)

    def test_grid_csv_rejects_ragged_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        DbMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros((2, 2)), "gain_db").to_csv(path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")  # drop one point
        with pytest.raises(ValueError):
            DbMap.read_csv(path)

    @pytest.mark.parametrize("body", [
        "",  # header only
        "0,0,1\n0,0.001,2\n0.001,0,3\n0.001,0.001,4\n",  # x-major: would be read transposed
        "0,0,1\n0,0,2\n0.001,0.001,3\n0.001,0.001,4\n",  # duplicates posing as a 2 x 2 grid
        "0,0\n0.001,0\n",  # two columns
        "0,0,1,5\n0.001,0,2,6\n",  # four columns
        "0,0,1\n0.001,0,nan\n",  # a NaN gain
        "0,0,1\n0.001,0,-inf\n",  # an infinite gain
        "nan,0,1\n0.001,0,2\n",  # a NaN coordinate
        "0,inf,1\n0.001,inf,2\n",  # an infinite coordinate
    ], ids=["header_only", "x_major", "duplicated", "two_columns", "four_columns",
            "nan_value", "inf_value", "nan_x", "inf_y"])
    def test_grid_csv_rejects_malformed_maps(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("x_m,y_m,gain_db\n" + body)
        with pytest.raises(ValueError):
            DbMap.read_csv(path)

    def test_row_major_axes_names_the_flaw(self):
        with pytest.raises(ValueError, match=r"points are not a complete grid: duplicated point \(0\.001, 0\.0\)"):
            row_major_axes(np.array([1e-3, 0.0, 1e-3, 0.0]), np.array([0.0, 1e-3, 0.0, 0.0]), "points")
        with pytest.raises(ValueError, match="1 of 4 points missing"):
            row_major_axes(np.array([1e-3, 0.0, 0.0]), np.array([0.0, 1e-3, 0.0]), "points")
        with pytest.raises(ValueError, match="points are not listed row-major by y then x"):
            row_major_axes(np.array([1e-3, 0.0]), np.array([0.0, 0.0]), "points")
        xs, ys = row_major_axes(np.array([0.0, 1e-3, 0.0, 1e-3]), np.array([0.0, 0.0, 5e-4, 5e-4]), "points")
        np.testing.assert_array_equal(xs, [0.0, 1e-3])
        np.testing.assert_array_equal(ys, [0.0, 5e-4])

    def test_to_db_floor(self):
        assert to_db(0.0) == to_db(1e-300)
        assert float(to_db(100.0)) == pytest.approx(20.0, abs=1e-12)


def assert_grid_matches_response(psi, region):
    """gain_field's grid form against |channel_response|^2 at every point of region, in its row order."""
    got = gain_field(psi, region.grid_x(), region.grid_y())
    assert got.shape == region.shape
    expect = (np.abs(channel_response(psi, region.positions_array())) ** 2).reshape(region.shape)
    # relative to the coherent bound (sum a_l)^2: deep nulls make a per-point relative bound meaningless
    bound = 1e-12 * sum(p.amplitude for p in psi.paths) ** 2 + np.finfo(float).tiny
    np.testing.assert_allclose(got, expect, rtol=0, atol=bound)


class TestGridForm:
    """gain_field is channel_response's formula factored over the grid's x and y axes."""

    @pytest.mark.parametrize("region", [
        MovementRegion(0.0, 0.0, 1e-3, 1e-3),      # 1 x 1
        MovementRegion(0.02, 0.0, 1e-3, 1e-3),     # 1 x n: a 1-D track
        MovementRegion(0.0, 0.02, 1e-3, 1e-3),     # n x 1
        MovementRegion(0.05, 0.03, 0.5e-3, 1e-3),  # n x m
    ], ids=["1x1", "1xn", "nx1", "nxm"])
    def test_matches_response_on_grid(self, region):
        for psi in (table3(), hall_psi_3p5ghz()):
            assert_grid_matches_response(psi, region)

    @pytest.mark.parametrize("scenario, hall_psi", [(scenario_3p5ghz, hall_psi_3p5ghz),
                                                    (scenario_27p5ghz, hall_psi_27p5ghz)])
    def test_matches_response_on_preset_regions(self, scenario, hall_psi):
        cfg, psi = scenario(), hall_psi()
        assert_grid_matches_response(psi, cfg.region)
        assert_grid_matches_response(psi, cfg.sounding_region)

    def test_plain_lists(self):
        psi = table3()
        g = gain_field(psi, [1e-3], [2e-3])
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(abs(h_at(psi, Position(1e-3, 2e-3))) ** 2, rel=1e-12)
        np.testing.assert_array_equal(gain_field(psi, [0.0, 1e-3, 2e-3], [0.0, 5e-4]),
                                      gain_field(psi, np.array([0.0, 1e-3, 2e-3]), np.array([0.0, 5e-4])))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_response_for_any_paths_and_region(self, data):
        paths = tuple(
            PathComponent(data.draw(angles_strategy()), data.draw(angles_strategy()),
                          data.draw(finite(0.0, 2.0)), data.draw(finite(0.0, 100e-9)))
            for _ in range(data.draw(st.integers(1, 8)))
        )
        psi = PathStateInfo(paths=paths, carrier_hz=data.draw(finite(1e9, 60e9)))
        x_step, y_step = data.draw(finite(1e-4, 5e-3)), data.draw(finite(1e-4, 5e-3))
        region = MovementRegion(x_step * data.draw(st.integers(0, 30)), y_step * data.draw(st.integers(0, 30)),
                                x_step, y_step)
        assert_grid_matches_response(psi, region)

    def test_peak_memory_is_a_few_outputs(self):
        # h (16 MB) and |h|^2 (8 MB) are the only grid-sized arrays; (Q, L) phases would add 80 MB
        psi = hall_psi_3p5ghz()
        xs, ys = 1e-3 * np.arange(1000), 0.5e-3 * np.arange(1000)
        gain_field(psi, xs[:2], ys[:2])
        tracemalloc.start()
        try:
            out = gain_field(psi, xs, ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1000, 1000)
        assert peak < 4 * out.nbytes


class TestGainMapValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DbMap(x_m=np.zeros(3), y_m=np.zeros(2), values_db=np.zeros((3, 3)), column="gain_db")
