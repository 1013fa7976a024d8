"""Every gridded CSV is written by channel.write_csv; these pin its bytes.

The oracles are the nested-loop formatters the gain map, PAS and PDS writers
used before they shared write_csv: one f-string per row, 9 significant
digits, position indices as plain integers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from masim.channel import CSV_BLOCK_ROWS, to_db, write_grid_csv
from masim.estimator import PasMatrix, PdsMatrix


def oracle_grid_csv(x_m, y_m, values, value_column):
    lines = [f"x_m,y_m,{value_column}"]
    for iy, y in enumerate(y_m):
        for ix, x in enumerate(x_m):
            lines.append(f"{x:.9g},{y:.9g},{values[iy, ix]:.9g}")
    return "\n".join(lines) + "\n"


def oracle_pas_csv(pas):
    vdb = pas.values_db_rel_max
    lines = ["elevation_deg,azimuth_deg,pas_db"]
    for ie, el in enumerate(pas.elevations_deg):
        for ia, az in enumerate(pas.azimuths_deg):
            lines.append(f"{el:.9g},{az:.9g},{vdb[ie, ia]:.9g}")
    return "\n".join(lines) + "\n"


def oracle_pds_csv(pds):
    vdb = to_db(pds.values)
    delays_ns = pds.delays_s() * 1e9
    lines = ["position_index,delay_ns,pds_db"]
    for q in range(pds.values.shape[0]):
        for n, dns in enumerate(delays_ns):
            lines.append(f"{q},{dns:.9g},{vdb[q, n]:.9g}")
    return "\n".join(lines) + "\n"


# -0.0, the 1e-30 floor of to_db, tiny and huge magnitudes all format differently
SPECIAL = st.sampled_from([0.0, -0.0, 1e-30, -1e-30, 5e-324, 1e300, -1e300, 123456789.5, 1e9, 0.1])
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True) | SPECIAL
FINITE = st.floats(allow_nan=False, allow_infinity=False) | SPECIAL
POWER = st.floats(min_value=0.0, max_value=1e300) | st.sampled_from([0.0, 1e-30, 1e-31, 5e-324, 1e300])
DIM = st.integers(1, 6)


@st.composite
def grids(draw, elements):
    ny, nx = draw(DIM), draw(DIM)
    x = draw(arrays(np.float64, nx, elements=FINITE))
    y = draw(arrays(np.float64, ny, elements=FINITE))
    return x, y, draw(arrays(np.float64, (ny, nx), elements=elements))


class TestWriteCsv:
    @settings(max_examples=150, deadline=None)
    @given(grids(ANY_FLOAT), st.sampled_from(["gain_db", "power_dbr"]))
    def test_grid_matches_nested_loop_oracle(self, tmp_path_factory, grid, column):
        x, y, values = grid
        path = tmp_path_factory.mktemp("grid") / "map.csv"
        write_grid_csv(path, x, y, values, column)
        assert path.read_text() == oracle_grid_csv(x, y, values, column)

    @settings(max_examples=150, deadline=None)
    @given(grids(POWER))
    def test_pas_matches_nested_loop_oracle(self, tmp_path_factory, grid):
        azs, els, values = grid
        if not values.max() > 0.0:
            values = values.copy()
            values[0, 0] = 1.0  # a PAS peaks somewhere: values_db_rel_max divides by it
        pas = PasMatrix(values=values, elevations_deg=els, azimuths_deg=azs)
        path = tmp_path_factory.mktemp("pas") / "pas.csv"
        pas.to_csv(path)
        assert path.read_text() == oracle_pas_csv(pas)

    @settings(max_examples=150, deadline=None)
    @given(DIM, DIM, st.data(), st.floats(min_value=1e-15, max_value=1e3))
    def test_pds_matches_nested_loop_oracle(self, tmp_path_factory, q, n, data, step):
        values = data.draw(arrays(np.float64, (q, n), elements=POWER))
        pds = PdsMatrix(values=values, delay_step_s=step)
        path = tmp_path_factory.mktemp("pds") / "pds.csv"
        pds.to_csv(path)
        assert path.read_text() == oracle_pds_csv(pds)

    def test_rows_past_one_block_match_oracle(self, tmp_path):
        # write_csv converts CSV_BLOCK_ROWS rows at a time; the file must not show the seams
        x, y = np.linspace(-1.0, 1.0, 300), np.linspace(0.0, 5e-3, 250)
        assert CSV_BLOCK_ROWS < len(x) * len(y) < 2 * CSV_BLOCK_ROWS
        values = np.random.default_rng(11).standard_normal((len(y), len(x))) * 1e3
        path = tmp_path / "map.csv"
        write_grid_csv(path, x, y, values, "gain_db")
        assert path.read_text() == oracle_grid_csv(x, y, values, "gain_db")
