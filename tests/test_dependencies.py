"""masim's runtime needs numpy alone; scipy is a test dependency only."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import masim
from masim.estimator import _neighborhood_max


def test_import_loads_no_scipy():
    # a fresh interpreter, finding this same masim first
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(masim.__file__).parents[1]), *sys.path])}
    code = "import sys, masim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def _arrays():
    # few levels give ties and plateaus; the first and last rows stand for the +-90 degree elevations
    rng = np.random.default_rng(3)
    for shape in [(1, 1), (1, 7), (6, 1), (2, 2), (9, 13), (37, 73)]:
        for levels in (2, 5, 1000):
            yield rng.integers(0, levels, size=shape).astype(float)
    v = np.zeros((7, 9))
    v[0, :] = 3.0  # a plateau along the -90 degree row
    v[-1, -1] = 5.0  # a corner peak on the +90 degree row
    v[2:5, 3:6] = 4.0  # an interior plateau
    yield v


@pytest.mark.parametrize("v", list(_arrays()))
def test_neighborhood_max_matches_ndimage(v):
    ndimage = pytest.importorskip("scipy.ndimage")
    expect = ndimage.maximum_filter(v, size=3, mode="constant", cval=-np.inf)
    np.testing.assert_array_equal(_neighborhood_max(v), expect)
