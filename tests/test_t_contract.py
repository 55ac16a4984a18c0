"""The array contract shared by every helper indexed by t.

A scalar t gives a Python complex. A 1-d or 2-d t gives an array of that
shape, equal to the helper called on each element alone.
"""

import numpy as np
import pytest

from idlaws.canonical import catalog, log_cf_lk, truncate_cp
from idlaws.divisibility import build_cf_grid
from idlaws.khinchin import delta, i_h
from idlaws.measure import CanonicalMeasure, fourier_transform

# fewer than 16 points and no mirror, so fourier_transform takes one direct
# exponential per t and log_cf_lk evaluates every t: each element is computed
# as a scalar call computes it
T2 = np.array([[0.3, -1.7, 2.2], [0.0, -0.45, 3.1]])

JUMPS = CanonicalMeasure(
    atoms=((-1.0, 0.25), (2.0, 0.25)), edges=[0.5, 1.0, 1.5], values=[0.6, 0.4]
)
GRID = build_cf_grid(lambda t: np.exp(np.exp(1j * t) - 1.0 - 0.1 * t * t), t_max=5.0, points=1001)
CAUCHY = catalog("cauchy", 1.0)

HELPERS = {
    "log_cf_lk": lambda t: log_cf_lk(CAUCHY, t),
    "TruncationResult.log_cf": truncate_cp(CAUCHY, 0.5).log_cf,
    "fourier_transform": lambda t: fourier_transform(JUMPS, t),
    "log_at": GRID.log_at,
    "delta": lambda t: delta(GRID, t),
    "i_h": lambda t: i_h(GRID, 0.01, t),
}


@pytest.mark.parametrize("name", list(HELPERS))
def test_scalar_in_python_complex_out_arrays_keep_their_shape(name) -> None:
    f = HELPERS[name]
    assert type(f(0.3)) is complex
    each = np.array([f(float(t)) for t in T2.ravel()])
    for t in (T2.ravel(), T2):
        got = f(t)
        assert isinstance(got, np.ndarray) and got.shape == t.shape
        assert np.array_equal(got.ravel(), each)
