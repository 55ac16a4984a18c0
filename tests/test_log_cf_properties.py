"""Property tests of the batched log-CF kernel on random finite measures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from idlaws.canonical import (
    LevyKhintchinePair,
    lk_to_kolmogorov,
    lk_to_levy,
    log_cf_kolmogorov,
    log_cf_levy,
    log_cf_lk,
)
from idlaws.measure import CanonicalMeasure

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

masses = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def atom_lists(draw, max_atoms=4):
    locs = draw(
        st.lists(
            # (1+u^2)/u^2 overflows for atoms too near 0 to convert
            st.floats(min_value=-6.0, max_value=6.0).filter(lambda u: abs(u) >= 1e-3),
            max_size=max_atoms,
            unique=True,
        )
    )
    if draw(st.booleans()):
        locs.append(0.0)  # a Gaussian part
    return [(u, draw(masses)) for u in locs]


@st.composite
def measures(draw):
    """Atoms plus a few density cells, some inside |u| <= 1, some across it."""
    atoms = draw(atom_lists())
    cuts = st.lists(st.floats(min_value=-8.0, max_value=8.0), max_size=7, unique=True)
    edges = sorted(draw(cuts))
    if len(edges) < 2 or np.min(np.diff(edges)) < 1e-3:
        edges = []
    values = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in edges[1:]]
    return CanonicalMeasure(atoms=tuple(atoms), edges=edges, values=values)


@st.composite
def t_arrays(draw):
    """Scattered t, or a uniform grid (the phase-recurrence route); 0 always."""
    if draw(st.booleans()):
        half = draw(st.integers(min_value=8, max_value=40))
        t_max = draw(st.floats(min_value=0.5, max_value=10.0))
        ts = np.linspace(-t_max, t_max, 2 * half + 1)
        ts[half] = 0.0
        return ts, True
    ts = draw(st.lists(st.floats(min_value=-10.0, max_value=10.0), max_size=20))
    return np.array(ts + [0.0]), False


@PROPERTY
@given(measures(), st.floats(min_value=-3.0, max_value=3.0), t_arrays())
def test_array_call_matches_scalar_calls(G, gamma, t_case) -> None:
    ts, uniform = t_case
    law = LevyKhintchinePair(gamma=gamma, G=G)
    batch = log_cf_lk(law, ts)
    pointwise = np.array([log_cf_lk(law, float(t)) for t in ts])
    assert batch.shape == ts.shape
    if uniform:
        # fourier_transform's recurrence stands in for the direct exponential
        scale = max(1.0, float(np.max(np.abs(pointwise))))
        assert np.max(np.abs(batch - pointwise)) <= 1e-12 * scale
    else:
        assert np.array_equal(batch, pointwise)


@PROPERTY
@given(measures(), st.floats(min_value=-3.0, max_value=3.0), t_arrays())
def test_zero_symmetry_and_sign(G, gamma, t_case) -> None:
    ts, _ = t_case
    law = LevyKhintchinePair(gamma=gamma, G=G)
    values = log_cf_lk(law, ts)
    assert log_cf_lk(law, 0.0) == 0j
    assert np.all(values[ts == 0.0] == 0j)
    assert np.max(np.abs(log_cf_lk(law, -ts) - np.conj(values))) <= 1e-12
    assert np.max(values.real) <= 1e-12


@PROPERTY
@given(atom_lists(), st.floats(min_value=-3.0, max_value=3.0), t_arrays())
def test_kolmogorov_and_levy_forms_agree_on_atom_laws(atoms, gamma, t_case) -> None:
    ts, _ = t_case
    law = LevyKhintchinePair(gamma=gamma, G=CanonicalMeasure.from_atoms(atoms))
    ref = log_cf_lk(law, ts)
    assert np.max(np.abs(log_cf_kolmogorov(lk_to_kolmogorov(law), ts) - ref)) <= 1e-9
    assert np.max(np.abs(log_cf_levy(lk_to_levy(law), ts) - ref)) <= 1e-9
