"""Property tests of the batched log-CF kernel, of the CF grids built from
it, of quantiles, of the law file format, of time scaling and of sampled
paths, on random finite measures; and of the CSV writer on mirrored tables."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from idlaws.canonical import (
    KolmogorovPair,
    LevyKhintchinePair,
    LevyTriplet,
    law_from_json_dict,
    law_to_json_dict,
    lk_to_kolmogorov,
    lk_to_levy,
    log_cf,
    log_cf_lk,
    scale_law,
)
from idlaws import measure
from idlaws.divisibility import (
    build_cf_grid,
    build_log_cf_grid,
    nth_root,
    symmetric_grid,
    verify_infinitely_divisible,
)
from idlaws.measure import CanonicalMeasure, _csv_text, cdf, quantile, restrict, total_mass
from idlaws.simulate import ProcessSpec, sample_paths

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
    assert np.max(np.abs(log_cf(lk_to_kolmogorov(law), ts) - ref)) <= 1e-9
    assert np.max(np.abs(log_cf(lk_to_levy(law), ts) - ref)) <= 1e-9


@PROPERTY
@given(measures(), st.floats(min_value=-3.0, max_value=3.0))
def test_cf_grid_is_its_log(G, gamma) -> None:
    law = LevyKhintchinePair(gamma=gamma, G=G)
    grid = build_log_cf_grid(lambda t: log_cf_lk(law, t), t_max=6.0, points=241)
    assert np.array_equal(grid.values, np.exp(grid.log_values))
    # the unwrapped log of the sampled CF gives back the sampled log
    unwrapped = build_cf_grid(lambda t: np.exp(log_cf_lk(law, t)), t_max=6.0, points=241)
    gap = np.abs(unwrapped.log_values - grid.log_values)
    assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(grid.log_values)))
    for n in (2, 3, 5):
        assert np.max(np.abs(nth_root(grid, n).values ** n - grid.values)) <= 1e-12
    # every such law is infinitely divisible
    assert verify_infinitely_divisible(grid).passed


@PROPERTY
@given(
    measures().filter(lambda m: total_mass(m) > 0),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
)
def test_cdf_of_quantile_reaches_the_level(G, qs) -> None:
    q = np.sort(np.array(qs))
    u = quantile(G, q)
    assert np.all(cdf(G, u) >= q * total_mass(G) * (1.0 - 1e-12))
    assert np.all(np.diff(u) >= 0.0)


def same_measure(a: CanonicalMeasure, b: CanonicalMeasure) -> bool:
    """Bit for bit: atoms, edges, values and the truncation note."""
    return (
        a.atoms == b.atoms
        and a.edges.tobytes() == b.edges.tobytes()
        and a.values.tobytes() == b.values.tobytes()
        and a.tail_dropped == b.tail_dropped
    )


gammas = st.floats(min_value=-3.0, max_value=3.0)


@PROPERTY
@given(measures(), gammas, st.floats(min_value=0.0, max_value=2.0))
def test_law_json_round_trip_is_exact_in_all_three_forms(G, gamma, sigma2) -> None:
    M = restrict(G, hi=0.0, include_hi=False)
    N = restrict(G, lo=0.0, include_lo=False)
    for law in (
        LevyKhintchinePair(gamma=gamma, G=G),
        KolmogorovPair(gammaK=gamma, K=G),
        LevyTriplet(gamma=gamma, sigma2=sigma2, M=M, N=N),
    ):
        back = law_from_json_dict(json.loads(json.dumps(law_to_json_dict(law))))
        assert type(back) is type(law)
        for name, value in vars(law).items():
            if isinstance(value, CanonicalMeasure):
                assert same_measure(getattr(back, name), value)
            else:
                assert np.float64(getattr(back, name)).tobytes() == np.float64(value).tobytes()


@PROPERTY
@given(measures(), gammas, st.floats(min_value=0.0, max_value=10.0))
def test_scale_law_scales_the_log_cf(G, gamma, a) -> None:
    law = LevyKhintchinePair(gamma=gamma, G=G)
    t = symmetric_grid(10.0, 201)
    expect = a * log_cf_lk(law, t)
    got = log_cf_lk(scale_law(law, a), t)
    assert np.all(np.abs(got - expect) <= 1e-13 * np.maximum(1.0, np.abs(expect)))


@PROPERTY
@given(
    measures(),
    gammas,
    st.floats(min_value=0.05, max_value=1.0),
    st.integers(min_value=0, max_value=2**63),
    st.integers(min_value=0, max_value=3),
)
def test_sample_path_depends_only_on_seed_and_index(G, gamma, epsilon, seed, index) -> None:
    law = LevyKhintchinePair(gamma=gamma, G=G)
    times = np.linspace(0.0, 1.0, 21)

    def spec():
        return ProcessSpec(law=law, epsilon=epsilon, horizon=1.0, seed=seed)

    alone = sample_paths(spec(), times, [index])[0]
    shared = spec()
    for p in range(index):
        sample_paths(shared, times, [p])
    after_others = sample_paths(shared, times, [index])[0]
    again = sample_paths(spec(), times, [index])[0]
    assert alone.tobytes() == after_others.tobytes() == again.tobytes()


# the values whose repr a sign flip of the string could get wrong
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, np.inf, -np.inf, 1e308, -1e308]
SPECIAL += [np.nan, np.copysign(np.nan, -1.0)]


@st.composite
def mirror_columns(draw, n: int) -> np.ndarray:
    """A float or int column of n rows, mostly mirrored evenly or oddly about its middle."""
    h = n // 2
    if draw(st.booleans()):
        cells = st.sampled_from([0, 1, -2])  # ints have no -0
    else:
        cells = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)
    upper = np.array(draw(st.lists(cells, min_size=n - h, max_size=n - h)))
    parity = draw(st.sampled_from(["even", "odd", "even", "odd", "even", "odd", "neither"]))
    if parity == "neither":
        lower = np.array(draw(st.lists(cells, min_size=h, max_size=h)), dtype=upper.dtype)
    else:
        lower = upper[n - 2 * h :][::-1]
        lower = -lower if parity == "odd" else lower  # negation flips a NaN's sign too
    return np.concatenate([lower, upper])


@st.composite
def csv_tables(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    return [draw(mirror_columns(n)) for _ in range(draw(st.integers(min_value=1, max_value=3)))]


@PROPERTY
@given(csv_tables(), st.sampled_from([1, 2, 3, 1024]))
def test_csv_text_matches_row_by_row_reprs(columns, block) -> None:
    header = ",".join(f"c{j}" for j in range(len(columns)))
    rows = zip(*(c.tolist() for c in columns))
    expect = header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    saved, measure._CSV_BLOCK = measure._CSV_BLOCK, block
    try:
        assert _csv_text(header, *columns) == expect
    finally:
        measure._CSV_BLOCK = saved
