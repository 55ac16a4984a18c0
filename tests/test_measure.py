"""Unit tests for the bounded-measure representation and its quadrature."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idlaws import measure
from idlaws.measure import (
    CanonicalMeasure,
    InfiniteWeight,
    MissingAtomValue,
    atom_mass_at,
    cdf,
    combine,
    fourier_transform,
    from_json_dict,
    integrate,
    mass_between,
    quantile,
    restrict,
    reweight,
    scale,
    to_json_dict,
    total_mass,
)


def unit_atom() -> CanonicalMeasure:
    return CanonicalMeasure.from_atoms([(0.0, 1.0)])


def unit_density() -> CanonicalMeasure:
    return CanonicalMeasure.from_density([0.0, 1.0], [1.0])


# -- total_mass ----------------------------------------------------------------


def test_total_mass_single_atom() -> None:
    assert total_mass(unit_atom()) == 1.0


def test_total_mass_unit_rectangle() -> None:
    assert total_mass(unit_density()) == 1.0


def test_total_mass_mixed() -> None:
    """Atoms summing to 1.0 plus a 2.0-high density on a 0.25-wide cell."""
    m = CanonicalMeasure(
        atoms=((-1.0, 0.5), (1.0, 0.5)), edges=[0.0, 0.25], values=[2.0]
    )
    assert total_mass(m) == 1.5


# -- cdf -----------------------------------------------------------------------


def test_cdf_left_of_atom() -> None:
    assert cdf(unit_atom(), -0.5) == 0.0


def test_cdf_right_continuous_at_atom() -> None:
    assert cdf(unit_atom(), 0.0) == 1.0


def test_cdf_linear_ramp() -> None:
    assert cdf(unit_density(), 0.5) == 0.5


def test_cdf_total_at_infinity() -> None:
    m = CanonicalMeasure(atoms=((2.0, 0.25),), edges=[0.0, 1.0], values=[1.0])
    assert cdf(m, np.inf) == total_mass(m)


def test_cdf_nondecreasing_sampled() -> None:
    """cdf is non-decreasing on a 1000-point sweep across the support."""
    m = CanonicalMeasure(
        atoms=((-2.0, 0.3), (0.5, 0.2)), edges=[-1.0, 0.0, 2.0], values=[0.4, 0.1]
    )
    us = np.linspace(-3.0, 3.0, 1000)
    vals = cdf(m, us)
    assert np.all(np.diff(vals) >= 0.0)


# -- integrate -----------------------------------------------------------------


def test_integrate_missing_override_raises() -> None:
    def f(u):
        return np.asarray(1.0 / np.asarray(u), dtype=complex)

    with pytest.raises(MissingAtomValue):
        integrate(unit_atom(), f)


def test_integrate_moment_of_uniform() -> None:
    v = integrate(unit_density(), lambda u: u)
    assert abs(v - 0.5) < 1e-14


def test_integrate_complex_exponential_atoms() -> None:
    # e^{i pi} = e^{-i pi} = -1
    m = CanonicalMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
    v = integrate(m, lambda u: np.exp(1j * np.pi * u))
    assert abs(v - (-1.0)) < 1e-15


def test_integrate_constant_equals_total_mass() -> None:
    atoms_only = CanonicalMeasure.from_atoms([(-1.0, 0.5), (3.0, 2.0)])
    assert abs(integrate(atoms_only, lambda u: 1.0) - total_mass(atoms_only)) < 1e-12
    gridded = CanonicalMeasure(
        atoms=((0.5, 0.2),), edges=np.linspace(-2, 2, 33), values=np.full(32, 0.7)
    )
    assert abs(integrate(gridded, lambda u: 1.0) - total_mass(gridded)) < 1e-9


def test_integrate_linearity() -> None:
    m = CanonicalMeasure(
        atoms=((1.5, 0.4),), edges=[-1.0, 0.0, 1.0], values=[0.3, 0.8]
    )
    f = lambda u: np.exp(1j * u)
    g = lambda u: np.asarray(u, dtype=complex) ** 2
    a, b = 2.0 - 1j, 0.5 + 3j
    lhs = integrate(m, lambda u: a * f(u) + b * g(u))
    rhs = a * integrate(m, f) + b * integrate(m, g)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# -- reweight ------------------------------------------------------------------


def test_reweight_atom() -> None:
    m = CanonicalMeasure.from_atoms([(1.0, 0.5)])
    r = reweight(m, lambda u: 1.0 + u * u)
    assert r.atoms == ((1.0, 1.0),)


def test_reweight_density_quadratic() -> None:
    # exact integral of u^2 over [1,2] is 7/3
    m = CanonicalMeasure.from_density([1.0, 2.0], [1.0])
    r = reweight(m, lambda u: u * u)
    assert abs(total_mass(r) - 7.0 / 3.0) < 1e-10


def test_reweight_unbounded_on_cell_raises() -> None:
    m = CanonicalMeasure.from_density([-0.5, 0.5], [1.0])
    with pytest.raises(InfiniteWeight):
        reweight(m, lambda u: (1.0 + u * u) / (u * u))


def test_reweight_round_trip_mass() -> None:
    """w then 1/w restores the mass: exact on atoms, O(h^2) on cells."""
    m = CanonicalMeasure(
        atoms=((2.0, 0.3),),
        edges=np.linspace(0.5, 1.0, 10001),
        values=np.full(10000, 1.2),
    )
    w = lambda u: 1.0 + u * u
    winv = lambda u: 1.0 / (1.0 + u * u)
    back = reweight(reweight(m, w), winv)
    assert abs(total_mass(back) - total_mass(m)) < 1e-9


def test_reweight_round_trip_exact_on_atoms() -> None:
    m = CanonicalMeasure.from_atoms([(-3.0, 0.2), (0.5, 1.7)])
    back = reweight(reweight(m, lambda u: 1 + u * u), lambda u: 1.0 / (1 + u * u))
    assert total_mass(back) == pytest.approx(total_mass(m), abs=1e-15)


def test_reweight_rejects_negative_weight() -> None:
    m = unit_density()
    with pytest.raises(ValueError):
        reweight(m, lambda u: u - 0.5)


def complex_cast_cell_values(m, w):
    """reweight's cell values as they were computed with every weight cast to
    complex: the real part of the complex array, averaged by one matmul."""
    x, gw = np.polynomial.legendre.leggauss(20)
    keep = m.values > 0
    lefts, rights = m.edges[:-1][keep], m.edges[1:][keep]
    centers, half = 0.5 * (lefts + rights), 0.5 * (rights - lefts)
    nodes = centers[:, None] + half[:, None] * x[None, :]
    wn = np.asarray(w(nodes), dtype=complex).real
    values = np.zeros_like(m.values)
    values[keep] = m.values[keep] * (wn @ gw / 2.0)
    return values


@pytest.mark.parametrize(
    "w",
    [
        lambda u: (1.0 + u * u) / (u * u),
        lambda u: 1.0 / (1.0 + u * u),
        lambda u: np.exp(-u * u) + u * u,
    ],
)
def test_reweight_real_weights_bit_identical_to_complex_cast(w) -> None:
    edges = np.concatenate([np.geomspace(0.01, 3.0, 2001), np.geomspace(4.0, 9e5, 3001)])
    values = np.where(np.arange(edges.size - 1) % 7 == 3, 0.0, 1.0 / (1.0 + edges[1:] ** 2))
    m = CanonicalMeasure(atoms=((-2.0, 0.5), (12.0, 0.25)), edges=edges, values=values)
    assert np.array_equal(reweight(m, w).values, complex_cast_cell_values(m, w))


def test_eval_on_keeps_real_integrands_real() -> None:
    x = np.linspace(0.5, 2.0, 8)
    assert measure._eval_on(lambda u: u * u, x).dtype == np.float64
    assert measure._eval_on(lambda u: 3, x).dtype == np.float64
    assert measure._eval_on(lambda u: np.exp(1j * u), x).dtype == np.complex128


def test_reweight_rejects_complex_weight() -> None:
    m = CanonicalMeasure.from_density([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="real-valued"):
        reweight(m, lambda u: u + 1j * u)
    # a complex type with zero imaginary part is a real weight
    same = reweight(m, lambda u: (u * u) + 0j)
    assert np.array_equal(same.values, reweight(m, lambda u: u * u).values)


def test_reweight_rejects_complex_weight_on_atoms() -> None:
    m = CanonicalMeasure.from_atoms([(1.0, 0.5), (2.0, 0.25)])
    with pytest.raises(ValueError, match="real-valued"):
        reweight(m, lambda u: u + 1j * u)
    assert reweight(m, lambda u: (u * u) + 0j).atoms == reweight(m, lambda u: u * u).atoms


def integrate_per_atom(m, f) -> complex:
    """The per-atom integrate loop the array call of f replaced, kept as its
    reference; the density part is integrate's own."""
    out = 0j
    for loc, mass in m.atoms:
        try:
            with np.errstate(all="ignore"):
                fv = complex(f(loc))
        except ZeroDivisionError:
            raise MissingAtomValue(f"integrand is singular at atom u={loc}") from None
        if not np.isfinite(fv.real) or not np.isfinite(fv.imag):
            raise MissingAtomValue(f"integrand is singular at atom u={loc}")
        out += mass * fv
    density = CanonicalMeasure(edges=m.edges, values=m.values)
    return out + integrate(density, f) if m.values.size else out


def reweight_atoms_per_atom(m, w) -> tuple:
    """The per-atom reweight loop the array call of w replaced, kept as its
    reference: the reweighted atoms."""
    new_atoms = []
    for loc, mass in m.atoms:
        try:
            with np.errstate(all="ignore"):
                wv = float(w(loc))
        except ZeroDivisionError:
            raise InfiniteWeight(f"weight is unbounded at atom u={loc}") from None
        if not np.isfinite(wv):
            raise InfiniteWeight(f"weight is unbounded at atom u={loc}")
        if wv < 0:
            raise ValueError(f"weight is negative at atom u={loc}")
        new_atoms.append((loc, mass * wv))
    return CanonicalMeasure.from_atoms(new_atoms).atoms


def bits(z) -> tuple:
    """The real and imaginary parts of a complex as their IEEE bit patterns."""
    return tuple(np.array([z.real, z.imag]).view(np.uint64).tolist())


def _atom_measures():
    rng = np.random.default_rng(17)
    locs = np.sort(rng.uniform(-40.0, 40.0, 300))
    poisson_root = [(k * 1.0, 0.5**k / math.factorial(k)) for k in range(40)]
    return [
        CanonicalMeasure.from_atoms(zip(locs, rng.exponential(1.0, locs.size))),
        CanonicalMeasure.from_atoms(poisson_root),
        CanonicalMeasure.from_atoms([(-2.0, 0.2), (-1e-9, 1e-30), (0.0, 1.0), (3.0, 0.7)]),
        CanonicalMeasure(
            atoms=((-3.0, 0.3), (0.0, 0.5), (0.25, 2.0)), edges=[-1.0, 0.0, 1.0], values=[0.3, 0.8]
        ),
    ]


# the real integrands and weights the package passes
PACKAGE_INTEGRANDS = [
    lambda u: u,
    lambda u: 1.0 / u,
    lambda u: u / (1.0 + u * u),
]
PACKAGE_WEIGHTS = [
    lambda u: 1.0 + u * u,
    lambda u: 1.0 / (1.0 + u * u),
    lambda u: (u * u) / (1.0 + u * u),
]


@pytest.mark.parametrize("k", range(len(PACKAGE_INTEGRANDS)))
def test_integrate_atoms_bit_identical_to_per_atom_loop(k) -> None:
    f = PACKAGE_INTEGRANDS[k]
    for m in _atom_measures():
        try:
            want = integrate_per_atom(m, f)
        except MissingAtomValue:  # 1/u at an atom at 0
            with pytest.raises(MissingAtomValue):
                integrate(m, f)
            continue
        assert bits(integrate(m, f)) == bits(want)


def test_integrate_complex_atoms_match_per_atom_loop() -> None:
    for m in _atom_measures():
        for t in (0.3, -1.7, 12.0):
            f = lambda u: np.exp(1j * t * u)
            got, want = integrate(m, f), integrate_per_atom(m, f)
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))
    m = CanonicalMeasure.from_atoms([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(MissingAtomValue, match="u=0.0"):
        integrate(m, lambda u: 1.0 / u)


@pytest.mark.parametrize("k", range(len(PACKAGE_WEIGHTS)))
def test_reweight_atoms_bit_identical_to_per_atom_loop(k) -> None:
    w = PACKAGE_WEIGHTS[k]
    for m in _atom_measures():
        assert reweight(m, w).atoms == reweight_atoms_per_atom(m, w)


def test_reweight_atom_errors_name_the_atom() -> None:
    m = CanonicalMeasure.from_atoms([(-1.0, 0.5), (0.0, 1.0), (2.0, 0.5)])
    with pytest.raises(InfiniteWeight, match="u=0.0"):
        reweight(m, lambda u: 1.0 / (u * u))
    with pytest.raises(ValueError, match="negative at atom u=-1.0"):
        reweight(m, lambda u: u)


# -- construction validation ----------------------------------------------------


def test_duplicate_atom_locations_rejected() -> None:
    with pytest.raises(ValueError):
        CanonicalMeasure.from_atoms([(1.0, 0.5), (1.0, 0.5)])


def test_decreasing_edges_rejected() -> None:
    with pytest.raises(ValueError):
        CanonicalMeasure.from_density([1.0, 0.0], [1.0])


def test_negative_cell_value_rejected() -> None:
    with pytest.raises(ValueError):
        CanonicalMeasure.from_density([0.0, 1.0], [-1.0])


def test_negative_atom_mass_rejected() -> None:
    with pytest.raises(ValueError):
        CanonicalMeasure.from_atoms([(0.0, -0.1)])


def test_zero_mass_atoms_dropped() -> None:
    m = CanonicalMeasure.from_atoms([(0.0, 0.0), (1.0, 0.5)])
    assert m.atoms == ((1.0, 0.5),)


def test_atoms_sorted_by_location() -> None:
    m = CanonicalMeasure.from_atoms([(2.0, 0.1), (-1.0, 0.2)])
    assert m.atoms == ((-1.0, 0.2), (2.0, 0.1))


# -- slicing and helpers ---------------------------------------------------------


def test_mass_between_half_open() -> None:
    m = CanonicalMeasure(atoms=((0.0, 1.0), (1.0, 2.0)), edges=[0.0, 1.0], values=[1.0])
    assert mass_between(m, 0.0, 1.0, include_lo=False, include_hi=False) == 1.0
    assert mass_between(m, 0.0, 1.0, include_lo=True, include_hi=True) == 4.0


def test_atom_mass_at_tolerance() -> None:
    m = CanonicalMeasure.from_atoms([(1.0, 0.75)])
    assert atom_mass_at(m, 1.0) == 0.75
    assert atom_mass_at(m, 1.0 + 1e-13) == 0.75
    assert atom_mass_at(m, 1.1) == 0.0


def test_restrict_splits_cells() -> None:
    m = CanonicalMeasure.from_density([0.0, 2.0], [1.0])
    r = restrict(m, 0.5, 1.25)
    assert abs(total_mass(r) - 0.75) < 1e-14
    assert r.edges[0] == 0.5 and r.edges[-1] == 1.25


def test_restrict_atom_boundary_inclusion() -> None:
    m = CanonicalMeasure.from_atoms([(0.0, 1.0), (1.0, 0.5)])
    assert total_mass(restrict(m, lo=0.0, include_lo=False)) == 0.5
    assert total_mass(restrict(m, lo=0.0, include_lo=True)) == 1.5


def restrict_cell_loop(m, lo=-np.inf, hi=np.inf, include_lo=True, include_hi=True):
    """Reference: restrict as one Python step per atom and per cell."""
    new_atoms = []
    for loc, mass in m.atoms:
        left_ok = loc > lo or (include_lo and loc == lo)
        right_ok = loc < hi or (include_hi and loc == hi)
        if left_ok and right_ok:
            new_atoms.append((loc, mass))
    pieces = []
    for a, b, v in zip(m.edges[:-1], m.edges[1:], m.values):
        na, nb = max(float(a), lo), min(float(b), hi)
        if nb > na:
            pieces.append((na, nb, float(v)))
    if pieces:
        edges = np.array([pieces[0][0]] + [p[1] for p in pieces])
        values = np.array([p[2] for p in pieces])
    else:
        edges = np.empty(0)
        values = np.empty(0)
    return CanonicalMeasure(
        atoms=tuple(new_atoms), edges=edges, values=values, tail_dropped=m.tail_dropped
    )


def mixed_measure() -> CanonicalMeasure:
    """Atoms on and off edges, repeated cell widths, zero cells, a tail note."""
    edges = np.concatenate([[-3.0, -2.9], np.linspace(-2.0, 2.0, 41), [2.5, 4.0]])
    values = np.abs(np.sin(np.arange(edges.size - 1)))
    values[[3, 7, 8, 20]] = 0.0
    atoms = ((-5.0, 0.3), (-2.0, 0.2), (0.05, 0.1), (0.07, 0.4), (0.3, 0.25), (4.0, 0.5))
    return CanonicalMeasure(atoms=atoms, edges=edges, values=values, tail_dropped=1e-3)


@pytest.mark.parametrize(
    "lo, hi, include_lo, include_hi",
    [
        (-2.0, 4.0, True, True),  # both cuts on an edge, atoms on both
        (-2.0, 4.0, False, False),  # the same cuts, boundary atoms left out
        (-2.95, 0.123, True, True),  # cuts inside cells
        (-np.inf, -0.3, True, False),
        (0.3, np.inf, False, True),
        (-2.85, -2.1, True, True),  # inside one cell
        (10.0, 20.0, True, True),  # right of everything: empty
        (0.07, 0.07, True, True),  # one atom, no width
    ],
)
def test_restrict_matches_cell_loop_reference(lo, hi, include_lo, include_hi) -> None:
    m = mixed_measure()
    got = restrict(m, lo, hi, include_lo, include_hi)
    ref = restrict_cell_loop(m, lo, hi, include_lo, include_hi)
    assert got.atoms == ref.atoms
    assert np.array_equal(got.edges, ref.edges)
    assert np.array_equal(got.values, ref.values)
    assert got.tail_dropped == ref.tail_dropped


def test_nan_bounds_rejected() -> None:
    m = CanonicalMeasure(atoms=((0.5, 0.5),), edges=[0.0, 1.0], values=[0.5])
    for lo, hi in ((np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)):
        with pytest.raises(ValueError):
            restrict(m, lo, hi)
        with pytest.raises(ValueError):
            mass_between(m, lo, hi)


@st.composite
def cut_measures(draw):
    """A random mixed measure and a cut point somewhere around its support."""
    locs = draw(st.lists(st.floats(-5.0, 5.0), max_size=5, unique=True))
    edges = sorted(draw(st.lists(st.floats(-4.0, 4.0), max_size=8, unique=True)))
    if len(edges) < 2:
        edges = []
    values = [draw(st.floats(min_value=0.0, max_value=10.0)) for _ in edges[1:]]
    mass = st.floats(min_value=0.01, max_value=3.0)
    m = CanonicalMeasure(
        atoms=tuple((u, draw(mass)) for u in locs), edges=edges, values=values
    )
    cut = draw(st.one_of(st.sampled_from(locs + edges or [0.0]), st.floats(-6.0, 6.0)))
    return m, cut


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cut_measures())
def test_restrict_halves_combine_to_the_whole(case) -> None:
    m, c = case
    whole = combine(restrict(m, hi=c, include_hi=False), restrict(m, lo=c, include_lo=True))
    assert abs(total_mass(whole) - total_mass(m)) <= 1e-12 * max(1.0, total_mass(m))


def test_combine_disjoint() -> None:
    a = CanonicalMeasure.from_density([-2.0, -1.0], [1.0])
    b = CanonicalMeasure(atoms=((3.0, 0.5),), edges=[1.0, 2.0], values=[2.0])
    c = combine(a, b)
    assert abs(total_mass(c) - 3.5) < 1e-14
    assert cdf(c, 0.0) == 1.0


def test_scale_measure() -> None:
    m = CanonicalMeasure(atoms=((1.0, 0.5),), edges=[0.0, 1.0], values=[1.0])
    assert total_mass(scale(m, 2.5)) == pytest.approx(3.75, abs=1e-14)


def test_quantile_uniform() -> None:
    m = unit_density()
    qs = quantile(m, np.array([0.1, 0.5, 0.9]))
    assert np.allclose(qs, [0.1, 0.5, 0.9], atol=1e-12)


def test_quantile_rejects_levels_outside_the_unit_interval() -> None:
    m = unit_density()
    for q in (-0.1, 1.5, math.nan, np.array([0.5, math.nan]), np.array([math.inf])):
        with pytest.raises(ValueError, match="must lie in"):
            quantile(m, q)
    assert quantile(m, np.array([0.0, 1.0])).tolist() == [0.0, 1.0]


def quantile_pieces_atom_split(m):
    """Reference: the cumulative pieces, the cell list re-split once per atom."""
    events = []
    for a, b, v in zip(m.edges[:-1], m.edges[1:], m.values):
        if v > 0:
            events.append((float(a), float(b), v * (b - a)))
    for loc, mass in m.atoms:
        split = []
        for a, b, cmass in events:
            if a < loc < b:
                v = cmass / (b - a)
                split.append((a, loc, v * (loc - a)))
                split.append((loc, b, v * (b - loc)))
            else:
                split.append((a, b, cmass))
        events = split
        events.append((loc, loc, mass))
    events.sort(key=lambda p: (p[0], p[1]))
    pl = np.array([e[0] for e in events])
    pr = np.array([e[1] for e in events])
    cum = np.cumsum([e[2] for e in events]) if events else np.empty(0)
    return pl, pr, cum


@pytest.mark.parametrize(
    "m",
    [
        mixed_measure(),  # two atoms inside one cell, atoms on edges and outside
        CanonicalMeasure(
            atoms=((0.1, 0.2), (0.2, 0.1), (0.25, 0.3), (0.9, 0.4)),
            edges=[0.0, 1.0],
            values=[0.7],
        ),
        CanonicalMeasure.from_atoms([(-1.0, 0.5), (2.0, 0.25)]),
        CanonicalMeasure.from_density([0.0, 1.0, 3.0], [0.0, 2.0]),
    ],
)
def test_quantile_pieces_match_atom_split_reference(m) -> None:
    for got, ref in zip(measure._quantile_pieces(m), quantile_pieces_atom_split(m)):
        assert np.array_equal(got, ref)


def test_quantile_atom_plateau() -> None:
    # half the mass sits in an atom at 2; quantiles inside the plateau hit it
    m = CanonicalMeasure(atoms=((2.0, 0.5),), edges=[0.0, 1.0], values=[0.5])
    assert quantile(m, 0.25) == pytest.approx(0.5)
    assert quantile(m, 0.6) == 2.0
    assert quantile(m, 0.99) == 2.0


def test_quantile_moves_up_a_float_that_rounds_short() -> None:
    # -1 + 5.08e-92 rounds to -1.0, where the cdf is 0
    m = CanonicalMeasure.from_density([-1.0, 0.0], [1.0])
    u = quantile(m, 5.08e-92)
    assert u == np.nextafter(-1.0, np.inf) and cdf(m, u) >= 5.08e-92
    # a u whose cdf reaches its level keeps the rounded value
    assert quantile(m, np.array([0.25, 0.5])).tolist() == [-0.75, -0.5]


def test_fourier_transform_matches_direct() -> None:
    """Uniform-grid fast path agrees with per-point evaluation."""
    m = CanonicalMeasure(
        atoms=((-1.0, 0.25), (2.0, 0.25)), edges=[-0.5, 0.0, 1.0], values=[0.5, 0.25]
    )
    ts = np.linspace(-5.0, 5.0, 41)
    fast = fourier_transform(m, ts)
    direct = np.array([fourier_transform(m, float(t)) for t in ts])
    assert np.max(np.abs(fast - direct)) < 1e-12
    # t = 0 gives the total mass
    assert abs(fourier_transform(m, 0.0) - total_mass(m)) < 1e-14


def fourier_transform_per_cell_sinc(m, ts):
    """Reference: the sinc factor recomputed over every cell at every t."""
    scalar = np.isscalar(ts) or np.ndim(ts) == 0
    tt = np.atleast_1d(np.asarray(ts, dtype=float))
    locs, masses = m._atom_arrays()
    widths = np.diff(m.edges)
    keep = m.values * widths > 0
    centers = (0.5 * (m.edges[:-1] + m.edges[1:]))[keep]
    us = np.concatenate([locs, centers])
    hw = np.concatenate([np.zeros(locs.size), (0.5 * widths)[keep]])
    ws = np.concatenate([masses, (m.values * widths)[keep]])
    out = np.empty(tt.shape, dtype=complex)
    dt = measure._even_step(tt) if tt.size >= 16 else None
    uniform = dt is not None
    every, dt = (measure._PHASE_ANCHOR_EVERY, dt) if uniform else (1, 0.0)
    step = np.exp(1j * dt * us)
    for k, t in enumerate(tt):
        j = k % every
        if j == 0:
            anchor, phase = t, np.exp(1j * t * us)
        else:
            phase = phase * step
        wk = ws * np.sinc(t * hw / np.pi)
        out[k] = np.dot(wk, phase)
        off = (t - anchor) - j * dt
        if off:
            out[k] += 1j * off * np.dot(wk * us, phase)
    return complex(out[0]) if scalar else out


def mirrored_measure() -> CanonicalMeasure:
    """A grid mirrored about 0 whose two sides carry different values."""
    right = np.cumsum(np.resize([0.25, 0.5, 1.0, 0.375], 40))
    edges = np.concatenate([-right[::-1], [0.0], right])
    values = np.concatenate([np.linspace(0.1, 2.0, 40), np.abs(np.cos(np.arange(40)))])
    return CanonicalMeasure(edges=edges, values=values)


def mirrored_atoms() -> CanonicalMeasure:
    """Atoms at -u and u with unequal masses, plus an atom at 0."""
    return CanonicalMeasure.from_atoms(
        [(-3.0, 0.2), (3.0, 0.7), (-0.5, 0.45), (0.5, 0.05), (0.0, 0.3), (7.25, 0.1)]
    )


@pytest.mark.parametrize(
    "ts",
    [
        np.linspace(-30.0, 30.0, 301),  # uniform: the phase recurrence
        np.linspace(0.0, 7.0, 16),  # the shortest uniform grid, from t = 0
        np.array([-9.0, -0.01, 0.0, 0.5, 2.0, 17.3]),  # scattered
        np.geomspace(1e-3, 50.0, 40),
        2.5,
        0.0,
    ],
)
def test_fourier_transform_matches_per_cell_sinc_reference(ts) -> None:
    for m in (mixed_measure(), mirrored_measure(), mirrored_atoms()):
        got = fourier_transform(m, ts)
        ref = fourier_transform_per_cell_sinc(m, ts)
        assert np.shape(got) == np.shape(ref) and type(got) is type(ref)
        assert np.max(np.abs(got - ref)) < 1e-13


def test_fourier_transform_one_phase_per_mirrored_key(monkeypatch) -> None:
    """Work-count guard: the terms at u and -u share their phases, and the
    sinc comes from those phases, not from a sine.

    500 cells per side of four exact (dyadic) widths, mirrored about 0 with
    different values on each side, plus atoms at -1.5, 0 and 1.5 give 502
    distinct (|u|, half-width) keys, so _phase_run sees at most 2 * 502
    values per call, and np.sin is never called.
    """
    right = np.cumsum(np.resize([0.25, 0.5, 1.0, 0.125], 500))
    m = CanonicalMeasure(
        atoms=((-1.5, 0.5), (0.0, 0.1), (1.5, 0.25)),
        edges=np.concatenate([-right[::-1], [0.0], right]),
        values=np.concatenate([np.linspace(0.1, 1.0, 500), np.linspace(2.0, 0.5, 500)]),
    )
    seen = []
    real_phase_run = measure._phase_run

    def recording(tt, us):
        seen.append(np.size(us))
        return real_phase_run(tt, us)

    def no_sin(x):
        raise AssertionError("np.sin called")

    monkeypatch.setattr(measure, "_phase_run", recording)
    monkeypatch.setattr(np, "sin", no_sin)
    fourier_transform(m, np.linspace(-5.0, 5.0, 50))
    fourier_transform(m, 1.25)
    assert len(seen) == 2 and 0 < max(seen) <= 2 * 502


@pytest.mark.parametrize("order", [4, 8, 12, 16, 20, 64])
def test_legendre_is_numpy_leggauss_bit_for_bit(order) -> None:
    x, w = measure._legendre(order)
    want_x, want_w = np.polynomial.legendre.leggauss(order)
    assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()


def test_fourier_transform_of_no_mass_is_zero_at_once(monkeypatch) -> None:
    def refusing(tt, us):
        raise AssertionError("a measure with no mass ran the phase loop")

    monkeypatch.setattr(measure, "_phase_run", refusing)
    ts = measure.symmetric_grid(5.0, 201)
    for m in (CanonicalMeasure(), CanonicalMeasure.from_density([-1.0, 2.0], [0.0])):
        got = fourier_transform(m, ts)
        assert got.shape == ts.shape and got.dtype == complex and not np.any(got)
        assert fourier_transform(m, 1.5) == 0.0


def test_fourier_transform_uniform_cell_closed_form() -> None:
    # density 1 on [0,1]: transform is (e^{it}-1)/(it)
    m = unit_density()
    for t in (0.3, 1.7, -2.2):
        expect = (np.exp(1j * t) - 1.0) / (1j * t)
        assert abs(fourier_transform(m, t) - expect) < 1e-12


def test_fourier_transform_far_atom_keeps_phase_on_long_grid() -> None:
    """The phase recurrence stays on the direct exponential for large t*u.

    Compared per point on 16,201 uniform t with t*u up to 4e5, where the
    direct exponential's own argument rounds by up to 2.9e-11; an unanchored
    recurrence drifts to 4e-7. On a dyadic grid t*u is exact, and the two
    agree to 1e-12.
    """
    m = CanonicalMeasure.from_atoms([(5000.0, 1.0)])
    ts = np.linspace(-81.0, 81.0, 16201)
    assert np.max(np.abs(fourier_transform(m, ts) - np.exp(1j * ts * 5000.0))) < 1e-10
    ts = np.linspace(-63.28125, 63.28125, 16201)  # step 2**-7
    assert np.max(np.abs(fourier_transform(m, ts) - np.exp(1j * ts * 5000.0))) < 1e-12


def test_fourier_transform_jittered_grid_takes_direct_exponentials() -> None:
    """A t run whose points stray 2e-9 off the even progression is not
    uniform. The recurrence's first-order correction cannot absorb such
    jitter at u = 1e6 (it erred by 6.2e-6); direct exponentials are exact.
    """
    ts = np.linspace(0.0, 1.0, 200) + np.random.default_rng(0).uniform(-2e-9, 2e-9, 200)
    assert measure._even_step(ts) is None
    for u in (1e5, 1e6):
        m = CanonicalMeasure.from_atoms([(u, 1.0)])
        assert np.max(np.abs(fourier_transform(m, ts) - np.exp(1j * ts * u))) <= 1e-12


# -- JSON round trip -------------------------------------------------------------


def test_json_round_trip_bit_exact() -> None:
    m = CanonicalMeasure(
        atoms=((-1.25, 0.1234567890123), (0.5, 2.0 / 3.0)),
        edges=[-1.0, -0.1, 0.7],
        values=[np.pi, 1e-15],
    )
    m2 = from_json_dict(json.loads(json.dumps(to_json_dict(m))))
    assert m2.atoms == m.atoms
    assert np.array_equal(m2.edges, m.edges)
    assert np.array_equal(m2.values, m.values)
    # twice-serialized strings are identical
    assert json.dumps(to_json_dict(m2)) == json.dumps(to_json_dict(m))


def test_json_schema_shape() -> None:
    m = CanonicalMeasure(atoms=((0.0, 1.0),), edges=[0.0, 1.0], values=[2.0])
    d = to_json_dict(m)
    assert d["atoms"] == [[0.0, 1.0]]
    assert d["grid"] == {"edges": [0.0, 1.0], "values": [2.0]}
    assert from_json_dict(json.loads(json.dumps(d))).atoms == m.atoms


def test_tail_dropped_must_be_finite() -> None:
    for bad in (np.nan, np.inf, -1e-12):
        with pytest.raises(ValueError):
            CanonicalMeasure.from_density([0.0, 1.0], [1.0], tail_dropped=bad)


def test_json_preserves_truncation_note() -> None:
    m = CanonicalMeasure.from_density([0.0, 1.0], [1.0], tail_dropped=1e-10)
    m2 = from_json_dict(json.loads(json.dumps(to_json_dict(m))))
    assert m2.tail_dropped == 1e-10
