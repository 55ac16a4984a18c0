"""Unit tests for the bounded-measure representation and its quadrature."""

import json

import numpy as np
import pytest

from idlaws.measure import (
    CanonicalMeasure,
    InfiniteWeight,
    MissingAtomValue,
    atom_mass_at,
    cdf,
    combine,
    dumps,
    fourier_transform,
    from_json_dict,
    integrate,
    loads,
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


def test_integrate_atom_override() -> None:
    """Singular integrand at the atom; the injected value decides the result."""

    def f(u):
        return np.asarray(1.0 / np.asarray(u), dtype=complex)

    v = integrate(unit_atom(), f, atom_values={0.0: -2.0})
    assert v == -2.0


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


def test_reweight_atom_override() -> None:
    # (1+u^2)/u^2 blows up at 0; the override pins the atom weight
    m = unit_atom()
    r = reweight(m, lambda u: (1.0 + u * u) / (u * u), atom_weights={0.0: 1.0})
    assert r.atoms == ((0.0, 1.0),)


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


def test_quantile_atom_plateau() -> None:
    # half the mass sits in an atom at 2; quantiles inside the plateau hit it
    m = CanonicalMeasure(atoms=((2.0, 0.5),), edges=[0.0, 1.0], values=[0.5])
    assert quantile(m, 0.25) == pytest.approx(0.5)
    assert quantile(m, 0.6) == 2.0
    assert quantile(m, 0.99) == 2.0


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


# -- JSON round trip -------------------------------------------------------------


def test_json_round_trip_bit_exact() -> None:
    m = CanonicalMeasure(
        atoms=((-1.25, 0.1234567890123), (0.5, 2.0 / 3.0)),
        edges=[-1.0, -0.1, 0.7],
        values=[np.pi, 1e-15],
    )
    m2 = loads(dumps(m))
    assert m2.atoms == m.atoms
    assert np.array_equal(m2.edges, m.edges)
    assert np.array_equal(m2.values, m.values)
    # twice-serialized strings are identical
    assert dumps(m2) == dumps(m)


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
    m2 = loads(dumps(m))
    assert m2.tail_dropped == 1e-10
