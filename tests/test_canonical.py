"""Tests for the canonical forms, their log-CF evaluation, and conversions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idlaws.canonical import (
    BadParameter,
    CompoundPoissonSpec,
    InfiniteVariance,
    KolmogorovPair,
    LevyKhintchinePair,
    LevyTriplet,
    catalog,
    compound_poisson_to_lk,
    exp_remainder2,
    inner_gauss_order,
    jump_intensity,
    kolmogorov_to_lk,
    law_from_json_dict,
    law_to_json_dict,
    law_to_lk,
    levy_to_lk,
    lk_to_kolmogorov,
    lk_to_levy,
    log_cf,
    log_cf_lk,
    scale_law,
    tail_function_m,
    tail_function_n,
    truncate_cp,
)
from idlaws import canonical
from idlaws.divisibility import symmetric_grid
from idlaws.measure import (
    CanonicalMeasure,
    InfiniteWeight,
    _gauss_nodes,
    combine,
    hermitian_fold,
    integrate,
    restrict,
    reweight,
    total_mass,
)

T_GRID = np.linspace(-10.0, 10.0, 201)
T_DENSE = np.linspace(-4.0, 4.0, 1001)


def poisson_exponent(t, rate=1.0, jump=1.0):
    # closed form: rate * (e^{i t jump} - 1)
    return rate * (np.exp(1j * t * jump) - 1.0)


# -- stable kernel ---------------------------------------------------------------


def test_remainder_kernel_at_zero() -> None:
    assert exp_remainder2(0.0) == -0.5 + 0j


def test_remainder_kernel_series_matches_direct() -> None:
    """Series branch and direct branch agree through the switch point."""
    xs = np.array([0.3, 0.49, 0.51, 0.7, -0.49, -0.51])
    direct = (np.exp(1j * xs) - 1 - 1j * xs) / (xs * xs)
    assert np.max(np.abs(exp_remainder2(xs) - direct)) < 1e-15


def test_remainder_kernel_matches_complex_series() -> None:
    """The two real series in x**2 agree with the 16-term complex series.

    The order of the arithmetic changed, so the tolerance is a few units in
    the last place of results of size about 1/2.
    """
    xs = np.linspace(-0.4999, 0.4999, 2001)
    acc = np.zeros(xs.shape, dtype=complex)
    for k in range(17, 1, -1):
        acc = acc * xs + 1j**k / math.factorial(k)
    assert np.max(np.abs(exp_remainder2(xs) - acc)) < 2 * np.finfo(float).eps


def test_remainder_kernel_tiny_argument() -> None:
    # leading terms -1/2 - ix/6
    v = exp_remainder2(1e-9)
    assert abs(v.real + 0.5) < 1e-15
    assert abs(v.imag + 1e-9 / 6.0) < 1e-24


# -- log_cf under each form -------------------------------------------------------


def test_log_cf_lk_gaussian_atom() -> None:
    # atom at 0 contributes -t^2/2 per unit mass
    law = LevyKhintchinePair(gamma=0.0, G=CanonicalMeasure.from_atoms([(0.0, 1.0)]))
    assert log_cf_lk(law, 2.0) == -2.0 + 0j


def test_log_cf_lk_poisson_identity() -> None:
    """gamma=0.5 with G=atom(1,0.5) evaluates to e^{it}-1.

    Hand expansion: the atom gives (e^{it}-1-it/2)*2*0.5, the drift adds
    it/2; compared on a 1000-point grid.
    """
    law = LevyKhintchinePair(gamma=0.5, G=CanonicalMeasure.from_atoms([(1.0, 0.5)]))
    worst = max(abs(log_cf_lk(law, t) - poisson_exponent(t)) for t in T_DENSE)
    assert worst < 1e-12


def test_log_cf_lk_cauchy() -> None:
    # closed form for the symmetric Cauchy law: log phi(t) = -c|t|
    law = catalog("cauchy", 1.0)
    v = log_cf_lk(law, 1.0)
    assert abs(v - (-1.0)) < 1e-6


def test_log_cf_kolmogorov_gaussian() -> None:
    law = KolmogorovPair(gammaK=0.0, K=CanonicalMeasure.from_atoms([(0.0, 1.0)]))
    assert log_cf(law, 1.0) == -0.5 + 0j


def test_log_cf_kolmogorov_poisson() -> None:
    # it + (e^{it} - 1 - it) = e^{it} - 1
    law = KolmogorovPair(gammaK=1.0, K=CanonicalMeasure.from_atoms([(1.0, 1.0)]))
    worst = max(abs(log_cf(law, t) - poisson_exponent(t)) for t in T_DENSE)
    assert worst < 1e-12


def test_log_cf_kolmogorov_pure_drift() -> None:
    law = KolmogorovPair(gammaK=3.0, K=CanonicalMeasure.empty())
    assert log_cf(law, 2.0) == 6j


def test_log_cf_levy_pure_gaussian() -> None:
    law = LevyTriplet(
        gamma=1.0, sigma2=4.0, M=CanonicalMeasure.empty(), N=CanonicalMeasure.empty()
    )
    assert log_cf(law, 1.0) == 1j - 2.0


def test_log_cf_levy_poisson() -> None:
    law = LevyTriplet(
        gamma=0.5,
        sigma2=0.0,
        M=CanonicalMeasure.empty(),
        N=CanonicalMeasure.from_atoms([(1.0, 1.0)]),
    )
    worst = max(abs(log_cf(law, t) - poisson_exponent(t)) for t in T_DENSE)
    assert worst < 1e-12


def test_log_cf_levy_negative_jumps_mirror() -> None:
    """Jumps at -1 give e^{-it}-1, the t -> -t mirror of the unit Poisson."""
    law = LevyTriplet(
        gamma=-0.5,
        sigma2=0.0,
        M=CanonicalMeasure.from_atoms([(-1.0, 1.0)]),
        N=CanonicalMeasure.empty(),
    )
    worst = max(abs(log_cf(law, t) - poisson_exponent(-t)) for t in T_DENSE)
    assert worst < 1e-12


def test_log_cf_zero_at_zero_all_forms() -> None:
    laws = [
        catalog("poisson", 1.0, 1.0),
        lk_to_kolmogorov(catalog("poisson", 1.0, 1.0)),
        lk_to_levy(catalog("poisson", 1.0, 1.0)),
        catalog("cauchy", 0.5),
    ]
    for law in laws:
        assert log_cf(law, 0.0) == 0j


def test_conjugate_symmetry() -> None:
    for law in (catalog("poisson", 2.0, -0.7), catalog("gaussian", 1.5, 0.25)):
        for t in (0.3, 1.1, 4.7):
            assert abs(log_cf(law, -t) - np.conj(log_cf(law, t))) < 1e-12


def test_real_part_nonpositive() -> None:
    # |phi| <= 1 for any characteristic function
    for law in (catalog("poisson", 1.0, 1.0), catalog("gaussian", 0.0, 2.0)):
        for t in np.linspace(-10, 10, 41):
            assert log_cf(law, t).real <= 1e-12
    cauchy = catalog("cauchy", 1.0)
    for t in (-7.5, -1.0, 0.25, 3.0, 10.0):
        assert log_cf(cauchy, t).real <= 1e-12


# -- conversions -------------------------------------------------------------------


def test_lk_to_kolmogorov_poisson() -> None:
    law = catalog("poisson", 1.0, 1.0)
    kp = lk_to_kolmogorov(law)
    assert kp.gammaK == pytest.approx(1.0, abs=1e-14)
    assert kp.K.atoms == ((1.0, 1.0),)
    worst = max(
        abs(log_cf(kp, t) - log_cf_lk(law, t)) for t in T_GRID
    )
    assert worst < 1e-12


def test_lk_to_kolmogorov_gaussian_fixed_point() -> None:
    law = catalog("gaussian", 0.0, 1.0)
    kp = lk_to_kolmogorov(law)
    assert kp.gammaK == 0.0
    assert kp.K.atoms == ((0.0, 1.0),)


def test_lk_to_kolmogorov_cauchy_diverges() -> None:
    with pytest.raises(InfiniteVariance):
        lk_to_kolmogorov(catalog("cauchy", 1.0))


def test_kolmogorov_to_lk_inverse() -> None:
    kp = KolmogorovPair(gammaK=1.0, K=CanonicalMeasure.from_atoms([(1.0, 1.0)]))
    lk = kolmogorov_to_lk(kp)
    assert lk.gamma == pytest.approx(0.5, abs=1e-14)
    assert lk.G.atoms[0][0] == 1.0
    assert lk.G.atoms[0][1] == pytest.approx(0.5, abs=1e-14)


def test_kolmogorov_to_lk_gaussian_fixed_point() -> None:
    kp = KolmogorovPair(gammaK=0.0, K=CanonicalMeasure.from_atoms([(0.0, 1.0)]))
    lk = kolmogorov_to_lk(kp)
    assert lk.gamma == 0.0 and lk.G.atoms == ((0.0, 1.0),)


def test_kolmogorov_to_lk_pure_drift() -> None:
    lk = kolmogorov_to_lk(KolmogorovPair(gammaK=7.0, K=CanonicalMeasure.empty()))
    assert lk.gamma == 7.0 and total_mass(lk.G) == 0.0


def test_lk_to_levy_gaussian() -> None:
    tri = lk_to_levy(
        LevyKhintchinePair(gamma=0.0, G=CanonicalMeasure.from_atoms([(0.0, 2.5)]))
    )
    assert tri.sigma2 == 2.5
    assert total_mass(tri.M) == 0.0 and total_mass(tri.N) == 0.0


def test_lk_to_levy_poisson() -> None:
    law = catalog("poisson", 1.0, 1.0)
    tri = lk_to_levy(law)
    assert tri.sigma2 == 0.0
    # 0.5 * (1+1)/1 = 1.0
    assert tri.N.atoms == ((1.0, 1.0),)
    worst = max(abs(log_cf(tri, t) - log_cf_lk(law, t)) for t in T_GRID)
    assert worst < 1e-12


def test_lk_to_levy_mixed_atoms() -> None:
    g = CanonicalMeasure.from_atoms([(0.0, 1.0), (-2.0, 0.4)])
    tri = lk_to_levy(LevyKhintchinePair(gamma=0.0, G=g))
    assert tri.sigma2 == 1.0
    # 0.4 * (1+4)/4 = 0.5
    assert tri.M.atoms == ((-2.0, 0.5),)
    assert total_mass(tri.N) == 0.0


def test_lk_to_levy_cauchy_unbounded_weight() -> None:
    # (1+u^2)/u^2 diverges on density cells touching zero
    with pytest.raises(InfiniteWeight):
        lk_to_levy(catalog("cauchy", 1.0))


def test_levy_tail_normalized_views() -> None:
    """M(u) climbs from -mass to 0 at 0-; N(u) climbs from -mass to 0 at +inf."""
    tri = LevyTriplet(
        gamma=0.0,
        sigma2=0.0,
        M=CanonicalMeasure.from_atoms([(-2.0, 0.5)]),
        N=CanonicalMeasure.from_atoms([(1.0, 1.0)]),
    )
    assert tail_function_m(tri, -3.0) == -0.5
    assert tail_function_m(tri, -1.0) == 0.0
    assert tail_function_n(tri, 0.5) == -1.0
    assert tail_function_n(tri, 1.5) == 0.0


def test_levy_triplet_rejects_misplaced_mass() -> None:
    with pytest.raises(ValueError):
        LevyTriplet(
            gamma=0.0,
            sigma2=0.0,
            M=CanonicalMeasure.from_atoms([(1.0, 0.5)]),
            N=CanonicalMeasure.empty(),
        )
    with pytest.raises(ValueError):
        LevyTriplet(
            gamma=0.0,
            sigma2=-0.1,
            M=CanonicalMeasure.empty(),
            N=CanonicalMeasure.empty(),
        )


def test_round_trips_preserve_log_cf() -> None:
    """Kolmogorov and Levy round trips agree with the original on the grid."""
    for name, params in (("poisson", (1.0, 1.0)), ("gaussian", (0.5, 2.0))):
        law = catalog(name, *params)
        back_k = kolmogorov_to_lk(lk_to_kolmogorov(law))
        back_l = levy_to_lk(lk_to_levy(law))
        for t in T_GRID:
            ref = log_cf_lk(law, t)
            assert abs(log_cf_lk(back_k, t) - ref) < 1e-9
            assert abs(log_cf_lk(back_l, t) - ref) < 1e-9


def test_forms_agree_on_reference_grid() -> None:
    """Every reachable form matches the LK log-CF at 201 points in [-10,10]."""
    for name, params, tol in (
        ("poisson", (2.5, -0.7), 1e-9),
        ("gaussian", (1.0, 3.0), 1e-9),
    ):
        law = catalog(name, *params)
        kp = lk_to_kolmogorov(law)
        tri = lk_to_levy(law)
        for t in T_GRID:
            ref = log_cf_lk(law, t)
            assert abs(log_cf(kp, t) - ref) < tol
            assert abs(log_cf(tri, t) - ref) < tol


# -- compound Poisson ---------------------------------------------------------------


def cp_cf(spec: CompoundPoissonSpec, t):
    """The compound-Poisson CF, through the law's general form."""
    return np.exp(log_cf_lk(catalog("compound_poisson", spec), t))


def test_cf_compound_poisson_is_poisson_cf() -> None:
    # rate 1, unit jump: exp(e^{it} - 1)
    spec = CompoundPoissonSpec(rate=1.0, jump=CanonicalMeasure.from_atoms([(1.0, 1.0)]))
    for t in (0.5, 2.0, -3.3):
        assert abs(cp_cf(spec, t) - np.exp(np.exp(1j * t) - 1)) < 1e-14


def test_cf_compound_poisson_rate_division_root() -> None:
    """Dividing the rate by n yields the n-th convolution root of the CF."""
    lam, n = 3.0, 4
    whole = CompoundPoissonSpec(rate=lam, jump=CanonicalMeasure.from_atoms([(1.0, 1.0)]))
    part = CompoundPoissonSpec(rate=lam / n, jump=whole.jump)
    for t in (0.7, 1.9):
        assert abs(cp_cf(part, t) ** n - cp_cf(whole, t)) < 1e-12


def test_cf_compound_poisson_at_zero() -> None:
    spec = CompoundPoissonSpec(
        rate=9.0, jump=CanonicalMeasure.from_atoms([(-1.0, 0.5), (2.0, 0.5)])
    )
    assert cp_cf(spec, 0.0) == 1.0 + 0j


def test_compound_poisson_spec_validation() -> None:
    with pytest.raises(ValueError):
        CompoundPoissonSpec(rate=0.0, jump=CanonicalMeasure.from_atoms([(1.0, 1.0)]))
    with pytest.raises(ValueError):
        CompoundPoissonSpec(rate=1.0, jump=CanonicalMeasure.from_atoms([(1.0, 0.9)]))


def test_compound_poisson_to_lk_identity() -> None:
    """LK form of a two-point compound Poisson reproduces rate*(psi-1)."""
    jump = CanonicalMeasure.from_atoms([(-1.0, 0.5), (2.0, 0.5)])
    spec = CompoundPoissonSpec(rate=3.0, jump=jump)
    lk = compound_poisson_to_lk(spec)
    for t in T_GRID[::10]:
        expect = 3.0 * (0.5 * np.exp(-1j * t) + 0.5 * np.exp(2j * t) - 1.0)
        assert abs(log_cf_lk(lk, t) - expect) < 1e-12


# -- catalog --------------------------------------------------------------------------


def test_catalog_gaussian() -> None:
    law = catalog("gaussian", 0.0, 1.0)
    assert law.gamma == 0.0
    assert law.G.atoms == ((0.0, 1.0),)


def test_catalog_poisson() -> None:
    law = catalog("poisson", 1.0, 1.0)
    assert law.gamma == pytest.approx(0.5, abs=1e-15)
    assert law.G.atoms[0] == (1.0, pytest.approx(0.5, abs=1e-15))


def test_catalog_cauchy_mass_and_truncation() -> None:
    law = catalog("cauchy", 1.0)
    # analytic: integral of (1/pi)/(1+u^2) over R is 1; grid drops < 1e-10
    assert abs(total_mass(law.G) - 1.0) < 1e-9
    assert 0 < law.G.tail_dropped < 1e-10 * 1.01
    assert law.gamma == 0.0


def test_catalog_cauchy_grid_size_and_mass() -> None:
    G = catalog("cauchy", 1.0).G
    assert G.values.size <= 26_000
    assert abs(total_mass(G) + G.tail_dropped - 1.0) < 1e-9


# -- nu in closed form ---------------------------------------------------------


def assert_nu_matches_quadrature(G) -> None:
    """jump_intensity against reweight for nu and integrate for the centring
    term, the integral of u/(1+u^2) against nu, that is of 1/u against G."""
    nu, center = jump_intensity(G)
    ref = reweight(G, lambda u: (1.0 + u * u) / (u * u))
    keep = ref.values > 0
    assert np.array_equal(nu.values > 0, keep)
    assert np.max(np.abs(nu.values[keep] / ref.values[keep] - 1.0), initial=0.0) <= 1e-13
    assert [a for a, _ in nu.atoms] == [a for a, _ in ref.atoms]
    assert np.allclose([m for _, m in nu.atoms], [m for _, m in ref.atoms], rtol=1e-13, atol=0)
    assert abs(total_mass(nu) - total_mass(ref)) <= 1e-13 * total_mass(ref)
    # the centring term can cancel to 0; measure it against its absolute size
    size = integrate(G, lambda u: 1.0 / np.abs(u)).real
    assert abs(center - integrate(G, lambda u: 1.0 / u).real) <= 1e-13 * size


def test_jump_intensity_on_cauchy_outer_cells() -> None:
    G = catalog("cauchy", 1.0).G
    outer = combine(restrict(G, hi=-1.0), restrict(G, lo=1.0))
    assert_nu_matches_quadrature(outer)
    assert_nu_matches_quadrature(restrict(G, lo=1.0))


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
def test_jump_intensity_on_cauchy_epsilon_cuts(eps) -> None:
    G = catalog("cauchy", 1.0).G
    right = restrict(G, lo=eps, include_lo=False)
    assert_nu_matches_quadrature(combine(restrict(G, hi=-eps, include_hi=False), right))
    assert_nu_matches_quadrature(right)


@st.composite
def jump_measures(draw):
    """Atoms off 0 and cells on each side of it with b/a <= 4, where order-20
    quadrature of 1/u and 1/u^2 is exact to rounding; the cell across 0 is
    empty."""
    masses = st.floats(min_value=0.0, max_value=1.0)
    locs = st.floats(min_value=-6.0, max_value=6.0).filter(lambda u: abs(u) >= 1e-3)
    atoms = [(u, draw(masses)) for u in draw(st.lists(locs, max_size=4, unique=True))]

    def side():
        start = draw(st.floats(min_value=0.01, max_value=5.0))
        ratios = draw(st.lists(st.floats(min_value=1.001, max_value=4.0), min_size=1, max_size=5))
        return start * np.cumprod([1.0] + ratios)

    left, right = -side()[::-1], side()
    values = [draw(masses) for _ in left[1:]] + [0.0] + [draw(masses) for _ in right[1:]]
    return CanonicalMeasure(atoms=tuple(atoms), edges=np.concatenate([left, right]), values=values)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(jump_measures())
def test_jump_intensity_on_random_mixed_measures(G) -> None:
    assert_nu_matches_quadrature(G)


def _assert_inner_matches_union1d(G):
    """_lk_parts' inner cells against the reference: G's edges and the cuts at
    -1 and 1 as np.union1d joins them, clipped to [-1, 1], each cell holding
    G's value there."""
    cuts = [c for c in (-1.0, 1.0) if G.edges[0] < c < G.edges[-1]]
    edges = np.union1d(G.edges, cuts)
    edges = edges[(edges >= -1.0) & (edges <= 1.0)]
    values = G.values[np.searchsorted(G.edges, edges[:-1], side="right") - 1]
    inner = canonical._lk_parts(G)[3]
    assert np.array_equal(inner.edges, edges)
    assert np.array_equal(np.signbit(inner.edges), np.signbit(edges))
    assert np.array_equal(inner.values, values)


@pytest.mark.parametrize(
    "edges",
    [
        [-3.0, -1.0, 0.25, 1.0, 2.0],  # both cuts already edges
        [-3.0, -0.5, 0.5, 2.0],  # neither cut an edge
        [-1.0, 0.0, 1.5],  # -1 is the first edge, 1 is inside a cell
        [-0.5, 0.0, 0.5],  # both cuts outside the grid
        [-2.0, -0.0, 1.0],
    ],
)
def test_lk_parts_edges_match_union1d(edges) -> None:
    G = CanonicalMeasure.from_density(edges, np.arange(1.0, len(edges)))
    _assert_inner_matches_union1d(G)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(jump_measures())
def test_lk_parts_edges_match_union1d_on_random_measures(G) -> None:
    _assert_inner_matches_union1d(G)


def test_lk_parts_edges_match_union1d_on_cauchy() -> None:
    _assert_inner_matches_union1d(catalog("cauchy", 1.0).G)


def test_jump_intensity_closed_form_cell() -> None:
    # density 2 on [1, 2]: nu density 2 (1 + 1/2) = 3, centring 2 ln 2
    nu, center = jump_intensity(CanonicalMeasure.from_density([1.0, 2.0], [2.0]))
    assert nu.values[0] == 3.0
    assert center == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    # the mirrored cell mirrors the centring term
    _, left = jump_intensity(CanonicalMeasure.from_density([-2.0, -1.0], [2.0]))
    assert left == -center


def test_jump_intensity_rejects_mass_at_zero() -> None:
    with pytest.raises(InfiniteWeight):
        jump_intensity(CanonicalMeasure.from_atoms([(0.0, 1.0)]))
    with pytest.raises(InfiniteWeight):
        jump_intensity(CanonicalMeasure.from_density([-0.5, 0.5], [1.0]))
    with pytest.raises(InfiniteWeight):
        jump_intensity(CanonicalMeasure.from_density([0.0, 0.5], [1.0]))
    # an empty cell across 0 carries no mass and is fine
    nu, center = jump_intensity(CanonicalMeasure.from_density([-1.0, 1.0, 2.0], [0.0, 1.0]))
    assert nu.values[0] == 0.0 and center == pytest.approx(math.log(2.0), rel=1e-15)


@pytest.mark.parametrize("u", [1e-200, -1e-160, 1e155, 1e200])
def test_jump_intensity_names_an_atom_whose_weight_is_not_finite(u) -> None:
    # u^2 underflows to 0 (1e-200) or a subnormal (1e-160), or overflows: the
    # weight (1+u^2)/u^2 is inf or nan, raised without a numpy warning
    G = CanonicalMeasure.from_atoms([(2.0, 1.0), (u, 1.0)])
    with pytest.raises(InfiniteWeight, match=re.escape(f"at the atom u={u!r}")):
        jump_intensity(G)


# -- the kernel's inner Gauss order ------------------------------------------------


def test_inner_order_matches_order_20_on_cauchy(monkeypatch) -> None:
    law = catalog("cauchy", 1.0)
    ts = np.concatenate([np.linspace(-81.0, 81.0, 163), [1e-3, 0.3, 7.77, 33.3, -80.9]])
    got = log_cf_lk(law, ts)
    monkeypatch.setattr(canonical, "_GAUSS_LADDER", (20,))
    full = log_cf_lk(law, ts)
    assert np.max(np.abs(got - full)) <= 1e-13


def test_inner_order_depends_on_t_and_width() -> None:
    assert inner_gauss_order(1.0 / 1024, 0.0) == 4
    assert inner_gauss_order(1.0 / 1024, 10.0) == 4
    assert inner_gauss_order(2.0, 81.0) == 20
    orders = inner_gauss_order(1.0 / 1024, np.linspace(0.0, 1e4, 101))
    assert np.all(np.diff(orders) >= 0) and orders[-1] == 20
    assert np.array_equal(inner_gauss_order(0.1, [-3.0, 3.0]), inner_gauss_order(0.1, [3.0, 3.0]))


def test_wide_inner_cell_keeps_order_20_bit_for_bit() -> None:
    # one cell [-1, 1]: |t| w = 162 at t = 81, beyond every lower order
    G = CanonicalMeasure.from_density([-1.0, 1.0], [0.7])
    law = LevyKhintchinePair(gamma=0.25, G=G)
    ts = np.array([-81.0, -3.5, 0.2, 40.0, 81.0])
    # the order-20 kernel: 20 Gauss nodes on the cell, one block
    x, gw = np.polynomial.legendre.leggauss(20)
    u, w = 0.0 + 1.0 * x, (1.0 * 0.7) * gw
    want = 1j * 0.25 * ts - 0.5 * 0.0 * ts * ts
    tb = ts[:, None]
    f = tb * tb * exp_remainder2(tb * u) * (1.0 + u * u) + 1j * tb * u
    want += (f * w).sum(axis=1)
    assert np.all(inner_gauss_order(2.0, ts[[0, -1]]) == 20)
    got = log_cf_lk(law, ts)
    for k in (0, -1):
        assert got[k] == want[k]
        assert log_cf_lk(law, float(ts[k])) == want[k]


def test_cauchy_kernel_inner_node_count(monkeypatch) -> None:
    # |t| <= 10 needs order 4 on the 2,048 cells of width 1/1024 in |u| <= 1;
    # their 8,192 nodes go through _cell_kernel, none through the block
    seen = {"block": 0, "cells": []}
    real_cell_kernel = canonical._cell_kernel

    def counted_block(x):
        seen["block"] += np.size(x)
        return exp_remainder2(x)

    def counted_cells(ts, tables):
        seen["cells"].append((np.size(ts), tables[1].size))
        return real_cell_kernel(ts, tables)

    monkeypatch.setattr(canonical, "exp_remainder2", counted_block)
    monkeypatch.setattr(canonical, "_cell_kernel", counted_cells)
    law = catalog("cauchy", 1.0)
    log_cf_lk(law, symmetric_grid(10.0, 201))
    log_cf_lk(law, 10.0)
    assert seen["block"] == 0
    assert seen["cells"] == [(101, 2048 * 4), (1, 2048 * 4)]
    by_order = canonical._lk_parts(law.G)[-1]
    assert list(by_order) == [4]
    nodes, _, tables = by_order[4]
    assert nodes.size == 0 and np.all(np.diff(tables[0]) >= 0.0)


def _long_double_cell_kernel(inner, width, ts):
    """The inner cells' kernel sum in long double, at each t on the Gauss
    nodes of its order: W (-2 sin^2(tu/2)) + i (W (sin tu - tu) + w tu),
    W = w (1+u^2)/u^2, with sin x - x as its series where |x| < 0.5."""
    L = np.longdouble
    out = []
    for t in ts:
        u, w = (a.astype(L) for a in _gauss_nodes(inner, int(inner_gauss_order(width, t))))
        x = L(t) * u
        W = w * (1 + u * u) / (u * u)
        small = np.abs(x) < 0.5
        sin_less_x = np.sin(x) - x
        xs, term = x[small], x[small]
        sin_less_x[small] = 0
        for m in range(1, 30):
            term = -term * xs * xs / ((2 * m) * (2 * m + 1))
            sin_less_x[small] += term
        re = np.sum(-2 * W * np.sin(x / 2) ** 2)
        im = np.sum(W * sin_less_x + w * x)
        out.append(complex(float(re), float(im)))
    return np.array(out)


@pytest.mark.parametrize("t_max, points", [(10.0, 41), (81.0, 61), (5.0, 201), (81.0, 2001)])
def test_cell_kernel_matches_long_double(t_max, points) -> None:
    """The Cauchy inner cells' kernel, direct on short grids and by phase
    recurrence on (5, 201) and (81, 2001), is within 1e-15 max(1, |log phi|)
    of the same Gauss sums in long double (the exp_remainder2 block read
    1.4e-16 to 4.5e-16 here)."""
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is no wider than double here")
    G = catalog("cauchy", 1.0).G
    inner, width = canonical._lk_parts(G)[3:5]
    ts = symmetric_grid(t_max, points)
    got = log_cf_lk(LevyKhintchinePair(gamma=0.0, G=inner), ts)
    pick = np.unique(np.linspace(points // 2, points - 1, 61).astype(int))
    want = _long_double_cell_kernel(inner, width, ts[pick])
    assert np.all(np.abs(got[pick] - want) <= 1e-15 * np.maximum(1.0, np.abs(ts[pick])))


def test_cauchy_log_cf_on_the_invert_span() -> None:
    # the CLI's invert span, |t| <= 81, at a quarter of its 16,201 steps
    ts = symmetric_grid(81.0, 4001)
    assert np.max(np.abs(log_cf_lk(catalog("cauchy", 1.0), ts) + np.abs(ts))) <= 1.3e-5


def _block(law, ts):
    """The parent's kernel: the atoms and the inner cells' Gauss nodes of
    each t's order in one (t x node) block of exp_remainder2."""
    locs, masses = law.G._atom_arrays()
    g0 = float(np.sum(masses[locs == 0.0]))
    inner, width = canonical._lk_parts(law.G)[3:5]
    orders = inner_gauss_order(width, ts)
    out = 1j * law.gamma * ts - 0.5 * g0 * ts * ts
    for n in np.unique(orders):
        u, w = locs[locs != 0.0], masses[locs != 0.0]
        if inner is not None:
            cell_u, cell_w = _gauss_nodes(inner, int(n))
            assert cell_u.size < canonical._CELL_KERNEL_NODES
            u, w = np.concatenate([u, cell_u]), np.concatenate([w, cell_w])
        tb = ts[orders == n, None]
        f = tb * tb * exp_remainder2(tb * u) * (1.0 + u * u) + 1j * tb * u
        out[orders == n] += (f * w).sum(axis=1)
    out[ts == 0.0] = 0.0
    return out


BLOCK_LAWS = [
    catalog("poisson", 1.0, 1.0),
    catalog("poisson", 1.5, -0.7),
    LevyKhintchinePair(
        gamma=-0.3, G=CanonicalMeasure.from_atoms([(-2.0, 0.1), (0.0, 0.4), (0.5, 0.2), (1.5, 0.3)])
    ),
    # 12 inner cells: at most 240 nodes at every order, fewer than _CELL_KERNEL_NODES
    LevyKhintchinePair(
        gamma=0.7,
        G=CanonicalMeasure(
            atoms=((0.0, 0.3), (0.5, 0.2), (-2.0, 0.1)),
            edges=np.linspace(-1.0, 1.0, 13),
            values=np.full(12, 0.4),
        ),
    ),
]


@pytest.mark.parametrize("law", BLOCK_LAWS)
def test_block_laws_keep_the_parents_bits(law) -> None:
    """Atoms, and inner cells with few nodes, keep the parent's block code."""
    ts = np.linspace(-81.0, 81.0, 3241)
    assert np.array_equal(log_cf_lk(law, ts), _block(law, ts))
    # on a mirror the t >= 0 half is evaluated
    ts = symmetric_grid(81.0, 3241)
    got = log_cf_lk(law, ts)
    assert np.array_equal(got[1620:], _block(law, ts[1620:]))
    assert np.array_equal(got[:1620], np.conj(got[1621:][::-1]))


# -- the Hermitian fold --------------------------------------------------------------


def mixed_law() -> LevyKhintchinePair:
    """Drift, a Gaussian atom, off-zero atoms and cells inside and outside |u| <= 1."""
    G = CanonicalMeasure(
        atoms=((0.0, 0.3), (0.5, 0.2), (-2.0, 0.1)),
        edges=[-3.0, -1.5, -0.8, 0.6, 1.2, 4.0],
        values=[0.2, 0.0, 0.5, 0.0, 0.3],
    )
    return LevyKhintchinePair(gamma=0.7, G=G)


FOLD_GRIDS = [symmetric_grid(10.0, 41), symmetric_grid(10.0, 40), symmetric_grid(81.0, 61)]


@pytest.mark.parametrize("t", FOLD_GRIDS)
def test_folded_log_cf_matches_direct_evaluation(t) -> None:
    """Folded values are exact conjugate mirrors, and each is within
    1e-15 max(1, |log phi|) of a direct evaluation at its own t (a scalar call,
    with no phase recurrence). In TruncationResult.log_cf the rate lambda
    multiplies the rounding of the jump law's transform, so lambda takes the
    place of 1 there.
    """
    n = t.size // 2

    def check(log_cf_of, scale):
        folded = log_cf_of(t)
        direct = np.array([log_cf_of(x) for x in t])
        assert np.array_equal(folded[:n], np.conj(folded[::-1][:n]))
        assert np.all(np.abs(folded - direct) <= 1e-15 * np.maximum(scale, np.abs(direct)))

    for law in (catalog("cauchy", 1.0), mixed_law(), catalog("poisson", 1.5, -0.7)):
        check(lambda x: log_cf_lk(law, x), 1.0)
    for eps in (0.5, 0.02):
        tr = truncate_cp(catalog("cauchy", 1.0), eps)
        check(tr.log_cf, max(1.0, tr.lambda_eps))


@pytest.mark.parametrize("points", [21, 20])
def test_folded_log_cf_evaluates_half_the_grid(monkeypatch, points) -> None:
    """Work-count guard: on an n-point mirror the kernel block, the inner-cell
    kernel and the Fourier transform see ceil(n/2) t, in log_cf_lk and in
    TruncationResult.log_cf."""
    seen = {"ft": [], "kernel": [], "cells": []}
    real_ft = canonical.fourier_transform
    real_cell_kernel = canonical._cell_kernel

    def counted_ft(m, ts):
        seen["ft"].append(np.size(ts))
        return real_ft(m, ts)

    def counted_kernel(x):
        seen["kernel"].append(np.shape(x)[0])
        return exp_remainder2(x)

    def counted_cells(ts, tables):
        seen["cells"].append(np.size(ts))
        return real_cell_kernel(ts, tables)

    monkeypatch.setattr(canonical, "fourier_transform", counted_ft)
    monkeypatch.setattr(canonical, "exp_remainder2", counted_kernel)
    monkeypatch.setattr(canonical, "_cell_kernel", counted_cells)
    t = symmetric_grid(5.0, points)
    half = -(-points // 2)
    log_cf_lk(mixed_law(), t)
    # the mixed law's nodes fit one column block, so each t is one kernel row
    assert sum(seen["ft"]) == half and sum(seen["kernel"]) == half
    seen["ft"].clear()
    truncate_cp(mixed_law(), 0.1).log_cf(t)
    assert seen["ft"] == [half]
    # the Cauchy inner cells have enough nodes for the inner-cell kernel
    log_cf_lk(catalog("cauchy", 1.0), t)
    assert sum(seen["cells"]) == half
    # a grid that is not an exact mirror is evaluated whole
    for key in seen:
        seen[key].clear()
    off_mirror = np.linspace(-5.0, 4.0, points)
    log_cf_lk(mixed_law(), off_mirror)
    assert sum(seen["ft"]) == points and sum(seen["kernel"]) == points
    log_cf_lk(catalog("cauchy", 1.0), off_mirror)
    assert sum(seen["cells"]) == points


def test_hermitian_fold_falls_through_off_the_mirror() -> None:
    calls = []

    def f(t):
        calls.append(np.array(t, copy=True))
        return np.exp(1j * np.asarray(t)) + 0.5

    for t in (
        np.linspace(-5.0, 5.0, 201),  # off the exact mirror by rounding
        np.array([-1.0, 0.0, 2.0]),
        np.array([[-1.0, 1.0], [-2.0, 2.0]]),
        0.75,
    ):
        calls.clear()
        out = hermitian_fold(f, t)
        assert len(calls) == 1 and np.array_equal(calls[0], t)
        assert np.array_equal(out, f(t))


def test_hermitian_fold_on_a_mirror() -> None:
    calls = []

    def f(t):
        calls.append(t.size)
        return np.exp(1j * t) - 1.0 - 0.25 * t * t

    for points in (1, 2, 7, 8):
        calls.clear()
        t = symmetric_grid(3.0, points)
        out = hermitian_fold(f, t)
        assert calls == [-(-points // 2)]
        assert out.shape == t.shape
        assert np.max(np.abs(out - f(t))) <= 1e-15


def test_catalog_bad_parameters() -> None:
    with pytest.raises(BadParameter):
        catalog("gaussian", 0.0, -1.0)
    with pytest.raises(BadParameter):
        catalog("poisson", -1.0, 1.0)
    with pytest.raises(BadParameter):
        catalog("poisson", 1.0, 0.0)
    with pytest.raises(BadParameter):
        catalog("cauchy", 0.0)
    with pytest.raises(BadParameter):
        catalog("student_t", 3.0)
    with pytest.raises(BadParameter):
        catalog("gaussian", 1.0)


def test_scale_law_doubles_exponent() -> None:
    law = catalog("poisson", 1.0, 1.0)
    doubled = scale_law(law, 2.0)
    for t in (0.5, 1.5):
        assert abs(log_cf_lk(doubled, t) - 2 * log_cf_lk(law, t)) < 1e-13


def test_profile_matches_pointwise() -> None:
    """Grid evaluation path agrees with per-point evaluation."""
    law = catalog("cauchy", 1.0)
    ts = np.linspace(-2.0, 2.0, 21)
    prof = log_cf_lk(law, ts)
    spot = np.array([log_cf_lk(law, float(t)) for t in ts])
    assert np.max(np.abs(prof - spot)) < 5e-5
    atom_law = catalog("poisson", 1.5, 1.0)
    prof2 = log_cf_lk(atom_law, ts)
    spot2 = np.array([log_cf_lk(atom_law, float(t)) for t in ts])
    assert np.max(np.abs(prof2 - spot2)) < 1e-12


# -- law JSON files --------------------------------------------------------------------


def test_law_json_round_trip_all_forms() -> None:
    law = catalog("poisson", 1.0, 1.0)
    forms = [law, lk_to_kolmogorov(law), lk_to_levy(law)]
    for f in forms:
        d = law_to_json_dict(f)
        back = law_from_json_dict(d)
        assert type(back) is type(f)
        for t in (0.4, 1.7):
            assert abs(log_cf(back, t) - log_cf(f, t)) < 1e-14


def test_law_to_lk_dispatch() -> None:
    law = catalog("gaussian", 0.25, 1.0)
    assert law_to_lk(lk_to_kolmogorov(law)).gamma == pytest.approx(0.25)
    assert law_to_lk(lk_to_levy(law)).G.atoms == ((0.0, 1.0),)
