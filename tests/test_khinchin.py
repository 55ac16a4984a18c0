"""Tests for the inversion kernels, G_h families, tail bounds, and the Delta/K route."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import norm

from idlaws.canonical import (
    CompoundPoissonSpec,
    LevyKhintchinePair,
    NonFiniteLogCF,
    catalog,
    definetti_sequence,
    log_cf_lk,
    truncate_cp,
)
from idlaws import canonical, khinchin
from idlaws.divisibility import (
    CharacteristicFunctionGrid,
    ProbeOutOfRange,
    build_cf_grid,
    build_log_cf_grid,
    symmetric_grid,
)
from idlaws.khinchin import (
    BoundViolated,
    GhFamily,
    InsufficientSpan,
    InversionIntermediates,
    NoConvergence,
    OutOfRange,
    SignViolation,
    _bool_runs,
    _median,
    _simpson_weights,
    _taper_window,
    delta,
    delta_kernel_weight,
    delta_profile,
    extract_limit,
    g_from_k,
    g_h_from_root,
    gaussian_gh_family,
    gaussian_root_distribution,
    gnedenko_tail_check,
    i_h,
    invert_cf,
    k_from_delta,
    poisson_gh_family,
    poisson_root_distribution,
    tail_bounds,
)
from idlaws.measure import (
    CanonicalMeasure,
    atom_mass_at,
    cdf,
    mass_between,
    scale,
    total_mass,
)


def gaussian_cf(t):
    return np.exp(-t * t / 2.0)


def poisson_cf(t):
    return np.exp(np.exp(1j * t) - 1.0)


def density_mass(m: CanonicalMeasure) -> float:
    return total_mass(m) - sum(mass for _, mass in m.atoms)


@pytest.fixture(scope="module")
def gauss_grid():
    return build_cf_grid(gaussian_cf, t_max=5.0, points=2001)


@pytest.fixture(scope="module")
def poisson_grid():
    return build_cf_grid(poisson_cf, t_max=5.0, points=2001)


@pytest.fixture(scope="module")
def poisson_family():
    return poisson_gh_family([1e-1, 1e-2, 1e-3])


@pytest.fixture(scope="module")
def gaussian_family():
    return gaussian_gh_family([1e-2, 1e-3, 1e-4])


# wide grids for the full inversion route; T = 81 keeps the taper span past 80
@pytest.fixture(scope="module")
def poisson_inversion():
    cf = build_cf_grid(poisson_cf, t_max=81.0, points=16201)
    return invert_cf(cf)


@pytest.fixture(scope="module")
def gaussian_inversion():
    cf = build_log_cf_grid(lambda t: -0.5 * t * t, t_max=81.0, points=16201)
    return invert_cf(cf)


# -- kernel weights ---------------------------------------------------------------


def test_kernel_weight_at_zero() -> None:
    assert abs(delta_kernel_weight(0.0) - 1.0 / 6.0) < 1e-15


def test_kernel_weight_series_matches_direct() -> None:
    # straddle exp_remainder2's series/direct switch; direct form is fine at these v
    v = np.array([0.3, 0.49999, 0.50001, 1.0])
    direct = (1.0 - np.sin(v) / v) / (v * v) * (1.0 + v * v)
    assert np.max(np.abs(delta_kernel_weight(v) - direct)) < 1e-14


def test_kernel_weight_even() -> None:
    v = np.array([0.1, 0.5, 1.7, 4.0])
    assert np.array_equal(delta_kernel_weight(v), delta_kernel_weight(-v))


def test_kernel_weight_matches_long_double() -> None:
    """(1 - sin v/v)(1+v^2)/v^2 on 12,000 v in [-40, 40] within 4e-15
    relative of a long-double evaluation: (v - sin v)/v^3 by its series
    for |v| < 1, directly beyond."""
    v = np.linspace(-40.0, 40.0, 12000)
    x = v.astype(np.longdouble)
    small = np.abs(x) < 1
    y = x[small] ** 2
    series = np.zeros_like(y)
    for m in range(12, 0, -1):
        series = series * y + np.longdouble((-1) ** (m + 1)) / math.factorial(2 * m + 1)
    deficit = np.empty_like(x)
    deficit[small] = series
    xb = x[~small]
    deficit[~small] = (xb - np.sin(xb)) / (xb * xb * xb)
    want = deficit * (1 + x * x)
    got = delta_kernel_weight(v)
    assert np.max(np.abs((got - want) / want)) < 4e-15


def test_kernel_weight_values() -> None:
    assert abs(delta_kernel_weight(0.0) - 1.0 / 6.0) < 1e-15
    # w(1) = (1 - sin 1) * 2
    assert abs(delta_kernel_weight(1.0) - 2.0 * (1.0 - math.sin(1.0))) < 1e-15


# -- G_h from convolution roots ---------------------------------------------------


def test_g_h_poisson_root_mass() -> None:
    h = 0.1
    gh = g_h_from_root(poisson_root_distribution(h), h)
    # oracle: sum_k e^{-h} h^k/k! * k^2/(1+k^2) / h, summed directly
    oracle = sum(
        math.exp(-h) * h**k / math.factorial(k) * k * k / (1.0 + k * k) / h
        for k in range(1, 40)
    )
    assert abs(total_mass(gh) - oracle) < 1e-12
    assert abs(atom_mass_at(gh, 1.0) - math.exp(-h) * 0.5) < 1e-15
    assert atom_mass_at(gh, 0.0) == 0.0


def test_g_h_gaussian_root_mass() -> None:
    h = 0.01
    gh = g_h_from_root(gaussian_root_distribution(h), h)
    # small-h expansion of E[v^2/(1+v^2)]/h for v ~ N(0, h): 1 - 3h + 15h^2
    assert abs(total_mass(gh) - (1.0 - 3.0 * h + 15.0 * h * h)) < 1e-4
    assert abs(total_mass(gh) - 0.9714664696) < 1e-6  # regression pin


@pytest.mark.parametrize("h, sigma2", [(1e-2, 1.0), (1e-4, 2.5), (1.0, 1.0)])
def test_gaussian_root_masses_match_normal_cdf(h, sigma2) -> None:
    root = gaussian_root_distribution(h, sigma2)
    sd = math.sqrt(h * sigma2)
    edges = np.linspace(-8.0 * sd, 8.0 * sd, 801)
    masses = root.values * np.diff(root.edges)
    assert np.max(np.abs(masses - np.diff(norm.cdf(edges, scale=sd)))) < 1e-15
    dropped = 2.0 * norm.cdf(edges[0], scale=sd)
    assert abs(root.tail_dropped - dropped) < 1e-12 * dropped


def test_g_h_symmetric_atoms_exact() -> None:
    root = CanonicalMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
    gh = g_h_from_root(root, 0.5)
    # each atom: 0.5 * (1/2) / 0.5 = 0.5
    assert atom_mass_at(gh, -1.0) == pytest.approx(0.5, abs=1e-15)
    assert atom_mass_at(gh, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_g_h_rejects_bad_inputs() -> None:
    root = CanonicalMeasure.from_atoms([(1.0, 1.0)])
    with pytest.raises(ValueError):
        g_h_from_root(root, 0.0)
    with pytest.raises(ValueError):
        g_h_from_root(CanonicalMeasure.from_atoms([(1.0, 0.7)]), 0.1)


def test_family_requires_decreasing_h() -> None:
    g = CanonicalMeasure.from_atoms([(1.0, 0.5)])
    with pytest.raises(ValueError):
        GhFamily(entries=((0.01, g), (0.1, g)))
    with pytest.raises(ValueError):
        GhFamily(entries=((0.1, g), (-0.01, g)))


# -- I_h --------------------------------------------------------------------------


def test_i_h_gaussian_near_log(gauss_grid) -> None:
    # I_h = log phi + h (log phi)^2/2 + O(h^2); at t=1 the h-term is h/8
    val = i_h(gauss_grid, 1e-4, 1.0)
    assert abs(val - (-0.5)) < 2e-5
    assert i_h(gauss_grid, 1e-4, 0.0) == 0j


def test_i_h_poisson_near_log(poisson_grid) -> None:
    t = math.pi
    exact = complex(np.exp(1j * t) - 1.0)
    assert abs(i_h(poisson_grid, 1e-4, t) - exact) < 3e-4
    # the h-error is linear: 2 I(h) - I(2h) cancels it
    extrap = 2.0 * i_h(poisson_grid, 1e-4, t) - i_h(poisson_grid, 2e-4, t)
    assert abs(extrap - exact) < 1e-5


def test_i_h_rejects_nonpositive_h(gauss_grid) -> None:
    with pytest.raises(ValueError):
        i_h(gauss_grid, 0.0, 1.0)


def test_i_h_rejects_nan(gauss_grid) -> None:
    for bad in (np.nan, np.array([1.0, np.nan])):
        with pytest.raises(ProbeOutOfRange):
            i_h(gauss_grid, 1e-3, bad)


def i_h_per_t(cf, h: float, t) -> complex:
    """The scalar i_h the array one replaced, kept as its reference."""
    t = float(t)
    if t == 0.0:
        return 0j
    return complex((np.exp(h * cf.log_at(t)) - 1.0) / h)


def gl_integral_per_node(f, lo: float, hi: float, order: int = 64) -> float:
    """The _gl_integral that called f once per node, kept as its reference."""
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = mid + half * x
    return float(half * np.sum(w * np.array([f(s) for s in nodes])))


def test_i_h_bit_identical_to_per_t_reference(poisson_grid) -> None:
    for cf in (poisson_grid, build_cf_grid(poisson_cf, t_max=6.0, points=1601)):
        t = np.concatenate([np.linspace(-cf.t_max, cf.t_max, 301), [0.0, -0.0, 1e-9]])
        for h in (1e-4, 0.05, 1.0):
            want = np.array([i_h_per_t(cf, h, x) for x in t])
            got = i_h(cf, h, t)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert type(i_h(cf, h, 0.7)) is complex and i_h(cf, h, 0.7) == i_h_per_t(cf, h, 0.7)


def test_tail_bounds_and_gnedenko_bit_identical_to_per_t_reference(
    poisson_family, gaussian_family
) -> None:
    for fam in (poisson_family, gaussian_family):
        for h, g in fam.entries:
            tb = tail_bounds(g, fam.cf, h)
            bound_a = -i_h_per_t(fam.cf, h, 1.0).real / 0.5
            bound_b = -gl_integral_per_node(lambda s: i_h_per_t(fam.cf, h, s).real, 0.0, 2.0)
            assert (tb.bound_a, tb.bound_b) == (bound_a, bound_b)
            assert type(tb.bound_a) is float and type(tb.bound_b) is float
        alpha = 1.5
        sup_tail = 0.0
        for h, g in fam.entries:
            inside = mass_between(g, -alpha, alpha, include_lo=False, include_hi=False)
            tail = total_mass(g) - inside
            bound = -alpha * gl_integral_per_node(
                lambda s: i_h_per_t(fam.cf, h, s).real, 0.0, 2.0 / alpha
            )
            assert tail - bound <= 1e-8
            sup_tail = max(sup_tail, tail)
        assert gnedenko_tail_check(fam, alpha) == sup_tail


def test_tail_bounds_read_log_at_twice(poisson_family, monkeypatch) -> None:
    calls, log_at = [], CharacteristicFunctionGrid.log_at

    def counted(self, t):
        calls.append(np.size(t))
        return log_at(self, t)

    monkeypatch.setattr(CharacteristicFunctionGrid, "log_at", counted)
    h, g = poisson_family.entries[0]
    tail_bounds(g, poisson_family.cf, h)
    assert calls == [1, 64]
    calls.clear()
    gnedenko_tail_check(poisson_family, 2.0)
    assert calls == [64] * len(poisson_family.entries)


# -- tail bounds ------------------------------------------------------------------


def test_small_u_cosine_constant_is_half() -> None:
    # tail_bounds divides by 0.5, the min of (1 - cos u)(1+u^2)/u^2 on
    # |u| <= 1: it rises from its removable value 1/2 at u=0 to ~0.92 at |u|=1
    u = np.linspace(-1.0, 1.0, 20001)
    u = u[u != 0.0]
    vals = 2.0 * np.sin(u / 2.0) ** 2 * (1.0 + u * u) / (u * u)  # 1 - cos u = 2 sin^2(u/2)
    assert np.all(vals > 0.5) and np.min(vals) - 0.5 < 1e-8
    assert np.all(np.diff(vals[u > 0.0]) > 0.0)
    assert np.max(vals) == pytest.approx(4.0 * math.sin(0.5) ** 2)


def test_tail_bounds_poisson(poisson_family) -> None:
    for h, g in poisson_family.entries:
        tb = tail_bounds(g, poisson_family.cf, h)
        # oracle: split the series sum_k e^{-h} h^k/k! k^2/(1+k^2)/h at k=1
        a_oracle = math.exp(-h) * 0.5
        b_oracle = sum(
            math.exp(-h) * h**k / math.factorial(k) * k * k / (1.0 + k * k) / h
            for k in range(2, 40)
        )
        assert abs(tb.a_h - a_oracle) < 1e-12
        assert abs(tb.b_h - b_oracle) < 1e-12
        assert tb.slack_a > 0.0
        assert tb.slack_b > 0.0


def test_tail_bounds_gaussian() -> None:
    fam = gaussian_gh_family([1e-1, 1e-2])
    for h, g in fam.entries:
        tb = tail_bounds(g, fam.cf, h)
        assert tb.slack_a > 0.0
        assert tb.slack_b > 0.0
    # at h=0.01 nearly all mass sits inside |u| <= 1
    tb = tail_bounds(fam.entries[1][1], fam.cf, 0.01)
    assert abs(tb.a_h - 0.9714664696) < 1e-4
    assert tb.b_h < 1e-6


def test_tail_bounds_empty_measure(gauss_grid) -> None:
    tb = tail_bounds(CanonicalMeasure.empty(), gauss_grid, 0.01)
    assert tb.a_h == 0.0
    assert tb.b_h == 0.0
    assert tb.slack_a >= 0.0
    assert tb.slack_b >= 0.0


def test_tail_bounds_violation_raises(gauss_grid) -> None:
    # ten units of mass near the origin cannot come from a root of a unit law
    fat = CanonicalMeasure.from_atoms([(0.5, 10.0)])
    with pytest.raises(BoundViolated):
        tail_bounds(fat, gauss_grid, 0.01)


def test_gnedenko_poisson_decays(poisson_family) -> None:
    sups = [gnedenko_tail_check(poisson_family, a) for a in (2.0, 4.0, 8.0)]
    assert all(s >= 0 for s in sups)
    assert sups[0] >= sups[1] >= sups[2]
    # worst entry is h=0.1: tail oracle sum_{k>=2} of the G_h series
    h = 0.1
    oracle = sum(
        math.exp(-h) * h**k / math.factorial(k) * k * k / (1.0 + k * k) / h
        for k in range(2, 40)
    )
    assert abs(sups[0] - oracle) < 1e-12


def test_gnedenko_gaussian_negligible(gaussian_family) -> None:
    assert gnedenko_tail_check(gaussian_family, 5.0) < 1e-9


def test_gnedenko_empty_family() -> None:
    assert gnedenko_tail_check(GhFamily(entries=()), 2.0) == 0.0


def test_gnedenko_validation(poisson_family) -> None:
    with pytest.raises(ValueError):
        gnedenko_tail_check(poisson_family, 1.0)
    stripped = GhFamily(entries=poisson_family.entries, cf=None)
    with pytest.raises(ValueError):
        gnedenko_tail_check(stripped, 2.0)


def test_gnedenko_violation_raises(poisson_grid) -> None:
    fat = CanonicalMeasure.from_atoms([(3.0, 5.0)])
    fam = GhFamily(entries=((0.1, fat),), cf=poisson_grid)
    with pytest.raises(BoundViolated):
        gnedenko_tail_check(fam, 2.0)


# -- extracting the limit ---------------------------------------------------------


def test_extract_limit_poisson(poisson_family) -> None:
    u_grid = np.arange(-0.5, 3.5 + 1e-9, 0.05)
    G, drift = extract_limit(poisson_family, u_grid)
    assert len(G.atoms) == 1
    loc, mass = G.atoms[0]
    assert abs(loc - 1.0) < 1e-9
    assert abs(mass - 0.5) < 1e-5
    assert density_mass(G) < 1e-5
    assert abs(drift - 0.5) < 1e-5


def test_extract_limit_poisson_reconstruction(poisson_family) -> None:
    u_grid = np.arange(-0.5, 3.5 + 1e-9, 0.05)
    G, drift = extract_limit(poisson_family, u_grid)
    law = LevyKhintchinePair(gamma=drift, G=G)
    ts = np.linspace(-5.0, 5.0, 201)
    rebuilt = np.array([log_cf_lk(law, float(t)) for t in ts])
    exact = np.exp(1j * ts) - 1.0
    assert np.max(np.abs(rebuilt - exact)) < 1e-4


def test_extract_limit_gaussian(gaussian_family) -> None:
    u_grid = np.arange(-0.5, 0.5 + 1e-9, 0.0125)
    G, drift = extract_limit(gaussian_family, u_grid)
    assert len(G.atoms) == 1
    loc, mass = G.atoms[0]
    assert abs(loc) < 1e-6
    assert abs(mass - 1.0) < 1e-3
    assert abs(drift) < 1e-9

    law = LevyKhintchinePair(gamma=drift, G=G)
    ts = np.linspace(-5.0, 5.0, 201)
    rebuilt = np.array([log_cf_lk(law, float(t)) for t in ts])
    assert np.max(np.abs(rebuilt - (-0.5 * ts * ts))) < 1e-3


def test_extract_limit_degenerate_root() -> None:
    # the point mass at 0 has trivial roots; G_h vanishes identically
    entries = tuple(
        (h, g_h_from_root(CanonicalMeasure.from_atoms([(0.0, 1.0)]), h))
        for h in (0.1, 0.01, 0.001)
    )
    fam = GhFamily(entries=entries)
    G, drift = extract_limit(fam, np.arange(-1.0, 1.0 + 1e-9, 0.05))
    assert total_mass(G) == 0.0
    assert drift == 0.0


def test_extract_limit_jitter_raises(poisson_family) -> None:
    # alternately inflated masses never settle; the cdfs disagree out to the edge
    bad = GhFamily(
        entries=tuple(
            (h, scale(g, 1.0 + 0.3 * (i % 2)))
            for i, (h, g) in enumerate(poisson_family.entries)
        ),
        cf=poisson_family.cf,
    )
    with pytest.raises(NoConvergence):
        extract_limit(bad, np.arange(-0.5, 3.5 + 1e-9, 0.05))


def test_extract_limit_needs_three_entries(poisson_family) -> None:
    u_grid = np.arange(-0.5, 3.5 + 1e-9, 0.05)
    fam = GhFamily(entries=poisson_family.entries[:2], cf=poisson_family.cf)
    with pytest.raises(ValueError):
        extract_limit(fam, u_grid)
    # a bad u_grid is refused before any sweep (a NaN used to fail in restrict)
    nan_inside = u_grid.copy()
    nan_inside[10] = np.nan
    for bad in (
        nan_inside,
        np.append(u_grid, np.inf),
        np.insert(u_grid, 0, -np.inf),
        u_grid[::-1],
        u_grid[:1],
        u_grid.reshape(1, -1),
    ):
        with pytest.raises(ValueError, match="u_grid must be 1-d strictly increasing"):
            extract_limit(poisson_family, bad)


# -- the Delta functional ---------------------------------------------------------


def test_delta_gaussian_constant(gauss_grid) -> None:
    # log phi quadratic => Delta(t) = -2 (1/2)(2)(1/6)... = -1/3 for all t
    for t in (-3.0, -1.2, 0.0, 0.7, 3.0):
        assert abs(delta(gauss_grid, t) - (-1.0 / 3.0)) < 1e-9


def test_delta_gaussian_off_grid(gauss_grid) -> None:
    assert abs(delta(gauss_grid, 0.7431) - (-1.0 / 3.0)) < 1e-9


def test_delta_poisson_closed_form(poisson_grid) -> None:
    # hand integral: 2 log phi(t) - log phi(t+1) - log phi(t-1)
    #   = e^{it}(2 - e^{i} - e^{-i}) = -2 (1 - cos 1) e^{it}; averaging over
    # the offset pair replaces cos by sin/1, giving -2 (1 - sin 1) e^{it}
    for t in (0.0, 1.0, -2.5):
        exact = -2.0 * (1.0 - math.sin(1.0)) * np.exp(1j * t)
        assert abs(delta(poisson_grid, t) - exact) < 1e-9


def test_delta_pure_drift_vanishes() -> None:
    g = build_cf_grid(lambda t: np.exp(0.7j * t), t_max=5.0, points=2001)
    for t in (0.0, 1.3, -2.0):
        assert abs(delta(g, t)) < 1e-9


def test_delta_out_of_range(gauss_grid) -> None:
    with pytest.raises(OutOfRange):
        delta(gauss_grid, 4.5)
    with pytest.raises(OutOfRange):
        delta(gauss_grid, -4.5)


def test_delta_profile_matches_pointwise(poisson_grid) -> None:
    ts, dv = delta_profile(poisson_grid)
    assert ts[0] == -4.0 and ts[-1] == 4.0
    for i in (0, 100, 777, len(ts) // 2, len(ts) - 1):
        assert abs(dv[i] - delta(poisson_grid, float(ts[i]))) < 1e-12


def interp_prefix_per_t(cf, s: float) -> complex:
    """The scalar _interp_prefix the array one replaced, kept as its reference."""
    prefix = khinchin._log_prefix(cf)
    t, d, y = cf.t_grid, cf.step, cf.log_values
    j = int(np.clip(np.floor((s - t[0]) / d), 0, t.size - 2))
    frac = (s - t[j]) / d
    j0 = int(np.clip(j, 1, t.size - 3))
    base = (j0 - 1) - j
    c0, c1, c2, c3 = khinchin._cubic_coeffs(y[j0 - 1 : j0 + 3])

    def anti(x):
        xi = x - base
        return d * (c0 * xi + c1 * xi**2 / 2 + c2 * xi**3 / 3 + c3 * xi**4 / 4)

    return complex(prefix[j] + anti(frac) - anti(0.0))


def cubic_log_at_per_t(cf, t: float) -> complex:
    """The scalar _cubic_log_at the array one replaced, kept as its reference."""
    tg, y, d = cf.t_grid, cf.log_values, cf.step
    j = int(np.clip(np.floor((t - tg[0]) / d), 0, tg.size - 2))
    if t == tg[j]:
        return complex(y[j])
    j0 = int(np.clip(j, 1, tg.size - 3))
    xi = (t - tg[j0 - 1]) / d
    c0, c1, c2, c3 = khinchin._cubic_coeffs(y[j0 - 1 : j0 + 3])
    return complex(c0 + xi * (c1 + xi * (c2 + xi * c3)))


def delta_per_t(cf, t) -> complex:
    """The scalar delta the array one replaced, kept as its reference."""
    t = float(t)
    if t - 1.0 < cf.t_grid[0] - 1e-12 or t + 1.0 > cf.t_grid[-1] + 1e-12:
        raise OutOfRange("window exceeds the grid span")
    window = interp_prefix_per_t(cf, t + 1.0) - interp_prefix_per_t(cf, t - 1.0)
    return window - 2.0 * cubic_log_at_per_t(cf, t)


def same_bits(a, b) -> bool:
    """Equal values and sign bits, for complex scalars or arrays."""
    a, b = (np.atleast_1d(np.asarray(x, dtype=complex)) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# steps 0.0075 and 0.4 (they do not divide 1: delta_profile takes delta) and
# 1/150 (it does); on the coarse grid the cubic's upper terms reach the last
# bit, so a power rounded differently shows there
UNEVEN_GRIDS = {
    "poisson-1601": (poisson_cf, 6.0, 1601),
    "poisson-1801": (poisson_cf, 6.0, 1801),
    "poisson-101": (poisson_cf, 20.0, 101),
    "skew-1201": (lambda t: np.exp(2.0 * (np.exp(-0.7j * t) - 1.0) - 0.3 * t * t), 5.5, 1201),
}


@pytest.mark.parametrize("name", list(UNEVEN_GRIDS))
def test_delta_bit_identical_to_per_t_reference(name) -> None:
    cf = build_cf_grid(*UNEVEN_GRIDS[name])
    rng = np.random.default_rng(3)
    lim = cf.t_max - 1.0
    t = np.concatenate([rng.uniform(-lim, lim, 2000), cf.t_grid[np.abs(cf.t_grid) <= lim][::9]])
    t = np.concatenate([t, [-lim, lim, 0.0, -0.0]])
    want = np.array([delta_per_t(cf, x) for x in t])
    assert same_bits(delta(cf, t), want)
    assert same_bits(delta(cf, t[:400].reshape(20, 20)), want[:400].reshape(20, 20))
    for x in t[:20]:
        got = delta(cf, x)
        assert type(got) is complex and same_bits(got, delta_per_t(cf, x))
    ts, dv = delta_profile(cf)
    if abs(round(1.0 / cf.step) * cf.step - 1.0) >= 1e-9:
        assert same_bits(dv, [delta_per_t(cf, x) for x in ts])
    else:
        assert np.max(np.abs(dv - [delta_per_t(cf, x) for x in ts])) < 1e-12


def test_delta_profile_takes_the_prefix_path_on_the_bench_grids(monkeypatch) -> None:
    """The invert grids of the benchmark: span 80 at step 0.005 and span 40
    at step 0.01, one unit added on each side as the CLI builds them."""

    def no_delta(cf, t):
        raise AssertionError("delta_profile left its prefix-sum path")

    monkeypatch.setattr(khinchin, "delta", no_delta)
    law = catalog("poisson", 1.0, 1.0)
    for t_max, points in ((81.0, 32401), (41.0, 8201)):
        cf = build_log_cf_grid(lambda t: log_cf_lk(law, t), t_max=t_max, points=points)
        ts, _ = delta_profile(cf)
        assert ts[-1] == pytest.approx(t_max - 1.0)


def test_delta_rejects_nan(poisson_grid) -> None:
    for bad in (np.nan, np.array([0.0, np.nan]), [[1.0, -np.inf]]):
        with pytest.raises(OutOfRange):
            delta(poisson_grid, bad)
    with pytest.raises(OutOfRange, match="nan"):
        delta(poisson_grid, np.array([0.5, np.nan]))


def test_delta_conjugate_symmetry(poisson_grid) -> None:
    ts, dv = delta_profile(poisson_grid)
    assert np.max(np.abs(dv[::-1].conj() - dv)) < 1e-9


# -- K from Delta -----------------------------------------------------------------


def test_k_from_delta_constant_delta() -> None:
    # Delta = -1/3 is the standard Gaussian; K steps by -1/3 at 0, so the
    # one-sided values are -(1/6) +- (1/6) and K(0) = 0 by symmetry
    ts = np.linspace(-80.0, 80.0, 16001)
    dv = np.full(ts.size, -1.0 / 3.0, dtype=complex)
    k = k_from_delta(ts, dv, [-1.5, -0.5, 0.0, 0.5, 1.5])
    assert k[2] == 0.0
    assert abs(k[3] - (-1.0 / 6.0)) < 1e-4
    assert abs(k[4] - (-1.0 / 6.0)) < 1e-4
    # odd symmetry of the principal-value integral
    assert abs(k[0] + k[4]) < 1e-12
    assert abs(k[1] + k[3]) < 1e-12


def test_k_from_delta_zero_is_zero() -> None:
    ts = np.linspace(-50.0, 50.0, 2001)
    k = k_from_delta(ts, np.zeros(ts.size, dtype=complex), [-1.0, 0.0, 2.0])
    assert np.all(k == 0.0)


def test_k_from_delta_insufficient_span() -> None:
    ts = np.linspace(-30.0, 30.0, 1201)
    with pytest.raises(InsufficientSpan):
        k_from_delta(ts, np.full(ts.size, -1.0, dtype=complex), [0.5])


def test_k_from_delta_rejects_asymmetry() -> None:
    ts = np.linspace(-50.0, 50.0, 2001)
    with pytest.raises(ValueError, match="conjugate symmetry"):
        k_from_delta(ts, ts.astype(complex), [0.5])  # real odd profile


def test_k_from_delta_rejects_uneven_grid() -> None:
    x = np.linspace(-50.0, 50.0, 2001)
    ts = x * np.abs(x) / 50.0  # symmetric, spans [-50, 50], uneven steps
    with pytest.raises(ValueError, match="evenly spaced"):
        k_from_delta(ts, np.full(ts.size, -1.0 / 3.0, dtype=complex), [0.5])


def _k_from_delta_dense(delta_ts, delta_values, u_points) -> np.ndarray:
    """Reference inversion: the dense u x t integrand under scipy's simpson."""
    pos = delta_ts >= 0.0
    ts = delta_ts[pos]
    window = _taper_window(ts, float(delta_ts[-1]))
    re_w = delta_values[pos].real * window
    im_w = delta_values[pos].imag * window
    u = np.atleast_1d(np.asarray(u_points, dtype=float))[:, None]
    tu = u * ts[None, :]
    safe_t = np.where(ts == 0.0, 1.0, ts)
    integrand = (np.sin(tu) * re_w + (1.0 - np.cos(tu)) * im_w) / safe_t
    integrand[:, ts == 0.0] = u * re_w[ts == 0.0]
    return simpson(integrand, x=ts, axis=1) / np.pi


_CP_SKEW = CompoundPoissonSpec(
    rate=1.5, jump=CanonicalMeasure.from_atoms([(-2.0, 0.25), (0.5, 0.25), (1.5, 0.5)])
)


@pytest.mark.parametrize("span", [40.0, 40.01])  # 4,001 and 4,002 points t >= 0
@pytest.mark.parametrize(
    "law",
    [
        catalog("poisson", 1.0, 1.0),
        catalog("gaussian", 0.0, 1.0),
        catalog("compound_poisson", _CP_SKEW),
    ],
    ids=["poisson", "gaussian", "cp-skew"],
)
def test_k_from_delta_matches_dense_simpson(law, span) -> None:
    t_max = span + 1.0
    cf = build_log_cf_grid(
        lambda t: log_cf_lk(law, t), t_max=t_max, points=2 * int(round(t_max / 0.01)) + 1
    )
    ts, dv = delta_profile(cf)
    assert np.count_nonzero(ts >= 0.0) == int(round(span / 0.01)) + 1
    even_u = np.arange(-3.0, 3.0 + 1e-9, 0.005)
    uneven_u = np.array([-2.2, -0.4, 0.0, 0.3, 1.1, 2.9])
    for u in (even_u, uneven_u):
        k = k_from_delta(ts, dv, u)
        assert np.max(np.abs(k - _k_from_delta_dense(ts, dv, u))) < 1e-12
    assert k_from_delta(ts, dv, uneven_u)[2] == 0.0


def test_k_from_delta_grid_without_zero() -> None:
    # an even-length symmetric grid: the first t >= 0 is half a step
    ts = np.linspace(-40.005, 40.005, 8002)
    dv = -2.0 * (1.0 - math.sin(1.0)) * np.exp(1j * ts)  # Poisson(1) Delta
    u = np.linspace(-2.0, 2.0, 401)
    k = k_from_delta(ts, dv, u)
    assert np.max(np.abs(k - _k_from_delta_dense(ts, dv, u))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
def test_simpson_weights_match_scipy(n) -> None:
    h = 0.37
    w = _simpson_weights(n, h)
    assert np.max(np.abs(w - simpson(np.eye(n), dx=h, axis=1))) < 1e-15
    if n % 2 == 0 and n > 2:
        # Cartwright's end correction on top of the odd rule on n - 1 points
        added = w[-3:] - np.append(_simpson_weights(n - 1, h)[-2:], 0.0)
        assert np.allclose(added, [-h / 12.0, 2.0 * h / 3.0, 5.0 * h / 12.0], rtol=0, atol=1e-15)


def test_k_poisson_jump_midpoint(poisson_inversion) -> None:
    # at the jump the symmetric limit returns the midpoint: half the step
    inv = poisson_inversion
    k_at_1 = float(np.interp(1.0, inv.u_grid, inv.k_values))
    step = -2.0 * delta_kernel_weight(1.0) * 0.5
    assert abs(k_at_1 - step / 2.0) < 1e-3


def _bool_runs_loop(mask):
    """The former while-loop _bool_runs, kept as the reference."""
    runs = []
    i = 0
    while i < mask.size:
        if not mask[i]:
            i += 1
            continue
        j = i
        while j + 1 < mask.size and mask[j + 1]:
            j += 1
        runs.append((i, j))
        i = j + 1
    return runs


def test_bool_runs_matches_loop() -> None:
    rng = np.random.default_rng(17)
    masks = [np.zeros(0, dtype=bool), np.ones(9, dtype=bool), np.zeros(9, dtype=bool)]
    masks += [np.array([True]), np.array([False])]
    masks += [rng.random(rng.integers(1, 60)) < p for p in (0.1, 0.5, 0.9) for _ in range(30)]
    for mask in masks:
        got = _bool_runs(mask)
        assert got == _bool_runs_loop(mask)
        assert all(type(i) is int for run in got for i in run)
    assert _bool_runs(np.ones(9, dtype=bool)) == [(0, 8)]
    assert _bool_runs(np.zeros(0, dtype=bool)) == []


# -- G from K ---------------------------------------------------------------------


def test_g_from_k_exact_step_at_one() -> None:
    # the inversion yields the midpoint value at a jump; mirror that here so
    # the parabolic refinement lands on the jump point exactly
    u = np.linspace(-2.0, 2.0, 801)
    step = -2.0 * delta_kernel_weight(1.0) * 0.5
    k = np.where(u > 1.0, step, np.where(u == 1.0, step / 2.0, 0.0))
    G = g_from_k(k, u)
    assert len(G.atoms) == 1
    loc, mass = G.atoms[0]
    assert abs(loc - 1.0) < 1e-12
    assert abs(mass - 0.5) < 1e-12
    assert density_mass(G) < 1e-12


def test_g_from_k_exact_step_at_zero() -> None:
    u = np.linspace(-2.0, 2.0, 801)
    k = np.where(u > 0.0, -1.0 / 3.0, 0.0)
    G = g_from_k(k, u)
    assert len(G.atoms) == 1
    loc, mass = G.atoms[0]
    assert loc == 0.0
    assert abs(mass - 1.0) < 1e-9


def test_g_from_k_flat_is_empty() -> None:
    u = np.linspace(-2.0, 2.0, 801)
    G = g_from_k(np.zeros(u.size), u)
    assert total_mass(G) == 0.0


def test_g_from_k_sign_violation() -> None:
    with pytest.raises(SignViolation):
        g_from_k(np.array([0.0, 0.1, 0.05]), np.array([0.0, 1.0, 2.0]))


# -- the full inversion route -----------------------------------------------------


def test_invert_poisson_atom(poisson_inversion) -> None:
    inv = poisson_inversion
    assert inv.taper_span >= 80.0
    assert len(inv.recovered.atoms) == 1
    loc, mass = inv.recovered.atoms[0]
    assert abs(loc - 1.0) < 0.01
    assert abs(mass - 0.5) < 2e-3
    assert density_mass(inv.recovered) < 1e-3


def test_invert_poisson_drift_and_reconstruction(poisson_inversion) -> None:
    inv = poisson_inversion
    assert abs(inv.drift - 0.5) < 1e-3
    assert inv.reconstruction_error < 2e-3


def test_invert_gaussian_origin_atom(gaussian_inversion) -> None:
    inv = gaussian_inversion
    assert len(inv.recovered.atoms) == 1
    loc, mass = inv.recovered.atoms[0]
    assert loc == 0.0
    assert abs(mass - 1.0) < 2e-3
    assert abs(inv.drift) < 1e-3


def test_invert_cf_reads_log_at_once(poisson_grid, monkeypatch) -> None:
    calls, log_at = [], CharacteristicFunctionGrid.log_at

    def counted(self, t):
        calls.append(np.size(t))
        return log_at(self, t)

    monkeypatch.setattr(CharacteristicFunctionGrid, "log_at", counted)
    invert_cf(build_cf_grid(poisson_cf, t_max=41.0, points=8201))
    assert calls == [101]


def test_invert_two_atom_compound_poisson() -> None:
    jump = CanonicalMeasure.from_atoms([(-2.0, 0.25), (1.0, 0.75)])
    law = catalog("compound_poisson", CompoundPoissonSpec(rate=0.8, jump=jump))
    cf = build_cf_grid(
        lambda t: np.exp(log_cf_lk(law, t)), t_max=81.0, points=16201
    )
    inv = invert_cf(cf)
    # G carries u^2/(1+u^2) nu: 0.2*(4/5) at -2 and 0.6*(1/2) at 1
    got = sorted(inv.recovered.atoms)
    assert len(got) == 2
    assert abs(got[0][0] - (-2.0)) < 1e-3 and abs(got[0][1] - 0.16) < 1e-3
    assert abs(got[1][0] - 1.0) < 1e-3 and abs(got[1][1] - 0.30) < 1e-3
    assert abs(inv.drift - 0.22) < 1e-3
    # cdf agreement away from the jumps
    exact = CanonicalMeasure.from_atoms([(-2.0, 0.16), (1.0, 0.30)])
    for u in (-2.5, -1.0, 0.0, 0.5, 1.5, 2.5):
        assert abs(cdf(inv.recovered, u) - cdf(exact, u)) < 2e-3


def test_invert_tolerates_legal_noise() -> None:
    # perturb the exact log CF by ~1e-6, keeping it a legal log CF: real
    # part <= 0, conjugate-symmetric, exactly 0 at t = 0
    n = 16201
    base_ts = np.linspace(-81.0, 81.0, n)
    rng = np.random.default_rng(7)
    re_noise = -np.abs(rng.normal(size=n)) * 1e-6
    re_noise = 0.5 * (re_noise + re_noise[::-1])
    im_noise = rng.normal(size=n) * 1e-6
    im_noise = 0.5 * (im_noise - im_noise[::-1])
    re_noise[n // 2] = 0.0
    im_noise[n // 2] = 0.0

    def noisy_log(t):
        clean = np.exp(1j * t) - 1.0
        return clean + (
            np.interp(t, base_ts, re_noise) + 1j * np.interp(t, base_ts, im_noise)
        )

    cf = build_log_cf_grid(noisy_log, t_max=81.0, points=n)
    inv = invert_cf(cf)
    assert len(inv.recovered.atoms) == 1
    loc, mass = inv.recovered.atoms[0]
    assert abs(loc - 1.0) < 1e-3
    assert abs(mass - 0.5) < 2e-3


def test_inversion_intermediates_invariants(poisson_inversion) -> None:
    inv = poisson_inversion
    assert abs(float(np.interp(0.0, inv.u_grid, inv.k_values))) < 1e-9
    assert inv.taper_span == inv.delta_ts[-1]


def test_inversion_intermediates_rejects_asymmetric_delta(poisson_inversion) -> None:
    inv = poisson_inversion
    bad = np.array(inv.delta_values)
    bad[0] += 1e-3
    with pytest.raises(ValueError, match="conjugate symmetry"):
        InversionIntermediates(
            delta_ts=inv.delta_ts,
            delta_values=bad,
            u_grid=inv.u_grid,
            k_values=inv.k_values,
            recovered=inv.recovered,
            drift=inv.drift,
            reconstruction_error=inv.reconstruction_error,
        )


# -- compound-Poisson truncation ----------------------------------------------------


def test_truncate_poisson_exact() -> None:
    law = catalog("poisson", 1.0, 1.0)
    tr = truncate_cp(law, 0.5)
    assert abs(tr.lambda_eps - 1.0) < 1e-12
    assert tr.gaussian_mass == 0.0
    assert abs(tr.drift) < 1e-12
    assert atom_mass_at(tr.jump_distribution, 1.0) == pytest.approx(1.0, abs=1e-12)
    ts = np.linspace(-5.0, 5.0, 11)
    exact = np.exp(1j * ts) - 1.0
    assert np.max(np.abs(tr.log_cf(ts) - exact)) < 1e-12


def test_truncate_gaussian_keeps_drift_and_mass() -> None:
    law = LevyKhintchinePair(
        gamma=0.3, G=CanonicalMeasure.from_atoms([(0.0, 2.0)])
    )
    tr = truncate_cp(law, 0.1)
    assert tr.lambda_eps == 0.0
    assert tr.gaussian_mass == 2.0
    assert tr.drift == 0.3
    t = 1.5
    assert abs(tr.log_cf(t) - (0.3j * t - t * t * 2.0 / 2.0)) < 1e-12


def test_truncate_cauchy_rate() -> None:
    law = catalog("cauchy", 1.0)
    tr = truncate_cp(law, 0.1)
    # nu has density 1/(pi u^2) outside epsilon: rate 2/(0.1 pi) = 20/pi
    assert abs(tr.lambda_eps - 20.0 / math.pi) < 1e-4
    assert abs(tr.drift) < 1e-9
    assert tr.gaussian_mass == 0.0


@pytest.mark.parametrize("law", [catalog("poisson", 1.0, 1.0), catalog("cauchy", 1.0)])
def test_truncation_log_cf_rejects_non_finite_t(law) -> None:
    tr = truncate_cp(law, 0.5)
    nan, inf = math.nan, math.inf
    for t in (nan, inf, np.array([0.0, 1.0, -inf]), np.array([-1.0, 0.0, 1.0, nan])):
        with pytest.raises(NonFiniteLogCF) as want:
            log_cf_lk(law, t)
        with pytest.raises(NonFiniteLogCF) as got:
            tr.log_cf(t)
        assert str(got.value) == str(want.value)


def test_truncate_requires_positive_epsilon() -> None:
    law = catalog("poisson", 1.0, 1.0)
    with pytest.raises(ValueError):
        truncate_cp(law, 0.0)


# -- de Finetti sequences --------------------------------------------------------


def test_definetti_poisson_exact_for_small_epsilon() -> None:
    law = catalog("poisson", 1.0, 1.0)
    entries = definetti_sequence(law, [0.5, 0.1], t_grid=np.linspace(-5, 5, 51))
    for e in entries:
        assert e.sup_error < 1e-12


def test_definetti_cauchy_decreasing() -> None:
    law = catalog("cauchy", 1.0)
    ts = symmetric_grid(5.0, 201)
    entries = definetti_sequence(law, [0.5, 0.1, 0.02], t_grid=ts)
    # errors against the closed form -|t|, not the law's own log CF
    exact = np.exp(-np.abs(ts))
    errs = [float(np.max(np.abs(np.exp(e.truncation.log_cf(ts)) - exact))) for e in entries]
    assert errs[0] > errs[1] > errs[2]
    # frozen regression values from the default [-5, 5] x 201 grid
    assert errs[0] == pytest.approx(0.188784, abs=1e-4)
    assert errs[1] == pytest.approx(0.018438, abs=1e-4)
    assert errs[2] == pytest.approx(0.003488, abs=1e-4)
    assert errs[2] < 0.05


# atoms at 0, -0.6, 0.5 and -2; edges at -1.5, 0.6 and 1.2; a cell across 0
MIXED_LK = LevyKhintchinePair(
    gamma=0.7,
    G=CanonicalMeasure(
        atoms=((0.0, 0.3), (-0.6, 0.05), (0.5, 0.2), (-2.0, 0.1)),
        edges=[-3.0, -1.5, -0.8, 0.6, 1.2, 4.0],
        values=[0.2, 0.0, 0.5, 0.0, 0.3],
    ),
)


@pytest.mark.parametrize(
    "law, epsilons",
    [
        # 0.5 and 0.25 fall on the uniform grid's edges, 0.1 and 0.02 do not
        (catalog("cauchy", 1.0), [0.5, 0.1, 0.02]),
        (catalog("cauchy", 1.0), [0.75, 0.25, 0.0625, 0.01]),
        # the first epsilon beyond 1: the shared band runs to the Cauchy edges past 2
        (catalog("cauchy", 1.0), [2.0, 0.5, 0.02]),
        (MIXED_LK, [2.0, 1.5, 1.2, 0.8, 0.6, 0.5, 0.3, 0.05]),
        # the same law from epsilon below 1: the band runs to the edges past 1,
        # and the cell [0.6, 1.2] straddles u = 1
        (MIXED_LK, [0.8, 0.3, 0.05]),
        # cells with mass across -1 and 1, an atom inside the first band and one beyond
        (
            LevyKhintchinePair(
                gamma=-0.4,
                G=CanonicalMeasure(
                    atoms=((0.0, 0.2), (1.1, 0.1), (-3.0, 0.05)),
                    edges=[-2.5, -0.7, 0.4, 1.3, 3.0],
                    values=[0.4, 0.6, 0.25, 0.15],
                ),
            ),
            [0.9, 0.5, 0.1],
        ),
    ],
)
def test_definetti_shares_one_jump_transform(law, epsilons) -> None:
    """The truncations' log CFs through the shared band agree with each
    truncation's own log_cf within 1e-13 max(lambda, |log phi|), and the
    law's with log_cf_lk within 1e-13 max(1, |log phi|)."""
    t = symmetric_grid(5.0, 201)
    truncations = [truncate_cp(law, e) for e in epsilons]
    ref, log_phis = canonical._band_log_cfs(law, truncations, t)
    want = log_cf_lk(law, t)
    assert np.all(np.abs(ref - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    for tr, got in zip(truncations, log_phis):
        want = tr.log_cf(t)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(tr.lambda_eps, np.abs(want)))


def test_definetti_transforms_the_far_cells_once(monkeypatch) -> None:
    """Work-count guard: of the transforms on the Cauchy law at [0.5, 0.1,
    0.02], one holds the 23,518 cells of nu outside |u| <= 1, shared by the
    reference log CF and every truncation, and one band per truncation
    holds cells inside [-1, 1]; nu inside [-1, 1] has no mass."""
    far = canonical._lk_parts(catalog("cauchy", 1.0).G)[5]
    far_cells = int(np.count_nonzero(far.values))
    assert far_cells == 23518
    cells = []
    real_fourier_transform = canonical.fourier_transform

    def recording(m, ts):
        live = m.values * np.diff(m.edges) > 0
        cells.append((int(np.count_nonzero(live)), m.edges[:-1][live], m.edges[1:][live]))
        return real_fourier_transform(m, ts)

    monkeypatch.setattr(canonical, "fourier_transform", recording)
    definetti_sequence(catalog("cauchy", 1.0), [0.5, 0.1, 0.02])
    with_mass = sorted((c for c in cells if c[0]), key=lambda c: c[0])
    assert len(with_mass) == 4
    assert with_mass[-1][0] == far_cells
    for _, lefts, rights in with_mass[:-1]:
        assert lefts.min() >= -1.0 and rights.max() <= 1.0


def test_definetti_transforms_nu_in_the_band_once(monkeypatch) -> None:
    """Work-count guard: with the first epsilon beyond 1, the band runs past
    the cut at 1, and nu inside it is transformed once, by log_cf_lk of the
    law inside the band. On the Cauchy law at [2.0, 0.5, 0.02] that makes
    30,516 cells with mass in all (a second transform of nu's 1,982 band
    cells would make 32,498); nu of the mixed law, whose band is its whole
    grid, goes through one call."""
    seen = []
    real_fourier_transform = canonical.fourier_transform

    def recording(m, ts):
        seen.append(m)
        return real_fourier_transform(m, ts)

    def live_cells(m):
        live = m.values * np.diff(m.edges) > 0
        return m.edges[:-1][live], m.edges[1:][live], m.values[live]

    monkeypatch.setattr(canonical, "fourier_transform", recording)
    definetti_sequence(catalog("cauchy", 1.0), [2.0, 0.5, 0.02])
    assert sum(live_cells(m)[0].size for m in seen) == 30516
    nu = canonical._lk_parts(MIXED_LK.G)[5]
    seen.clear()
    definetti_sequence(MIXED_LK, [2.0, 0.5, 0.05])
    same = [all(map(np.array_equal, live_cells(m), live_cells(nu))) for m in seen]
    assert sum(same) == 1
    assert sum(live_cells(m)[0].size for m in seen) == 12


def test_definetti_atom_law_keeps_each_truncations_log_cf() -> None:
    # an atom law has no edges to share a transform across: same bits as before
    G = CanonicalMeasure.from_atoms([(-2.0, 0.2), (0.0, 0.1), (0.3, 0.4), (1.5, 0.5)])
    law = LevyKhintchinePair(gamma=0.2, G=G)
    t = symmetric_grid(5.0, 201)
    ref_cf = np.exp(log_cf_lk(law, t))
    for e in definetti_sequence(law, [2.0, 1.0, 0.2], t_grid=t):
        assert e.sup_error == float(np.max(np.abs(np.exp(e.truncation.log_cf(t)) - ref_cf)))


def test_definetti_epsilons_validated() -> None:
    law = catalog("poisson", 1.0, 1.0)
    with pytest.raises(ValueError):
        definetti_sequence(law, [0.1, 0.5])
    with pytest.raises(ValueError):
        definetti_sequence(law, [0.5, 0.0])


def test_definetti_without_epsilons_is_empty() -> None:
    assert definetti_sequence(catalog("cauchy", 1.0), []) == []


def test_definetti_rejects_a_non_finite_t_before_any_transform(monkeypatch) -> None:
    def refusing(m, ts):
        raise AssertionError("a transform ran before the t check")

    monkeypatch.setattr(canonical, "fourier_transform", refusing)
    for t_grid, bad in (([1.0, np.inf], "inf"), ([0.0, np.nan], "nan"), ([-np.inf, 2.0], "-inf")):
        with pytest.raises(NonFiniteLogCF, match=f"t={bad}$"):
            definetti_sequence(catalog("cauchy", 1.0), [0.5], t_grid=t_grid)


def test_definetti_cell_law_with_empty_first_truncations() -> None:
    """The truncations at 2.0 and 0.5 have lambda = 0 (every cell lies in
    |u| <= 0.3); their errors are the parent's to 1e-13."""
    G = CanonicalMeasure(atoms=((0.0, 0.3),), edges=[-0.3, 0.0, 0.3], values=[1.0, 2.0])
    entries = definetti_sequence(LevyKhintchinePair(gamma=0.1, G=G), [2.0, 0.5, 0.2])
    assert [e.truncation.lambda_eps for e in entries[:2]] == [0.0, 0.0]
    want = [0.4773530114594728, 0.4773530114594728, 0.23844197298124234]
    assert np.allclose([e.sup_error for e in entries], want, rtol=0.0, atol=1e-13)


def test_median_matches_numpy() -> None:
    rng = np.random.default_rng(8)
    cases = [rng.exponential(size=n) for n in (1, 2, 3, 10, 11, 6000)]
    cases += [np.zeros(7), np.array([3.0, 1.0, 2.0, 1.0]), np.array([0.0, 1e-300, 5e300, 1e-3])]
    for x in cases:
        got = _median(x)
        assert type(got) is float and got == float(np.median(x))
    assert _median(np.empty(0)) == 0.0


def test_default_reference_grids_are_exact_mirrors(monkeypatch) -> None:
    """invert_cf's reference t and definetti_sequence's default t grid come
    from symmetric_grid, so the log CF on them is folded."""
    seen = []
    real_log_cf_lk = khinchin.log_cf_lk

    def recording(law, t):
        seen.append(np.array(t, copy=True))
        return real_log_cf_lk(law, t)

    # invert_cf reads khinchin's binding, definetti_sequence canonical's
    monkeypatch.setattr(khinchin, "log_cf_lk", recording)
    monkeypatch.setattr(canonical, "log_cf_lk", recording)
    cf = build_log_cf_grid(lambda t: -0.5 * t * t, t_max=41.0, points=8201)
    invert_cf(cf)
    definetti_sequence(catalog("poisson", 1.0, 1.0), [0.5])
    assert len(seen) == 2
    assert np.array_equal(seen[0], symmetric_grid(5.0, 101))
    assert np.array_equal(seen[1], symmetric_grid(5.0, 201))
