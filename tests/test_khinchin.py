"""Tests for the inversion kernels, G_h families, tail bounds, and the Delta/K route."""

import math

import numpy as np
import pytest

from idlaws.canonical import (
    CompoundPoissonSpec,
    LevyKhintchinePair,
    catalog,
    log_cf_lk,
)
from idlaws.divisibility import build_cf_grid, build_log_cf_grid
from idlaws.khinchin import (
    BoundViolated,
    GhFamily,
    InsufficientSpan,
    InversionIntermediates,
    NoConvergence,
    OutOfRange,
    SignViolation,
    definetti_sequence,
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
    sinc_deficit,
    small_u_cosine_constant,
    tail_bounds,
    truncate_cp,
)
from idlaws.measure import (
    CanonicalMeasure,
    atom_mass_at,
    cdf,
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


def test_sinc_deficit_at_zero() -> None:
    assert abs(sinc_deficit(0.0) - 1.0 / 6.0) < 1e-15


def test_sinc_deficit_series_matches_direct() -> None:
    # straddle the series/direct switch; direct form is fine at these v
    v = np.array([0.3, 0.49999, 0.50001, 1.0])
    direct = (1.0 - np.sin(v) / v) / (v * v)
    assert np.max(np.abs(sinc_deficit(v) - direct)) < 1e-14


def test_sinc_deficit_even() -> None:
    v = np.array([0.1, 0.5, 1.7, 4.0])
    assert np.array_equal(sinc_deficit(v), sinc_deficit(-v))


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


def test_family_mass_bound(poisson_family) -> None:
    masses = [total_mass(g) for _, g in poisson_family.entries]
    assert poisson_family.mass_bound == max(masses)
    assert GhFamily(entries=()).mass_bound == 0.0


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


# -- tail bounds ------------------------------------------------------------------


def test_small_u_cosine_constant_is_half() -> None:
    # (1 - cos u)(1+u^2)/u^2 rises from 1/2 at u=0 to ~0.92 at |u|=1
    assert abs(small_u_cosine_constant() - 0.5) < 1e-12


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
        assert tb.c_h == pytest.approx(tb.a_h + tb.b_h)
        assert tb.c_constant == 0.5
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
    fam = GhFamily(entries=poisson_family.entries[:2], cf=poisson_family.cf)
    with pytest.raises(ValueError):
        extract_limit(fam, np.arange(-0.5, 3.5 + 1e-9, 0.05))


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
    with pytest.raises(ValueError):
        k_from_delta(ts, ts.astype(complex), [0.5])  # real odd profile


def test_k_poisson_jump_midpoint(poisson_inversion) -> None:
    # at the jump the symmetric limit returns the midpoint: half the step
    inv = poisson_inversion
    k_at_1 = float(np.interp(1.0, inv.u_grid, inv.k_values))
    step = -2.0 * delta_kernel_weight(1.0) * 0.5
    assert abs(k_at_1 - step / 2.0) < 1e-3


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
    assert inv.k_sign == -1
    assert abs(float(np.interp(0.0, inv.u_grid, inv.k_values))) < 1e-9
    # k_measure records -dK; its mass is K's total drop
    drop = float(np.sum(np.where(np.diff(inv.k_values) < 0, -np.diff(inv.k_values), 0.0)))
    assert abs(total_mass(inv.k_measure) - drop) < 1e-12


def test_inversion_intermediates_rejects_asymmetric_delta(poisson_inversion) -> None:
    inv = poisson_inversion
    bad = np.array(inv.delta_values)
    bad[0] += 1e-3
    with pytest.raises(ValueError):
        InversionIntermediates(
            delta_ts=inv.delta_ts,
            delta_values=bad,
            u_grid=inv.u_grid,
            k_values=inv.k_values,
            k_measure=inv.k_measure,
            taper_span=inv.taper_span,
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
    spec = tr.compound_poisson_spec()
    assert spec is not None and abs(spec.rate - 1.0) < 1e-12


def test_truncate_gaussian_keeps_drift_and_mass() -> None:
    law = LevyKhintchinePair(
        gamma=0.3, G=CanonicalMeasure.from_atoms([(0.0, 2.0)])
    )
    tr = truncate_cp(law, 0.1)
    assert tr.lambda_eps == 0.0
    assert tr.gaussian_mass == 2.0
    assert tr.drift == 0.3
    assert tr.compound_poisson_spec() is None
    t = 1.5
    assert abs(tr.log_cf(t) - (0.3j * t - t * t * 2.0 / 2.0)) < 1e-12


def test_truncate_cauchy_rate() -> None:
    law = catalog("cauchy", 1.0)
    tr = truncate_cp(law, 0.1)
    # nu has density 1/(pi u^2) outside epsilon: rate 2/(0.1 pi) = 20/pi
    assert abs(tr.lambda_eps - 20.0 / math.pi) < 1e-4
    assert abs(tr.drift) < 1e-9
    assert tr.gaussian_mass == 0.0


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
    entries = definetti_sequence(
        law, [0.5, 0.1, 0.02], reference_log_cf=lambda ts: -np.abs(ts)
    )
    errs = [e.sup_error for e in entries]
    assert errs[0] > errs[1] > errs[2]
    # frozen regression values from the default [-5, 5] x 201 grid
    assert errs[0] == pytest.approx(0.188784, abs=1e-4)
    assert errs[1] == pytest.approx(0.018438, abs=1e-4)
    assert errs[2] == pytest.approx(0.003488, abs=1e-4)
    assert errs[2] < 0.05


def test_definetti_epsilons_validated() -> None:
    law = catalog("poisson", 1.0, 1.0)
    with pytest.raises(ValueError):
        definetti_sequence(law, [0.1, 0.5])
    with pytest.raises(ValueError):
        definetti_sequence(law, [0.5, 0.0])
