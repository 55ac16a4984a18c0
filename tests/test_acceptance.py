"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion body states its tolerance and runtime cap inline; the
printed line appears in the captured-output summary (-rP) so a full run
reads as a checklist.
"""

import math
import time

import numpy as np

from idlaws.canonical import (
    CompoundPoissonSpec,
    LevyKhintchinePair,
    catalog,
    definetti_sequence,
    lk_to_kolmogorov,
    lk_to_levy,
    log_cf,
    log_cf_lk,
)
from idlaws.divisibility import build_cf_grid, build_log_cf_grid, nth_root, verify_infinitely_divisible
from idlaws.khinchin import (
    delta,
    extract_limit,
    gnedenko_tail_check,
    invert_cf,
    poisson_gh_family,
    tail_bounds,
)
from idlaws.measure import CanonicalMeasure, total_mass
from idlaws.simulate import (
    ProcessSpec,
    empirical_cf,
    sample_increments,
    scaling_check,
    stream_for,
    triangular_array_check,
)


def _report(n: int, ok: bool, elapsed: float, cap: float, detail: str) -> None:
    verdict = "PASS" if ok and elapsed < cap else "FAIL"
    print(f"ACCEPTANCE {n} {verdict} ({elapsed:.2f}s / cap {cap:.0f}s) {detail}")


def test_criterion_01_canonical_form_equivalence() -> None:
    # three laws, all three forms, 201 points on [-10, 10], 1e-9 absolute
    t0 = time.perf_counter()
    ts = np.linspace(-10.0, 10.0, 201)
    laws = [
        catalog("gaussian", 0.0, 1.0),
        catalog("poisson", 1.0, 1.0),
        catalog(
            "compound_poisson",
            CompoundPoissonSpec(
                rate=2.0,
                jump=CanonicalMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)]),
            ),
        ),
    ]
    worst = 0.0
    for law in laws:
        kol = lk_to_kolmogorov(law)
        lev = lk_to_levy(law)
        for t in ts:
            base = log_cf_lk(law, float(t))
            worst = max(worst, abs(log_cf(kol, float(t)) - base))
            worst = max(worst, abs(log_cf(lev, float(t)) - base))
    ok = worst < 1e-9
    elapsed = time.perf_counter() - t0
    _report(1, ok, elapsed, 1.0, f"max cross-form gap {worst:.2e} (tol 1e-9)")
    assert ok and elapsed < 1.0


def test_criterion_02_poisson_root_identity() -> None:
    # nth_root of exp(e^{it}-1) against exp[(1/n)(e^{it}-1)], n = 2..10
    t0 = time.perf_counter()
    cf = build_cf_grid(lambda t: np.exp(np.exp(1j * t) - 1.0), t_max=10.0, points=401)
    expected_exp = np.exp(1j * cf.t_grid) - 1.0
    worst = 0.0
    for n in range(2, 11):
        root = nth_root(cf, n)
        worst = max(worst, float(np.max(np.abs(root.values - np.exp(expected_exp / n)))))
    ok = worst < 1e-9
    elapsed = time.perf_counter() - t0
    _report(2, ok, elapsed, 1.0, f"max pointwise gap {worst:.2e} (tol 1e-9)")
    assert ok and elapsed < 1.0


def test_criterion_03_gaussian_delta_constant() -> None:
    # delta of the standard Gaussian CF is -1/3 at 21 points of [-3, 3]
    t0 = time.perf_counter()
    cf = build_cf_grid(lambda t: np.exp(-0.5 * t * t), t_max=5.0, points=2001)
    worst = max(
        abs(delta(cf, float(t)) - (-1.0 / 3.0)) for t in np.linspace(-3.0, 3.0, 21)
    )
    ok = worst < 1e-6
    elapsed = time.perf_counter() - t0
    _report(3, ok, elapsed, 1.0, f"max |delta + 1/3| {worst:.2e} (tol 1e-6)")
    assert ok and elapsed < 1.0


def test_criterion_04_inversion_round_trip() -> None:
    # Poisson: atom at 1 within 0.01, mass 0.5 within 2e-3, span >= 80;
    # Gaussian: origin atom mass 1 within 2e-3
    t0 = time.perf_counter()
    cf_p = build_cf_grid(
        lambda t: np.exp(np.exp(1j * t) - 1.0), t_max=81.0, points=16201
    )
    inv_p = invert_cf(cf_p)
    loc, mass = max(inv_p.recovered.atoms, key=lambda a: a[1])
    span_ok = inv_p.taper_span >= 80.0
    loc_err = abs(loc - 1.0)
    mass_err = abs(mass - 0.5)

    cf_g = build_log_cf_grid(lambda t: -0.5 * t * t, t_max=81.0, points=16201)
    inv_g = invert_cf(cf_g)
    g_loc, g_mass = max(inv_g.recovered.atoms, key=lambda a: a[1])
    g_err = abs(g_mass - 1.0)

    ok = span_ok and loc_err < 0.01 and mass_err < 2e-3 and g_loc == 0.0 and g_err < 2e-3
    elapsed = time.perf_counter() - t0
    _report(
        4, ok, elapsed, 30.0,
        f"poisson loc err {loc_err:.2e} mass err {mass_err:.2e}; "
        f"gaussian origin mass err {g_err:.2e} (tols 0.01 / 2e-3)",
    )
    assert ok and elapsed < 30.0


def test_criterion_05_limit_extraction_and_bounds() -> None:
    # extract_limit on h in {1e-1, 1e-2, 1e-3}; rebuilt exponent within 1e-3
    # on [-5, 5]; tail and Gnedenko bounds hold at every h
    t0 = time.perf_counter()
    family = poisson_gh_family([1e-1, 1e-2, 1e-3])
    G, drift = extract_limit(family, np.arange(-0.5, 3.5 + 1e-9, 0.05))
    law = LevyKhintchinePair(gamma=drift, G=G)
    ts = np.linspace(-5.0, 5.0, 201)
    rebuilt = np.array([log_cf_lk(law, float(t)) for t in ts])
    recon_err = float(np.max(np.abs(rebuilt - (np.exp(1j * ts) - 1.0))))

    slacks = []
    for h, g in family.entries:
        tb = tail_bounds(g, family.cf, h)  # raises on negative slack
        slacks.append(min(tb.slack_a, tb.slack_b))
    sup_tail = gnedenko_tail_check(family, 2.0)  # raises on violated bound

    ok = recon_err < 1e-3 and min(slacks) >= 0.0 and sup_tail >= 0.0
    elapsed = time.perf_counter() - t0
    _report(
        5, ok, elapsed, 10.0,
        f"reconstruction err {recon_err:.2e} (tol 1e-3), "
        f"min bound slack {min(slacks):.3f}, gnedenko sup tail {sup_tail:.4f}",
    )
    assert ok and elapsed < 10.0


def test_criterion_06_definetti_convergence() -> None:
    # Cauchy approximants at eps {0.5, 0.1, 0.02}: strictly decreasing CF
    # error on [-5, 5]; final error under 0.05
    t0 = time.perf_counter()
    entries = definetti_sequence(catalog("cauchy", 1.0), [0.5, 0.1, 0.02])
    errs = [e.sup_error for e in entries]
    ok = errs[0] > errs[1] > errs[2] and errs[2] < 0.05
    elapsed = time.perf_counter() - t0
    _report(
        6, ok, elapsed, 10.0,
        f"sup errors {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f}, final < 0.05",
    )
    assert ok and elapsed < 10.0


def test_criterion_07_uniform_law_refuted() -> None:
    # sin(t)/t has a zero at pi; the verifier must find it within one grid step
    t0 = time.perf_counter()
    report = verify_infinitely_divisible(
        lambda t: np.sinc(t / np.pi), t_max=4.0, points=401
    )
    step = 2.0 * 4.0 / 400
    ok = (
        not report.passed
        and report.zero_location is not None
        and abs(report.zero_location - math.pi) < step
    )
    elapsed = time.perf_counter() - t0
    witness = report.zero_location if report.zero_location is not None else float("nan")
    _report(
        7, ok, elapsed, 1.0,
        f"witness {witness:.4f} vs pi, gap {abs(witness - math.pi):.4f} < step {step}",
    )
    assert ok and elapsed < 1.0


def test_criterion_08_simulation_fidelity() -> None:
    # 1e5 Poisson increments: P(X=0) within 0.0046 of e^{-1}; 1e5 Gaussian
    # increments: CF inside the 3/sqrt(N) envelope at >= 99% of points;
    # triangular arrays (Gaussian n=4, Poisson n=3) pass KS at 1%
    t0 = time.perf_counter()
    spec_p = ProcessSpec(law=catalog("poisson", 1.0, 1.0), epsilon=0.5, horizon=2.0, seed=7)
    x_p = sample_increments(spec_p, 1.0, 100_000, stream_for(7, 0, 0))
    p0_err = abs(float(np.mean(x_p == 0.0)) - math.exp(-1.0))

    spec_g = ProcessSpec(law=catalog("gaussian", 0.0, 1.0), epsilon=0.5, horizon=2.0, seed=3)
    x_g = sample_increments(spec_g, 1.0, 100_000, stream_for(3, 0, 0))
    t_grid = np.linspace(-5.0, 5.0, 201)
    est = empirical_cf(x_g, t_grid)
    inside = np.abs(est.estimates - np.exp(-t_grid * t_grid / 2.0)) <= est.half_widths
    frac = float(np.mean(inside))

    tri_g = triangular_array_check(catalog("gaussian", 0.0, 1.0), 4, draws=10_000, seed=2)
    tri_p = triangular_array_check(catalog("poisson", 1.0, 1.0), 3, draws=10_000, seed=2)

    ok = p0_err < 0.0046 and frac >= 0.99 and tri_g.passed and tri_p.passed
    elapsed = time.perf_counter() - t0
    _report(
        8, ok, elapsed, 60.0,
        f"P(0) err {p0_err:.4f} (band 0.0046), envelope frac {frac:.3f}, "
        f"KS {tri_g.statistic:.4f}/{tri_p.statistic:.4f} < {tri_g.critical:.4f}",
    )
    assert ok and elapsed < 60.0


def test_criterion_09_scaling_law() -> None:
    # log phi(t, lam) = lam log phi(t, 1): exact for the representation,
    # empirical within envelopes, lam in {0.5, 2} on Poisson and Gaussian
    t0 = time.perf_counter()
    t_grid = np.linspace(-5.0, 5.0, 201)
    rep_p = scaling_check(catalog("poisson", 1.0, 1.0), t_grid, [0.5, 2.0], seed=5)
    rep_g = scaling_check(catalog("gaussian", 0.0, 1.0), t_grid, [0.5, 2.0], seed=5)
    exact = max(e.exact_error for r in (rep_p, rep_g) for e in r.entries)
    frac = min(e.envelope_fraction for r in (rep_p, rep_g) for e in r.entries)
    ok = rep_p.passed and rep_g.passed
    elapsed = time.perf_counter() - t0
    _report(
        9, ok, elapsed, 30.0,
        f"exact gap {exact:.1e}, min envelope frac {frac:.3f}",
    )
    assert ok and elapsed < 30.0
