"""Tests for CF grids, unwrapped logs, convolution roots, and PSD checks."""

import numpy as np
import pytest

from idlaws.divisibility import (
    CharacteristicFunctionGrid,
    ProbeOutOfRange,
    TriangularArrayRow,
    ZeroCrossing,
    build_cf_grid,
    build_log_cf_grid,
    grid_to_csv,
    nth_root,
    psd_check,
    triangular_row,
    verify_infinitely_divisible,
)


def gaussian_cf(t):
    return np.exp(-t * t / 2.0)


def poisson_cf(t):
    return np.exp(np.exp(1j * t) - 1.0)


def uniform_cf(t):
    # CF of the uniform law on [-1, 1]: sin(t)/t
    return np.sinc(t / np.pi)


# -- grid construction -----------------------------------------------------------


def test_build_gaussian_log_exact() -> None:
    g = build_cf_grid(gaussian_cf, t_max=10.0, points=201)
    assert np.max(np.abs(g.log_values - (-g.t_grid**2 / 2.0))) < 1e-9
    assert g.log_values[100] == 0.0


def test_build_poisson_phase_continuous() -> None:
    """Unwrapped log matches the closed-form exponent with no 2pi artifacts."""
    g = build_cf_grid(poisson_cf, t_max=10.0, points=201)
    expect = np.exp(1j * g.t_grid) - 1.0
    assert np.max(np.abs(g.log_values - expect)) < 1e-9


def test_build_unwraps_winding_drift() -> None:
    # drift makes the phase wind through many turns; the walk keeps up
    g = build_cf_grid(lambda t: np.exp(2.5j * t) * poisson_cf(t), 10.0, 201)
    expect = 2.5j * g.t_grid + np.exp(1j * g.t_grid) - 1.0
    assert np.max(np.abs(g.log_values - expect)) < 1e-9
    assert g.log_values.imag.max() > 20.0


def test_build_uniform_law_zero_crossing() -> None:
    with pytest.raises(ZeroCrossing) as exc:
        build_cf_grid(uniform_cf, t_max=4.0, points=201)
    # witness lands within one grid step of the true zero at pi
    step = 8.0 / 200
    assert abs(exc.value.witness - np.pi) < step


def test_build_hard_zero_detected() -> None:
    def clipped(t):
        return np.where(np.abs(t) < 3, gaussian_cf(t), 0.0)

    with pytest.raises(ZeroCrossing):
        build_cf_grid(clipped, t_max=5.0, points=101)


def test_builders_call_the_evaluator_once_on_the_whole_grid() -> None:
    calls = []

    def log_evaluator(t):
        calls.append(np.shape(t))
        return -0.5 * t * t

    g = build_log_cf_grid(log_evaluator, t_max=10.0, points=201)
    assert calls == [(201,)]
    assert np.max(np.abs(g.log_values + 0.5 * g.t_grid**2)) < 1e-12
    calls.clear()
    build_cf_grid(lambda t: np.exp(log_evaluator(t)), t_max=10.0, points=201)
    assert calls == [(201,)]
    with pytest.raises(ValueError):
        build_log_cf_grid(lambda t: np.zeros(3), t_max=1.0, points=11)


def test_build_rejects_bad_grid_parameters() -> None:
    with pytest.raises(ValueError):
        build_cf_grid(gaussian_cf, t_max=10.0, points=200)
    with pytest.raises(ValueError):
        build_cf_grid(gaussian_cf, t_max=-1.0, points=201)
    with pytest.raises(ValueError):
        build_cf_grid(lambda t: 0.5 * gaussian_cf(t), t_max=1.0, points=11)


def test_grid_invariants_enforced() -> None:
    t = np.linspace(-1, 1, 5)
    good = np.exp(-(t**2))
    with pytest.raises(ValueError):
        # modulus above 1
        CharacteristicFunctionGrid(t, good * 1.1, np.log(good * 1.1 + 0j))
    with pytest.raises(ValueError):
        # log does not exponentiate to values
        CharacteristicFunctionGrid(t, good, np.zeros(5, dtype=complex))
    with pytest.raises(ValueError):
        # asymmetric grid
        CharacteristicFunctionGrid(np.array([-1, 0, 2.0]), np.ones(3), np.zeros(3))


def test_grid_tiny_tail_modulus_is_fine() -> None:
    """A genuine CF may underflow far into its tail without tripping detection."""
    g = build_cf_grid(gaussian_cf, t_max=10.0, points=201)
    assert np.min(np.abs(g.values)) < 1e-12
    assert np.isfinite(g.log_values).all()


# -- nth_root --------------------------------------------------------------------


def test_nth_root_poisson_quarter_rate() -> None:
    g = build_cf_grid(poisson_cf, 10.0, 201)
    r = nth_root(g, 4)
    expect = np.exp((np.exp(1j * g.t_grid) - 1.0) / 4.0)
    assert np.max(np.abs(r.values - expect)) < 1e-9


def test_nth_root_gaussian_halved() -> None:
    g = build_cf_grid(gaussian_cf, 10.0, 201)
    r = nth_root(g, 2)
    assert np.max(np.abs(r.values - np.exp(-g.t_grid**2 / 4.0))) < 1e-9


def test_nth_root_identity() -> None:
    g = build_cf_grid(poisson_cf, 10.0, 201)
    assert nth_root(g, 1) is g


def test_nth_root_power_reproduces_parent() -> None:
    g = build_cf_grid(poisson_cf, 10.0, 201)
    for n in range(1, 21):
        r = nth_root(g, n)
        assert np.max(np.abs(np.exp(r.log_values * n) - g.values)) < 1e-9


def test_nth_root_composes() -> None:
    g = build_cf_grid(poisson_cf, 10.0, 201)
    ab = nth_root(nth_root(g, 2), 3)
    direct = nth_root(g, 6)
    assert np.max(np.abs(ab.values - direct.values)) < 1e-9


def test_adjacent_phase_increments_below_pi() -> None:
    for cf in (gaussian_cf, poisson_cf):
        g = build_cf_grid(cf, 10.0, 201)
        assert np.max(np.abs(np.diff(g.log_values.imag))) < np.pi


# -- psd_check -------------------------------------------------------------------


def test_psd_gaussian_three_probes() -> None:
    g = build_cf_grid(gaussian_cf, 10.0, 201)
    ok, min_eig = psd_check(g, [-1.0, 0.0, 1.0], 1e-8)
    assert ok
    # eigen-solver oracle on exp(-(tj-tk)^2/2): eigenvalues all positive
    h = np.exp(-np.subtract.outer([-1, 0, 1], [-1, 0, 1]) ** 2 / 2.0)
    assert min_eig == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-9)


def test_psd_constant_cf_rank_deficient() -> None:
    g = build_cf_grid(lambda t: 1.0 + 0j, 5.0, 101)
    ok, min_eig = psd_check(g, [-2.0, -1.0, 0.0, 1.0, 2.0], 1e-8)
    assert ok
    assert abs(min_eig) < 1e-12


def test_psd_rejects_sqrt_of_uniform_law() -> None:
    """The uniform law has no convolution square root among CFs.

    On the zero-free window [-3, 3] the formal square root fails Bochner
    positivity; the probe set below is a recorded witness.
    """
    g = build_cf_grid(uniform_cf, t_max=3.0, points=301)
    root = nth_root(g, 2)
    ok, min_eig = psd_check(root, [k * 0.5 for k in range(-3, 4)], 1e-8)
    assert not ok
    assert min_eig < -0.01


def test_psd_catalog_cfs_pass_default_probes() -> None:
    # genuine CFs: Gaussian, Poisson, Cauchy
    for cf in (gaussian_cf, poisson_cf, lambda t: np.exp(-abs(t))):
        g = build_cf_grid(cf, 10.0, 201)
        for h in (0.5, 1.0):
            ok, _ = psd_check(g, [k * h for k in range(-3, 4)], 1e-8)
            assert ok


def test_psd_probe_out_of_range() -> None:
    g = build_cf_grid(gaussian_cf, 2.0, 41)
    with pytest.raises(ProbeOutOfRange):
        psd_check(g, [-1.5, 1.5], 1e-8)


def test_psd_duplicate_probes_rejected() -> None:
    g = build_cf_grid(gaussian_cf, 2.0, 41)
    with pytest.raises(ValueError):
        psd_check(g, [0.0, 0.0, 1.0], 1e-8)


# -- verify_infinitely_divisible ----------------------------------------------------


def test_verify_poisson_passes() -> None:
    rep = verify_infinitely_divisible(poisson_cf, roots_to_check=(2, 3, 5))
    assert rep.passed
    assert rep.roots_checked == (2, 3, 5)
    assert not rep.failures


def test_verify_gaussian_passes() -> None:
    assert verify_infinitely_divisible(gaussian_cf).passed


def test_verify_uniform_fails_with_zero_witness() -> None:
    rep = verify_infinitely_divisible(uniform_cf, t_max=4.0, points=201)
    assert not rep.passed
    assert rep.zero_location is not None
    assert abs(rep.zero_location - np.pi) < 8.0 / 200


def test_verify_accepts_prebuilt_grid() -> None:
    g = build_cf_grid(gaussian_cf, 10.0, 201)
    assert verify_infinitely_divisible(g).passed


def test_verify_reports_psd_failure_on_window() -> None:
    """Restricted to a zero-free window, the uniform law still fails via PSD."""
    g = build_cf_grid(uniform_cf, t_max=3.0, points=301)
    rep = verify_infinitely_divisible(g, roots_to_check=(2,))
    assert not rep.passed
    assert rep.zero_location is None
    assert rep.failures
    n, probes, min_eig = rep.failures[0]
    assert n == 2 and min_eig < -1e-8


# -- triangular rows and CSV ---------------------------------------------------------


def test_triangular_row_poisson() -> None:
    g = build_cf_grid(poisson_cf, 10.0, 201)
    row = triangular_row(g, 3)
    assert isinstance(row, TriangularArrayRow)
    expect = np.exp((np.exp(1j * g.t_grid) - 1.0) / 3.0)
    assert np.max(np.abs(row.component_cf.values - expect)) < 1e-9


def test_triangular_row_identity() -> None:
    g = build_cf_grid(gaussian_cf, 10.0, 201)
    assert triangular_row(g, 1).component_cf is g


def test_grid_csv_export() -> None:
    g = build_cf_grid(gaussian_cf, 2.0, 5)
    lines = grid_to_csv(g).splitlines()
    assert lines[0] == "t,re,im,log_re,log_im"
    assert len(lines) == 6
    cells = lines[1].split(",")
    assert float(cells[0]) == -2.0
    assert float(cells[3]) == pytest.approx(-2.0)
