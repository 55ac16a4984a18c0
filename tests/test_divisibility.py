"""Tests for CF grids, unwrapped logs, convolution roots, and PSD checks."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from idlaws import cli, divisibility, measure, simulate
from idlaws.canonical import CompoundPoissonSpec, catalog, log_cf_lk
from idlaws.divisibility import (
    PHASE_FLIP_THRESHOLD,
    CharacteristicFunctionGrid,
    ProbeOutOfRange,
    ZeroCrossing,
    _unwrapped_log,
    build_cf_grid,
    build_log_cf_grid,
    grid_to_csv,
    nth_root,
    psd_check,
    symmetric_grid,
    verify_infinitely_divisible,
)
from idlaws.measure import CanonicalMeasure
from idlaws.simulate import paths_to_csv


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
        # modulus above 1, which at t=0 also breaks log phi(0) = 0
        CharacteristicFunctionGrid(t, np.log(good * 1.1 + 0j))
    with pytest.raises(ValueError):
        # asymmetric grid
        CharacteristicFunctionGrid(np.array([-1, 0, 2.0]), np.zeros(3))


def test_grid_stores_only_the_log() -> None:
    g = build_log_cf_grid(lambda t: -0.5 * t * t + 0.3j * t, 5.0, 11)
    assert [f.name for f in dataclasses.fields(g)] == ["t_grid", "log_values"]
    assert np.array_equal(g.values, np.exp(g.log_values))


def test_grid_rejects_uneven_t() -> None:
    # symmetric, odd, 0.0 in the middle and increasing, but not evenly spaced:
    # step, the Delta prefix sums and delta itself assume an even step
    t = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
    with pytest.raises(ValueError, match="evenly spaced"):
        CharacteristicFunctionGrid(t, -0.5 * t * t + 0j)


def test_grid_rejects_log_modulus_above_one() -> None:
    t = symmetric_grid(1.0, 5)
    lv = -0.5 * t * t + 0j
    lv[-1] = lv[0] = 2e-9
    with pytest.raises(ValueError, match="modulus exceeds 1"):
        CharacteristicFunctionGrid(t, lv)
    lv[-1] = lv[0] = 5e-10
    assert CharacteristicFunctionGrid(t, lv).log_values[0] == 5e-10


def test_grid_rejects_non_hermitian_log() -> None:
    t = symmetric_grid(1.0, 5)
    with pytest.raises(ValueError, match="conjugate symmetry"):
        CharacteristicFunctionGrid(t, -0.5 * t * t + 1j * np.abs(t))


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
    ok, min_eig = psd_check(g, [-1.0, 0.0, 1.0])
    assert ok
    # eigen-solver oracle on exp(-(tj-tk)^2/2): eigenvalues all positive
    h = np.exp(-np.subtract.outer([-1, 0, 1], [-1, 0, 1]) ** 2 / 2.0)
    assert min_eig == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-9)


def test_psd_constant_cf_rank_deficient() -> None:
    g = build_cf_grid(lambda t: 1.0 + 0j, 5.0, 101)
    ok, min_eig = psd_check(g, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert ok
    assert abs(min_eig) < 1e-12


def test_psd_rejects_sqrt_of_uniform_law() -> None:
    """The uniform law has no convolution square root among CFs.

    On the zero-free window [-3, 3] the formal square root fails Bochner
    positivity; the probe set below is a recorded witness.
    """
    g = build_cf_grid(uniform_cf, t_max=3.0, points=301)
    root = nth_root(g, 2)
    ok, min_eig = psd_check(root, [k * 0.5 for k in range(-3, 4)])
    assert not ok
    assert min_eig < -0.01


def test_psd_catalog_cfs_pass_default_probes() -> None:
    # genuine CFs: Gaussian, Poisson, Cauchy
    for cf in (gaussian_cf, poisson_cf, lambda t: np.exp(-abs(t))):
        g = build_cf_grid(cf, 10.0, 201)
        for h in (0.5, 1.0):
            ok, _ = psd_check(g, [k * h for k in range(-3, 4)])
            assert ok


def test_psd_probe_out_of_range() -> None:
    g = build_cf_grid(gaussian_cf, 2.0, 41)
    with pytest.raises(ProbeOutOfRange):
        psd_check(g, [-1.5, 1.5])


def test_psd_duplicate_probes_rejected() -> None:
    g = build_cf_grid(gaussian_cf, 2.0, 41)
    with pytest.raises(ValueError):
        psd_check(g, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="distinct"):
        psd_check(g, [1.0, -0.5, 0.0, -0.0])


@pytest.mark.parametrize(
    "probes", [[np.nan, 1.0], [np.nan, np.nan], [0.0, np.nan, 1.0], [np.inf, 1.0]]
)
def test_psd_non_finite_probes_rejected(probes) -> None:
    g = build_cf_grid(gaussian_cf, 2.0, 41)
    with pytest.raises(ValueError, match="finite"):
        psd_check(g, probes)


def log_at_per_t(cf, t) -> complex:
    """The scalar log_at the array one replaced, kept as its reference."""
    t = float(t)
    if t < cf.t_grid[0] or t > cf.t_grid[-1]:
        raise ProbeOutOfRange(f"t={t} outside grid span [{-cf.t_max}, {cf.t_max}]")
    re = np.interp(t, cf.t_grid, cf.log_values.real)
    im = np.interp(t, cf.t_grid, cf.log_values.imag)
    return complex(re, im)


def psd_min_eig_interp(cf, probes) -> float:
    """psd_check's minimum eigenvalue from its former copy of the interpolation."""
    probes = np.asarray(probes, dtype=float)
    diffs = probes[:, None] - probes[None, :]
    re = np.interp(diffs.ravel(), cf.t_grid, cf.log_values.real)
    im = np.interp(diffs.ravel(), cf.t_grid, cf.log_values.imag)
    H = np.exp(re + 1j * im).reshape(diffs.shape)
    return float(np.linalg.eigvalsh(0.5 * (H + H.conj().T))[0])


def _log_at_grids():
    # the symmetric laws' log grids hold -0.0 imaginary parts on the t < 0 half
    return [
        build_cf_grid(poisson_cf, t_max=6.0, points=1601),
        build_cf_grid(gaussian_cf, t_max=5.0, points=2001),
        build_log_cf_grid(lambda t: log_cf_lk(catalog("poisson", 2.0, -1.5), t), 7.0, 777),
        build_log_cf_grid(lambda t: log_cf_lk(catalog("gaussian", 0.0, 1.0), t), 4.0, 81),
        build_log_cf_grid(lambda t: log_cf_lk(catalog("cauchy", 1.0), t), 4.0, 81),
    ]


def bits_equal(a: complex, b: complex) -> bool:
    return np.array_equal(np.array([a]).view(np.uint64), np.array([b]).view(np.uint64))


def test_log_at_matches_per_t_reference() -> None:
    rng = np.random.default_rng(8)
    for cf in _log_at_grids():
        t = np.concatenate(
            [rng.uniform(-cf.t_max, cf.t_max, 500), cf.t_grid[::7], [-0.0, cf.t_grid[0], cf.t_max]]
        )
        want = np.array([log_at_per_t(cf, x) for x in t])
        assert np.array_equal(cf.log_at(t).view(np.uint64), want.view(np.uint64))
        assert cf.log_at(t.reshape(-1, 1)).shape == (t.size, 1)
        for x in t[:5]:
            got = cf.log_at(x)
            assert type(got) is complex and bits_equal(got, log_at_per_t(cf, x))


def test_log_at_rejects_nan_and_points_off_the_span() -> None:
    cf = build_cf_grid(gaussian_cf, 2.0, 41)
    for bad in (np.nan, 2.0 + 1e-12, -np.inf, np.array([0.5, np.nan]), [[0.0], [-3.0]]):
        with pytest.raises(ProbeOutOfRange):
            cf.log_at(bad)
    with pytest.raises(ProbeOutOfRange, match="t=nan"):
        cf.log_at(np.array([1.0, np.nan, 5.0]))


def test_psd_check_matches_former_interpolation() -> None:
    for cf in _log_at_grids():
        for n in (1, 2, 5):
            root = nth_root(cf, n)
            for h in (0.25, 0.5, 1.0 / 3.0):
                probes = [k * h for k in range(-3, 4)]
                assert psd_check(root, probes)[1] == psd_min_eig_interp(root, probes)


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


def test_verify_callable_route_reads_underflow_as_the_end_of_the_grid() -> None:
    gauss = catalog("gaussian", 0.0, 1.0)

    def cf(t):
        return np.exp(log_cf_lk(gauss, t))

    g = build_cf_grid(cf, t_max=40.0, points=8001)
    assert g.t_grid.size == 7433 and g.t_max == pytest.approx(37.16)
    assert np.array_equal(g.t_grid, symmetric_grid(40.0, 8001)[284:-284])
    assert verify_infinitely_divisible(cf, t_max=40.0, points=8001).passed
    # 21 points: phi(+-40) = 0.0, phi(+-36) = e^-648
    assert build_cf_grid(cf, t_max=40.0, points=21).t_max == 36.0
    assert verify_infinitely_divisible(cf, t_max=40.0, points=21).passed


def test_verify_reason_names_the_span_it_checked() -> None:
    gauss = catalog("gaussian", 0.0, 1.0)
    rep = verify_infinitely_divisible(lambda t: np.exp(log_cf_lk(gauss, t)), t_max=40.0, points=8001)
    assert rep.passed
    assert rep.reason.startswith("CF zero-free on [-37.16, 37.16]; roots (2, 3, 5) pass")
    # a grid that reaches its t_max names it
    rep = verify_infinitely_divisible(lambda t: np.exp(log_cf_lk(gauss, t)), t_max=6.0, points=7)
    assert rep.reason.startswith("CF zero-free on [-6, 6]; ")


def test_verify_triangular_cf_still_vanishes() -> None:
    # max(1 - |t|, 0) is 0 on all of |t| >= 1: a dead run out to both ends
    # whose last live modulus, 0.05, is nowhere near underflow
    rep = verify_infinitely_divisible(lambda t: np.maximum(1 - np.abs(t), 0.0))
    assert not rep.passed
    assert rep.reason == "CF vanishes at grid point t=-10"
    assert rep.zero_location == -10.0


# -- triangular rows and CSV ---------------------------------------------------------


def test_triangular_row_poisson() -> None:
    g = build_cf_grid(poisson_cf, 10.0, 201)
    row = nth_root(g, 3)
    expect = np.exp((np.exp(1j * g.t_grid) - 1.0) / 3.0)
    assert np.max(np.abs(row.values - expect)) < 1e-9


def test_triangular_row_identity() -> None:
    g = build_cf_grid(gaussian_cf, 10.0, 201)
    assert nth_root(g, 1) is g


def test_grid_csv_export() -> None:
    g = build_cf_grid(gaussian_cf, 2.0, 5)
    lines = grid_to_csv(g).splitlines()
    assert lines[0] == "t,re,im,log_re,log_im"
    assert len(lines) == 6
    cells = lines[1].split(",")
    assert float(cells[0]) == -2.0
    assert float(cells[3]) == pytest.approx(-2.0)


def grid_to_csv_rows(cf: CharacteristicFunctionGrid) -> str:
    """The row-by-row CSV writer grid_to_csv replaced, kept as its reference."""
    out = "t,re,im,log_re,log_im\n"
    for t, v, lv in zip(cf.t_grid, cf.values, cf.log_values):
        row = (float(t), float(v.real), float(v.imag), float(lv.real), float(lv.imag))
        out += ",".join(repr(x) for x in row) + "\n"
    return out


def law_grid(law, t_max: float, points: int) -> CharacteristicFunctionGrid:
    return build_log_cf_grid(lambda t: log_cf_lk(law, t), t_max, points)


def one_ulp_off(g: CharacteristicFunctionGrid) -> CharacteristicFunctionGrid:
    """g with one t < 0 log value moved one ulp, so no longer a bitwise mirror."""
    lv = g.log_values.copy()
    lv[5] = complex(np.nextafter(lv[5].real, 0.0), lv[5].imag)
    return CharacteristicFunctionGrid(g.t_grid, lv)


BENCH_GRID = law_grid(catalog("poisson", 1.0, 1.0), 81.0, 32401)  # eval on atomic-scale
CP_SKEW = Path(__file__).parents[1] / "bench" / "laws" / "cp-skew.json"


def test_grid_csv_matches_row_by_row_reference() -> None:
    for g in (
        build_cf_grid(poisson_cf, 2.0, 5),
        build_cf_grid(lambda t: np.exp(2.5j * t) * poisson_cf(t), 10.0, 201),
        build_log_cf_grid(lambda t: -0.5 * t * t, 81.0, 9001),  # several row blocks
        BENCH_GRID,
        law_grid(catalog("gaussian", 0.0, 1.0), 10.0, 2001),  # im columns hold +0.0 and -0.0
        law_grid(cli._load_law_file(str(CP_SKEW)), 40.0, 8001),
        law_grid(catalog("poisson", 1.0, 1.0), 1.0, 3),
        one_ulp_off(BENCH_GRID),
    ):
        assert grid_to_csv(g) == grid_to_csv_rows(g)


def test_csv_formats_a_mirrored_table_once_per_half(monkeypatch) -> None:
    calls = []
    monkeypatch.setattr(measure, "repr", lambda x: calls.append(x) or repr(x), raising=False)

    def reprs(write) -> int:
        calls.clear()
        write()
        return len(calls)

    n = BENCH_GRID.t_grid.size
    assert reprs(lambda: grid_to_csv(BENCH_GRID)) == 5 * (n + 1) // 2
    gauss = law_grid(catalog("gaussian", 0.0, 1.0), 2.0, 7)
    assert reprs(lambda: grid_to_csv(gauss)) == 5 * 4
    assert reprs(lambda: grid_to_csv(one_ulp_off(BENCH_GRID))) == 5 * n
    # a path table never takes the mirror, even where every float column mirrors:
    # its own writer formats each of the 3 times once and each of the 3 values
    monkeypatch.setattr(simulate, "repr", lambda x: calls.append(x) or repr(x), raising=False)
    times, values = np.array([-1.0, 0.0, 1.0]), np.array([[-2.0, 0.0, 2.0]])
    assert reprs(lambda: paths_to_csv(times, values)) == 3 + 3


# -- the exact mirror grid ---------------------------------------------------------


@pytest.mark.parametrize(
    "t_max, points",
    [(5.0, 201), (81.0, 32401), (6.0, 7), (1.0, 3), (5.0, 200), (2.5, 2), (0.3, 1)],
)
def test_symmetric_grid_is_an_exact_mirror(t_max, points) -> None:
    t = symmetric_grid(t_max, points)
    assert t.shape == (points,)
    assert np.array_equal(t, -t[::-1])
    assert not np.any(np.signbit(t[points // 2 :]))
    if points % 2:
        assert t[points // 2] == 0.0
    if points > 1:
        assert t[-1] == t_max and np.all(np.diff(t) > 0)
        lin = np.linspace(-t_max, t_max, points)
        assert np.max(np.abs(t - lin)) <= 1e-12 * t_max


def test_symmetric_grid_rejects_bad_parameters() -> None:
    with pytest.raises(ValueError):
        symmetric_grid(0.0, 11)
    with pytest.raises(ValueError):
        symmetric_grid(float("nan"), 11)
    with pytest.raises(ValueError):
        symmetric_grid(1.0, 0)


def test_builders_sample_the_exact_mirror() -> None:
    g = build_log_cf_grid(lambda t: -0.5 * t * t, t_max=81.0, points=32401)
    assert np.array_equal(g.t_grid, symmetric_grid(81.0, 32401))


# -- the phase unwrap against the point-by-point walk it replaced -------------------


def unwrapped_log_walk(t_grid, values) -> np.ndarray:
    """Walk outward from t=0 accumulating principal phase increments."""
    n = t_grid.size
    mid = n // 2
    mags = np.log(np.abs(values))
    phase = np.zeros(n)
    for direction in (1, -1):
        rng = range(mid + 1, n) if direction == 1 else range(mid - 1, -1, -1)
        for k in rng:
            prev = k - direction
            dphi = float(np.angle(values[k] / values[prev]))
            if abs(dphi) > PHASE_FLIP_THRESHOLD:
                witness = 0.5 * (t_grid[k] + t_grid[prev])
                raise ZeroCrossing(
                    f"CF sign flip between t={t_grid[prev]:.6g} and "
                    f"t={t_grid[k]:.6g}; zero near t={witness:.6g}",
                    witness=float(witness),
                )
            phase[k] = phase[prev] + dphi
    logs = mags + 1j * phase
    logs[mid] = 0.0
    return logs


def _cp_skew():
    spec = CompoundPoissonSpec(
        rate=1.5,
        jump=CanonicalMeasure.from_atoms([(-2.0, 0.25), (0.5, 0.25), (1.5, 0.5)]),
    )
    return catalog("compound_poisson", spec)


def _unwrap_cases():
    """(t, CF values) of the grids the tests unwrap, and of the laws and grids
    of the benchmark's verify-id calls (which sample the log CF, unwrapping
    nothing)."""
    yield symmetric_grid(10.0, 201), gaussian_cf
    yield symmetric_grid(10.0, 201), poisson_cf
    yield symmetric_grid(10.0, 201), lambda t: np.exp(2.5j * t) * poisson_cf(t)
    yield symmetric_grid(5.0, 1001), lambda t: np.exp(np.exp(1j * t) - 1.0)
    yield symmetric_grid(10.0, 401), lambda t: np.exp(log_cf_lk(catalog("gaussian", 0.0, 1.0), t))
    yield symmetric_grid(40.0, 8001), lambda t: np.exp(log_cf_lk(_cp_skew(), t))
    yield symmetric_grid(6.0, 7), lambda t: np.exp(log_cf_lk(catalog("cauchy", 1.0), t))


def test_unwrapped_log_matches_the_walk() -> None:
    for t, cf in _unwrap_cases():
        values = np.asarray(cf(t), dtype=complex)
        got, ref = _unwrapped_log(t, values), unwrapped_log_walk(t, values)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got.imag), np.signbit(ref.imag))


def _walk_error(unwrap, t, values):
    with pytest.raises(ZeroCrossing) as exc:
        unwrap(t, values)
    return str(exc.value), exc.value.witness


def test_unwrapped_log_flip_witness_matches_the_walk() -> None:
    t = symmetric_grid(4.0, 201)
    both_sides = uniform_cf(t)
    minus_only = np.where(t < 0.0, uniform_cf(t), gaussian_cf(t))
    plus_only = np.where(t > 0.0, uniform_cf(t), gaussian_cf(t))
    for values in (both_sides, minus_only, plus_only):
        assert _walk_error(_unwrapped_log, t, values) == _walk_error(
            unwrapped_log_walk, t, values
        )
    # the + side is searched first
    assert _walk_error(_unwrapped_log, t, both_sides)[1] > 0
    assert _walk_error(_unwrapped_log, t, minus_only)[1] < 0


def test_build_cf_grid_unwraps_without_a_per_point_angle(monkeypatch) -> None:
    """Work-count guard: one np.angle call per side, not one per grid point."""
    calls = []
    real_angle = np.angle

    def counting_angle(z, *args, **kwargs):
        calls.append(np.size(z))
        return real_angle(z, *args, **kwargs)

    monkeypatch.setattr(divisibility.np, "angle", counting_angle)
    build_cf_grid(poisson_cf, t_max=10.0, points=2001)
    assert calls == [1000, 1000]
