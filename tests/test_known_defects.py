"""Known wrong answers, pinned as strict expected failures.

Each test asserts the right answer for a call that gives a wrong one today,
and names the ROADMAP item that records the defect. strict=True turns a fix
into an XPASS, which fails the run, so the change that mends a defect drops
its marker and the test becomes an ordinary test of the fix.
raises=AssertionError keeps a crash or a typed error from counting as the
expected failure. CLI cases run in process through cli.main.
"""

import json

import numpy as np
import pytest

from idlaws import cli
from idlaws.canonical import LevyKhintchinePair, catalog, log_cf_lk
from idlaws.divisibility import build_log_cf_grid, verify_infinitely_divisible
from idlaws.khinchin import invert_cf
from idlaws.measure import CanonicalMeasure, restrict, total_mass

# bench/checks.py's invert tolerances: atom location and mass, drift, and
# the density mass left beside the atoms
LOC_TOL, MASS_TOL, DRIFT_TOL, DENSITY_TOL = 0.01, 2e-3, 1e-3, 1e-3


def known_defect(item: int, what: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}: {what}")


def invert_on_cli_grid(log_cf):
    """invert_cf on invert's default grid: 32,401 t on [-81, 81]."""
    return invert_cf(build_log_cf_grid(log_cf, t_max=81.0, points=32_401))


def atom_misses(law: LevyKhintchinePair) -> list:
    """What bench/checks.invert_atoms would report for the inversion of an
    atom law: an empty list when every atom, the drift and the density pass."""
    inv = invert_on_cli_grid(lambda t: log_cf_lk(law, t))
    got, want = sorted(inv.recovered.atoms), sorted(law.G.atoms)
    if len(got) != len(want):
        return [f"{len(got)} atoms, expected {len(want)}: {got}"]
    misses = [
        f"atom {g} for {w}"
        for g, w in zip(got, want)
        if abs(g[0] - w[0]) > LOC_TOL or abs(g[1] - w[1]) > MASS_TOL
    ]
    if abs(inv.drift - law.gamma) > DRIFT_TOL:
        misses.append(f"drift {inv.drift} for {law.gamma}")
    density = float(np.sum(inv.recovered.values * np.diff(inv.recovered.edges)))
    if density > DENSITY_TOL:
        misses.append(f"density mass {density}")
    return misses


def random_atom_laws(count: int = 60, seed: int = 7) -> list:
    """1-4 G atoms in [-2.7, 2.7], at least 0.3 apart, masses in [0.01, 1],
    drift in [-1, 1]."""
    rng, laws = np.random.default_rng(seed), []
    while len(laws) < count:
        locs = np.sort(rng.uniform(-2.7, 2.7, rng.integers(1, 5)))
        if np.any(np.diff(locs) < 0.3):
            continue
        masses = rng.uniform(0.01, 1.0, locs.size)
        G = CanonicalMeasure.from_atoms(list(zip(locs.tolist(), masses.tolist())))
        laws.append(LevyKhintchinePair(gamma=float(rng.uniform(-1.0, 1.0)), G=G))
    return laws


@known_defect(1, "g_from_k reads gamma(1, 1)'s density as one atom")
def test_invert_recovers_a_continuous_g() -> None:
    inv = invert_on_cli_grid(lambda t: -np.log(1.0 - 1j * t))
    atom_mass = sum(m for _, m in inv.recovered.atoms)
    assert atom_mass < 1e-3, f"atom mass {atom_mass}: {inv.recovered.atoms}"
    # G has density u e^-u / (1 + u^2) on u > 0
    for (a, b), want in zip([(0, 1), (1, 2), (2, 3)], [0.19233, 0.10856, 0.03035]):
        got = total_mass(restrict(inv.recovered, lo=a, hi=b, include_hi=False))
        assert abs(got - want) < 1e-4, f"G mass {got} on [{a}, {b}), expected {want}"


@known_defect(14, "atoms closer than about 0.6 share a readout window")
def test_invert_separates_two_close_atoms() -> None:
    law = LevyKhintchinePair(gamma=0.0, G=CanonicalMeasure.from_atoms([(1.0, 0.5), (1.3, 0.5)]))
    assert atom_misses(law) == []


@known_defect(14, "a random draw of atom laws misses bench/checks.py's tolerances")
def test_invert_recovers_random_atom_laws() -> None:
    laws = random_atom_laws()
    missed = [i for i, law in enumerate(laws) if atom_misses(law)]
    assert missed == [], f"{len(missed)} of {len(laws)} laws miss"


def run_cli(argv, tmp_path, capsys):
    """Exit code and artifact path of one in-process CLI call."""
    out = tmp_path / "artifact"
    code = cli.main([*argv, "--out", str(out)])
    capsys.readouterr()
    return code, out


@known_defect(7, "invert sees only u in [-3, 3]; a jump at 5 vanishes with exit 0")
def test_invert_finds_or_refuses_a_jump_outside_the_window(tmp_path, capsys) -> None:
    code, out = run_cli(["invert", "--catalog", "poisson:1,5"], tmp_path, capsys)
    if code == 2:
        return
    assert code == 0
    atoms = json.loads(out.read_text())["recovered"]["atoms"]
    (u, want), = catalog("poisson", 1.0, 5.0).G.atoms
    assert any(abs(a - u) <= LOC_TOL and abs(m - want) <= MASS_TOL for a, m in atoms), atoms


@known_defect(11, "the roots test passes N(0, 1) * Bernoulli(0.02), which is not ID")
def test_verify_refutes_a_gaussian_times_bernoulli() -> None:
    report = verify_infinitely_divisible(
        lambda t: np.exp(-t * t / 2.0) * (0.98 + 0.02 * np.exp(1j * t))
    )
    assert report.passed is False


@known_defect(12, "eval writes an unresolved Cauchy log CF at |t| = 1e12 with exit 0")
def test_eval_resolves_or_refuses_cauchy_at_1e12(tmp_path, capsys) -> None:
    argv = ["eval", "--catalog", "cauchy:1", "--t-max", "1e12", "--points", "3"]
    code, out = run_cli(argv, tmp_path, capsys)
    if code == 2:
        return
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    t, log_re = rows[:, 0], rows[:, 3]
    assert np.all(np.abs(log_re + np.abs(t)) <= 1e-6 * np.abs(t)), log_re.tolist()


@known_defect(15, "convert --to levy refuses a G cell touching u = 0")
def test_convert_writes_the_levy_form_of_cauchy(tmp_path, capsys) -> None:
    code, _ = run_cli(["convert", "--catalog", "cauchy:1", "--to", "levy"], tmp_path, capsys)
    assert code == 0
