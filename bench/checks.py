"""Closed-form oracles for every artifact the benchmark's CLI calls write.

Each check reads one invocation's artifacts and records into a Report either
a numeric comparison (error, tolerance) or a problem (a broken invariant).
The benchmark's err_ratio is the largest error / tolerance over the numeric
comparisons; an invocation fails when any ratio reaches 1 or any problem is
recorded. The oracles use numpy and math only, never idlaws.

Every tolerance names its source: the repository test that checks the same
output, or the error the seed code was measured to make, with a margin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# eval on atom and Gaussian laws: tests/test_cli.py checks CLI eval output
# to 1e-9; the seed's error is <= 2.5e-15.
EVAL_TOL = 1e-9
# eval on Cauchy over [-10, 10]: the seed's error against -|t| is 2.3e-6
# (quadrature of the 111,468-cell grid); 1e-5 leaves a 4x margin. The 1e-6
# of tests/test_canonical.py holds at t = 1 only.
CAUCHY_EVAL_TOL = 1e-5
# invert: atom location and mass tolerances of tests/test_cli.py and
# tests/test_khinchin.py; drift and leftover density mass of
# tests/test_khinchin.py. Seed errors: masses 0.50015, 1.00029, 0.30009,
# 0.07505, 0.51938 against 0.5, 1, 0.3, 0.075, 0.51923; drift 0.34625
# against 0.34615.
INVERT_LOC_TOL = 0.01
INVERT_MASS_TOL = 2e-3
INVERT_DRIFT_TOL = 1e-3
INVERT_DENSITY_TOL = 1e-3
# convert: total-mass tolerance of tests/test_canonical.py, used for every
# converted drift and atom mass (seed error <= 1e-15).
CONVERT_TOL = 1e-9
# approx-cp on atom laws: the truncation is exact, tests/test_khinchin.py
# holds it to 1e-12 (seed error <= 1e-15).
APPROX_EXACT_TOL = 1e-12
# approx-cp on Cauchy: tests/test_khinchin.py checks the rate 2/(pi eps) to
# 1e-4 and the drift to 1e-9; tests/test_cli.py requires the last sup error
# below 0.05 (seed: 0.0035).
CAUCHY_RATE_TOL = 1e-4
CAUCHY_DRIFT_TOL = 1e-9
CAUCHY_LAST_SUP_ERROR = 0.05
# an empirical CF estimate may exceed modulus 1 by float rounding only
ECF_MODULUS_SLACK = 1e-12

# CLI defaults the checks need when an invocation leaves an option out
CLI_DEFAULTS = {
    "t_max": {"eval": 10.0, "verify-id": 10.0, "approx-cp": 5.0},
    "points": {"eval": 201, "verify-id": 401, "approx-cp": 201},
    "roots": "2,3,5",
    "cf_points": 101,
}


@dataclass
class Report:
    """Numeric comparisons and broken invariants of one invocation."""

    errors: list = field(default_factory=list)  # (what, error, tolerance)
    problems: list = field(default_factory=list)

    def close(self, what: str, got, want, tol: float) -> None:
        got = np.asarray(got, dtype=complex)
        want = np.asarray(want, dtype=complex)
        if got.shape != want.shape:
            self.problems.append(f"{what}: shape {got.shape} != {want.shape}")
            return
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        if not math.isfinite(err):
            self.problems.append(f"{what}: non-finite error")
            return
        self.errors.append((what, err, tol))

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    @property
    def ratio(self) -> float:
        return max((e / t for _, e, t in self.errors), default=0.0)

    def failures(self) -> list:
        bad = [f"{w}: error {e:.3e} >= tolerance {t:.1e}" for w, e, t in self.errors if e >= t]
        return self.problems + bad


# -- laws in closed form -----------------------------------------------------------


@dataclass(frozen=True)
class AtomLaw:
    """Drift b, Gaussian variance sigma2 and a compound-Poisson part.

    log phi(t) = i b t - sigma2 t^2 / 2 + rate * sum_j p_j (e^{i t u_j} - 1).
    """

    b: float = 0.0
    sigma2: float = 0.0
    rate: float = 0.0
    jumps: tuple = ()  # (u, p) pairs of the jump distribution

    def log_cf(self, t, eps: float = 0.0):
        """The exponent, keeping only jumps with |u| > eps (the truncated law
        also moves the dropped jumps' centering into the drift)."""
        t = np.asarray(t, dtype=float)
        out = 1j * self.drift_after(eps) * t - 0.5 * self.sigma2 * t * t
        for u, p in self.jumps:
            if abs(u) > eps:
                out = out + self.rate * p * (np.exp(1j * t * u) - 1.0)
        return out

    @property
    def gamma(self) -> float:
        """Drift of the general (gamma, G) form."""
        return self.b + self.rate * sum(p * u / (1 + u * u) for u, p in self.jumps)

    def drift_after(self, eps: float) -> float:
        kept = sum(p * u / (1 + u * u) for u, p in self.jumps if abs(u) > eps)
        return self.gamma - self.rate * kept

    def rate_after(self, eps: float) -> float:
        return self.rate * sum(p for u, p in self.jumps if abs(u) > eps)

    def atoms(self, form: str) -> dict:
        """Expected atoms of each measure of the given canonical form."""
        r = self.rate
        if form == "lk":
            g = [(u, r * p * u * u / (1 + u * u)) for u, p in self.jumps]
            return {"G": ([(0.0, self.sigma2)] if self.sigma2 else []) + g}
        if form == "kolmogorov":
            k = [(u, r * p * u * u) for u, p in self.jumps]
            return {"K": ([(0.0, self.sigma2)] if self.sigma2 else []) + k}
        return {
            "M": [(u, r * p) for u, p in self.jumps if u < 0],
            "N": [(u, r * p) for u, p in self.jumps if u > 0],
        }

    def form_gamma(self, form: str) -> float:
        if form == "kolmogorov":
            return self.b + self.rate * sum(p * u for u, p in self.jumps)
        return self.gamma


def gaussian(gamma: float, sigma2: float) -> AtomLaw:
    return AtomLaw(b=gamma, sigma2=sigma2)


def poisson(rate: float, jump: float) -> AtomLaw:
    return AtomLaw(rate=rate, jumps=((jump, 1.0),))


def cauchy_log_cf(c: float):
    return lambda t: -c * np.abs(np.asarray(t, dtype=float)) + 0j


def law_file(path: str) -> AtomLaw:
    """A compound-Poisson law file as the CLI reads it."""
    with open(path, encoding="utf-8") as fh:
        cp = json.load(fh)["compound_poisson"]
    return AtomLaw(rate=float(cp["rate"]), jumps=tuple((float(u), float(p)) for u, p in cp["jumps"]))


# -- artifact readers ---------------------------------------------------------------


def _csv(path, columns: int) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != columns:
        raise ValueError(f"{path}: {rows.shape[1]} columns, expected {columns}")
    return rows


def _json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _opt(opts: dict, name: str, verb: str):
    if name in opts:
        return opts[name]
    default = CLI_DEFAULTS[name]
    return default[verb] if isinstance(default, dict) else default


def _symmetric_grid(t_max: float, points: int) -> np.ndarray:
    t = np.linspace(-t_max, t_max, points)
    t[points // 2] = 0.0
    return t


# -- checks, one factory per verb -----------------------------------------------------
#
# A factory returns check(artifacts, opts, report): artifacts lists the
# invocation's output paths (--out first, then --cf-out) and opts maps its
# options (--t-max -> "t_max") to their string values.


def eval_grid(log_cf, tol: float):
    """eval CSV: t on the symmetric grid, exponent and CF against log_cf(t)."""

    def check(artifacts, opts, report: Report) -> None:
        rows = _csv(artifacts[0], 5)
        t_max = float(_opt(opts, "t_max", "eval"))
        points = int(_opt(opts, "points", "eval"))
        report.require(rows.shape[0] == points, f"eval: {rows.shape[0]} rows, expected {points}")
        if rows.shape[0] != points:
            return
        t = rows[:, 0]
        report.require(
            np.max(np.abs(t - _symmetric_grid(t_max, points))) <= 1e-12 * t_max,
            "eval: t column is not the requested grid",
        )
        want = log_cf(t)
        report.close("eval log CF", rows[:, 3] + 1j * rows[:, 4], want, tol)
        report.close("eval CF", rows[:, 1] + 1j * rows[:, 2], np.exp(want), tol)

    return check


def invert_atoms(law: AtomLaw):
    """invert JSON: recovered atoms, drift, and no leftover density mass."""

    def check(artifacts, opts, report: Report) -> None:
        doc = _json(artifacts[0])
        rec = doc["recovered"]
        got = sorted(tuple(a) for a in rec["atoms"])
        want = sorted(law.atoms("lk")["G"])
        report.require(len(got) == len(want), f"invert: {len(got)} atoms, expected {len(want)}")
        if len(got) == len(want):
            report.close("invert atom locations", [a[0] for a in got], [a[0] for a in want], INVERT_LOC_TOL)
            report.close("invert atom masses", [a[1] for a in got], [a[1] for a in want], INVERT_MASS_TOL)
        report.close("invert drift", doc["drift"], law.gamma, INVERT_DRIFT_TOL)
        edges = np.asarray(rec["grid"]["edges"], dtype=float)
        values = np.asarray(rec["grid"]["values"], dtype=float)
        density_mass = float(np.sum(values * np.diff(edges))) if values.size else 0.0
        report.close("invert density mass", density_mass, 0.0, INVERT_DENSITY_TOL)

    return check


def verify_passes(artifacts, opts, report: Report) -> None:
    """verify-id JSON: every law the benchmark uses is infinitely divisible."""
    doc = _json(artifacts[0])
    roots = [int(n) for n in str(_opt(opts, "roots", "verify-id")).split(",")]
    report.require(doc["passed"] is True, f"verify-id: not passed ({doc['reason']})")
    report.require(doc["zero_location"] is None, "verify-id: reports a CF zero")
    report.require(doc["roots_checked"] == roots, "verify-id: roots_checked differs from --roots")


def convert_atoms(law: AtomLaw, form: str):
    """convert JSON of an atom law: drift, variance and every atom."""

    def check(artifacts, opts, report: Report) -> None:
        doc = _json(artifacts[0])["law"]
        report.require(doc["form"] == form, f"convert: form {doc['form']!r}, expected {form!r}")
        report.close("convert drift", doc["gamma"], law.form_gamma(form), CONVERT_TOL)
        if form == "levy":
            report.close("convert sigma2", doc["sigma2"], law.sigma2, CONVERT_TOL)
        for name, want in law.atoms(form).items():
            m = doc["measures"][name]
            got = sorted(tuple(a) for a in m["atoms"])
            want = sorted(want)
            report.require(not m["grid"]["values"], f"convert: {name} has a density part")
            report.require(len(got) == len(want), f"convert: {name} has {len(got)} atoms, expected {len(want)}")
            if len(got) == len(want):
                report.close(f"convert {name} atoms", got, want, CONVERT_TOL)

    return check


def convert_cauchy_lk(c: float):
    """convert --to lk of cauchy:c: each cell carries its exact arctan mass and
    the grid plus its dropped tail has total mass c."""

    def check(artifacts, opts, report: Report) -> None:
        doc = _json(artifacts[0])["law"]
        g = doc["measures"]["G"]
        report.require(doc["form"] == "lk" and not g["atoms"], "convert: Cauchy G is not an atomless lk law")
        report.close("convert Cauchy drift", doc["gamma"], 0.0, CONVERT_TOL)
        edges = np.asarray(g["grid"]["edges"], dtype=float)
        masses = np.asarray(g["grid"]["values"], dtype=float) * np.diff(edges)
        exact = np.diff((c / math.pi) * np.arctan(edges))
        report.close("convert Cauchy cell masses", masses, exact, CONVERT_TOL)
        total = float(np.sum(masses)) + float(g.get("tail_dropped", 0.0))
        report.close("convert Cauchy G mass", total, c, CONVERT_TOL)

    return check


def _epsilons(doc: dict, opts: dict, report: Report) -> list:
    eps = [float(e) for e in opts["epsilons"].split(",")]
    got = [e["epsilon"] for e in doc["entries"]]
    report.require(got == eps, f"approx-cp: epsilons {got}, expected {eps}")
    return eps if got == eps else []


def approx_atoms(law: AtomLaw):
    """approx-cp JSON of an atom law: rate, drift and the CF sup error of each
    truncation, all in closed form."""

    def check(artifacts, opts, report: Report) -> None:
        doc = _json(artifacts[0])
        t_max = float(_opt(opts, "t_max", "approx-cp"))
        t = np.linspace(-t_max, t_max, int(_opt(opts, "points", "approx-cp")))
        exact = np.exp(law.log_cf(t))
        for e, entry in zip(_epsilons(doc, opts, report), doc["entries"]):
            sup = float(np.max(np.abs(np.exp(law.log_cf(t, eps=e)) - exact)))
            report.close(f"approx-cp rate eps={e}", entry["lambda"], law.rate_after(e), APPROX_EXACT_TOL)
            report.close(f"approx-cp drift eps={e}", entry["drift"], law.drift_after(e), APPROX_EXACT_TOL)
            report.close(f"approx-cp gaussian eps={e}", entry["gaussian_mass"], law.sigma2, APPROX_EXACT_TOL)
            report.close(f"approx-cp sup error eps={e}", entry["sup_error"], sup, APPROX_EXACT_TOL)

    return check


def approx_cauchy(c: float):
    """approx-cp JSON of cauchy:c: rate 2c/(pi eps), zero drift and Gaussian
    part, strictly decreasing sup errors, the last below 0.05."""

    def check(artifacts, opts, report: Report) -> None:
        doc = _json(artifacts[0])
        for e, entry in zip(_epsilons(doc, opts, report), doc["entries"]):
            report.close(f"approx-cp rate eps={e}", entry["lambda"], 2.0 * c / (math.pi * e), CAUCHY_RATE_TOL)
            report.close(f"approx-cp drift eps={e}", entry["drift"], 0.0, CAUCHY_DRIFT_TOL)
            report.require(entry["gaussian_mass"] == 0.0, f"approx-cp: Gaussian part at eps={e}")
        sups = [entry["sup_error"] for entry in doc["entries"]]
        report.require(all(a > b for a, b in zip(sups, sups[1:])), f"approx-cp: sup errors {sups} not decreasing")
        if sups:
            report.close("approx-cp last sup error", sups[-1], 0.0, CAUCHY_LAST_SUP_ERROR)

    return check


def simulate_invariants(integer_paths: bool):
    """simulate CSVs, seed-free invariants only: paths on the requested time
    grid, finite, starting at 0 (Poisson: integer and non-decreasing); every
    empirical CF estimate of modulus <= 1, exactly 1 at t = 0, with the
    3/sqrt(paths) envelope."""

    def check(artifacts, opts, report: Report) -> None:
        rows = _csv(artifacts[0], 3)
        n_paths, steps = int(opts["paths"]), int(opts["steps"])
        report.require(rows.shape[0] == n_paths * (steps + 1), "simulate: wrong number of path rows")
        if rows.shape[0] != n_paths * (steps + 1):
            return
        paths = rows.reshape(n_paths, steps + 1, 3)
        times = np.linspace(0.0, float(opts["horizon"]), steps + 1)
        values = paths[:, :, 2]
        report.require(np.array_equal(paths[:, :, 0], np.repeat(np.arange(n_paths)[:, None], steps + 1, 1)), "simulate: path ids out of order")
        report.require(np.allclose(paths[:, :, 1], times, rtol=0, atol=1e-12), "simulate: times are not the requested grid")
        report.require(bool(np.all(np.isfinite(values))), "simulate: non-finite path value")
        report.require(bool(np.all(values[:, 0] == 0.0)), "simulate: a path does not start at 0")
        if integer_paths:
            report.require(bool(np.all(values == np.round(values))), "simulate: Poisson path not integer")
            report.require(bool(np.all(np.diff(values, axis=1) >= 0)), "simulate: Poisson path decreases")
        ecf = _csv(artifacts[1], 4)
        cf_points = int(_opt(opts, "cf_points", "simulate"))
        report.require(ecf.shape[0] == cf_points, "simulate: wrong number of CF rows")
        modulus = np.abs(ecf[:, 1] + 1j * ecf[:, 2])
        report.require(bool(np.all(modulus <= 1.0 + ECF_MODULUS_SLACK)), "simulate: |ECF| > 1")
        at_zero = ecf[ecf[:, 0] == 0.0]
        report.require(at_zero.shape[0] == 1 and at_zero[0, 1] == 1.0 and at_zero[0, 2] == 0.0, "simulate: ECF(0) != 1")
        report.require(np.allclose(ecf[:, 3], 3.0 / math.sqrt(n_paths), rtol=1e-12, atol=0), "simulate: wrong ECF envelope")

    return check
