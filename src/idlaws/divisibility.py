"""Convolution roots of characteristic functions and desk-scale divisibility checks.

A characteristic function sampled on a symmetric grid carries a continuously
unwrapped logarithm, so n-th roots are well defined through exp(log/n). A law
is accepted as infinitely divisible (at desk scale) when its CF is zero-free
and every requested root passes a positive-semidefiniteness test on finite
probe sets; a zero crossing or a negative Gram eigenvalue is a refutation.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


class ZeroCrossing(ValueError):
    """The CF vanishes (or flips sign) somewhere on the grid; log undefined.

    Carries ``witness``: the t location of the detected zero.
    """

    def __init__(self, message: str, witness: float):
        super().__init__(message)
        self.witness = witness


class ProbeOutOfRange(ValueError):
    """A probe difference t_j - t_k falls outside the grid span."""


# adjacent-point phase jumps above this are read as a sign flip through zero;
# legitimate grids keep increments well below pi (see grid invariant)
PHASE_FLIP_THRESHOLD = 3.0


@dataclass(frozen=True)
class CharacteristicFunctionGrid:
    """CF samples on a symmetric t-grid plus the unwrapped complex logarithm."""

    t_grid: np.ndarray
    values: np.ndarray
    log_values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        lv = np.asarray(self.log_values, dtype=complex)
        if not (t.ndim == 1 and t.size >= 3 and t.size % 2 == 1):
            raise ValueError("t_grid must be 1-d with odd length >= 3")
        if np.any(np.diff(t) <= 0):
            raise ValueError("t_grid must be strictly increasing")
        if not np.allclose(t, -t[::-1], atol=1e-12):
            raise ValueError("t_grid must be symmetric about 0")
        mid = t.size // 2
        if t[mid] != 0.0:
            raise ValueError("t_grid must contain 0")
        if v.shape != t.shape or lv.shape != t.shape:
            raise ValueError("values and log_values must match t_grid shape")
        if abs(v[mid] - 1.0) > 1e-12:
            raise ValueError("value at t=0 must be 1")
        if lv[mid] != 0:
            raise ValueError("log value at t=0 must be 0")
        if np.any(np.abs(v) > 1.0 + 1e-9):
            raise ValueError("CF modulus exceeds 1")
        if np.max(np.abs(np.exp(lv) - v)) > 1e-9:
            raise ValueError("log_values do not exponentiate to values")
        if np.max(np.abs(v - np.conj(v[::-1]))) > 1e-9:
            raise ValueError("values violate conjugate symmetry")
        for name, arr in (("t_grid", t), ("values", v), ("log_values", lv)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def t_max(self) -> float:
        return float(self.t_grid[-1])

    @property
    def step(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    def log_at(self, t: float) -> complex:
        t = float(t)
        if t < self.t_grid[0] or t > self.t_grid[-1]:
            raise ProbeOutOfRange(f"t={t} outside grid span [{-self.t_max}, {self.t_max}]")
        re = np.interp(t, self.t_grid, self.log_values.real)
        im = np.interp(t, self.t_grid, self.log_values.imag)
        return complex(re, im)


def _unwrapped_log(t_grid, values) -> np.ndarray:
    """Walk outward from t=0 accumulating principal phase increments."""
    n = t_grid.size
    mid = n // 2
    mags = np.log(np.abs(values))
    phase = np.zeros(n)
    # principal increment between neighbours; |increment| near pi means the
    # value passed through (or too close to) zero between the two samples
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


def _sample(evaluator, t_max: float, points: int):
    """The uniform symmetric t grid, and the evaluator called once on all of
    it: one value per t, or a scalar for every t."""
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if points < 3 or points % 2 == 0:
        raise ValueError("points must be an odd integer >= 3")
    t_grid = np.linspace(-t_max, t_max, points)
    t_grid[points // 2] = 0.0
    values = np.asarray(evaluator(t_grid), dtype=complex)
    if values.ndim and values.shape != t_grid.shape:
        raise ValueError(f"evaluator gave shape {values.shape} for {points} t")
    return t_grid, np.array(np.broadcast_to(values, t_grid.shape))


def build_cf_grid(
    evaluator: Callable[[np.ndarray], np.ndarray], t_max: float, points: int
) -> CharacteristicFunctionGrid:
    """Sample a CF on a uniform symmetric grid and unwrap its logarithm.

    The evaluator is called once, on the whole t array (see ``_sample``).
    Raises ZeroCrossing when any sample's modulus underflows the log (a hard
    zero), or when the phase jumps by more than ``PHASE_FLIP_THRESHOLD``
    between neighbours (a sign change through zero, invisible to any modulus
    threshold on a finite grid). Either way the witness t is attached to the
    exception. Genuinely tiny moduli (a Gaussian CF at large t) are fine: the
    log stays well defined.
    """
    t_grid, values = _sample(evaluator, t_max, points)
    if abs(values[points // 2] - 1.0) > 1e-9:
        raise ValueError("evaluator(0) must equal 1")
    values[points // 2] = 1.0
    dead = np.abs(values) < 1e-300
    if np.any(dead):
        witness = float(t_grid[np.argmax(dead)])
        raise ZeroCrossing(f"CF vanishes at grid point t={witness:.6g}", witness=witness)
    log_values = _unwrapped_log(t_grid, values)
    return CharacteristicFunctionGrid(
        t_grid=t_grid, values=values, log_values=log_values
    )


def build_log_cf_grid(
    log_evaluator: Callable[[np.ndarray], np.ndarray], t_max: float, points: int
) -> CharacteristicFunctionGrid:
    """Sample a log CF directly; no unwrapping and no zero-crossing hazard.

    The evaluator is called once, on the whole t array (see ``_sample``).
    The right constructor when the CF modulus underflows float64 inside the
    span (a Gaussian beyond |t| ~ 38) but its exponent stays representable.
    The caller vouches that the samples are a continuous logarithm.
    """
    t_grid, log_values = _sample(log_evaluator, t_max, points)
    if abs(log_values[points // 2]) > 1e-9:
        raise ValueError("log_evaluator(0) must equal 0")
    log_values[points // 2] = 0.0
    values = np.exp(log_values)
    return CharacteristicFunctionGrid(
        t_grid=t_grid, values=values, log_values=log_values
    )


def nth_root(cf: CharacteristicFunctionGrid, n: int) -> CharacteristicFunctionGrid:
    """The n-th convolution root: divide the unwrapped logarithm by n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return cf
    log_root = cf.log_values / n
    values = np.exp(log_root)
    mid = values.size // 2
    values[mid] = 1.0
    return CharacteristicFunctionGrid(
        t_grid=cf.t_grid, values=values, log_values=log_root
    )


@dataclass(frozen=True)
class TriangularArrayRow:
    """Row of n i.i.d. components whose sum reproduces the parent law."""

    n: int
    component_cf: CharacteristicFunctionGrid


def triangular_row(cf: CharacteristicFunctionGrid, n: int) -> TriangularArrayRow:
    return TriangularArrayRow(n=n, component_cf=nth_root(cf, n))


def psd_check(
    cf: CharacteristicFunctionGrid,
    probe_points: Sequence[float],
    tolerance: float,
) -> tuple[bool, float]:
    """Minimum eigenvalue of the Gram matrix H[j,k] = phi(t_j - t_k).

    Probe differences falling between grid points are interpolated linearly
    on the unwrapped logarithm (smooth), not on the raw values. The matrix is
    symmetrized before the eigenvalue solve to wash out interpolation-level
    Hermitian defects.
    """
    probes = np.asarray(probe_points, dtype=float)
    if probes.ndim != 1 or probes.size < 1:
        raise ValueError("probe_points must be a non-empty 1-d collection")
    if np.unique(probes).size != probes.size:
        raise ValueError("probe_points must be pairwise distinct")
    diffs = probes[:, None] - probes[None, :]
    if np.max(np.abs(diffs)) > cf.t_max + 1e-12:
        raise ProbeOutOfRange(
            f"probe difference {np.max(np.abs(diffs)):.6g} exceeds grid span {cf.t_max:.6g}"
        )
    re = np.interp(diffs.ravel(), cf.t_grid, cf.log_values.real)
    im = np.interp(diffs.ravel(), cf.t_grid, cf.log_values.imag)
    H = np.exp(re + 1j * im).reshape(diffs.shape)
    H = 0.5 * (H + H.conj().T)
    min_eig = float(np.linalg.eigvalsh(H)[0])
    return (min_eig >= -tolerance, min_eig)


DEFAULT_ROOTS = (2, 3, 5)
DEFAULT_PROBE_SETS = tuple(
    tuple(k * h for k in range(-3, 4)) for h in (0.5, 1.0, 2.0)
)


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of the zero-freeness + root-PSD certificate search.

    A PASS is supporting evidence, not a proof: only finitely many roots and
    probe sets are examined. A FAIL carries a concrete witness.
    """

    passed: bool
    reason: str
    zero_location: Optional[float] = None
    failures: tuple = ()
    roots_checked: tuple = ()
    probe_sets: tuple = ()


def verify_infinitely_divisible(
    cf,
    roots_to_check: Sequence[int] = DEFAULT_ROOTS,
    probe_sets: Optional[Sequence[Sequence[float]]] = None,
    tolerance: float = 1e-8,
    t_max: float = 10.0,
    points: int = 401,
) -> DivisibilityReport:
    """Certify or refute infinite divisibility at desk scale.

    Accepts either a prepared CharacteristicFunctionGrid or a plain evaluator
    of a t array (a grid is then built on [-t_max, t_max] by build_cf_grid). FAIL reasons are a
    zero crossing of the CF or a probe set on which some n-th root's Gram
    matrix has an eigenvalue below -tolerance.
    """
    if callable(cf):
        try:
            cf = build_cf_grid(cf, t_max=t_max, points=points)
        except ZeroCrossing as exc:
            return DivisibilityReport(
                passed=False,
                reason=str(exc),
                zero_location=exc.witness,
                roots_checked=tuple(roots_to_check),
            )
    if probe_sets is None:
        span = cf.t_max
        # largest pairwise probe difference is 2*max(ps); keep it on the grid
        probe_sets = tuple(
            ps for ps in DEFAULT_PROBE_SETS if 2.0 * max(ps) <= span
        ) or (tuple(k * span / 6.0 for k in range(-3, 4)),)
    failures = []
    for n in roots_to_check:
        root = nth_root(cf, n)
        for ps in probe_sets:
            ok, min_eig = psd_check(root, ps, tolerance)
            if not ok:
                failures.append((n, tuple(ps), min_eig))
    if failures:
        worst = min(failures, key=lambda f: f[2])
        return DivisibilityReport(
            passed=False,
            reason=(
                f"root n={worst[0]} fails positive semidefiniteness on probes "
                f"{list(worst[1])} (min eigenvalue {worst[2]:.3e})"
            ),
            failures=tuple(failures),
            roots_checked=tuple(roots_to_check),
            probe_sets=tuple(tuple(ps) for ps in probe_sets),
        )
    return DivisibilityReport(
        passed=True,
        reason=(
            f"CF zero-free on the grid; roots {tuple(roots_to_check)} pass "
            f"PSD checks on {len(probe_sets)} probe sets"
        ),
        roots_checked=tuple(roots_to_check),
        probe_sets=tuple(tuple(ps) for ps in probe_sets),
    )


def grid_to_csv(cf: CharacteristicFunctionGrid) -> str:
    """CSV text with columns t, re, im, log_re, log_im."""
    buf = io.StringIO()
    buf.write("t,re,im,log_re,log_im\n")
    for t, v, lv in zip(cf.t_grid, cf.values, cf.log_values):
        row = (float(t), float(v.real), float(v.imag), float(lv.real), float(lv.imag))
        buf.write(",".join(repr(x) for x in row) + "\n")
    return buf.getvalue()
