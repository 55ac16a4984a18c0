"""Convolution roots of characteristic functions and desk-scale divisibility checks.

A characteristic function sampled on a symmetric grid carries a continuously
unwrapped logarithm, so n-th roots are well defined through exp(log/n). A law
is accepted as infinitely divisible (at desk scale) when its CF is zero-free
and every requested root passes a positive-semidefiniteness test on finite
probe sets; a zero crossing or a negative Gram eigenvalue is a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .measure import _csv_text, _even_step, symmetric_grid


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


def _check_conjugate_symmetric(f: np.ndarray) -> None:
    """Raise ValueError unless f(-t) = conj f(t), to 1e-9 relative to max(1, max |f|)."""
    if np.max(np.abs(f[::-1].conj() - f)) > 1e-9 * max(1.0, float(np.max(np.abs(f)))):
        raise ValueError("values violate conjugate symmetry")


@dataclass(frozen=True)
class CharacteristicFunctionGrid:
    """The unwrapped log of a CF on an evenly spaced symmetric t-grid; ``values`` is its exp."""

    t_grid: np.ndarray
    log_values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        lv = np.asarray(self.log_values, dtype=complex)
        if not (t.ndim == 1 and t.size >= 3 and t.size % 2 == 1):
            raise ValueError("t_grid must be 1-d with odd length >= 3")
        step = _even_step(t)
        if step is None or step <= 0.0:
            raise ValueError("t_grid must be increasing and evenly spaced")
        if not np.allclose(t, -t[::-1], atol=1e-12):
            raise ValueError("t_grid must be symmetric about 0")
        mid = t.size // 2
        if t[mid] != 0.0:
            raise ValueError("t_grid must contain 0")
        if lv.shape != t.shape:
            raise ValueError("log_values must match t_grid shape")
        if lv[mid] != 0:
            raise ValueError("log value at t=0 must be 0")
        if np.any(lv.real > 1e-9):
            raise ValueError("CF modulus exceeds 1")
        _check_conjugate_symmetric(lv)
        for name, arr in (("t_grid", t), ("log_values", lv)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def values(self) -> np.ndarray:
        return np.exp(self.log_values)

    @property
    def t_max(self) -> float:
        return float(self.t_grid[-1])

    @property
    def step(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    def log_at(self, t):
        """log phi at t (any shape), linear between grid points; raises
        ProbeOutOfRange off the span or at NaN."""
        tt = np.asarray(t, dtype=float)
        inside = (tt >= self.t_grid[0]) & (tt <= self.t_grid[-1])
        if not np.all(inside):
            bad = float(tt[~inside].flat[0])
            raise ProbeOutOfRange(f"t={bad} outside grid span [{-self.t_max}, {self.t_max}]")
        out = np.empty(tt.shape, dtype=complex)
        out.real = np.interp(tt, self.t_grid, self.log_values.real)
        out.imag = np.interp(tt, self.t_grid, self.log_values.imag)
        return complex(out) if tt.ndim == 0 else out


def _unwrapped_log(t_grid, values) -> np.ndarray:
    """Principal phase increments between neighbours, summed outward from t=0."""
    n = t_grid.size
    mid = n // 2
    phase = np.zeros(n)
    # each side's increments in walking order, away from t=0; |increment| near
    # pi means the value passed through (or too close to) zero between the two
    # samples, and the + side is searched first
    for side in (np.arange(mid, n), np.arange(mid, -1, -1)):
        v = values[side]
        dphi = np.angle(v[1:] / v[:-1])
        flips = np.flatnonzero(np.abs(dphi) > PHASE_FLIP_THRESHOLD)
        if flips.size:
            prev, k = side[flips[0]], side[flips[0] + 1]
            witness = 0.5 * (t_grid[k] + t_grid[prev])
            raise ZeroCrossing(
                f"CF sign flip between t={t_grid[prev]:.6g} and "
                f"t={t_grid[k]:.6g}; zero near t={witness:.6g}",
                witness=float(witness),
            )
        phase[side[1:]] = np.cumsum(dphi)
    logs = np.log(np.abs(values)) + 1j * phase
    logs[mid] = 0.0
    return logs


def _sample(evaluator, t_max: float, points: int):
    """The uniform symmetric t grid (symmetric_grid), and the evaluator called
    once on all of it: one value per t, or a scalar for every t."""
    if points < 3 or points % 2 == 0:
        raise ValueError("points must be an odd integer >= 3")
    t_grid = symmetric_grid(t_max, points)
    values = np.asarray(evaluator(t_grid), dtype=complex)
    if values.ndim and values.shape != t_grid.shape:
        raise ValueError(f"evaluator gave shape {values.shape} for {points} t")
    return t_grid, np.array(np.broadcast_to(values, t_grid.shape))


DEAD_MODULUS = 1e-300  # a sample with a smaller modulus has no usable logarithm


def _underflow_span(values: np.ndarray, dead: np.ndarray) -> Optional[int]:
    """The number of live samples each side of t=0 if the dead ones are an
    underflowing tail: one run out to each end of the grid, where a further
    step at the slope of the last two live log-moduli already falls below
    log(DEAD_MODULUS). Else None, as for the triangular max(1 - |t|, 0),
    whose last live modulus is 0.05."""
    mid = values.size // 2
    live = np.flatnonzero(~dead)
    lo, hi = int(live[0]), int(live[-1])
    if live.size != hi - lo + 1 or not (0 < lo < mid < hi < values.size - 1):
        return None
    edge = np.log(np.abs(values[[lo, lo + 1, hi - 1, hi]]))
    next_step = max(2.0 * edge[0] - edge[1], 2.0 * edge[3] - edge[2])
    return min(mid - lo, hi - mid) if next_step < np.log(DEAD_MODULUS) else None


def build_cf_grid(
    evaluator: Callable[[np.ndarray], np.ndarray], t_max: float, points: int
) -> CharacteristicFunctionGrid:
    """Sample a CF on a uniform symmetric grid and unwrap its logarithm.

    The evaluator is called once, on the whole t array (see ``_sample``).
    A modulus below DEAD_MODULUS has no usable log. When those samples are a
    tail that decays out of float range (``_underflow_span``: a Gaussian CF
    beyond |t| ~ 37) the grid ends at the last live point on each side.
    Otherwise they are a hard zero and raise ZeroCrossing, as does a phase
    jump of more than ``PHASE_FLIP_THRESHOLD`` between neighbours (a sign
    change through zero, invisible to any modulus threshold on a finite
    grid). Either way the witness t is attached to the exception.
    """
    t_grid, values = _sample(evaluator, t_max, points)
    mid = points // 2
    if abs(values[mid] - 1.0) > 1e-9:
        raise ValueError("evaluator(0) must equal 1")
    values[mid] = 1.0
    dead = np.abs(values) < DEAD_MODULUS
    if np.any(dead):
        keep = _underflow_span(values, dead)
        if keep is None:
            witness = float(t_grid[np.argmax(dead)])
            raise ZeroCrossing(f"CF vanishes at grid point t={witness:.6g}", witness=witness)
        t_grid, values = t_grid[mid - keep : mid + keep + 1], values[mid - keep : mid + keep + 1]
    return CharacteristicFunctionGrid(t_grid=t_grid, log_values=_unwrapped_log(t_grid, values))


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
    return CharacteristicFunctionGrid(t_grid=t_grid, log_values=log_values)


def nth_root(cf: CharacteristicFunctionGrid, n: int) -> CharacteristicFunctionGrid:
    """The n-th convolution root: divide the unwrapped logarithm by n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return cf if n == 1 else CharacteristicFunctionGrid(cf.t_grid, cf.log_values / n)


def psd_check(cf: CharacteristicFunctionGrid, probe_points: Sequence[float]) -> tuple[bool, float]:
    """Minimum eigenvalue of the Gram matrix H[j,k] = phi(t_j - t_k), and
    whether it is at least -PSD_TOLERANCE.

    Probe differences falling between grid points are interpolated linearly
    on the unwrapped logarithm (smooth), not on the raw values. The matrix is
    symmetrized before the eigenvalue solve to wash out interpolation-level
    Hermitian defects.
    """
    probes = np.asarray(probe_points, dtype=float)
    if probes.ndim != 1 or probes.size < 1:
        raise ValueError("probe_points must be a non-empty 1-d collection")
    ordered = np.sort(probes)
    if not (np.all(np.isfinite(ordered)) and np.all(ordered[1:] > ordered[:-1])):
        raise ValueError("probe_points must be finite and pairwise distinct")
    diffs = probes[:, None] - probes[None, :]
    if np.max(np.abs(diffs)) > cf.t_max + 1e-12:
        raise ProbeOutOfRange(
            f"probe difference {np.max(np.abs(diffs)):.6g} exceeds grid span {cf.t_max:.6g}"
        )
    H = np.exp(cf.log_at(np.clip(diffs, cf.t_grid[0], cf.t_grid[-1])))
    H = 0.5 * (H + H.conj().T)
    min_eig = float(np.linalg.eigvalsh(H)[0])
    return (min_eig >= -PSD_TOLERANCE, min_eig)


DEFAULT_ROOTS = (2, 3, 5)
DEFAULT_PROBE_SETS = tuple(
    tuple(k * h for k in range(-3, 4)) for h in (0.5, 1.0, 2.0)
)
PSD_TOLERANCE = 1e-8


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


def verify_infinitely_divisible(
    cf,
    roots_to_check: Sequence[int] = DEFAULT_ROOTS,
    t_max: float = 10.0,
    points: int = 401,
) -> DivisibilityReport:
    """Certify or refute infinite divisibility at desk scale.

    Accepts either a prepared CharacteristicFunctionGrid or a plain evaluator
    of a t array (a grid is then built on [-t_max, t_max] by build_cf_grid). FAIL reasons are a
    zero crossing of the CF or a probe set on which some n-th root's Gram
    matrix has an eigenvalue below -PSD_TOLERANCE.
    """
    roots = tuple(roots_to_check)
    zero_location, failures = None, []
    try:
        if callable(cf):
            cf = build_cf_grid(cf, t_max=t_max, points=points)
    except ZeroCrossing as exc:
        zero_location, reason = exc.witness, str(exc)
    else:
        # largest pairwise probe difference is 2*max(ps); keep it on the grid
        probe_sets = tuple(ps for ps in DEFAULT_PROBE_SETS if 2.0 * max(ps) <= cf.t_max) or (
            tuple(k * cf.t_max / 6.0 for k in range(-3, 4)),
        )
        for n in roots:
            root = nth_root(cf, n)
            for ps in probe_sets:
                ok, min_eig = psd_check(root, ps)
                if not ok:
                    failures.append((n, ps, min_eig))
        if failures:
            n, ps, min_eig = min(failures, key=lambda f: f[2])
            reason = (
                f"root n={n} fails positive semidefiniteness on probes "
                f"{list(ps)} (min eigenvalue {min_eig:.3e})"
            )
        else:
            reason = (
                f"CF zero-free on [{-cf.t_max:g}, {cf.t_max:g}]; roots {roots} pass "
                f"PSD checks on {len(probe_sets)} probe sets"
            )
    return DivisibilityReport(
        passed=zero_location is None and not failures,
        reason=reason,
        zero_location=zero_location,
        failures=tuple(failures),
        roots_checked=roots,
    )


def grid_to_csv(cf: CharacteristicFunctionGrid) -> str:
    """CSV text with columns t, re, im, log_re, log_im."""
    v, lv = cf.values, cf.log_values
    return _csv_text("t,re,im,log_re,log_im", cf.t_grid, v.real, v.imag, lv.real, lv.imag)
