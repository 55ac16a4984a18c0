"""Canonical-measure recovery: convolution-root families, tail bounds, the
windowed-average transform and its Fourier inversion, and truncated
compound-Poisson approximants.

The chain implemented here goes both ways. Forward: an n-th (or h-th)
convolution root yields a measure family G_h whose weak limit is the law's
canonical measure, with explicit tail bounds certifying uniform boundedness.
Backward: the windowed average Delta(t) of the log CF determines, through a
principal-value Fourier integral, a non-increasing function K(u) whose jumps
and slopes encode the canonical measure pointwise.

Kernel note: the transform pair used throughout is

    Delta(t) = -2 * integral of e^{itu} (1 - sin u / u) (1+u^2)/u^2 dG(u)
    K(u)     = -2 * integral over (0, u] of (1 - sin v / v)(1+v^2)/v^2 dG(v)

with the weight's removable value 1/6 at u = 0. The (1+u^2)/u^2 factor is
forced by the canonical integrand (a pure Gaussian G = atom(0,1) gives
Delta = -1/3, which the unweighted kernel cannot produce); see the Gaussian
test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import simpson
from scipy.stats import norm

from .canonical import (
    CompoundPoissonSpec,
    LevyKhintchinePair,
    exp_remainder2,
    log_cf_lk,
)
from .divisibility import CharacteristicFunctionGrid, build_cf_grid
from .measure import (
    CanonicalMeasure,
    atom_mass_at,
    combine,
    fourier_transform,
    integrate,
    mass_between,
    restrict,
    reweight,
    scale,
    total_mass,
)


class OutOfRange(ValueError):
    """The requested t needs CF data beyond the grid span."""


class InsufficientSpan(ValueError):
    """The Delta grid does not span enough of the t axis to invert."""


class SignViolation(ValueError):
    """K(u) increases; a valid inversion target is non-increasing."""


class BoundViolated(ValueError):
    """A tail inequality fails beyond quadrature tolerance."""


class NoConvergence(ValueError):
    """The G_h family's cdf sweeps do not settle within the threshold."""


# -- kernels ---------------------------------------------------------------------

# (1 - sin v / v) / v^2 power series: sum_{m>=1} (-1)^{m+1} v^{2m-2}/(2m+1)!
_SINC_DEFICIT_COEFFS = [
    (-1.0) ** (m + 1) / math.factorial(2 * m + 1) for m in range(1, 10)
]


def sinc_deficit(v):
    """(1 - sin v / v) / v^2, with the removable value 1/6 at v = 0."""
    v = np.asarray(v, dtype=float)
    out = np.empty(v.shape)
    small = np.abs(v) < 0.5
    if np.any(small):
        vs = v[small] ** 2
        acc = np.zeros(vs.shape)
        for c in reversed(_SINC_DEFICIT_COEFFS):
            acc = acc * vs + c
        out[small] = acc
    big = ~small
    if np.any(big):
        vb = v[big]
        out[big] = (1.0 - np.sin(vb) / vb) / (vb * vb)
    return out


def delta_kernel_weight(v):
    """The inversion kernel weight (1 - sin v/v)(1+v^2)/v^2; value 1/6 at 0."""
    v = np.asarray(v, dtype=float)
    return sinc_deficit(v) * (1.0 + v * v)


# -- G_h families -----------------------------------------------------------------


def g_h_from_root(root_distribution: CanonicalMeasure, h: float) -> CanonicalMeasure:
    """The measure dG_h = (v^2/(1+v^2)) dF_h(v) / h built from an h-th root."""
    if not h > 0:
        raise ValueError("h must be positive")
    if abs(total_mass(root_distribution) - 1.0) > 1e-9:
        raise ValueError("root distribution must have total mass 1")
    weighted = reweight(
        root_distribution, lambda v: (v * v) / (1.0 + v * v), atom_weights={0.0: 0.0}
    )
    return scale(weighted, 1.0 / h)


@dataclass(frozen=True)
class GhFamily:
    """Convolution-root measures G_h at decreasing h, plus the parent CF."""

    entries: tuple
    cf: Optional[CharacteristicFunctionGrid] = None

    def __post_init__(self):
        hs = [h for h, _ in self.entries]
        if any(not h > 0 for h in hs):
            raise ValueError("every h must be positive")
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ValueError("h values must be strictly decreasing")
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def mass_bound(self) -> float:
        """The recorded uniform bound: the largest total mass across entries."""
        if not self.entries:
            return 0.0
        return max(total_mass(g) for _, g in self.entries)


def poisson_root_distribution(h: float, rate: float = 1.0, jump: float = 1.0) -> CanonicalMeasure:
    """The h-th convolution root of Poisson(rate): a Poisson(rate*h) jump count.

    Atoms at k*jump carry e^{-rate h}(rate h)^k / k!; the series is cut when
    the remaining tail is below 1e-15 (negligible after the 1/h scaling for
    the h values used here).
    """
    lam = rate * h
    atoms = []
    mass = math.exp(-lam)
    total = 0.0
    k = 0
    while total < 1.0 - 1e-15 and k < 400:
        if mass > 0:
            atoms.append((k * jump, mass))
        total += mass
        k += 1
        mass *= lam / k
    return CanonicalMeasure.from_atoms(atoms)


def gaussian_root_distribution(h: float, sigma2: float = 1.0, cells: int = 800) -> CanonicalMeasure:
    """The h-th convolution root of a Gaussian: Normal(0, h*sigma2) on a grid."""
    sd = math.sqrt(h * sigma2)
    edges = np.linspace(-8.0 * sd, 8.0 * sd, cells + 1)
    cdf_vals = norm.cdf(edges, scale=sd)
    masses = np.diff(cdf_vals)
    dropped = float(2.0 * norm.cdf(edges[0], scale=sd))
    return CanonicalMeasure.from_cell_masses(edges, masses, tail_dropped=dropped)


def poisson_gh_family(
    hs: Sequence[float], rate: float = 1.0, jump: float = 1.0
) -> GhFamily:
    cf = build_cf_grid(
        lambda t: np.exp(rate * (np.exp(1j * t * jump) - 1.0)), t_max=5.0, points=1001
    )
    entries = tuple(
        (h, g_h_from_root(poisson_root_distribution(h, rate, jump), h)) for h in hs
    )
    return GhFamily(entries=entries, cf=cf)


def gaussian_gh_family(hs: Sequence[float], sigma2: float = 1.0) -> GhFamily:
    cf = build_cf_grid(
        lambda t: np.exp(-0.5 * sigma2 * t * t), t_max=5.0, points=1001
    )
    entries = tuple(
        (h, g_h_from_root(gaussian_root_distribution(h, sigma2), h)) for h in hs
    )
    return GhFamily(entries=entries, cf=cf)


# -- I_h and the tail bounds --------------------------------------------------------


def i_h(cf: CharacteristicFunctionGrid, h: float, t: float) -> complex:
    """(phi(t)^h - 1)/h, the finite-h stand-in for log phi(t)."""
    if not h > 0:
        raise ValueError("h must be positive")
    t = float(t)
    if t == 0.0:
        return 0j
    return complex((np.exp(h * cf.log_at(t)) - 1.0) / h)


def _gl_integral(f, lo: float, hi: float, order: int = 64) -> float:
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = mid + half * x
    return float(half * np.sum(w * np.array([f(s) for s in nodes])))


# the (A.3) constant: min over |u| <= 1 of (1 - cos u)(1+u^2)/u^2. The
# function rises from 1/2 at u=0 to about 0.9194 at |u|=1, so the minimum is
# the removable value 1/2 at the origin; a grid scan pins it numerically.
def small_u_cosine_constant(points: int = 20001) -> float:
    u = np.linspace(-1.0, 1.0, points)
    vals = 2.0 * _half_versine_weight(u)
    return float(np.min(vals))


def _half_versine_weight(u):
    # (1 - cos u)(1+u^2)/(2 u^2) with limit 1/2 at 0, via the stable identity
    # 1 - cos u = 2 sin^2(u/2)
    u = np.asarray(u, dtype=float)
    half = 0.5 * u
    # s = sin(u/2)/u -> 1/2 at 0; (1-cos u)/u^2 = 2 s^2
    s = np.divide(np.sin(half), u, out=np.full_like(u, 0.5), where=u != 0.0)
    return s * s * (1.0 + u * u)


@dataclass(frozen=True)
class TailBounds:
    a_h: float
    b_h: float
    c_h: float
    bound_a: float
    bound_b: float
    c_constant: float
    slack_a: float
    slack_b: float


def tail_bounds(
    G_h: CanonicalMeasure,
    cf: CharacteristicFunctionGrid,
    h: float,
    tolerance: float = 1e-8,
) -> TailBounds:
    """Split G_h's mass at |u| = 1 and certify both masses against I_h bounds.

    a_h (mass on |u| <= 1) is bounded by -Re I_h(1)/c with c the small-u
    cosine constant; b_h (mass on |u| > 1) is bounded by the integral of
    -Re I_h over [0, 2]. Raises BoundViolated when an inequality fails by
    more than the tolerance: the family cannot have come from h-th roots of
    a fixed CF.
    """
    a_h = mass_between(G_h, -1.0, 1.0)
    b_h = total_mass(G_h) - a_h
    c_const = 0.5  # min of (1-cos u)(1+u^2)/u^2 on |u|<=1, attained at u=0
    bound_a = -i_h(cf, h, 1.0).real / c_const
    bound_b = -_gl_integral(lambda s: i_h(cf, h, s).real, 0.0, 2.0)
    slack_a = bound_a - a_h
    slack_b = bound_b - b_h
    if slack_a < -tolerance:
        raise BoundViolated(
            f"small-u mass {a_h:.6g} exceeds its bound {bound_a:.6g} at h={h}"
        )
    if slack_b < -tolerance:
        raise BoundViolated(
            f"tail mass {b_h:.6g} exceeds its bound {bound_b:.6g} at h={h}"
        )
    return TailBounds(
        a_h=a_h,
        b_h=b_h,
        c_h=a_h + b_h,
        bound_a=bound_a,
        bound_b=bound_b,
        c_constant=c_const,
        slack_a=slack_a,
        slack_b=slack_b,
    )


def gnedenko_tail_check(
    family: GhFamily, alpha: float, tolerance: float = 1e-8
) -> float:
    """sup over h of mass(|u| >= alpha), certified uniformly in h.

    Each entry's tail mass must obey
    mass(|u| >= alpha) <= -alpha * integral_0^{2/alpha} Re I_h(t) dt,
    the inequality behind tightness of the family. Returns the supremum;
    raises BoundViolated if any entry breaks its bound.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if not family.entries:
        return 0.0
    if family.cf is None:
        raise ValueError("family carries no parent CF; bounds need I_h")
    sup_tail = 0.0
    for h, G_h in family.entries:
        tail = total_mass(G_h) - mass_between(
            G_h, -alpha, alpha, include_lo=False, include_hi=False
        )
        bound = -alpha * _gl_integral(
            lambda s: i_h(family.cf, h, s).real, 0.0, 2.0 / alpha
        )
        if tail - bound > tolerance:
            raise BoundViolated(
                f"tail mass {tail:.6g} at |u|>={alpha} exceeds bound {bound:.6g} (h={h})"
            )
        sup_tail = max(sup_tail, tail)
    return sup_tail


# -- extracting the limit measure ------------------------------------------------------


def _richardson(h_a: float, c_a, h_b: float, c_b):
    # eliminate the O(h) error term from two sweeps (h_a > h_b)
    return (h_a * np.asarray(c_b) - h_b * np.asarray(c_a)) / (h_a - h_b)


def _bool_runs(mask: np.ndarray):
    """Maximal runs of True, as (first, last) inclusive index pairs."""
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


def _mass_centroid(g: CanonicalMeasure, lo: float, hi: float) -> Optional[float]:
    piece = restrict(g, lo, hi, include_lo=False, include_hi=True)
    piece_mass = total_mass(piece)
    if piece_mass <= 0:
        return None
    return float(integrate(piece, lambda u: u).real / piece_mass)


def extract_limit(
    family: GhFamily,
    u_grid,
    convergence_threshold: float = 1e-3,
    jump_factor: float = 5.0,
    atom_floor: float = 1e-4,
):
    """Limit of the G_h cdfs as h shrinks, returned as (measure, drift).

    The cdf of each G_h is sampled on u_grid and consecutive entries are
    Richardson-extrapolated in h. Convergence of successive extrapolated
    sweeps is judged pointwise where they agree and by redistributed mass
    across each disagreement run: near a growing atom the cdfs cannot agree
    pointwise (the transition zone narrows with h), but the mass between the
    surrounding agreement points must settle. Each such run becomes an atom
    at the centroid of the finest entry's mass there; isolated oversized
    increments (jump_factor times the typical cell) become atoms too, and
    the rest is density. The drift is the extrapolated limit of
    integral dG_h(u)/u.

    Raises NoConvergence when a disagreement run reaches the edge of u_grid
    or its mass differs between sweeps beyond the threshold.
    """
    from .measure import cdf as measure_cdf

    if len(family.entries) < 3:
        raise ValueError("need at least 3 family entries to extrapolate")
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.ndim != 1 or u_grid.size < 2 or np.any(np.diff(u_grid) <= 0):
        raise ValueError("u_grid must be 1-d strictly increasing")

    hs = [h for h, _ in family.entries]
    sweeps = [measure_cdf(g, u_grid) for _, g in family.entries]
    extrapolated = [
        _richardson(hs[i - 1], sweeps[i - 1], hs[i], sweeps[i])
        for i in range(1, len(sweeps))
    ]
    forced_runs = []
    for idx in range(1, len(extrapolated)):
        prev, cur = extrapolated[idx - 1], extrapolated[idx]
        bad = np.abs(cur - prev) > convergence_threshold
        for i0, i1 in _bool_runs(bad):
            if i0 == 0 or i1 == u_grid.size - 1:
                raise NoConvergence(
                    f"cdf sweeps still disagree at the edge of u_grid "
                    f"(near u={u_grid[i0 if i0 == 0 else i1]:.4g})"
                )
            a, b = i0 - 1, i1 + 1
            moved = abs((cur[b] - cur[a]) - (prev[b] - prev[a]))
            if moved > convergence_threshold:
                raise NoConvergence(
                    f"mass on ({u_grid[a]:.4g}, {u_grid[b]:.4g}] differs by "
                    f"{moved:.3e} between sweeps (threshold "
                    f"{convergence_threshold:.0e})"
                )
            if idx == len(extrapolated) - 1:
                forced_runs.append((a, b))
    # an atom's transition zone can cross the previous sweep at an isolated
    # point; runs separated by such accidental agreement are one zone
    merged_runs = []
    for a, b in forced_runs:
        if merged_runs and a - merged_runs[-1][1] <= 2:
            merged_runs[-1] = (merged_runs[-1][0], b)
        else:
            merged_runs.append((a, b))
    forced_runs = merged_runs
    limit_cdf = extrapolated[-1]

    increments = np.diff(limit_cdf)
    increments = np.where(increments > 0, increments, 0.0)
    in_forced = np.zeros(increments.size, dtype=bool)
    for a, b in forced_runs:
        in_forced[a:b] = True
    outside = increments[~in_forced]
    med = float(np.median(outside)) if outside.size else 0.0
    is_jump = ~in_forced & (increments > max(jump_factor * med, atom_floor))

    h_min, g_min = family.entries[-1]
    atoms: dict = {}

    def add_atom(lo_idx: int, hi_idx: int, mass: float):
        # place at the finest sweep's centre of mass across the window
        if mass <= atom_floor:
            return
        loc = _mass_centroid(g_min, u_grid[lo_idx], u_grid[hi_idx])
        if loc is None:
            loc = 0.5 * (u_grid[lo_idx] + u_grid[hi_idx])
        atoms[loc] = atoms.get(loc, 0.0) + mass

    for a, b in forced_runs:
        add_atom(a, b, float(limit_cdf[b] - limit_cdf[a]))
    for i0, i1 in _bool_runs(is_jump):
        add_atom(i0, i1 + 1, float(np.sum(increments[i0 : i1 + 1])))

    keep = ~in_forced & ~is_jump
    values = np.where(keep, increments, 0.0) / np.diff(u_grid)
    limit = CanonicalMeasure(
        atoms=tuple(sorted(atoms.items())), edges=u_grid, values=values
    )

    gammas = [integrate(g, lambda u: 1.0 / u).real for _, g in family.entries]
    drift = float(_richardson(hs[-2], gammas[-2], hs[-1], gammas[-1]))
    return limit, drift


# -- Delta and its inversion -----------------------------------------------------------


def _cubic_cell_integrals(y: np.ndarray, d: float) -> np.ndarray:
    """Integral of the local cubic interpolant over each grid cell.

    Interior cells use the centered 4-point stencil
    d*(-y0 + 13 y1 + 13 y2 - y3)/24; the first and last cells use the
    one-sided cubic through their nearest four points. Exact for cubic data.
    """
    n = y.size
    if n < 4:
        raise ValueError("need at least 4 samples")
    out = np.empty(n - 1, dtype=y.dtype)
    out[1:-1] = d * (-y[:-3] + 13.0 * y[1:-2] + 13.0 * y[2:-1] - y[3:]) / 24.0
    out[0] = d * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]) / 24.0
    out[-1] = d * (y[-4] - 5.0 * y[-3] + 19.0 * y[-2] + 9.0 * y[-1]) / 24.0
    return out


def _log_prefix(cf: CharacteristicFunctionGrid) -> np.ndarray:
    """Cumulative integral of log_values from the left grid edge (cached)."""
    cached = getattr(cf, "_log_prefix_cache", None)
    if cached is not None:
        return cached
    cells = _cubic_cell_integrals(cf.log_values, cf.step)
    prefix = np.concatenate([[0.0 + 0j], np.cumsum(cells)])
    object.__setattr__(cf, "_log_prefix_cache", prefix)
    return prefix


def _cubic_coeffs(f):
    """Power-basis coefficients of the cubic through f at nodes 0, 1, 2, 3."""
    return (
        f[0],
        (-11 * f[0] + 18 * f[1] - 9 * f[2] + 2 * f[3]) / 6.0,
        (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / 2.0,
        (-f[0] + 3 * f[1] - 3 * f[2] + f[3]) / 6.0,
    )


def _interp_prefix(cf: CharacteristicFunctionGrid, s: float) -> complex:
    """Prefix integral at an arbitrary point: cubic across the end cell."""
    prefix = _log_prefix(cf)
    t, d, y = cf.t_grid, cf.step, cf.log_values
    j = int(np.clip(np.floor((s - t[0]) / d), 0, t.size - 2))
    frac = (s - t[j]) / d
    # cubic through stencil points at local coordinates -1, 0, 1, 2
    j0 = int(np.clip(j, 1, t.size - 3))
    f = y[j0 - 1 : j0 + 3]
    base = (j0 - 1) - j  # stencil start in cell-local units
    c0, c1, c2, c3 = _cubic_coeffs(f)

    # antiderivative of the Lagrange cubic, evaluated from cell start to frac
    def anti(x):
        xi = x - base  # coordinate with stencil start at 0; nodes 0,1,2,3
        return d * (c0 * xi + c1 * xi**2 / 2 + c2 * xi**3 / 3 + c3 * xi**4 / 4)

    return complex(prefix[j] + anti(frac) - anti(0.0))


def _cubic_log_at(cf: CharacteristicFunctionGrid, t: float) -> complex:
    """log phi off the grid via the local cubic (matches the integral's order)."""
    tg, y, d = cf.t_grid, cf.log_values, cf.step
    j = int(np.clip(np.floor((t - tg[0]) / d), 0, tg.size - 2))
    if t == tg[j]:
        return complex(y[j])
    j0 = int(np.clip(j, 1, tg.size - 3))
    f = y[j0 - 1 : j0 + 3]
    xi = (t - tg[j0 - 1]) / d  # nodes at 0, 1, 2, 3
    c0, c1, c2, c3 = _cubic_coeffs(f)
    return complex(c0 + xi * (c1 + xi * (c2 + xi * c3)))


def delta(cf: CharacteristicFunctionGrid, t: float) -> complex:
    """The windowed-average transform: integral of log phi over [t-1, t+1]
    minus 2 log phi(t)."""
    t = float(t)
    if t - 1.0 < cf.t_grid[0] - 1e-12 or t + 1.0 > cf.t_grid[-1] + 1e-12:
        raise OutOfRange(
            f"[t-1, t+1] = [{t - 1}, {t + 1}] exceeds the grid span "
            f"[{cf.t_grid[0]}, {cf.t_grid[-1]}]"
        )
    window = _interp_prefix(cf, t + 1.0) - _interp_prefix(cf, t - 1.0)
    return window - 2.0 * _cubic_log_at(cf, t)


def delta_profile(cf: CharacteristicFunctionGrid):
    """Delta at every grid point where [t-1, t+1] fits; returns (ts, values).

    On a grid whose step divides 1 exactly this is pure prefix-sum
    arithmetic; otherwise each endpoint interpolates through the local cubic.
    """
    d = cf.step
    m = int(round(1.0 / d))
    prefix = _log_prefix(cf)
    n = cf.t_grid.size
    if abs(m * d - 1.0) < 1e-9 and n > 2 * m:
        ts = cf.t_grid[m : n - m]
        vals = prefix[2 * m :] - prefix[: n - 2 * m] - 2.0 * cf.log_values[m : n - m]
        return ts, vals
    mask = (cf.t_grid - 1.0 >= cf.t_grid[0] - 1e-12) & (
        cf.t_grid + 1.0 <= cf.t_grid[-1] + 1e-12
    )
    ts = cf.t_grid[mask]
    vals = np.array([delta(cf, float(t)) for t in ts])
    return ts, vals


MIN_INVERSION_SPAN = 40.0


def _taper_window(ts: np.ndarray, t_span: float) -> np.ndarray:
    """Raised cosine: 1 on [0, T/2], rolling smoothly to 0 at T."""
    w = np.ones_like(ts)
    outer = np.abs(ts) > t_span / 2.0
    w[outer] = 0.5 * (
        1.0 + np.cos(np.pi * (np.abs(ts[outer]) - t_span / 2.0) / (t_span / 2.0))
    )
    return w


def k_from_delta(
    delta_ts: np.ndarray,
    delta_values: np.ndarray,
    u_points,
    chunk: int = 256,
) -> np.ndarray:
    """Principal-value Fourier inversion of Delta into K values.

    K(u) = (1/pi) * integral_0^T [sin(tu) Re Delta + (1 - cos(tu)) Im Delta]
    / t * W(t) dt with W the raised-cosine taper on [T/2, T]. The symmetric
    limit makes K(0) = 0 exactly and yields midpoint values at jumps.

    Raises InsufficientSpan when the Delta grid ends below T = 40 and
    ValueError when Delta breaks conjugate symmetry.
    """
    delta_ts = np.asarray(delta_ts, dtype=float)
    delta_values = np.asarray(delta_values, dtype=complex)
    t_span = float(delta_ts[-1])
    if t_span < MIN_INVERSION_SPAN:
        raise InsufficientSpan(
            f"Delta spans only [0, {t_span:.3g}]; need at least {MIN_INVERSION_SPAN}"
        )
    sym = delta_values[::-1].conj()
    if np.max(np.abs(sym - delta_values)) > 1e-9 * max(
        1.0, float(np.max(np.abs(delta_values)))
    ):
        raise ValueError("Delta values violate conjugate symmetry")
    pos = delta_ts >= 0.0
    ts = delta_ts[pos]
    dv = delta_values[pos]
    window = _taper_window(ts, t_span)
    re_w = dv.real * window
    im_w = dv.imag * window
    safe_t = np.where(ts == 0.0, 1.0, ts)

    u_points = np.atleast_1d(np.asarray(u_points, dtype=float))
    out = np.empty(u_points.size)
    for start in range(0, u_points.size, chunk):
        u = u_points[start : start + chunk, None]
        tu = u * ts[None, :]
        integrand = (np.sin(tu) * re_w + (1.0 - np.cos(tu)) * im_w) / safe_t
        # t -> 0 limit of the integrand is u * Re Delta(0)
        integrand[:, ts == 0.0] = u * re_w[ts == 0.0]
        out[start : start + chunk] = simpson(integrand, x=ts, axis=1) / np.pi
    return out


def _window_mean(u_grid, k_values, center: float, halfwidth: float) -> float:
    """Mean of the piecewise-linear K over [center-halfwidth, center+halfwidth].

    Averaging over a window wider than the ringing period cancels the
    oscillatory part of the truncation error, unlike a point read.
    """
    lo, hi = center - halfwidth, center + halfwidth
    inside = u_grid[(u_grid > lo) & (u_grid < hi)]
    xs = np.concatenate([[lo], inside, [hi]])
    ys = np.interp(xs, u_grid, k_values)
    area = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
    return area / (hi - lo)


def g_from_k(
    k_values,
    u_grid,
    sign_tolerance: Optional[float] = None,
    jump_factor: float = 5.0,
    atom_floor: float = 1e-3,
    readout_offset: float = 0.35,
    readout_halfwidth: float = 0.1,
    guard_band: float = 0.05,
) -> CanonicalMeasure:
    """Divide the non-increasing K by the forward kernel to recover G.

    Steps of K become atoms: the step size is the difference of windowed K
    averages taken a fixed offset away from the jump on each side (where
    inversion ringing has died down and averaging cancels what remains), the
    location comes from a parabolic fit around the derivative peak, and the
    mass is step / (-2 w(location)) with w the kernel weight. Candidate
    jumps are handled largest first; smaller candidates inside a handled
    jump's readout window are its sidelobes, not atoms. What remains becomes
    density cells via dG = dK / (-2 w(u)). A jump located inside the guard
    band around u = 0 is the origin atom (kernel weight limit 1/6).

    Raises SignViolation if K rises anywhere by more than sign_tolerance
    (default: 5% of K's range, floored at 1e-3, which admits truncation
    ringing but not a genuinely increasing stretch).
    """
    k_values = np.asarray(k_values, dtype=float)
    u_grid = np.asarray(u_grid, dtype=float)
    if k_values.shape != u_grid.shape or u_grid.ndim != 1:
        raise ValueError("k_values and u_grid must be matching 1-d arrays")
    if sign_tolerance is None:
        sign_tolerance = max(1e-3, 0.05 * float(np.ptp(k_values)))
    rises = np.diff(k_values)
    worst_rise = float(np.max(rises)) if rises.size else 0.0
    if worst_rise > sign_tolerance:
        at = u_grid[int(np.argmax(rises))]
        raise SignViolation(
            f"K increases by {worst_rise:.3e} near u={at:.4g} "
            f"(tolerance {sign_tolerance:.3g})"
        )

    drops = np.where(-np.diff(k_values) > 0, -np.diff(k_values), 0.0)
    widths = np.diff(u_grid)
    med = float(np.median(drops)) if drops.size else 0.0
    is_jump = drops > max(jump_factor * med, atom_floor * 1e-3)

    centers = 0.5 * (u_grid[:-1] + u_grid[1:])
    atoms: dict = {}
    consumed = np.zeros(drops.size, dtype=bool)
    runs = _bool_runs(is_jump)
    runs.sort(key=lambda r: -float(np.max(drops[r[0] : r[1] + 1])))
    for j, k in runs:
        if np.any(consumed[j : k + 1]):
            continue  # ringing of a larger jump already handled
        # locate: derivative peak plus parabolic vertex refinement
        peak = j + int(np.argmax(drops[j : k + 1]))
        loc = float(centers[peak])
        if 0 < peak < drops.size - 1:
            d0, d1, d2 = drops[peak - 1], drops[peak], drops[peak + 1]
            denom = d0 - 2.0 * d1 + d2
            if denom < 0:
                shift = 0.5 * (d0 - d2) / denom
                loc += float(np.clip(shift, -1.0, 1.0)) * widths[peak]
        # read the step clear of the ringing on both sides
        left = _window_mean(
            u_grid, k_values, u_grid[j] - readout_offset, readout_halfwidth
        )
        right = _window_mean(
            u_grid, k_values, u_grid[k + 1] + readout_offset, readout_halfwidth
        )
        step = right - left
        if abs(loc) < guard_band:
            loc = 0.0
        weight = float(delta_kernel_weight(loc))
        mass = step / (-2.0 * weight)
        lo_u = u_grid[j] - readout_offset - readout_halfwidth
        hi_u = u_grid[k + 1] + readout_offset + readout_halfwidth
        consumed |= (centers >= lo_u) & (centers <= hi_u)
        if mass > atom_floor:
            atoms[loc] = atoms.get(loc, 0.0) + mass

    # dG = -dK / (2 w); the kernel weight is strictly positive
    density = np.where(consumed, 0.0, drops) / (2.0 * delta_kernel_weight(centers))
    density = np.where(density > 0, density, 0.0) / widths
    return CanonicalMeasure(
        atoms=tuple(sorted(atoms.items())), edges=u_grid, values=density
    )


@dataclass(frozen=True)
class InversionIntermediates:
    """Everything the Delta/K route produces on the way to G.

    k_measure records -dK (a nonnegative step/density measure; K itself is
    non-increasing) with the global sign kept in k_sign: K's increments are
    k_sign times the measure's.
    """

    delta_ts: np.ndarray
    delta_values: np.ndarray
    u_grid: np.ndarray
    k_values: np.ndarray
    k_measure: CanonicalMeasure
    taper_span: float
    recovered: CanonicalMeasure
    drift: float
    reconstruction_error: float
    k_sign: int = -1

    def __post_init__(self):
        sym = np.asarray(self.delta_values)[::-1].conj()
        if np.max(np.abs(sym - self.delta_values)) > 1e-9 * max(
            1.0, float(np.max(np.abs(self.delta_values)))
        ):
            raise ValueError("Delta values violate conjugate symmetry")
        at_zero = float(
            np.interp(0.0, np.asarray(self.u_grid), np.asarray(self.k_values))
        )
        if abs(at_zero) > 1e-9:
            raise ValueError("K(0) must be 0")


def invert_cf(
    cf: CharacteristicFunctionGrid,
    u_grid=None,
    reference_ts=None,
) -> InversionIntermediates:
    """The full backward route: Delta profile, K inversion, G recovery.

    The drift is the least-squares linear-phase remainder after subtracting
    the recovered measure's contribution from log phi; the reconstruction
    error is the worst |log phi - rebuilt| over reference_ts (default
    [-5, 5], clipped to the grid).
    """
    ts, dvals = delta_profile(cf)
    if u_grid is None:
        u_grid = np.arange(-3.0, 3.0 + 1e-9, 0.005)
    u_grid = np.asarray(u_grid, dtype=float)
    k_values = k_from_delta(ts, dvals, u_grid)
    recovered = g_from_k(k_values, u_grid)
    k_drops = np.where(np.diff(k_values) < 0, -np.diff(k_values), 0.0)
    k_measure = CanonicalMeasure.from_cell_masses(u_grid, k_drops)

    if reference_ts is None:
        lim = min(5.0, cf.t_max)
        reference_ts = np.linspace(-lim, lim, 101)
    reference_ts = np.asarray(reference_ts, dtype=float)
    law0 = LevyKhintchinePair(gamma=0.0, G=recovered)
    base = log_cf_lk(law0, reference_ts)
    actual = np.array([cf.log_at(float(t)) for t in reference_ts])
    resid = actual - base
    denom = float(np.sum(reference_ts * reference_ts))
    drift = float(np.sum(reference_ts * resid.imag) / denom) if denom > 0 else 0.0
    rebuilt = base + 1j * drift * reference_ts
    err = float(np.max(np.abs(rebuilt - actual)))
    return InversionIntermediates(
        delta_ts=ts,
        delta_values=dvals,
        u_grid=u_grid,
        k_values=k_values,
        k_measure=k_measure,
        taper_span=float(ts[-1]),
        recovered=recovered,
        drift=drift,
        reconstruction_error=err,
    )


def inversion_report(inv: InversionIntermediates) -> dict:
    """JSON-ready summary: inputs, window parameters, K samples, recovered G."""
    from .measure import to_json_dict

    return {
        "inputs": {
            "delta_span": [float(inv.delta_ts[0]), float(inv.delta_ts[-1])],
            "delta_points": int(inv.delta_ts.size),
        },
        "window": {"taper_span": inv.taper_span, "k_sign": inv.k_sign},
        "k_samples": {
            "u": [float(u) for u in inv.u_grid],
            "k": [float(k) for k in inv.k_values],
        },
        "recovered": to_json_dict(inv.recovered),
        "drift": inv.drift,
        "reconstruction_error": inv.reconstruction_error,
    }


# -- truncated compound-Poisson approximants ----------------------------------------------


@dataclass(frozen=True)
class TruncationResult:
    """Drift + Gaussian + finite-rate jump decomposition at one epsilon."""

    epsilon: float
    lambda_eps: float
    jump_distribution: CanonicalMeasure
    gaussian_mass: float
    drift: float

    def log_cf(self, t):
        """Exponent of the assembled approximant CF at t (scalar or array)."""
        t = np.asarray(t, dtype=float)
        psi = fourier_transform(self.jump_distribution, t)
        out = (
            1j * self.drift * t
            - 0.5 * self.gaussian_mass * t * t
            + self.lambda_eps * (psi - 1.0)
        )
        return out if out.shape else complex(out)

    def compound_poisson_spec(self) -> Optional[CompoundPoissonSpec]:
        if self.lambda_eps <= 0:
            return None
        return CompoundPoissonSpec(rate=self.lambda_eps, jump=self.jump_distribution)


def truncate_cp(law: LevyKhintchinePair, epsilon: float) -> TruncationResult:
    """Drop jumps inside |u| <= epsilon and rescale the rest into a jump law.

    The intensity is nu = (1+u^2)/u^2 dG on |u| > epsilon; its mass is the
    jump rate, its normalization the jump distribution, and the drift picks
    up the centering correction gamma - integral u/(1+u^2) d nu. Exact for
    purely atomic G with atoms outside epsilon.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    G = law.G
    outer = combine(
        restrict(G, hi=-epsilon, include_hi=False),
        restrict(G, lo=epsilon, include_lo=False),
    )
    nu = reweight(outer, lambda u: (1.0 + u * u) / (u * u))
    lam = total_mass(nu)
    if lam > 0:
        jump_dist = scale(nu, 1.0 / lam)
        centering = integrate(nu, lambda u: u / (1.0 + u * u)).real
    else:
        jump_dist = CanonicalMeasure.empty()
        centering = 0.0
    return TruncationResult(
        epsilon=float(epsilon),
        lambda_eps=float(lam),
        jump_distribution=jump_dist,
        gaussian_mass=atom_mass_at(G, 0.0),
        drift=law.gamma - centering,
    )


@dataclass(frozen=True)
class DeFinettiEntry:
    epsilon: float
    truncation: TruncationResult
    sup_error: float


def definetti_sequence(
    law: LevyKhintchinePair,
    epsilons: Sequence[float],
    t_grid=None,
    reference_log_cf=None,
) -> list:
    """Compound-Poisson approximants at decreasing epsilon, with CF errors.

    sup_error compares approximant and exact CF values (not exponents) on
    t_grid. The reference defaults to the law's own evaluation; a closed
    form may be passed instead (callable t-array -> log CF array).
    """
    eps = list(epsilons)
    if any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be positive and strictly decreasing")
    if t_grid is None:
        t_grid = np.linspace(-5.0, 5.0, 201)
    t_grid = np.asarray(t_grid, dtype=float)
    if reference_log_cf is None:
        ref_log = log_cf_lk(law, t_grid)
    elif callable(reference_log_cf):
        ref_log = np.asarray(reference_log_cf(t_grid), dtype=complex)
    else:
        ref_log = np.asarray(reference_log_cf, dtype=complex)
    ref_cf = np.exp(ref_log)
    out = []
    for e in eps:
        tr = truncate_cp(law, e)
        approx_cf = np.exp(tr.log_cf(t_grid))
        err = float(np.max(np.abs(approx_cf - ref_cf)))
        out.append(DeFinettiEntry(epsilon=float(e), truncation=tr, sup_error=err))
    return out
