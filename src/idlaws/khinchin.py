"""Canonical-measure recovery: convolution-root families, tail bounds, and the
windowed-average transform and its Fourier inversion.

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
test oracle. Since Im r(v) = (sin v - v)/v^2 for the canonical integrand's
remainder r(v) = (e^{iv} - 1 - iv)/v^2 (canonical.exp_remainder2), the
weight is w(v) = -Im r(v) (1+v^2)/v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .canonical import LevyKhintchinePair, exp_remainder2, log_cf_lk
from .divisibility import CharacteristicFunctionGrid, _check_conjugate_symmetric, build_cf_grid
from .measure import (
    CanonicalMeasure, _even_step, _legendre, cdf, integrate, mass_between, restrict, reweight,
    scale, symmetric_grid, to_json_dict, total_mass,
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

def delta_kernel_weight(v):
    """The inversion kernel weight (1 - sin v/v)(1+v^2)/v^2, as
    -Im exp_remainder2(v) (1+v^2)/v; value 1/6 at 0."""
    v = np.asarray(v, dtype=float)
    with np.errstate(invalid="ignore"):
        w = -exp_remainder2(v).imag / v * (1.0 + v * v)
    return np.where(v == 0.0, 1.0 / 6.0, w)


# -- G_h families -----------------------------------------------------------------


def g_h_from_root(root_distribution: CanonicalMeasure, h: float) -> CanonicalMeasure:
    """The measure dG_h = (v^2/(1+v^2)) dF_h(v) / h built from an h-th root."""
    if not h > 0:
        raise ValueError("h must be positive")
    if abs(total_mass(root_distribution) - 1.0) > 1e-9:
        raise ValueError("root distribution must have total mass 1")
    weighted = reweight(root_distribution, lambda v: (v * v) / (1.0 + v * v))
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


def poisson_root_distribution(h: float) -> CanonicalMeasure:
    """The h-th convolution root of Poisson(1) with unit jumps: Poisson(h).

    Atoms at k carry e^{-h} h^k / k!; the series is cut when the remaining
    tail is below 1e-15 (negligible after the 1/h scaling for the h values
    used here).
    """
    atoms = []
    mass = math.exp(-h)
    total = 0.0
    k = 0
    while total < 1.0 - 1e-15 and k < 400:
        if mass > 0:
            atoms.append((float(k), mass))
        total += mass
        k += 1
        mass *= h / k
    return CanonicalMeasure.from_atoms(atoms)


def gaussian_root_distribution(h: float, sigma2: float = 1.0) -> CanonicalMeasure:
    """The h-th convolution root of a Gaussian: Normal(0, h*sigma2) on 800 cells."""
    sd = math.sqrt(h * sigma2)
    edges = np.linspace(-8.0 * sd, 8.0 * sd, 801)
    # the normal cdf as erfc, which keeps the ~1e-15 lower tail that 1 + erf loses
    cdf_vals = np.array([0.5 * math.erfc(-x / (sd * math.sqrt(2.0))) for x in edges])
    masses = np.diff(cdf_vals)
    dropped = float(2.0 * cdf_vals[0])
    return CanonicalMeasure.from_cell_masses(edges, masses, tail_dropped=dropped)


def _gh_family(hs: Sequence[float], cf, root_distribution) -> GhFamily:
    """G_h of root_distribution(h) at each h, with the parent CF on [-5, 5]."""
    entries = tuple((h, g_h_from_root(root_distribution(h), h)) for h in hs)
    return GhFamily(entries=entries, cf=build_cf_grid(cf, t_max=5.0, points=1001))


def poisson_gh_family(hs: Sequence[float]) -> GhFamily:
    """The G_h family of Poisson(1) with unit jumps."""
    return _gh_family(hs, lambda t: np.exp(np.exp(1j * t) - 1.0), poisson_root_distribution)


def gaussian_gh_family(hs: Sequence[float]) -> GhFamily:
    """The G_h family of the standard Gaussian."""
    return _gh_family(hs, lambda t: np.exp(-0.5 * t * t), gaussian_root_distribution)


# -- I_h and the tail bounds --------------------------------------------------------


def i_h(cf: CharacteristicFunctionGrid, h: float, t):
    """(phi(t)^h - 1)/h at t (any shape), the finite-h stand-in for log phi(t)."""
    if not h > 0:
        raise ValueError("h must be positive")
    out = (np.exp(h * cf.log_at(t)) - 1.0) / h
    return complex(out) if np.ndim(out) == 0 else out


def _gl_integral(f, lo: float, hi: float) -> float:
    """64-node Gauss-Legendre integral of f over [lo, hi], f called once on the nodes."""
    x, w = _legendre(64)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return float(half * np.sum(w * f(mid + half * x)))


# the quadrature slack a tail inequality may fail by
BOUND_TOLERANCE = 1e-8


@dataclass(frozen=True)
class TailBounds:
    a_h: float
    b_h: float
    bound_a: float
    bound_b: float
    slack_a: float
    slack_b: float


def tail_bounds(G_h: CanonicalMeasure, cf: CharacteristicFunctionGrid, h: float) -> TailBounds:
    """Split G_h's mass at |u| = 1 and certify both masses against I_h bounds.

    a_h (mass on |u| <= 1) is bounded by -Re I_h(1)/c with c the small-u
    cosine constant; b_h (mass on |u| > 1) is bounded by the integral of
    -Re I_h over [0, 2]. Raises BoundViolated when an inequality fails by
    more than BOUND_TOLERANCE: the family cannot have come from h-th roots of
    a fixed CF.
    """
    a_h = mass_between(G_h, -1.0, 1.0)
    b_h = total_mass(G_h) - a_h
    # c = 0.5, the (A.3) constant: min over |u| <= 1 of (1 - cos u)(1+u^2)/u^2,
    # which rises from its removable value 1/2 at u=0 to about 0.9194 at |u|=1
    bound_a = -i_h(cf, h, 1.0).real / 0.5
    bound_b = -_gl_integral(lambda s: i_h(cf, h, s).real, 0.0, 2.0)
    slack_a = bound_a - a_h
    slack_b = bound_b - b_h
    if slack_a < -BOUND_TOLERANCE:
        raise BoundViolated(
            f"small-u mass {a_h:.6g} exceeds its bound {bound_a:.6g} at h={h}"
        )
    if slack_b < -BOUND_TOLERANCE:
        raise BoundViolated(
            f"tail mass {b_h:.6g} exceeds its bound {bound_b:.6g} at h={h}"
        )
    return TailBounds(
        a_h=a_h,
        b_h=b_h,
        bound_a=bound_a,
        bound_b=bound_b,
        slack_a=slack_a,
        slack_b=slack_b,
    )


def gnedenko_tail_check(family: GhFamily, alpha: float) -> float:
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
        if tail - bound > BOUND_TOLERANCE:
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
    edges = np.flatnonzero(np.diff(np.concatenate([[False], mask, [False]])))
    return [(int(a), int(b) - 1) for a, b in zip(edges[::2], edges[1::2])]


def _median(x: np.ndarray) -> float:
    """The median of a 1-d array as np.median gives it (0.0 if empty), from a
    sort: np.median imports numpy.ma."""
    if not x.size:
        return 0.0
    s = np.sort(x)
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2.0)


def _mass_centroid(g: CanonicalMeasure, lo: float, hi: float) -> Optional[float]:
    piece = restrict(g, lo, hi, include_lo=False, include_hi=True)
    piece_mass = total_mass(piece)
    if piece_mass <= 0:
        return None
    return float(integrate(piece, lambda u: u).real / piece_mass)


# extract_limit: sweeps agree within SWEEP_THRESHOLD; atoms carry more than
# LIMIT_ATOM_FLOOR. Both recoveries read an increment above JUMP_FACTOR times
# the median one as a jump (_jumps).
SWEEP_THRESHOLD = 1e-3
LIMIT_ATOM_FLOOR = 1e-4
JUMP_FACTOR = 5.0


def _jumps(rises: np.ndarray, among: np.ndarray, floor: float):
    """The rises clipped at 0, and the mask of those where among is True that
    exceed floor and JUMP_FACTOR times the median clipped rise over among."""
    rises = np.where(rises > 0, rises, 0.0)
    return rises, among & (rises > max(JUMP_FACTOR * _median(rises[among]), floor))


def extract_limit(family: GhFamily, u_grid):
    """Limit of the G_h cdfs as h shrinks, returned as (measure, drift).

    The cdf of each G_h is sampled on u_grid and consecutive entries are
    Richardson-extrapolated in h. Convergence of successive extrapolated
    sweeps is judged pointwise where they agree and by redistributed mass
    across each disagreement run: near a growing atom the cdfs cannot agree
    pointwise (the transition zone narrows with h), but the mass between the
    surrounding agreement points must settle. Each such run becomes an atom
    at the centroid of the finest entry's mass there; isolated oversized
    increments (JUMP_FACTOR times the typical cell) become atoms too, and
    the rest is density. The drift is the extrapolated limit of
    integral dG_h(u)/u.

    Raises NoConvergence when a disagreement run reaches the edge of u_grid
    or its mass differs between sweeps beyond SWEEP_THRESHOLD.
    """
    if len(family.entries) < 3:
        raise ValueError("need at least 3 family entries to extrapolate")
    u_grid = np.asarray(u_grid, dtype=float)
    ok = u_grid.ndim == 1 and u_grid.size >= 2 and np.all(np.isfinite(u_grid))
    if not (ok and np.all(np.diff(u_grid) > 0)):
        raise ValueError("u_grid must be 1-d strictly increasing")

    hs = [h for h, _ in family.entries]
    sweeps = [cdf(g, u_grid) for _, g in family.entries]
    extrapolated = [
        _richardson(hs[i - 1], sweeps[i - 1], hs[i], sweeps[i])
        for i in range(1, len(sweeps))
    ]
    forced_runs = []
    for idx in range(1, len(extrapolated)):
        prev, cur = extrapolated[idx - 1], extrapolated[idx]
        bad = np.abs(cur - prev) > SWEEP_THRESHOLD
        for i0, i1 in _bool_runs(bad):
            if i0 == 0 or i1 == u_grid.size - 1:
                raise NoConvergence(
                    f"cdf sweeps still disagree at the edge of u_grid "
                    f"(near u={u_grid[i0 if i0 == 0 else i1]:.4g})"
                )
            a, b = i0 - 1, i1 + 1
            moved = abs((cur[b] - cur[a]) - (prev[b] - prev[a]))
            if moved > SWEEP_THRESHOLD:
                raise NoConvergence(
                    f"mass on ({u_grid[a]:.4g}, {u_grid[b]:.4g}] differs by "
                    f"{moved:.3e} between sweeps (threshold {SWEEP_THRESHOLD:.0e})"
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

    in_forced = np.zeros(u_grid.size - 1, dtype=bool)
    for a, b in forced_runs:
        in_forced[a:b] = True
    increments, is_jump = _jumps(np.diff(limit_cdf), ~in_forced, LIMIT_ATOM_FLOOR)

    h_min, g_min = family.entries[-1]
    atoms: dict = {}

    def add_atom(lo_idx: int, hi_idx: int, mass: float):
        # place at the finest sweep's centre of mass across the window
        if mass <= LIMIT_ATOM_FLOOR:
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


def _stencil(cf: CharacteristicFunctionGrid, s: np.ndarray):
    """Per point s: its grid cell j, the first node j0 - 1 of its four-point
    stencil and the power-basis coefficients of the cubic through it."""
    tg, y = cf.t_grid, cf.log_values
    j = np.clip(np.floor((s - tg[0]) / cf.step), 0, tg.size - 2).astype(int)
    j0 = np.clip(j, 1, tg.size - 3)
    return j, j0, _cubic_coeffs(y[np.add.outer(np.arange(4), j0 - 1)])


def _interp_prefix(cf: CharacteristicFunctionGrid, s: np.ndarray) -> np.ndarray:
    """Prefix integral at arbitrary points: cubic across the end cell."""
    d = cf.step
    j, j0, (c0, c1, c2, c3) = _stencil(cf, s)
    frac = (s - cf.t_grid[j]) / d
    base = (j0 - 1) - j  # stencil start in cell-local units

    # antiderivative of the Lagrange cubic, evaluated from cell start to frac;
    # float_power is the C library's pow, as ** on a Python float, where
    # np.power's vector kernel rounds differently
    def anti(x):
        xi = x - base  # coordinate with stencil start at 0; nodes 0,1,2,3
        p2, p3, p4 = (np.float_power(xi, k) for k in (2, 3, 4))
        return d * (c0 * xi + c1 * p2 / 2 + c2 * p3 / 3 + c3 * p4 / 4)

    return _log_prefix(cf)[j] + anti(frac) - anti(0.0)


def _cubic_log_at(cf: CharacteristicFunctionGrid, t: np.ndarray) -> np.ndarray:
    """log phi off the grid via the local cubic (matches the integral's order)."""
    j, j0, (c0, c1, c2, c3) = _stencil(cf, t)
    xi = (t - cf.t_grid[j0 - 1]) / cf.step  # nodes at 0, 1, 2, 3
    return np.where(t == cf.t_grid[j], cf.log_values[j], c0 + xi * (c1 + xi * (c2 + xi * c3)))


def _window_fits(cf: CharacteristicFunctionGrid, t) -> np.ndarray:
    """Whether [t-1, t+1] lies on the grid span (False at NaN)."""
    return (t - 1.0 >= cf.t_grid[0] - 1e-12) & (t + 1.0 <= cf.t_grid[-1] + 1e-12)


def delta(cf: CharacteristicFunctionGrid, t):
    """The windowed-average transform: integral of log phi over [t-1, t+1]
    minus 2 log phi(t), at t of any shape. Raises OutOfRange where the window
    leaves the grid, or at NaN."""
    tt = np.asarray(t, dtype=float)
    fits = _window_fits(cf, tt)
    if not np.all(fits):
        bad = float(tt[~fits].flat[0])
        raise OutOfRange(
            f"[t-1, t+1] = [{bad - 1}, {bad + 1}] exceeds the grid span "
            f"[{cf.t_grid[0]}, {cf.t_grid[-1]}]"
        )
    window = _interp_prefix(cf, tt + 1.0) - _interp_prefix(cf, tt - 1.0)
    out = window - 2.0 * _cubic_log_at(cf, tt)
    return complex(out) if tt.ndim == 0 else out


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
    ts = cf.t_grid[_window_fits(cf, cf.t_grid)]
    return ts, delta(cf, ts)


MIN_INVERSION_SPAN = 40.0


def _taper_window(ts: np.ndarray, t_span: float) -> np.ndarray:
    """Raised cosine: 1 on [0, T/2], rolling smoothly to 0 at T."""
    w = np.ones_like(ts)
    outer = np.abs(ts) > t_span / 2.0
    w[outer] = 0.5 * (
        1.0 + np.cos(np.pi * (np.abs(ts[outer]) - t_span / 2.0) / (t_span / 2.0))
    )
    return w


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights on n points spaced h apart.

    An even n takes Cartwright's correction on the last interval (+5h/12,
    +2h/3, -h/12 on the last three points), as scipy.integrate.simpson does.
    """
    if n < 3:
        return np.full(n, h / 2.0 if n == 2 else 0.0)
    odd = n if n % 2 else n - 1
    w = np.zeros(n)
    w[1 : odd - 1 : 2] = 4.0 * h / 3.0
    w[2 : odd - 1 : 2] = 2.0 * h / 3.0
    w[0] = w[odd - 1] = h / 3.0
    if odd < n:
        w[-3:] += (-h / 12.0, 2.0 * h / 3.0, 5.0 * h / 12.0)
    return w


def _chirp_z(a: np.ndarray, t0: float, h: float, u0: float, du: float, m: int) -> np.ndarray:
    """sum_k a_k e^{i u_j t_k} for t_k = t0 + k h and u_j = u0 + j du, j < m.

    Bluestein's chirp-z transform: jk = (j^2 + k^2 - (j-k)^2)/2 turns the
    sum into a convolution with the chirp e^{-i du h n^2/2}, done by FFT.
    """
    n = a.size
    half_alpha = 0.5 * du * h
    k = np.arange(n)
    j = np.arange(m)
    size = 1 << (n + m - 2).bit_length()
    x = np.fft.fft(a * np.exp(1j * (u0 * h * k + half_alpha * k * k)), size)
    lags = np.concatenate([np.arange(m), np.arange(-size + m, 0)])
    chirp = np.fft.fft(np.exp(-1j * half_alpha * lags * lags))
    conv = np.fft.ifft(x * chirp)[:m]
    return np.exp(1j * ((u0 + du * j) * t0 + half_alpha * j * j)) * conv


def k_from_delta(
    delta_ts: np.ndarray,
    delta_values: np.ndarray,
    u_points,
) -> np.ndarray:
    """Principal-value Fourier inversion of Delta into K values.

    K(u) = (1/pi) * integral_0^T [sin(tu) Re Delta + (1 - cos(tu)) Im Delta]
    / t * W(t) dt with W the raised-cosine taper on [T/2, T]. The symmetric
    limit makes K(0) = 0 exactly and yields midpoint values at jumps.

    The integral is composite Simpson on the evenly spaced delta_ts. With
    its weights w folded in, c = w W Re Delta / t and d = w W Im Delta / t
    for t > 0, K = (sum d + Im sum (c - i d) e^{iut} + u w_0 Re Delta(0)) / pi.
    The sum over t is a chirp-z transform when u_points are evenly spaced
    and a direct sum, one row per u, otherwise.

    Raises InsufficientSpan when the Delta grid ends below T = 40 and
    ValueError when delta_ts are not evenly spaced or Delta breaks
    conjugate symmetry.
    """
    delta_ts = np.asarray(delta_ts, dtype=float)
    delta_values = np.asarray(delta_values, dtype=complex)
    t_span = float(delta_ts[-1])
    if t_span < MIN_INVERSION_SPAN:
        raise InsufficientSpan(
            f"Delta spans only [0, {t_span}]; need at least {MIN_INVERSION_SPAN}"
        )
    h = _even_step(delta_ts)
    if h is None or h <= 0.0:
        raise ValueError("delta_ts must be increasing and evenly spaced")
    _check_conjugate_symmetric(delta_values)
    pos = delta_ts >= 0.0
    ts = delta_ts[pos]
    dw = delta_values[pos] * _taper_window(ts, t_span) * _simpson_weights(ts.size, h)
    at_zero = ts == 0.0
    # t -> 0 limit of the integrand is u * Re Delta(0)
    zero_slope = float(np.sum(dw.real[at_zero]))
    a = np.where(at_zero, 0.0, dw.conj() / np.where(at_zero, 1.0, ts))

    u_points = np.atleast_1d(np.asarray(u_points, dtype=float))
    du = _even_step(u_points)
    if du is None:
        sums = np.array([a @ np.exp(1j * u * ts) for u in u_points])
    else:
        sums = _chirp_z(a, float(ts[0]), h, float(u_points[0]), du, u_points.size)
    out = (sums.imag - np.sum(a.imag) + u_points * zero_slope) / np.pi
    out[u_points == 0.0] = 0.0
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


# g_from_k reads a step READOUT_OFFSET to each side of a jump, as the mean of
# K over a window of half-width READOUT_HALFWIDTH; a jump within GUARD_BAND of
# u = 0 is the origin atom, and atoms carry more than K_ATOM_FLOOR
READOUT_OFFSET = 0.35
READOUT_HALFWIDTH = 0.1
GUARD_BAND = 0.05
K_ATOM_FLOOR = 1e-3


def g_from_k(k_values, u_grid) -> CanonicalMeasure:
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

    Raises SignViolation if K rises anywhere by more than 5% of K's range,
    floored at 1e-3, which admits truncation ringing but not a genuinely
    increasing stretch.
    """
    k_values = np.asarray(k_values, dtype=float)
    u_grid = np.asarray(u_grid, dtype=float)
    if k_values.shape != u_grid.shape or u_grid.ndim != 1:
        raise ValueError("k_values and u_grid must be matching 1-d arrays")
    sign_tolerance = max(1e-3, 0.05 * float(np.ptp(k_values)))
    rises = np.diff(k_values)
    worst_rise = float(np.max(rises)) if rises.size else 0.0
    if worst_rise > sign_tolerance:
        at = u_grid[int(np.argmax(rises))]
        raise SignViolation(
            f"K increases by {worst_rise:.3e} near u={at:.4g} "
            f"(tolerance {sign_tolerance:.3g})"
        )

    drops, is_jump = _jumps(-rises, np.full(rises.size, True), K_ATOM_FLOOR * 1e-3)
    widths = np.diff(u_grid)

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
        left = _window_mean(u_grid, k_values, u_grid[j] - READOUT_OFFSET, READOUT_HALFWIDTH)
        right = _window_mean(u_grid, k_values, u_grid[k + 1] + READOUT_OFFSET, READOUT_HALFWIDTH)
        step = right - left
        if abs(loc) < GUARD_BAND:
            loc = 0.0
        weight = float(delta_kernel_weight(loc))
        mass = step / (-2.0 * weight)
        lo_u = u_grid[j] - READOUT_OFFSET - READOUT_HALFWIDTH
        hi_u = u_grid[k + 1] + READOUT_OFFSET + READOUT_HALFWIDTH
        consumed |= (centers >= lo_u) & (centers <= hi_u)
        if mass > K_ATOM_FLOOR:
            atoms[loc] = atoms.get(loc, 0.0) + mass

    # dG = -dK / (2 w); the kernel weight is strictly positive
    density = np.where(consumed, 0.0, drops) / (2.0 * delta_kernel_weight(centers))
    density = np.where(density > 0, density, 0.0) / widths
    return CanonicalMeasure(
        atoms=tuple(sorted(atoms.items())), edges=u_grid, values=density
    )


@dataclass(frozen=True)
class InversionIntermediates:
    """Everything the Delta/K route produces on the way to G."""

    delta_ts: np.ndarray
    delta_values: np.ndarray
    u_grid: np.ndarray
    k_values: np.ndarray
    recovered: CanonicalMeasure
    drift: float
    reconstruction_error: float

    @property
    def taper_span(self) -> float:
        """T, where the raised-cosine taper of the K integral reaches 0."""
        return float(self.delta_ts[-1])

    def __post_init__(self):
        _check_conjugate_symmetric(np.asarray(self.delta_values))
        at_zero = float(np.interp(0.0, np.asarray(self.u_grid), np.asarray(self.k_values)))
        if abs(at_zero) > 1e-9:
            raise ValueError("K(0) must be 0")


def invert_cf(cf: CharacteristicFunctionGrid) -> InversionIntermediates:
    """The full backward route: Delta profile, K inversion, G recovery.

    K is sampled, and G recovered, on u in [-3, 3] at step 0.005. The drift
    is the least-squares linear-phase remainder after subtracting the
    recovered measure's contribution from log phi; the reconstruction error
    is the worst |log phi - rebuilt| over 101 t on [-5, 5], clipped to the
    grid.
    """
    ts, dvals = delta_profile(cf)
    u_grid = np.arange(-3.0, 3.0 + 1e-9, 0.005)
    k_values = k_from_delta(ts, dvals, u_grid)
    recovered = g_from_k(k_values, u_grid)

    reference_ts = symmetric_grid(min(5.0, cf.t_max), 101)
    law0 = LevyKhintchinePair(gamma=0.0, G=recovered)
    base = log_cf_lk(law0, reference_ts)
    actual = cf.log_at(reference_ts)
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
        recovered=recovered,
        drift=drift,
        reconstruction_error=err,
    )


def inversion_report(inv: InversionIntermediates) -> dict:
    """JSON-ready summary: inputs, window parameters, K samples, recovered G."""
    return {
        "inputs": {
            "delta_span": [float(inv.delta_ts[0]), float(inv.delta_ts[-1])],
            "delta_points": int(inv.delta_ts.size),
        },
        "window": {"taper_span": inv.taper_span, "k_sign": -1},  # K is non-increasing
        "k_samples": {
            "u": [float(u) for u in inv.u_grid],
            "k": [float(k) for k in inv.k_values],
        },
        "recovered": to_json_dict(inv.recovered),
        "drift": inv.drift,
        "reconstruction_error": inv.reconstruction_error,
    }
