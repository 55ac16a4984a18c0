"""Canonical parameterizations of infinitely divisible laws.

Three equivalent forms are supported: a drift plus one bounded measure G
(the general form), a drift plus one bounded measure K (valid under a finite
second moment), and a drift + Gaussian variance + two jump measures M, N on
the negative and positive half lines. Each form evaluates the logarithm of
the characteristic function; conversions move between forms and preserve the
log-CF pointwise. truncate_cp splits a law into drift, Gaussian part and a
compound-Poisson law of its jumps beyond epsilon (de Finetti's approximants),
and definetti_sequence gives the CF errors of a sequence of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measure import (
    CanonicalMeasure,
    InfiniteWeight,
    _gauss_nodes,
    _json_number,
    _json_object,
    _phase_run,
    atom_mass_at,
    combine,
    fourier_transform,
    from_json_dict,
    hermitian_fold,
    integrate,
    mass_between,
    restrict,
    reweight,
    scale,
    symmetric_grid,
    to_json_dict,
    total_mass,
)


class InfiniteVariance(ValueError):
    """The finite-second-moment form was requested for a law without one."""


class BadParameter(ValueError):
    """A catalog law was requested with out-of-range parameters."""


VARIANCE_BOUND = 1e12

# (exp(ix) - 1 - ix)/x**2 = sum of i**k x**(k-2) / k! for k = 2..17, split into
# real (k even) and imaginary (k odd, over x) power series in x**2
_REMAINDER_RE = [(-1) ** m / math.factorial(2 * m) for m in range(1, 9)]
_REMAINDER_IM = [(-1) ** m / math.factorial(2 * m + 1) for m in range(1, 9)]


def exp_remainder2(x):
    """(exp(ix) - 1 - ix) / x**2 with the removable singularity at x = 0 filled.

    Direct evaluation loses all precision for small x (three terms of size 1
    cancel to O(x**2)), so |x| < 0.5 switches to the power series.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 0.5
    xs = x[small]
    y = xs * xs
    re, im = np.zeros_like(y), np.zeros_like(y)
    for cr, ci in zip(reversed(_REMAINDER_RE), reversed(_REMAINDER_IM)):
        re *= y
        re += cr
        im *= y
        im += ci
    out.real[small] = re
    out.imag[small] = xs * im
    xb = x[~small]
    out[~small] = (np.exp(1j * xb) - 1 - 1j * xb) / (xb * xb)
    return out


# -- the three parameterizations ----------------------------------------------


@dataclass(frozen=True)
class LevyKhintchinePair:
    """Drift gamma and bounded non-decreasing G; the general canonical form."""

    gamma: float
    G: CanonicalMeasure

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if not np.isfinite(total_mass(self.G)):
            raise ValueError("G must have finite total mass")


@dataclass(frozen=True)
class KolmogorovPair:
    """Drift gammaK and bounded K; valid for laws with finite second moment."""

    gammaK: float
    K: CanonicalMeasure

    def __post_init__(self):
        if not np.isfinite(self.gammaK):
            raise ValueError("gammaK must be finite")


@dataclass(frozen=True)
class LevyTriplet:
    """Drift, Gaussian variance, and jump measures on each half line.

    M carries the negative-axis jumps and must have no mass on [0, inf);
    N carries the positive-axis jumps and must have no mass on (-inf, 0].
    The tail-normalized functions of the classical statement are views:
    M(u) = -mass((u, 0)) for u < 0 and N(u) = -mass((u, inf)) for u > 0.
    """

    gamma: float
    sigma2: float
    M: CanonicalMeasure
    N: CanonicalMeasure

    def __post_init__(self):
        if not 0 <= self.sigma2 < np.inf:
            raise ValueError("sigma2 must be finite and non-negative")
        if mass_between(self.M, 0.0, np.inf) != 0.0:
            raise ValueError("M must have no mass on [0, inf)")
        if mass_between(self.N, -np.inf, 0.0) != 0.0:
            raise ValueError("N must have no mass on (-inf, 0]")


@dataclass(frozen=True)
class CompoundPoissonSpec:
    """Jump rate plus a probability measure for the jump size."""

    rate: float
    jump: CanonicalMeasure

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        if abs(total_mass(self.jump) - 1.0) > 1e-12:
            raise ValueError("jump distribution must have total mass 1")


def tail_function_m(triplet: LevyTriplet, u: float) -> float:
    """The negative-axis tail view M(u) = -mass((u, 0)), zero at -inf."""
    if u >= 0:
        return 0.0
    return -mass_between(triplet.M, u, 0.0, include_lo=False, include_hi=False)


def tail_function_n(triplet: LevyTriplet, u: float) -> float:
    """The positive-axis tail view N(u) = -mass((u, inf)), zero at +inf."""
    if u <= 0:
        return -total_mass(triplet.N)
    return -mass_between(triplet.N, u, np.inf, include_lo=False)


# -- log-characteristic-function evaluation ------------------------------------


class NonFiniteLogCF(ValueError):
    """The log CF is not finite at some t: a mass or a product overflowed."""


# complex elements of one (t x node) block of the kernel (4 MB each)
_KERNEL_BLOCK = 1 << 18
# Gauss orders open to the cells inside |u| <= 1, and the error each t may
# take from them per unit of their mass (below the rounding of the sum)
_GAUSS_LADDER = (4, 8, 12, 16, 20)
_INNER_BUDGET = 1e-16
# inner Gauss nodes of one order from which _cell_kernel takes them over
# from the block: its Python per t costs what a block row of 150 to 380
# nodes does
_CELL_KERNEL_NODES = 256
# Gauss-Legendre remainder constants (n!)^4 / ((2n+1) ((2n)!)^3)
_GL_REMAINDER = {
    n: math.factorial(n) ** 4 / ((2 * n + 1) * math.factorial(2 * n) ** 3)
    for n in _GAUSS_LADDER
}


def jump_intensity(G: CanonicalMeasure):
    """(nu, centring term): nu = (1+u^2)/u^2 dG and the integral of u/(1+u^2)
    against it, in closed form.

    A cell [a, b] of constant density v becomes density v (1 + 1/(ab)) and
    adds v ln(b/a), as v log1p((b-a)/a); an atom of mass m at u becomes
    m (1+u^2)/u^2 and adds that times u/(1+u^2). Raises InfiniteWeight for
    mass at u = 0, on a cell touching it, or so near it that nu overflows.
    """
    locs, masses = G._atom_arrays()
    if np.any(locs == 0.0):
        raise InfiniteWeight("nu is unbounded at the atom u=0")
    atoms = masses * ((1.0 + locs * locs) / (locs * locs))
    # atoms summed one by one in their order, as integrate sums them
    center = float(np.cumsum(atoms * (locs / (1.0 + locs * locs)))[-1]) if locs.size else 0.0
    values = np.zeros_like(G.values)
    keep = G.values > 0
    a, b, v = G.edges[:-1][keep], G.edges[1:][keep], G.values[keep]
    if np.any(a * b <= 0):
        raise InfiniteWeight("nu is unbounded on a cell touching u=0")
    with np.errstate(all="ignore"):
        values[keep] = v * (1.0 + 1.0 / (a * b))
        center += float(np.sum(v * np.log1p((b - a) / a)))
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(atoms))):
        raise InfiniteWeight("nu's mass diverges near u=0")
    nu = CanonicalMeasure(tuple(zip(locs, atoms)), G.edges, values, G.tail_dropped)
    return nu, center


def inner_gauss_order(width: float, t):
    """Gauss order of the cells inside |u| <= 1 at each t, for a widest cell
    of the given width: the lowest order of ``_GAUSS_LADDER`` whose remainder
    bound per unit mass is within ``_INNER_BUDGET``, else the top one (the
    lowest everywhere if no inner cell carries mass).

    An n-node rule errs on a cell of width w by at most
    (n!)^4 / ((2n+1) ((2n)!)^3) w^(2n) max|f^(2n)| per unit mass, and the
    kernel's integrand has |f^(2n)| <= |t|^(2n) (1+|t|)^2 on |u| <= 1.
    """
    at = np.abs(np.asarray(t, dtype=float))
    if not width:
        return np.full(at.shape, _GAUSS_LADDER[0])
    order = np.full(at.shape, _GAUSS_LADDER[-1])
    with np.errstate(all="ignore"):
        for n in reversed(_GAUSS_LADDER[:-1]):
            bound = _GL_REMAINDER[n] * (at * width) ** (2 * n) * (1.0 + at) ** 2
            order = np.where(bound <= _INNER_BUDGET, n, order)
    return order


def _split(G: CanonicalMeasure, lo: float, hi: float):
    """(cells, nu, nu_mass, nu_center): G's cells cut to [lo, hi], as
    truncate_cp cuts at epsilon, and nu = (1+u^2)/u^2 dG on the cells outside
    (None if they carry no mass) with its mass and centring term."""
    cells = CanonicalMeasure.from_density(G.edges, G.values)
    inner = restrict(cells, lo, hi)
    outer = combine(restrict(cells, hi=lo), restrict(cells, lo=hi))
    if not np.any(outer.values > 0):
        return inner, None, 0.0, 0.0
    nu, nu_center = jump_intensity(outer)
    return inner, nu, total_mass(nu), nu_center


def _lk_parts(G: CanonicalMeasure):
    """What log_cf_lk needs of G, cached on the (immutable) measure.

    (g0, locs, masses, inner, width, nu, nu_mass, nu_center, by_order): the
    u = 0 atom's mass; the other atoms; G's cells cut to [-1, 1] and the
    widest of them with mass; nu on the cells outside, its mass and its
    centring term (_split); and a dict, filled by log_cf_lk, of the block's
    nodes and weights and the inner cells' _cell_tables (or None) per Gauss
    order.
    """
    cached = getattr(G, "_lk_cache", None)
    if cached is not None:
        return cached
    locs, masses = G._atom_arrays()
    off = locs != 0.0
    inner, nu, nu_mass, nu_center = _split(G, -1.0, 1.0)
    width = float(np.max(np.diff(inner.edges)[inner.values > 0], initial=0.0))
    g0 = float(np.sum(masses[~off]))
    parts = (g0, locs[off], masses[off], inner, width, nu, nu_mass, nu_center, {})
    object.__setattr__(G, "_lk_cache", parts)
    return parts


def _cell_tables(u, w):
    """The inner cells' Gauss nodes u and weights w, sorted by |u|, and what
    the kernel reads of them: (|u|, u, W, W u, moments, first moment), with
    W = w(1+u^2)/u^2. Column p of moments holds the sums
    M_k = sum of w(1+u^2) u^(k-2) over the first p nodes, k = 2..17; the
    first moment is the sum of w u over all nodes.
    """
    order = np.argsort(np.abs(u), kind="stable")
    u, w = u[order], w[order]
    q = w * (1.0 + u * u)
    moments = np.zeros((16, u.size + 1))
    moments[0, 1:] = q
    for k in range(1, 16):
        np.multiply(moments[k - 1, 1:], u, out=moments[k, 1:])
    np.cumsum(moments, axis=1, out=moments)
    return np.abs(u), u, q / (u * u), q / u, moments, float(np.sum(w * u))


def _cell_kernel(ts, tables):
    """Sum over the inner Gauss nodes of w (exp(itu) - 1 - itu/(1+u^2)) (1+u^2)/u^2
    at each t of the 1-d ts (sorted tables of _cell_tables).

    The nodes with |tu| < 0.5 are a prefix of the sorted nodes; they take the
    k = 2..17 series of exp_remainder2 as sums over t^k of prefix moments. The
    rest take W (-2 sin^2(tu/2)) + i W (sin tu - tu), with sin and cos of tu/2
    from the phases of measure._phase_run (a recurrence on a uniform run, with
    its first-order correction, else direct). Every t is reduced on its own,
    so a t gives the same bits in any array of scattered t.
    """
    absu, u, W, Wu, moments, first = tables
    p = np.searchsorted(absu, 0.5 / np.abs(ts))
    m = moments[:, p]
    y = ts * ts
    re, im = np.zeros_like(ts), np.zeros_like(ts)
    for j in reversed(range(8)):
        re = re * y + _REMAINDER_RE[j] * m[2 * j]
        im = im * y + _REMAINDER_IM[j] * m[2 * j + 1]
    out = y * re + 1j * ts * (y * im + first)
    lo = int(p.min())
    for k, (t, phase, off) in enumerate(_phase_run(ts, 0.5 * u[lo:])):
        h = phase[p[k] - lo :]
        z = h * (W[p[k] :] * h.imag)  # W (cos sin + i sin^2) of tu/2
        sz = z.sum()
        b, a = sz.real, sz.imag
        ub, ua = u[p[k] :] @ z.view(float).reshape(-1, 2)
        # to first order in off: d/dt sin^2 = u cos sin, d/dt cos sin = u (1 - 2 sin^2)/2
        e = Wu[p[k] :].sum()
        out[k] += complex(-2.0 * (a + off * ub), 2.0 * (b - off * ua) - (t - off) * e)
    return out


def log_cf_lk(law: LevyKhintchinePair, t):
    """log CF under the general form, at a scalar t or on an array of t.

    The u = 0 atom of G contributes -g0 t^2/2. Other atoms take the integrand
    (exp(itu) - 1 - itu/(1+u^2)) * (1+u^2)/u^2 in the cancellation-free
    arrangement t^2 * r(tu) * (1+u^2) + itu (r the stable remainder kernel),
    summed in (t x node) blocks. The Gauss nodes of the cells inside
    |u| <= 1 join that block while an order has fewer than
    _CELL_KERNEL_NODES of them, and take the same integrand through
    _cell_kernel from there on. The Gauss order of each t is
    inner_gauss_order(widest inner cell, t), which depends on |t| and G
    alone, so a t gets the same nodes in a scalar call and in any array.
    Outside |u| <= 1 the weight is bounded, so the cells there enter through
    the closed-form Fourier transform of nu = (1+u^2)/u^2 dG, less nu's mass
    and centring term.

    The log CF is Hermitian, so on a t that mirrors exactly about 0 only the
    t >= 0 half is evaluated (measure.hermitian_fold).

    Returns a complex for a scalar t, else an array of t's shape, with
    log phi(0) exactly 0. Raises NonFiniteLogCF if any value overflows.
    """
    return _log_cf_at(lambda ts: _log_cf_lk_flat(law, ts), t)


def _log_cf_at(f, t):
    """f, a log CF of a 1-d t array, at t of any shape as log_cf_lk describes; raises
    NonFiniteLogCF naming the first t, in t's order, whose value is not finite."""
    tt = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        out = hermitian_fold(f, tt.ravel())
    _require_finite(tt, out)
    return complex(out[0]) if tt.ndim == 0 else out.reshape(tt.shape)


def _require_finite(t, values):
    """Raise NonFiniteLogCF naming the first t, in t's order, whose value (of
    the same size) is not finite."""
    finite = np.isfinite(values).ravel()
    if not finite.all():
        bad = float(np.ravel(t)[np.argmin(finite)])
        raise NonFiniteLogCF(f"log CF is not finite at t={bad:.6g}")


def _log_cf_lk_flat(law: LevyKhintchinePair, ts):
    """log_cf_lk on a 1-d t array, every t evaluated."""
    g0, locs, masses, inner, width, nu, nu_mass, nu_center, by_order = _lk_parts(law.G)
    orders = inner_gauss_order(width, ts)
    out = 1j * law.gamma * ts - 0.5 * g0 * ts * ts
    for n in _GAUSS_LADDER:
        sel = orders == n
        if not sel.any():
            continue
        if n not in by_order:
            cell_nodes, cell_weights = _gauss_nodes(inner, n)
            if cell_nodes.size >= _CELL_KERNEL_NODES:
                by_order[n] = (locs, masses, _cell_tables(cell_nodes, cell_weights))
            else:
                nodes = np.concatenate([locs, cell_nodes])
                by_order[n] = (nodes, np.concatenate([masses, cell_weights]), None)
        nodes, weights, tables = by_order[n]
        tn, part = ts[sel], out[sel]
        if nodes.size:
            cols = min(nodes.size, _KERNEL_BLOCK)
            rows = max(1, _KERNEL_BLOCK // cols)
            for j in range(0, nodes.size, cols):
                u, w = nodes[j : j + cols], weights[j : j + cols]
                for i in range(0, tn.size, rows):
                    tb = tn[i : i + rows, None]
                    tu = tb * u
                    f = tb * tb * exp_remainder2(tu) * (1.0 + u * u) + 1j * tu
                    part[i : i + rows] += (f * w).sum(axis=1)
        if tables is not None:
            part += _cell_kernel(tn, tables)
        out[sel] = part
    if nu is not None:
        out += fourier_transform(nu, ts) - nu_mass - 1j * ts * nu_center
    out[ts == 0.0] = 0.0
    return out


def log_cf(law, t):
    """Evaluate the log CF of a law in whichever canonical form it carries."""
    return log_cf_lk(law_to_lk(law), t)


# -- conversions ---------------------------------------------------------------


def _second_moment_guard(G: CanonicalMeasure, K: CanonicalMeasure):
    """Reject conversions whose reweighted mass is unbounded or non-convergent.

    A truncated grid (tail_dropped > 0) whose outermost decade still carries
    more than 1% of the reweighted mass has a second moment that did not
    converge within the span; growing the grid would grow the mass without
    limit.
    """
    tm = total_mass(K)
    if tm > VARIANCE_BOUND:
        raise InfiniteVariance(
            f"second-moment mass {tm:.3e} exceeds the bound {VARIANCE_BOUND:.1e}"
        )
    if G.tail_dropped > 0 and K.values.size:
        span = max(abs(float(K.edges[0])), abs(float(K.edges[-1])))
        outer = tm - mass_between(K, -span / 10.0, span / 10.0)
        if outer > 0.01 * tm:
            raise InfiniteVariance(
                "second-moment mass has not converged within the truncated grid "
                f"(outermost decade carries {outer / tm:.0%} of {tm:.3e})"
            )


def lk_to_kolmogorov(law: LevyKhintchinePair) -> KolmogorovPair:
    """Reweight G by 1 + u^2; requires a finite second moment."""
    K = reweight(law.G, lambda u: 1.0 + u * u)
    _second_moment_guard(law.G, K)
    gammaK = law.gamma + integrate(law.G, lambda u: u).real
    return KolmogorovPair(gammaK=gammaK, K=K)


def kolmogorov_to_lk(law: KolmogorovPair) -> LevyKhintchinePair:
    """Inverse reweighting by 1/(1 + u^2); always applicable."""
    G = reweight(law.K, lambda u: 1.0 / (1.0 + u * u))
    gamma = law.gammaK - integrate(G, lambda u: u).real
    return LevyKhintchinePair(gamma=gamma, G=G)


def lk_to_levy(law: LevyKhintchinePair) -> LevyTriplet:
    """Split G into the u=0 atom (variance) and the jump intensity
    nu = (1+u^2)/u^2 dG on each half line."""
    sigma2 = atom_mass_at(law.G, 0.0)
    M, _ = jump_intensity(restrict(law.G, hi=0.0, include_hi=False))
    N, _ = jump_intensity(restrict(law.G, lo=0.0, include_lo=False))
    return LevyTriplet(gamma=law.gamma, sigma2=sigma2, M=M, N=N)


def levy_to_lk(law: LevyTriplet) -> LevyKhintchinePair:
    """Reassemble G from the variance atom and the reweighted jump measures."""
    weight = lambda u: (u * u) / (1.0 + u * u)
    G = combine(reweight(law.M, weight), reweight(law.N, weight))
    if law.sigma2 > 0:
        G = combine(G, CanonicalMeasure.from_atoms([(0.0, law.sigma2)]))
    return LevyKhintchinePair(gamma=law.gamma, G=G)


def law_to_lk(law) -> LevyKhintchinePair:
    """Bring any canonical form to the general (gamma, G) form."""
    if isinstance(law, LevyKhintchinePair):
        return law
    if isinstance(law, KolmogorovPair):
        return kolmogorov_to_lk(law)
    if isinstance(law, LevyTriplet):
        return levy_to_lk(law)
    raise TypeError(f"not a canonical law: {type(law).__name__}")


def scale_law(law: LevyKhintchinePair, lam: float) -> LevyKhintchinePair:
    """The law of the process at duration lam: gamma and G scale linearly."""
    if lam < 0:
        raise ValueError("duration must be non-negative")
    return LevyKhintchinePair(gamma=lam * law.gamma, G=scale(law.G, lam))


# -- compound Poisson and the catalog ------------------------------------------


def compound_poisson_to_lk(spec: CompoundPoissonSpec) -> LevyKhintchinePair:
    """The general-form parameters of a compound Poisson law (exact for atoms)."""
    G = scale(
        reweight(spec.jump, lambda u: (u * u) / (1.0 + u * u)),
        spec.rate,
    )
    gamma = spec.rate * integrate(spec.jump, lambda u: u / (1.0 + u * u)).real
    return LevyKhintchinePair(gamma=gamma, G=G)


@dataclass(frozen=True)
class TruncationResult:
    """Drift + Gaussian + finite-rate jump decomposition at one epsilon."""

    epsilon: float
    lambda_eps: float
    jump_distribution: CanonicalMeasure
    gaussian_mass: float
    drift: float

    def log_cf(self, t):
        """Exponent of the approximant CF at t, evaluated as log_cf_lk is (_log_cf_at)."""
        lam, jumps = self.lambda_eps, self.jump_distribution
        return _log_cf_at(lambda ts: self._exponent(ts, lam * fourier_transform(jumps, ts)), t)

    def _exponent(self, t, lam_psi):
        """The exponent at t from lambda psi(t), the jump rate times the jump
        law's transform."""
        return 1j * self.drift * t - 0.5 * self.gaussian_mass * t * t + (lam_psi - self.lambda_eps)


def truncate_cp(law: LevyKhintchinePair, epsilon: float) -> TruncationResult:
    """Drop jumps inside |u| <= epsilon and rescale the rest into a jump law.

    The intensity is nu = (1+u^2)/u^2 dG on |u| > epsilon, in closed form
    (jump_intensity); its mass is the jump rate, its normalization the jump
    distribution, and the drift picks up the centering correction
    gamma - integral u/(1+u^2) d nu.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    G = law.G
    outer = combine(
        restrict(G, hi=-epsilon, include_hi=False),
        restrict(G, lo=epsilon, include_lo=False),
    )
    nu, centering = jump_intensity(outer)
    lam = total_mass(nu)
    jump_dist = scale(nu, 1.0 / lam) if lam > 0 else CanonicalMeasure.empty()
    return TruncationResult(
        epsilon=float(epsilon),
        lambda_eps=float(lam),
        jump_distribution=jump_dist,
        gaussian_mass=atom_mass_at(G, 0.0),
        drift=law.gamma - centering,
    )


@dataclass(frozen=True)
class DeFinettiEntry:
    truncation: TruncationResult
    sup_error: float


def definetti_sequence(
    law: LevyKhintchinePair,
    epsilons: Sequence[float],
    t_grid=None,
) -> list:
    """Compound-Poisson approximants at decreasing epsilon, with CF errors.

    sup_error compares approximant and exact CF values (not exponents) on
    t_grid. Both sides come from _band_log_cfs, which cuts G once at the band
    the truncations share and transforms nu beyond it once for all of them.
    Raises NonFiniteLogCF, naming the t, if t_grid holds a t that is not
    finite.
    """
    eps = list(epsilons)
    if any(not 0 < e < np.inf for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be finite, positive and strictly decreasing")
    if t_grid is None:
        t_grid = symmetric_grid(5.0, 201)
    t_grid = np.asarray(t_grid, dtype=float)
    _require_finite(t_grid, t_grid)
    truncations = [truncate_cp(law, e) for e in eps]
    ref, log_phis = _band_log_cfs(law, truncations, t_grid)
    ref_cf = np.exp(ref)
    return [
        DeFinettiEntry(truncation=tr, sup_error=float(np.max(np.abs(np.exp(log_phi) - ref_cf))))
        for tr, log_phi in zip(truncations, log_phis)
    ]


def _transform(m, t):
    """fourier_transform of the measure m at t, folded as log_cf_lk folds
    (hermitian_fold); 0.0 for m None."""
    return 0.0 if m is None else hermitian_fold(lambda ts: fourier_transform(m, ts), t)


def _band_log_cfs(law: LevyKhintchinePair, truncations, t):
    """(log_cf_lk(law, t), [TruncationResult.log_cf(t) of each truncation]),
    through one band that all of them share.

    Let c be the largest of 1 and the epsilons, and lo and hi the first G
    edges at or past -c and c (-inf and inf where there is none). Outside
    [lo, hi] neither the cut at epsilon nor log_cf_lk's cut at 1 reaches, so
    there each truncation's lambda times its jump law is nu, the
    (1+u^2)/u^2 dG on G's cells outside [lo, hi] (_split), whose transform
    far is taken once. The law's exponent is log_cf_lk of its atoms and its
    cells inside [lo, hi], plus far less nu's mass and centring term. Each
    truncation's lambda psi is far plus lambda times the transform of its
    cells inside [lo, hi] and all of its atoms. An atom law has no edges, so
    its band is the whole law.
    """
    G = law.G
    c = max([1.0, *(tr.epsilon for tr in truncations)])
    i = np.searchsorted(G.edges, c)
    j = np.searchsorted(G.edges, -c, side="right") - 1
    lo = G.edges[j] if j >= 0 else -np.inf
    hi = G.edges[i] if i < G.edges.size else np.inf
    cells, nu, nu_mass, nu_center = _split(G, lo, hi)
    far = _transform(nu, t)
    near = LevyKhintchinePair(law.gamma, CanonicalMeasure(G.atoms, cells.edges, cells.values))
    ref = log_cf_lk(near, t) + (far - nu_mass - 1j * t * nu_center)
    out = []
    for tr in truncations:
        jumps = tr.jump_distribution
        band = restrict(jumps, lo, hi)
        band = CanonicalMeasure(jumps.atoms, band.edges, band.values)
        out.append(tr._exponent(t, far + tr.lambda_eps * _transform(band, t)))
    return ref, out


# Cauchy density grid layout, per side: uniform cells on [0,1]; a geometric
# band to 2048 sized for the within-cell flattening error; geometric cells of
# ratio 1.01 out to about 2**21 and of ratio 1.05 beyond, to the 1e-10
# tail-mass truncation radius. Cells outside |u| <= 1 enter the log CF
# through their exact transform, so only the flattening error sizes them.
_CAUCHY_UNIFORM_CELLS = 1024
_CAUCHY_GEO_END = 2048.0
_CAUCHY_GEO_CELLS = 10897
_CAUCHY_OUTER_RATIO = 1.01
_CAUCHY_OUTER_CELLS = 697
_CAUCHY_TAIL_RATIO = 1.05
_CAUCHY_TAIL_CELLS = 165


def _cauchy_measure(c: float) -> CanonicalMeasure:
    e1 = np.linspace(0.0, 1.0, _CAUCHY_UNIFORM_CELLS + 1)
    e2 = np.geomspace(1.0, _CAUCHY_GEO_END, _CAUCHY_GEO_CELLS + 1)
    e3 = _CAUCHY_GEO_END * _CAUCHY_OUTER_RATIO ** np.arange(_CAUCHY_OUTER_CELLS + 1)
    e4 = e3[-1] * _CAUCHY_TAIL_RATIO ** np.arange(_CAUCHY_TAIL_CELLS + 1)
    right = np.concatenate([e1, e2[1:], e3[1:], e4[1:]])
    edges = np.concatenate([-right[::-1], right[1:]])
    # exact cell masses of the density c/pi / (1+u^2)
    cdf_at_edges = (c / np.pi) * np.arctan(edges)
    masses = np.diff(cdf_at_edges)
    # tail mass beyond the last edge, computed stably as arctan(1/U)
    dropped = float(2.0 * (c / np.pi) * np.arctan(1.0 / right[-1]))
    return CanonicalMeasure.from_cell_masses(edges, masses, tail_dropped=dropped)


def catalog(name: str, *params) -> LevyKhintchinePair:
    """Named laws in the general form.

    gaussian(gamma, sigma2); poisson(rate, jump_size); cauchy(scale);
    compound_poisson(spec). Raises BadParameter for unknown names, wrong
    arity, or out-of-range values.
    """
    if name == "gaussian":
        if len(params) != 2:
            raise BadParameter("gaussian needs (gamma, sigma2)")
        gamma, sigma2 = map(float, params)
        if not np.isfinite(gamma) or not np.isfinite(sigma2) or sigma2 < 0:
            raise BadParameter("gaussian needs finite gamma and sigma2 >= 0")
        atoms = [(0.0, sigma2)] if sigma2 > 0 else []
        return LevyKhintchinePair(gamma=gamma, G=CanonicalMeasure.from_atoms(atoms))
    if name == "poisson":
        if len(params) != 2:
            raise BadParameter("poisson needs (rate, jump_size)")
        lam, a = map(float, params)
        if not lam > 0 or a == 0 or not np.isfinite(lam) or not np.isfinite(a):
            raise BadParameter("poisson needs rate > 0 and jump_size != 0")
        mass = lam * a * a / (1.0 + a * a)
        gamma = lam * a / (1.0 + a * a)
        return LevyKhintchinePair(gamma=gamma, G=CanonicalMeasure.from_atoms([(a, mass)]))
    if name == "cauchy":
        if len(params) != 1:
            raise BadParameter("cauchy needs (scale,)")
        c = float(params[0])
        if not c > 0 or not np.isfinite(c):
            raise BadParameter("cauchy needs scale > 0")
        return LevyKhintchinePair(gamma=0.0, G=_cauchy_measure(c))
    if name == "compound_poisson":
        if len(params) != 1 or not isinstance(params[0], CompoundPoissonSpec):
            raise BadParameter("compound_poisson needs a CompoundPoissonSpec")
        return compound_poisson_to_lk(params[0])
    raise BadParameter(f"unknown catalog law {name!r}")


# -- law file format ------------------------------------------------------------


def law_to_json_dict(law) -> dict:
    if isinstance(law, LevyKhintchinePair):
        return {"form": "lk", "gamma": law.gamma, "measures": {"G": to_json_dict(law.G)}}
    if isinstance(law, KolmogorovPair):
        return {
            "form": "kolmogorov",
            "gamma": law.gammaK,
            "measures": {"K": to_json_dict(law.K)},
        }
    if isinstance(law, LevyTriplet):
        return {
            "form": "levy",
            "gamma": law.gamma,
            "sigma2": law.sigma2,
            "measures": {"M": to_json_dict(law.M), "N": to_json_dict(law.N)},
        }
    raise TypeError(f"not a canonical law: {type(law).__name__}")


def law_from_json_dict(d: dict):
    form = _json_object(d, "a law").get("form")
    measures = _json_object(d.get("measures", {}), "measures")
    if form == "lk":
        return LevyKhintchinePair(
            gamma=_json_number(d["gamma"], "gamma"), G=from_json_dict(measures["G"])
        )
    if form == "kolmogorov":
        return KolmogorovPair(
            gammaK=_json_number(d["gamma"], "gamma"), K=from_json_dict(measures["K"])
        )
    if form == "levy":
        return LevyTriplet(
            gamma=_json_number(d["gamma"], "gamma"),
            sigma2=_json_number(d.get("sigma2", 0.0), "sigma2"),
            M=from_json_dict(measures["M"]),
            N=from_json_dict(measures["N"]),
        )
    raise ValueError(f"unknown law form {form!r}")
