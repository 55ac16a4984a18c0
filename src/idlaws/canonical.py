"""Canonical parameterizations of infinitely divisible laws.

Three equivalent forms are supported: a drift plus one bounded measure G
(the general form), a drift plus one bounded measure K (valid under a finite
second moment), and a drift + Gaussian variance + two jump measures M, N on
the negative and positive half lines. Each form evaluates the logarithm of
the characteristic function; conversions move between forms and preserve the
log-CF pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import (
    CanonicalMeasure,
    _gauss_nodes,
    atom_mass_at,
    combine,
    fourier_transform,
    from_json_dict,
    integrate,
    mass_between,
    restrict,
    reweight,
    scale,
    to_json_dict,
    total_mass,
)


class InfiniteVariance(ValueError):
    """The finite-second-moment form was requested for a law without one."""


class BadParameter(ValueError):
    """A catalog law was requested with out-of-range parameters."""


DEFAULT_VARIANCE_BOUND = 1e12

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
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be non-negative")
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


def _lk_parts(G: CanonicalMeasure):
    """What log_cf_lk needs of G, cached on the (immutable) measure.

    (g0, nodes, weights, nu, nu_mass, nu_center): the u = 0 atom's mass; the
    other atoms and the Gauss nodes of the cells inside |u| <= 1 (cells are
    cut at -1 and 1) with their weights; nu = (1+u^2)/u^2 dG on the cells
    outside (None if they carry no mass), its mass and its integral of
    u/(1+u^2).
    """
    cached = getattr(G, "_lk_cache", None)
    if cached is not None:
        return cached
    locs, masses = G._atom_arrays()
    off = locs != 0.0
    g0 = float(np.sum(masses[~off]))
    nodes, weights, nu, nu_mass, nu_center = locs[off], masses[off], None, 0.0, 0.0
    if G.values.size:
        cuts = [c for c in (-1.0, 1.0) if G.edges[0] < c < G.edges[-1]]
        edges = np.union1d(G.edges, cuts)
        values = G.values[np.searchsorted(G.edges, edges[:-1], side="right") - 1]
        inside = (edges[:-1] >= -1.0) & (edges[1:] <= 1.0)
        inner = CanonicalMeasure.from_density(edges, np.where(inside, values, 0.0))
        cell_nodes, cell_weights = _gauss_nodes(inner, 20)  # integrate's order
        nodes = np.concatenate([nodes, cell_nodes])
        weights = np.concatenate([weights, cell_weights])
        outer = np.where(inside, 0.0, values)
        if np.any(outer > 0):
            outer = CanonicalMeasure.from_density(edges, outer)
            nu = reweight(outer, lambda u: (1.0 + u * u) / (u * u))
            nu_mass = total_mass(nu)
            nu_center = integrate(nu, lambda u: u / (1.0 + u * u)).real
    parts = (g0, nodes, weights, nu, nu_mass, nu_center)
    object.__setattr__(G, "_lk_cache", parts)
    return parts


def log_cf_lk(law: LevyKhintchinePair, t):
    """log CF under the general form, at a scalar t or on an array of t.

    The u = 0 atom of G contributes -g0 t^2/2. Other atoms and the Gauss
    nodes of the cells inside |u| <= 1 take the integrand
    (exp(itu) - 1 - itu/(1+u^2)) * (1+u^2)/u^2 in the cancellation-free
    arrangement t^2 * r(tu) * (1+u^2) + itu (r the stable remainder kernel),
    summed in (t x node) blocks. Outside |u| <= 1 the weight is bounded, so
    the cells there enter through the closed-form Fourier transform of
    nu = (1+u^2)/u^2 dG, less nu's mass and centring term.

    Returns a complex for a scalar t, else an array of t's shape, with
    log phi(0) exactly 0. Raises NonFiniteLogCF if any value overflows.
    """
    tt = np.asarray(t, dtype=float)
    ts = tt.ravel()
    g0, nodes, weights, nu, nu_mass, nu_center = _lk_parts(law.G)
    with np.errstate(all="ignore"):
        out = 1j * law.gamma * ts - 0.5 * g0 * ts * ts
        if nodes.size:
            width = min(nodes.size, _KERNEL_BLOCK)
            rows = max(1, _KERNEL_BLOCK // width)
            for j in range(0, nodes.size, width):
                u, w = nodes[j : j + width], weights[j : j + width]
                for i in range(0, ts.size, rows):
                    tb = ts[i : i + rows, None]
                    tu = tb * u
                    f = tb * tb * exp_remainder2(tu) * (1.0 + u * u) + 1j * tu
                    out[i : i + rows] += (f * w).sum(axis=1)
        if nu is not None:
            out += fourier_transform(nu, ts) - nu_mass - 1j * ts * nu_center
    out[ts == 0.0] = 0.0
    if not np.all(np.isfinite(out)):
        bad = float(ts[np.argmin(np.isfinite(out))])
        raise NonFiniteLogCF(f"log CF is not finite at t={bad:.6g}")
    return complex(out[0]) if tt.ndim == 0 else out.reshape(tt.shape)


def log_cf_kolmogorov(law: KolmogorovPair, t):
    """log CF under the finite-variance form, through the general form."""
    return log_cf_lk(kolmogorov_to_lk(law), t)


def log_cf_levy(law: LevyTriplet, t):
    """log CF under the drift + variance + two-jump-measures form."""
    return log_cf_lk(levy_to_lk(law), t)


def log_cf(law, t):
    """Evaluate the log CF of a law in whichever canonical form it carries."""
    return log_cf_lk(law_to_lk(law), t)


# public name kept for existing callers; log_cf_lk takes t arrays itself
log_cf_lk_profile = log_cf_lk


# -- conversions ---------------------------------------------------------------


def _second_moment_guard(G: CanonicalMeasure, K: CanonicalMeasure, bound: float):
    """Reject conversions whose reweighted mass is unbounded or non-convergent.

    A truncated grid (tail_dropped > 0) whose outermost decade still carries
    more than 1% of the reweighted mass has a second moment that did not
    converge within the span; growing the grid would grow the mass without
    limit.
    """
    tm = total_mass(K)
    if tm > bound:
        raise InfiniteVariance(
            f"second-moment mass {tm:.3e} exceeds the configured bound {bound:.1e}"
        )
    if G.tail_dropped > 0 and K.values.size:
        span = max(abs(float(K.edges[0])), abs(float(K.edges[-1])))
        outer = tm - mass_between(K, -span / 10.0, span / 10.0)
        if outer > 0.01 * tm:
            raise InfiniteVariance(
                "second-moment mass has not converged within the truncated grid "
                f"(outermost decade carries {outer / tm:.0%} of {tm:.3e})"
            )


def lk_to_kolmogorov(
    law: LevyKhintchinePair, mass_bound: float = DEFAULT_VARIANCE_BOUND
) -> KolmogorovPair:
    """Reweight G by 1 + u^2; requires a finite second moment."""
    K = reweight(law.G, lambda u: 1.0 + u * u)
    _second_moment_guard(law.G, K, mass_bound)
    gammaK = law.gamma + integrate(law.G, lambda u: u).real
    return KolmogorovPair(gammaK=gammaK, K=K)


def kolmogorov_to_lk(law: KolmogorovPair) -> LevyKhintchinePair:
    """Inverse reweighting by 1/(1 + u^2); always applicable."""
    G = reweight(law.K, lambda u: 1.0 / (1.0 + u * u))
    gamma = law.gammaK - integrate(G, lambda u: u).real
    return LevyKhintchinePair(gamma=gamma, G=G)


def lk_to_levy(law: LevyKhintchinePair) -> LevyTriplet:
    """Split G into the u=0 atom (variance) and reweighted half-line measures."""
    sigma2 = atom_mass_at(law.G, 0.0)
    weight = lambda u: (1.0 + u * u) / (u * u)
    M = reweight(restrict(law.G, hi=0.0, include_hi=False), weight)
    N = reweight(restrict(law.G, lo=0.0, include_lo=False), weight)
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


def cf_compound_poisson(spec: CompoundPoissonSpec, t: float) -> complex:
    """CF exp(rate * (psi(t) - 1)) with psi the jump distribution's CF."""
    psi = fourier_transform(spec.jump, float(t))
    return complex(np.exp(spec.rate * (psi - 1.0)))


def compound_poisson_to_lk(spec: CompoundPoissonSpec) -> LevyKhintchinePair:
    """The general-form parameters of a compound Poisson law (exact for atoms)."""
    G = scale(
        reweight(spec.jump, lambda u: (u * u) / (1.0 + u * u), atom_weights={0.0: 0.0}),
        spec.rate,
    )
    gamma = spec.rate * integrate(spec.jump, lambda u: u / (1.0 + u * u)).real
    return LevyKhintchinePair(gamma=gamma, G=G)


# Cauchy density grid layout, per side: uniform cells on [0,1]; a geometric
# band to 2048 sized for the within-cell flattening error; a band of width-48
# cells out to 2**21 so order-20 quadrature still resolves exp(itu) at t ~ 1;
# then a coarse geometric tail out to the 1e-10 tail-mass truncation radius.
_CAUCHY_UNIFORM_CELLS = 1024
_CAUCHY_GEO_END = 2048.0
_CAUCHY_GEO_CELLS = 10897
_CAUCHY_RESOLVED_END = float(2**21)
_CAUCHY_RESOLVED_WIDTH = 48.0
_CAUCHY_TAIL_RATIO = 1.05
_CAUCHY_TAIL_CELLS = 165


def _cauchy_measure(c: float) -> CanonicalMeasure:
    e1 = np.linspace(0.0, 1.0, _CAUCHY_UNIFORM_CELLS + 1)
    e2 = np.geomspace(1.0, _CAUCHY_GEO_END, _CAUCHY_GEO_CELLS + 1)
    n3 = int(round((_CAUCHY_RESOLVED_END - _CAUCHY_GEO_END) / _CAUCHY_RESOLVED_WIDTH))
    e3 = _CAUCHY_GEO_END + _CAUCHY_RESOLVED_WIDTH * np.arange(n3 + 1)
    e4 = _CAUCHY_RESOLVED_END * _CAUCHY_TAIL_RATIO ** np.arange(_CAUCHY_TAIL_CELLS + 1)
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
    form = d.get("form")
    measures = d.get("measures", {})
    if form == "lk":
        return LevyKhintchinePair(
            gamma=float(d["gamma"]), G=from_json_dict(measures["G"])
        )
    if form == "kolmogorov":
        return KolmogorovPair(
            gammaK=float(d["gamma"]), K=from_json_dict(measures["K"])
        )
    if form == "levy":
        return LevyTriplet(
            gamma=float(d["gamma"]),
            sigma2=float(d.get("sigma2", 0.0)),
            M=from_json_dict(measures["M"]),
            N=from_json_dict(measures["N"]),
        )
    raise ValueError(f"unknown law form {form!r}")
