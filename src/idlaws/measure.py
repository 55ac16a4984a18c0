"""Bounded non-decreasing weights on the real line: atoms plus a gridded density.

The CanonicalMeasure type represents a finite non-negative measure as a list of
point masses together with a piecewise-constant density on a finite grid. All
operations are pure functions over immutable values, so measures can be shared
freely across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

ATOM_LOCATION_TOL = 1e-12
# steps of fourier_transform's phase recurrence between direct exponentials
_PHASE_ANCHOR_EVERY = 64


class MissingAtomValue(ValueError):
    """An integrand is singular at an atom location and no override was given."""


class InfiniteWeight(ValueError):
    """A reweighting function is unbounded on a cell (or atom) carrying mass."""


def _as_readonly(a, dtype=float):
    arr = np.asarray(a, dtype=dtype).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CanonicalMeasure:
    """A finite measure on the line: point masses plus piecewise-constant density.

    Parameters
    ----------
    atoms : sequence of (location, mass)
        Point masses; masses must be non-negative and locations pairwise
        distinct. Zero-mass atoms are dropped on construction.
    edges : array_like
        Strictly increasing cell edges of the density grid (length n+1 for n
        cells); may be empty.
    values : array_like
        Non-negative density value on each cell (length n). The density is
        zero outside the grid span.
    tail_dropped : float
        Mass discarded beyond the grid span when an infinite-support law was
        truncated to this grid; zero for measures built exactly.

    The induced cumulative function G(u) is non-decreasing, right-continuous
    at atoms, and has G(-inf) = 0.
    """

    atoms: tuple = ()
    edges: np.ndarray = field(default_factory=lambda: np.empty(0))
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    tail_dropped: float = 0.0

    def __post_init__(self):
        atoms = tuple(
            sorted((float(loc), float(mass)) for loc, mass in self.atoms if mass != 0.0)
        )
        edges = _as_readonly(self.edges)
        values = _as_readonly(self.values)
        if edges.size == 1 or edges.size != values.size + (1 if values.size else 0):
            raise ValueError("edges must have one more entry than values (or both empty)")
        for loc, mass in atoms:
            if not np.isfinite(loc) or not np.isfinite(mass):
                raise ValueError("atom locations and masses must be finite")
            if mass < 0:
                raise ValueError(f"atom mass at {loc} is negative")
        locs = np.array([a[0] for a in atoms])
        if locs.size > 1 and np.min(np.diff(locs)) <= 0:
            raise ValueError("atom locations must be pairwise distinct")
        if edges.size and np.min(np.diff(edges)) <= 0:
            raise ValueError("grid edges must be strictly increasing")
        if not np.all(np.isfinite(edges)) or not np.all(np.isfinite(values)):
            raise ValueError("grid edges and values must be finite")
        if values.size and np.min(values) < 0:
            raise ValueError("density cell values must be non-negative")
        if not np.isfinite(self.tail_dropped) or self.tail_dropped < 0:
            raise ValueError("tail_dropped must be finite and non-negative")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tail_dropped", float(self.tail_dropped))

    # -- convenience builders ------------------------------------------------

    @staticmethod
    def from_atoms(atoms) -> "CanonicalMeasure":
        return CanonicalMeasure(atoms=tuple(atoms))

    @staticmethod
    def from_density(edges, values, tail_dropped=0.0) -> "CanonicalMeasure":
        return CanonicalMeasure(edges=edges, values=values, tail_dropped=tail_dropped)

    @staticmethod
    def from_cell_masses(edges, masses, tail_dropped=0.0) -> "CanonicalMeasure":
        """Density grid whose cells carry the given exact masses."""
        edges = np.asarray(edges, dtype=float)
        masses = np.asarray(masses, dtype=float)
        return CanonicalMeasure(
            edges=edges, values=masses / np.diff(edges), tail_dropped=tail_dropped
        )

    @staticmethod
    def empty() -> "CanonicalMeasure":
        return CanonicalMeasure()

    # -- internal views ------------------------------------------------------

    def _atom_arrays(self):
        locs = np.array([a[0] for a in self.atoms])
        masses = np.array([a[1] for a in self.atoms])
        return locs, masses

    def _cell_masses(self):
        if not self.values.size:
            return np.empty(0)
        return self.values * np.diff(self.edges)

    def _cum_at_edges(self):
        # cumulative density mass at each grid edge, starting from 0
        if not self.values.size:
            return np.empty(0)
        return np.concatenate([[0.0], np.cumsum(self._cell_masses())])


def total_mass(m: CanonicalMeasure) -> float:
    """Total mass: sum of atom masses plus the density integral (grid-exact)."""
    mass = float(sum(a[1] for a in m.atoms))
    if m.values.size:
        mass += float(np.sum(m._cell_masses()))
    return mass


def cdf(m: CanonicalMeasure, u):
    """Mass of (-inf, u]; right-continuous at atoms. Accepts scalars or arrays."""
    uu = np.asarray(u, dtype=float)
    out = np.zeros(uu.shape)
    locs, masses = m._atom_arrays()
    if locs.size:
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        out += cum[np.searchsorted(locs, uu, side="right")]
    if m.values.size:
        cum = m._cum_at_edges()
        out += np.interp(uu, m.edges, cum, left=0.0, right=cum[-1])
    return float(out) if np.isscalar(u) or uu.ndim == 0 else out


def mass_between(m: CanonicalMeasure, lo, hi, include_lo=True, include_hi=True) -> float:
    """Mass of the interval from lo to hi with the given endpoint conventions."""
    if hi < lo:
        return 0.0
    mass = 0.0
    for loc, amass in m.atoms:
        left_ok = loc > lo or (include_lo and loc == lo)
        right_ok = loc < hi or (include_hi and loc == hi)
        if left_ok and right_ok:
            mass += amass
    if m.values.size:
        cum = m._cum_at_edges()
        hi_c = float(np.interp(hi, m.edges, cum, left=0.0, right=cum[-1]))
        lo_c = float(np.interp(lo, m.edges, cum, left=0.0, right=cum[-1]))
        mass += hi_c - lo_c
    return mass


def atom_mass_at(m: CanonicalMeasure, loc, tol=ATOM_LOCATION_TOL) -> float:
    """Mass of the atom at the given location (0.0 if there is none)."""
    for aloc, amass in m.atoms:
        if abs(aloc - loc) <= tol:
            return amass
    return 0.0


def _lookup_override(overrides, loc):
    if overrides is None:
        return None
    if loc in overrides:
        return overrides[loc]
    for key, val in overrides.items():
        if abs(key - loc) <= ATOM_LOCATION_TOL:
            return val
    return None


def _eval_on(f, x):
    """f called once on the array x, broadcast to x's shape."""
    return np.broadcast_to(np.asarray(f(x), dtype=complex), x.shape)


def _gauss_nodes(m: CanonicalMeasure, order):
    """Gauss-Legendre nodes and weights against the density, zero cells skipped."""
    keep = m.values > 0
    if not np.any(keep):
        return np.empty(0), np.empty(0)
    lefts = m.edges[:-1][keep]
    rights = m.edges[1:][keep]
    vals = m.values[keep]
    x, w = np.polynomial.legendre.leggauss(order)
    centers = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    nodes = centers[:, None] + half[:, None] * x[None, :]
    weights = (half * vals)[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def integrate(m: CanonicalMeasure, f, atom_values=None, order=20) -> complex:
    """Integrate a test function against the measure.

    Atoms contribute mass * f(location), except that locations listed in
    ``atom_values`` use the supplied value instead (for integrands with a
    removable singularity there). The density contributes a per-cell
    Gauss-Legendre quadrature of the given order. Deterministic for a fixed
    configuration.

    Raises
    ------
    MissingAtomValue
        If f is singular (raises, or returns a non-finite value) at an atom
        location with no override.
    """
    out = 0j
    for loc, mass in m.atoms:
        override = _lookup_override(atom_values, loc)
        if override is not None:
            out += mass * complex(override)
            continue
        try:
            with np.errstate(all="ignore"):
                fv = complex(f(loc))
        except ZeroDivisionError:
            raise MissingAtomValue(f"integrand is singular at atom u={loc}") from None
        if not np.isfinite(fv.real) or not np.isfinite(fv.imag):
            raise MissingAtomValue(f"integrand is singular at atom u={loc}")
        out += mass * fv
    nodes, weights = _gauss_nodes(m, order)
    if nodes.size:
        with np.errstate(all="ignore"):
            fv = _eval_on(f, nodes)
        if not np.all(np.isfinite(fv)):
            raise ValueError("integrand is not finite on a density cell")
        out += complex(np.sum(weights * fv))
    return out


def reweight(m: CanonicalMeasure, w, atom_weights=None) -> CanonicalMeasure:
    """Multiply the measure by a non-negative weight function.

    Atom masses are scaled by w(location) (or by the override in
    ``atom_weights``); each density cell's mass is scaled by the quadrature
    average of w over the cell, so polynomial weights are handled exactly.
    Raises InfiniteWeight when the weight is unbounded on a cell carrying
    mass (checked at cell edges and midpoint) or non-finite at an atom with
    no override.
    """
    new_atoms = []
    for loc, mass in m.atoms:
        override = _lookup_override(atom_weights, loc)
        if override is not None:
            wv = float(override)
        else:
            try:
                with np.errstate(all="ignore"):
                    wv = float(w(loc))
            except ZeroDivisionError:
                raise InfiniteWeight(f"weight is unbounded at atom u={loc}") from None
            if not np.isfinite(wv):
                raise InfiniteWeight(f"weight is unbounded at atom u={loc}")
        if wv < 0:
            raise ValueError(f"weight is negative at atom u={loc}")
        new_atoms.append((loc, mass * wv))
    new_values = np.array(m.values)
    if m.values.size:
        keep = m.values > 0
        probes = np.stack(
            [m.edges[:-1], 0.5 * (m.edges[:-1] + m.edges[1:]), m.edges[1:]]
        )
        with np.errstate(all="ignore"):
            wp = _eval_on(w, probes)
        if np.any(np.abs(wp.imag) > 0):
            raise ValueError("weight must be real-valued")
        wp = wp.real
        if not np.all(np.isfinite(wp[:, keep])):
            bad = np.where(keep & ~np.all(np.isfinite(wp), axis=0))[0][0]
            raise InfiniteWeight(
                f"weight is unbounded on the cell [{m.edges[bad]}, {m.edges[bad + 1]}]"
            )
        if np.any(wp[:, keep] < 0):
            raise ValueError("weight must be non-negative on density cells")
        # per-cell average of w by order-20 Gauss-Legendre, exact for
        # polynomial weights and within the quadrature budget otherwise
        x, gw = np.polynomial.legendre.leggauss(20)
        lefts, rights = m.edges[:-1][keep], m.edges[1:][keep]
        centers = 0.5 * (lefts + rights)
        half = 0.5 * (rights - lefts)
        nodes = centers[:, None] + half[:, None] * x[None, :]
        with np.errstate(all="ignore"):
            wn = _eval_on(w, nodes)
        if np.any(np.abs(wn.imag) > 0):
            raise ValueError("weight must be real-valued")
        wn = wn.real
        if not np.all(np.isfinite(wn)):
            bad = np.where(~np.all(np.isfinite(wn), axis=1))[0][0]
            raise InfiniteWeight(
                f"weight is unbounded on the cell [{lefts[bad]}, {rights[bad]}]"
            )
        if np.any(wn < 0):
            raise ValueError("weight must be non-negative on density cells")
        cell_avg = wn @ gw / 2.0
        new_values = np.zeros_like(m.values)
        new_values[keep] = m.values[keep] * cell_avg
        if not np.all(np.isfinite(new_values)):
            raise InfiniteWeight("reweighted density mass diverges")
    return CanonicalMeasure(
        atoms=tuple(new_atoms),
        edges=m.edges,
        values=new_values,
        tail_dropped=m.tail_dropped,
    )


def restrict(
    m: CanonicalMeasure, lo=-np.inf, hi=np.inf, include_lo=True, include_hi=True
) -> CanonicalMeasure:
    """The measure restricted to a single interval (cells split at the cut)."""
    new_atoms = []
    for loc, mass in m.atoms:
        left_ok = loc > lo or (include_lo and loc == lo)
        right_ok = loc < hi or (include_hi and loc == hi)
        if left_ok and right_ok:
            new_atoms.append((loc, mass))
    pieces = []
    for a, b, v in zip(m.edges[:-1], m.edges[1:], m.values):
        na, nb = max(float(a), lo), min(float(b), hi)
        if nb > na:
            pieces.append((na, nb, float(v)))
    if pieces:
        edges = np.array([pieces[0][0]] + [p[1] for p in pieces])
        values = np.array([p[2] for p in pieces])
    else:
        edges = np.empty(0)
        values = np.empty(0)
    return CanonicalMeasure(
        atoms=tuple(new_atoms), edges=edges, values=values, tail_dropped=m.tail_dropped
    )


def combine(a: CanonicalMeasure, b: CanonicalMeasure) -> CanonicalMeasure:
    """Union of two measures with disjoint grids; any gap becomes a zero cell."""
    first, second = (a, b)
    if second.edges.size and first.edges.size and second.edges[0] < first.edges[0]:
        first, second = second, first
    if not first.edges.size:
        edges, values = second.edges, second.values
    elif not second.edges.size:
        edges, values = first.edges, first.values
    else:
        if second.edges[0] < first.edges[-1]:
            raise ValueError("density grids overlap")
        if second.edges[0] == first.edges[-1]:
            edges = np.concatenate([first.edges, second.edges[1:]])
            values = np.concatenate([first.values, second.values])
        else:
            edges = np.concatenate([first.edges, second.edges])
            values = np.concatenate([first.values, [0.0], second.values])
    atoms = dict(a.atoms)
    for loc, mass in b.atoms:
        if loc in atoms:
            raise ValueError(f"both measures carry an atom at u={loc}")
        atoms[loc] = mass
    return CanonicalMeasure(
        atoms=tuple(atoms.items()),
        edges=edges,
        values=values,
        tail_dropped=a.tail_dropped + b.tail_dropped,
    )


def scale(m: CanonicalMeasure, c: float) -> CanonicalMeasure:
    """Multiply all masses by a non-negative constant."""
    if c < 0:
        raise ValueError("scale factor must be non-negative")
    return CanonicalMeasure(
        atoms=tuple((loc, mass * c) for loc, mass in m.atoms),
        edges=m.edges,
        values=m.values * c,
        tail_dropped=m.tail_dropped * c,
    )


def _quantile_pieces(m: CanonicalMeasure):
    """Pieces of the cumulative function: (pos_left, pos_right, cum_right) arrays.

    Atom pieces have pos_left == pos_right; cell pieces interpolate linearly.
    Cells are split at interior atom locations so pieces are ordered by position.
    Cached on the (immutable) measure: large grids are walked only once.
    """
    cached = getattr(m, "_quantile_cache", None)
    if cached is not None:
        return cached
    events = []
    for a, b, v in zip(m.edges[:-1], m.edges[1:], m.values):
        if v > 0:
            events.append((float(a), float(b), v * (b - a)))
    for loc, mass in m.atoms:
        split = []
        for a, b, cmass in events:
            if a < loc < b:
                v = cmass / (b - a)
                split.append((a, loc, v * (loc - a)))
                split.append((loc, b, v * (b - loc)))
            else:
                split.append((a, b, cmass))
        events = split
        events.append((loc, loc, mass))
    events.sort(key=lambda p: (p[0], p[1]))
    pl = np.array([e[0] for e in events])
    pr = np.array([e[1] for e in events])
    cum = np.cumsum([e[2] for e in events]) if events else np.empty(0)
    object.__setattr__(m, "_quantile_cache", (pl, pr, cum))
    return pl, pr, cum


def quantile(m: CanonicalMeasure, q):
    """Inverse of the cumulative function: smallest u with G(u) >= q * total."""
    qq = np.atleast_1d(np.asarray(q, dtype=float))
    if np.any((qq < 0) | (qq > 1)):
        raise ValueError("quantile levels must lie in [0, 1]")
    pl, pr, cum = _quantile_pieces(m)
    if not cum.size:
        raise ValueError("cannot take quantiles of the empty measure")
    total = cum[-1]
    target = qq * total
    idx = np.minimum(np.searchsorted(cum, target, side="left"), cum.size - 1)
    cum_left = np.concatenate([[0.0], cum])[idx]
    size = cum[idx] - cum_left
    frac = np.where(size > 0, (target - cum_left) / np.where(size > 0, size, 1.0), 0.0)
    out = pl[idx] + np.clip(frac, 0.0, 1.0) * (pr[idx] - pl[idx])
    return float(out[0]) if np.isscalar(q) or np.ndim(q) == 0 else out


def fourier_transform(m: CanonicalMeasure, ts):
    """Integral of exp(i t u) against the measure, per t.

    Atoms contribute exactly; each density cell contributes its closed-form
    transform mass * e^{it c} * sin(t w/2)/(t w/2) (c the cell centre, w its
    width), exact because cell densities are constant. Uniform t grids of 16
    or more points advance the e^{itc} phases by a per-step recurrence,
    re-anchored on a direct exponential every ``_PHASE_ANCHOR_EVERY`` steps,
    with each point's rounding off the exact progression corrected to first
    order; far-out cells thus keep their phase on long grids.
    """
    scalar = np.isscalar(ts) or np.ndim(ts) == 0
    tt = np.atleast_1d(np.asarray(ts, dtype=float))
    locs, masses = m._atom_arrays()
    widths = np.diff(m.edges)
    keep = m.values * widths > 0
    centers = (0.5 * (m.edges[:-1] + m.edges[1:]))[keep]
    halves = (0.5 * widths)[keep]
    cell_masses = (m.values * widths)[keep]
    us = np.concatenate([locs, centers])
    hw = np.concatenate([np.zeros(locs.size), halves])
    ws = np.concatenate([masses, cell_masses])
    out = np.empty(tt.shape, dtype=complex)
    steps = np.diff(tt)
    uniform = tt.size >= 16 and np.allclose(steps, steps[0], rtol=1e-12)
    every = _PHASE_ANCHOR_EVERY if uniform else 1
    dt = (tt[-1] - tt[0]) / (tt.size - 1) if uniform else 0.0
    step = np.exp(1j * dt * us)
    for k, t in enumerate(tt):
        j = k % every
        if j == 0:
            anchor, phase = t, np.exp(1j * t * us)
        else:
            phase = phase * step
        # np.sinc(x) = sin(pi x)/(pi x), so feed it t*hw/pi
        wk = ws * np.sinc(t * hw / np.pi)
        out[k] = np.dot(wk, phase)
        # e^{iu(t - t')} ~ 1 + iu(t - t') for the grid's rounding t - t'
        off = (t - anchor) - j * dt
        if off:
            out[k] += 1j * off * np.dot(wk * us, phase)
    return complex(out[0]) if scalar else out


# -- serialization -----------------------------------------------------------


def to_json_dict(m: CanonicalMeasure) -> dict:
    """JSON-ready dict: {"atoms": [[loc, mass], ...], "grid": {edges, values}}."""
    out = {
        "atoms": [[loc, mass] for loc, mass in m.atoms],
        "grid": {"edges": list(map(float, m.edges)), "values": list(map(float, m.values))},
    }
    if m.tail_dropped > 0:
        out["tail_dropped"] = m.tail_dropped
    return out


def from_json_dict(d: dict) -> CanonicalMeasure:
    return CanonicalMeasure(
        atoms=tuple((loc, mass) for loc, mass in d.get("atoms", [])),
        edges=np.asarray(d.get("grid", {}).get("edges", []), dtype=float),
        values=np.asarray(d.get("grid", {}).get("values", []), dtype=float),
        tail_dropped=d.get("tail_dropped", 0.0),
    )


def dumps(m: CanonicalMeasure) -> str:
    return json.dumps(to_json_dict(m))


def loads(s: str) -> CanonicalMeasure:
    return from_json_dict(json.loads(s))
