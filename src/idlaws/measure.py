"""Bounded non-decreasing weights on the real line: atoms plus a gridded density.

The CanonicalMeasure type represents a finite non-negative measure as a list of
point masses together with a piecewise-constant density on a finite grid. All
operations are pure functions over immutable values, so measures can be shared
freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

ATOM_LOCATION_TOL = 1e-12
# steps of fourier_transform's phase recurrence between direct exponentials
_PHASE_ANCHOR_EVERY = 64


class MissingAtomValue(ValueError):
    """An integrand is singular at an atom location."""


class InfiniteWeight(ValueError):
    """A reweighting function is unbounded on a cell (or atom) carrying mass."""


def _even_step(x: np.ndarray) -> float | None:
    """The step of an evenly spaced x (0.0 for fewer than two points), else None."""
    if x.size < 2:
        return 0.0
    step = (x[-1] - x[0]) / (x.size - 1)
    drift = np.max(np.abs(x - (x[0] + step * np.arange(x.size))))
    return float(step) if drift <= 1e-12 * np.max(np.abs(x)) else None


def _as_readonly(a):
    arr = np.asarray(a, dtype=float).copy()
    arr.setflags(write=False)
    return arr


def _legval(x, c):
    """The Legendre series with coefficients c (two or more) at the array x, by
    numpy.polynomial.legendre.legval's Clenshaw recursion, op for op."""
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1] (order >= 2), computed once per
    order by numpy.polynomial.legendre.leggauss's steps op for op, so the bits
    agree, without importing numpy.polynomial: the eigenvalues of the symmetric
    companion matrix, one Newton step, the weights, the symmetrisation."""
    scl = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    companion = np.zeros((order, order))
    i = np.arange(order - 1)
    companion[i, i + 1] = companion[i + 1, i] = np.arange(1, order) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(companion)
    c = [0.0] * order + [1.0]  # P_order
    dc = [0.0] * order  # its derivative: 2k + 1 at k = order - 1, order - 3, ...
    dc[order - 1 :: -2] = range(2 * order - 1, 0, -4)
    df = _legval(x, dc)
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return _as_readonly(x), _as_readonly(w)


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
        if edges.ndim != 1 or values.ndim != 1 or edges.size != values.size + bool(values.size):
            raise ValueError("edges must be 1-d, one entry longer than values (or both empty)")
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


def _atoms_between(m: CanonicalMeasure, lo, hi, include_lo, include_hi):
    """Locations and masses of the atoms inside the interval from lo to hi."""
    if np.isnan(lo) or np.isnan(hi):
        raise ValueError("interval bounds must not be NaN")
    locs, masses = m._atom_arrays()
    left = locs >= lo if include_lo else locs > lo
    right = locs <= hi if include_hi else locs < hi
    return locs[left & right], masses[left & right]


def mass_between(m: CanonicalMeasure, lo, hi, include_lo=True, include_hi=True) -> float:
    """Mass of the interval from lo to hi with the given endpoint conventions."""
    _, masses = _atoms_between(m, lo, hi, include_lo, include_hi)
    if hi < lo:
        return 0.0
    # summed in atom order, as a running total
    mass = float(np.cumsum(masses)[-1]) if masses.size else 0.0
    if m.values.size:
        cum = m._cum_at_edges()
        hi_c = float(np.interp(hi, m.edges, cum, left=0.0, right=cum[-1]))
        lo_c = float(np.interp(lo, m.edges, cum, left=0.0, right=cum[-1]))
        mass += hi_c - lo_c
    return mass


def atom_mass_at(m: CanonicalMeasure, loc) -> float:
    """Mass of the atom within ATOM_LOCATION_TOL of loc (0.0 if there is none)."""
    for aloc, amass in m.atoms:
        if abs(aloc - loc) <= ATOM_LOCATION_TOL:
            return amass
    return 0.0


def _eval_on(f, x):
    """f called once on the array x, broadcast to x's shape; a real f stays
    real (float), a complex one complex."""
    v = np.asarray(f(x))
    return np.broadcast_to(v if np.iscomplexobj(v) else v.astype(float), x.shape)


def _real_weight(w, x):
    """The weight w on the array x, as floats; raises for a complex value."""
    with np.errstate(all="ignore"):
        v = _eval_on(w, x)
    if np.iscomplexobj(v):
        if np.any(v.imag != 0):
            raise ValueError("weight must be real-valued")
        v = v.real
    return v


def _gauss_nodes(m: CanonicalMeasure, order):
    """Gauss-Legendre nodes and weights against the density, zero cells skipped."""
    keep = m.values > 0
    if not np.any(keep):
        return np.empty(0), np.empty(0)
    lefts = m.edges[:-1][keep]
    rights = m.edges[1:][keep]
    vals = m.values[keep]
    x, w = _legendre(order)
    centers = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    nodes = centers[:, None] + half[:, None] * x[None, :]
    weights = (half * vals)[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def integrate(m: CanonicalMeasure, f) -> complex:
    """Integrate a test function against the measure.

    f is called on arrays of locations. Atoms contribute mass * f(location),
    summed in atom order. The density contributes a per-cell order-20
    Gauss-Legendre quadrature. Deterministic for a fixed configuration.

    Raises
    ------
    MissingAtomValue
        If f is singular (returns a non-finite value) at an atom location.
    """
    locs, masses = m._atom_arrays()
    with np.errstate(all="ignore"):
        fv = _eval_on(f, locs)
    finite = np.isfinite(fv)
    if not np.all(finite):
        raise MissingAtomValue(f"integrand is singular at atom u={float(locs[~finite][0])}")
    # a running total from 0 in atom order, as a loop over the atoms adds them
    out = complex(np.cumsum(np.append(0j, masses * fv))[-1])
    nodes, weights = _gauss_nodes(m, 20)
    if nodes.size:
        with np.errstate(all="ignore"):
            fv = _eval_on(f, nodes)
        if not np.all(np.isfinite(fv)):
            raise ValueError("integrand is not finite on a density cell")
        out += complex(np.sum(weights * fv))
    return out


def reweight(m: CanonicalMeasure, w) -> CanonicalMeasure:
    """Multiply the measure by a non-negative weight function.

    w is called on arrays of locations. Atom masses are scaled by
    w(location); each density cell's mass is scaled by the quadrature
    average of w over the cell, so polynomial weights are handled exactly.
    Raises InfiniteWeight when the weight is unbounded on a cell carrying
    mass (checked at cell edges, midpoint and nodes) or non-finite at an atom.
    """
    locs, masses = m._atom_arrays()
    wv = _real_weight(w, locs)
    bad = ~np.isfinite(wv)
    if np.any(bad):
        raise InfiniteWeight(f"weight is unbounded at atom u={float(locs[bad][0])}")
    if np.any(wv < 0):
        raise ValueError(f"weight is negative at atom u={float(locs[wv < 0][0])}")
    new_values = np.zeros_like(m.values)
    keep = m.values > 0
    lefts, rights = m.edges[:-1][keep], m.edges[1:][keep]
    if lefts.size:
        # per cell with mass: its edges and midpoint, then its order-20 Gauss nodes
        nodes, _ = _gauss_nodes(m, 20)
        points = np.column_stack([lefts, 0.5 * (lefts + rights), rights, nodes.reshape(-1, 20)])
        wn = _real_weight(w, points)
        if not np.all(np.isfinite(wn)):
            bad = np.where(~np.all(np.isfinite(wn), axis=1))[0][0]
            raise InfiniteWeight(f"weight is unbounded on the cell [{lefts[bad]}, {rights[bad]}]")
        if np.any(wn < 0):
            raise ValueError("weight must be non-negative on density cells")
        # per-cell average of w by order-20 Gauss-Legendre, exact for polynomial
        # weights; summed node by node, one fixed order whatever the array layout
        _, gw = _legendre(20)
        cell_avg = np.zeros(lefts.size)
        for k in range(gw.size):
            cell_avg += wn[:, 3 + k] * gw[k]
        new_values[keep] = m.values[keep] * (cell_avg / 2.0)
        if not np.all(np.isfinite(new_values)):
            raise InfiniteWeight("reweighted density mass diverges")
    return CanonicalMeasure(
        atoms=tuple(zip(locs, masses * wv)),
        edges=m.edges,
        values=new_values,
        tail_dropped=m.tail_dropped,
    )


def restrict(
    m: CanonicalMeasure, lo=-np.inf, hi=np.inf, include_lo=True, include_hi=True
) -> CanonicalMeasure:
    """The measure restricted to a single interval (cells split at the cut)."""
    locs, masses = _atoms_between(m, lo, hi, include_lo, include_hi)
    a, b = np.maximum(m.edges[:-1], lo), np.minimum(m.edges[1:], hi)
    keep = b > a
    return CanonicalMeasure(
        atoms=tuple(zip(locs, masses)),
        edges=np.concatenate([a[keep][:1], b[keep]]),
        values=m.values[keep],
        tail_dropped=m.tail_dropped,
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
    # an atom location carried by both measures fails the constructor's check
    return CanonicalMeasure(
        atoms=a.atoms + b.atoms,
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
    keep = m.values > 0
    left, right = m.edges[:-1][keep], m.edges[1:][keep]
    mass = m.values[keep] * (right - left)
    locs, amass = m._atom_arrays()
    # an atom strictly inside a cell splits it (cell -1, left of every cell,
    # reads the -inf sentinel); the r-th atom of a cell splits what the earlier
    # ones left, at that remainder's own density, as one split per atom would
    cell = np.searchsorted(left, locs) - 1
    inner = locs < np.append(right, -np.inf)[cell]
    cell, cut = cell[inner], locs[inner]
    rank = np.arange(cell.size) - np.searchsorted(cell, cell)
    pieces = [(locs, locs, amass)]
    for r in range(rank.max(initial=-1) + 1):
        c, u = cell[rank == r], cut[rank == r]
        v = mass[c] / (right[c] - left[c])
        pieces.append((left[c], u, v * (u - left[c])))
        left[c], mass[c] = u, v * (right[c] - u)
    pl, pr, pm = (np.concatenate(x) for x in zip(*pieces, (left, right, mass)))
    order = np.lexsort((pr, pl))
    pieces = (pl[order], pr[order], np.cumsum(pm[order]))
    object.__setattr__(m, "_quantile_cache", pieces)
    return pieces


def quantile(m: CanonicalMeasure, q):
    """Inverse of the cumulative function: smallest u with G(u) >= q * total."""
    qq = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.all((qq >= 0) & (qq <= 1)):  # NaN levels fail this too
        raise ValueError("quantile levels must lie in [0, 1]")
    pl, pr, cum = _quantile_pieces(m)
    if not cum.size:
        raise ValueError("cannot take quantiles of the empty measure")
    total = cum[-1]
    target = qq * total
    idx = np.minimum(np.searchsorted(cum, target, side="left"), cum.size - 1)
    cum_left = np.where(idx > 0, cum[idx - 1], 0.0)
    size = cum[idx] - cum_left
    frac = np.where(size > 0, (target - cum_left) / np.where(size > 0, size, 1.0), 0.0)
    width = pr[idx] - pl[idx]
    out = pl[idx] + np.clip(frac, 0.0, 1.0) * width
    # rounded to nearest, a u inside a cell can land a float short of its
    # level (q = 5e-92 on a cell from -1 gives -1.0, where the mass below is
    # 0); such a u moves up one float, and every other u keeps its bits
    with np.errstate(divide="ignore", invalid="ignore"):
        below = cum_left + (out - pl[idx]) / width * size
    short = (width > 0) & (below < target * (1.0 - 1e-12))
    out[short] = np.nextafter(out[short], np.inf)
    return float(out[0]) if np.isscalar(q) or np.ndim(q) == 0 else out


def symmetric_grid(t_max: float, points: int) -> np.ndarray:
    """points t on [-t_max, t_max], evenly spaced and mirrored exactly.

    The t >= 0 half is an np.linspace and the other half its negation, so
    t == -t[::-1] bit for bit; an odd grid has 0.0 in the middle, an even
    one the half linspace(t_max / (points - 1), t_max, points / 2).
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if points < 1:
        raise ValueError("points must be at least 1")
    if points % 2:
        half = np.linspace(0.0, t_max, points // 2 + 1)
        return np.concatenate([-half[:0:-1], half])
    half = np.linspace(t_max / (points - 1), t_max, points // 2)
    return np.concatenate([-half[::-1], half])


def hermitian_fold(f, t):
    """f(t) for an f with f(-t) = conj f(t), evaluated on half of a mirrored t.

    When the 1-d t is an exact mirror (t == -t[::-1] bit for bit), f is called
    once on its t >= 0 half, t[n // 2:], and the negative half is filled with
    the conjugates of the mirrored values. Any other t goes to f unchanged.
    """
    tt = np.asarray(t, dtype=float)
    if tt.ndim != 1 or not np.array_equal(tt, -tt[::-1]):
        return f(t)
    n = tt.size
    half = np.asarray(f(tt[n // 2 :]))
    return np.concatenate([np.conj(half[::-1][: n // 2]), half])


def fourier_transform(m: CanonicalMeasure, ts):
    """Integral of exp(i t u) against the measure, at t of any shape.

    Atoms contribute exactly; each density cell contributes its closed-form
    transform mass * e^{itc} * sin(t h)/(t h) (c the cell centre, h its
    half-width, the ratio 1 where t h = 0), exact because cell densities are
    constant. Atoms and cells are keyed by (|c|, h), an atom's h being 0, and
    the terms at c and -c of a key merge: the even weight w+ + w- takes
    cos(t|c|) and the odd weight w+ - w- takes i sin(t|c|). One _phase_run
    over the keys' |c| and the cells' h gives e^{it|c|} and, from the same
    phases, t sinc(t h) = Im(e^{ith})/h (t itself where h = 0), so one
    4-row product per t gives t times the transform (the mass at t = 0).
    Uniform t grids of 16 or more points advance the phases by a per-step
    recurrence, re-anchored on a direct exponential every
    ``_PHASE_ANCHOR_EVERY`` steps, with each point's rounding off the exact
    progression corrected to first order; far-out cells thus keep their
    phase on long grids. A measure with no mass transforms to zeros at once.
    """
    shape = np.shape(ts)
    tt = np.asarray(ts, dtype=float).ravel()
    locs, masses = m._atom_arrays()
    widths = np.diff(m.edges)
    keep = m.values * widths > 0
    if not (locs.size or keep.any()):
        return 0j if shape == () else np.zeros(shape, dtype=complex)
    out = _term_transform(  # the terms go in unnamed, so the kernel's sorted copies replace them
        np.concatenate([locs, (0.5 * (m.edges[:-1] + m.edges[1:]))[keep]]),
        np.concatenate([np.zeros(locs.size), (0.5 * widths)[keep]]),
        np.concatenate([masses, (m.values * widths)[keep]]),
        tt,
    )
    return complex(out[0]) if shape == () else out.reshape(shape)


def _term_transform(us, hw, ws, tt):
    """fourier_transform's sum of ws e^{it us} sinc(t hw) over 1-d terms, at each t of 1-d tt."""
    # keys sorted by (h, |c|), the atoms' h = 0 first; the terms of a key (one, or
    # a mirrored pair) sum into its even and odd weights
    order = np.lexsort((np.abs(us), hw))
    au, hw, ws, us = np.abs(us)[order], hw[order], ws[order], us[order]
    new = np.ones(au.size, dtype=bool)
    new[1:] = (au[1:] != au[:-1]) | (hw[1:] != hw[:-1])
    starts = np.flatnonzero(new)
    au, hw = au[starts], hw[starts]
    even = np.add.reduceat(ws, starts)
    odd = np.add.reduceat(np.sign(us) * ws, starts)
    n, n0 = au.size, int(np.searchsorted(hw, 0.0, side="right"))
    inv_hw = 1.0 / hw[n0:]
    # rows: the even and odd weights, and both times |c| for the rounding correction
    rows = np.stack([even, odd, even * au, odd * au])
    mass = float(np.sum(even))
    tsinc = np.empty(n)
    wk = np.empty(n, dtype=complex)
    out = np.empty(tt.size, dtype=complex)
    for k, (t, phase, off) in enumerate(_phase_run(tt, np.concatenate([au, hw[n0:]]))):
        if not t:
            out[k] = mass
            continue
        tsinc[:n0] = t
        sines = phase[n:]
        np.multiply(sines.imag, inv_hw, out=tsinc[n0:])
        if off:
            tsinc[n0:] += off * sines.real
        np.multiply(phase[:n], tsinc, out=wk)
        (re, _), (_, im), (_, cim), (cre, _) = rows @ wk.view(float).reshape(-1, 2)
        out[k] = complex((re - off * cim) / t, (im + off * cre) / t)
    return out


def _phase_run(tt, us):
    """(t, phase, off) for each t of the 1-d tt in turn, phase ~ e^{i t us}.

    On a uniform run of 16 or more t the phases advance by a per-step
    recurrence, re-anchored on a direct exponential every
    ``_PHASE_ANCHOR_EVERY`` steps; off is the t's rounding off the exact
    progression from its anchor, and e^{i t us} ~ phase * (1 + i us off) to
    first order. Any other t gets the direct exponential, and off = 0. The
    phase array is overwritten by the next step. Uniform is _even_step's
    test, whose 1e-12 max|t| leaves jitter the correction can absorb.
    """
    dt = _even_step(tt) if tt.size >= 16 else None
    every, dt = (_PHASE_ANCHOR_EVERY, dt) if dt is not None else (1, 0.0)
    step = np.exp(1j * dt * us) if every > 1 else None
    for k, t in enumerate(tt):
        j = k % every
        if j == 0:
            anchor, phase = t, np.exp(1j * t * us)
        else:
            phase *= step
        yield t, phase, (t - anchor) - j * dt


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


# rows _csv_text formats per block, so only one block's Python values are alive
_CSV_BLOCK = 1024


def _mirror(c: np.ndarray, h: int) -> bool | None:
    """False if c[i] == c[-1-i] for i < h bit for bit, True if c[i] == -c[-1-i], else None.

    Only finite float64 columns qualify: repr drops a NaN's sign, and ints have no -0.
    """
    if not h or c.dtype != np.float64 or not np.isfinite(c).all():
        return None
    lower, upper = c[:h][::-1].tobytes(), c[-h:]
    return False if lower == upper.tobytes() else True if lower == (-upper).tobytes() else None


def _csv_text(header: str, *columns) -> str:
    """The header line, then a row of reprs per index of the equal-length 1-d columns.

    When every column mirrors about the middle row (see _mirror), only the rows
    from the middle on are formatted; each row above the middle reuses the strings
    of its mirror row, with the sign flipped in the odd columns.
    """
    n = len(columns[0])
    h = n // 2
    flips = [_mirror(c, h) for c in columns]
    start = 0 if None in flips else h
    lower, upper = [], []
    for i in range(start, n, _CSV_BLOCK):
        cells = [map(repr, c[i : i + _CSV_BLOCK].tolist()) for c in columns]
        if start:
            cells = [list(c) for c in cells]
            skip = max(n - h - i, 0)  # the middle row is its own mirror
            mirrored = [c[skip:][::-1] for c in cells]
            mirrored = [
                [s[1:] if s[0] == "-" else "-" + s for s in c] if odd else c
                for c, odd in zip(mirrored, flips)
            ]
            if mirrored[0]:  # empty when the block holds only the middle row
                lower.append("\n".join(map(",".join, zip(*mirrored))))
        upper.append("\n".join(map(",".join, zip(*cells))))
    return "\n".join([header, *lower[::-1], *upper, ""])


def _json_object(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    return d


def _json_number(x, what: str) -> float:
    """x as a float; only a JSON int or float is accepted, not a bool or a string."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{what} must be a JSON number, got {type(x).__name__}")
    return float(x)


def _json_atoms(atoms, what: str) -> list:
    """A JSON list of [location, mass] pairs of numbers, as float pairs."""
    if not all(isinstance(a, list) and len(a) == 2 for a in atoms):
        raise ValueError(f"{what} must be [location, mass] pairs")
    return [
        (_json_number(u, f"a location in {what}"), _json_number(p, f"a mass in {what}"))
        for u, p in atoms
    ]


def from_json_dict(d: dict) -> CanonicalMeasure:
    grid = _json_object(_json_object(d, "a measure").get("grid", {}), "grid")
    return CanonicalMeasure(
        atoms=_json_atoms(d.get("atoms", []), "atoms"),
        edges=[_json_number(x, "a grid edge") for x in grid.get("edges", [])],
        values=[_json_number(x, "a grid value") for x in grid.get("values", [])],
        tail_dropped=_json_number(d.get("tail_dropped", 0.0), "tail_dropped"),
    )

