"""Sampling stationary-independent-increment processes by truncation.

A process is specified by a general canonical pair plus a truncation level
epsilon. Increments are drawn from the drift + Gaussian + compound-Poisson
decomposition of the truncated law; jumps below epsilon are discarded, so
the sampler carries an explicit, measurable bias that shrinks with epsilon.
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .canonical import LevyKhintchinePair, TruncationResult, log_cf_lk, scale_law, truncate_cp
from .measure import _CSV_BLOCK, _csv_text, _term_transform, hermitian_fold, quantile


class BadTimes(ValueError):
    """Sample times must increase from 0 and stay within the horizon."""


# intervals per path in the stream layout; paths are spaced this far apart
_INTERVALS_PER_PATH = 1 << 20
# samples empirical_cf transforms per kernel call, which bounds its temporaries
_CF_BLOCK = 1 << 16
# (path, interval) pairs sample_paths settles at a time, which keeps the
# uint64 temporaries of their first Philox blocks near 1 MB
_SAMPLE_BLOCK = 1 << 13
# Philox4x64-10 round multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32, _LOW64 = (1 << 32) - 1, (1 << 64) - 1


def _path_array(indices) -> np.ndarray:
    """Path indices as uint64: ValueError outside [0, 2^64), TypeError for a non-int."""
    try:  # operator.index refuses floats; numpy >= 2 refuses ints outside [0, 2^64)
        return np.fromiter(map(operator.index, indices), dtype=np.uint64)
    except OverflowError:
        raise ValueError("path_index must lie in [0, 2^64)") from None


def _counter_words(paths: np.ndarray, intervals) -> tuple:
    """High Philox counter words (lo, hi) of offset path * 2^20 + interval < 2^84: no wrap."""
    return (paths << 20) | np.asarray(intervals, dtype=np.uint64), paths >> 44


@dataclass(frozen=True)
class ProcessSpec:
    """A process: canonical pair, truncation level, horizon, and seed."""

    law: LevyKhintchinePair
    epsilon: float
    horizon: float
    seed: int

    def __post_init__(self):
        if not 0 <= operator.index(self.seed) < 1 << 128:
            raise ValueError(f"seed must lie in [0, 2^128), got {self.seed}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be finite and positive")

    @cached_property
    def decomposition(self) -> TruncationResult:
        return truncate_cp(self.law, self.epsilon)


@dataclass(frozen=True)
class EmpiricalCF:
    """Monte Carlo CF estimates with a 3/sqrt(N) half-width envelope."""

    t_grid: np.ndarray
    estimates: np.ndarray
    half_widths: np.ndarray


def _mulhilo(m: int, x: np.ndarray) -> tuple:
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & _LOW32)
    x_hi, x_lo = x >> 32, x & _LOW32
    lo_lo, lo_hi, hi_lo = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    mid = (lo_lo >> 32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    return m_hi * x_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32), np.uint64(m) * x


def _philox_block(key: Sequence[int], lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Philox4x64-10 at counters (1, 0, lo, hi): a stream at (0, 0, lo, hi) draws these first."""
    c0, c1, c2, c3 = np.ones_like(lo), np.zeros_like(lo), lo, hi
    k0, k1 = key
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_W[0]) & _LOW64, (k1 + _PHILOX_W[1]) & _LOW64
    return c0, c1, c2, c3


def sample_paths(spec: ProcessSpec, times, path_indices: Sequence[int]) -> np.ndarray:
    """X sampled at the given times on each path, one independent stream per interval:
    row r of the (len(path_indices), len(times)) array is the path of path_indices[r].

    Interval k of path p (p in [0, 2^64), k < 2^20) draws from a
    Generator on Philox(key=spec.seed) at counter (0, 0, lo, hi), the low
    and high words _counter_words gives for the offset p * 2^20 + k: a
    segment 2^128 steps long of one Philox sequence, which no other (path,
    interval) touches.
    It draws its normal (if the law has a Gaussian part), then its Poisson
    count of jumps, then one jump uniform per jump. Its increment is drift
    * gap plus the normal plus the jumps, the uniforms' quantiles in the
    jump distribution. Intervals are settled _SAMPLE_BLOCK at a time.
    For lam = lambda_eps * gap < 10 and no Gaussian part, numpy's Poisson
    counts running products of uniforms above e^-lam, so the stream's first
    block of four words settles a count of 0 or 1 and its jump uniform; that
    block is computed for all such intervals of a block at once. Every other
    interval resets one bit generator's counter and draws. One quantile call
    per block maps its jump uniforms, summed per interval in draw order.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0.0:
        raise BadTimes("times must start at 0")
    if times.size - 1 > _INTERVALS_PER_PATH:
        raise ValueError(f"at most 2^20 intervals per path, got {times.size - 1}")
    paths = _path_array(path_indices)
    gaps = np.diff(times)
    if not np.all(gaps > 0):  # a NaN gap fails this too
        raise BadTimes("times must be strictly increasing")
    if times[-1] > spec.horizon:
        raise BadTimes(f"times end at {times[-1]}, beyond horizon {spec.horizon}")
    dec = spec.decomposition
    bits = np.random.Philox(key=spec.seed)
    stream, state = np.random.Generator(bits), bits.state
    state["buffer_pos"], state["has_uint32"] = 4, 0
    key = [int(w) for w in state["state"]["key"]]
    m = gaps.size
    # the increments, cumulated into the paths in place at the end
    out = np.zeros((len(paths), m + 1))
    out[:, 1:] = dec.drift * gaps
    flat = out.reshape(-1)
    sds = np.sqrt(dec.gaussian_mass * gaps).tolist() if dec.gaussian_mass > 0 else None
    lam = dec.lambda_eps * gaps
    lams = lam.tolist()
    drawn = (lam > 0) | (sds is not None)
    quick = drawn & (lam < 10.0) & (sds is None)  # what a first block may settle
    # e^-lam from libm, as numpy's C code takes it; np.exp may differ by an ulp
    e_lam = np.array([math.exp(-x) for x in lams])
    for start in range(0, len(paths) * m, _SAMPLE_BLOCK):
        j = np.arange(start, min(start + _SAMPLE_BLOCK, len(paths) * m))
        row, k = np.divmod(j, m)
        at = j + row + 1  # the index in flat of (row, k + 1)
        reset, q = drawn[k], quick[k]
        # ones: the intervals whose first block drew their one jump
        ones, draws, owners, counts = at[:0], [], [], []
        if q.any():
            words = _philox_block(key, *_counter_words(paths[row[q]], k[q]))
            u0, u1, u2 = ((w >> 11) * 2.0**-53 for w in words[:3])  # next_double
            e = e_lam[k[q]]
            one, more = u0 > e, u0 * u1 > e
            ones = at[q][one & ~more]
            draws.append(u2[one & ~more])
            reset[q] = one & more
        lo, hi = (w.tolist() for w in _counter_words(paths[row[reset]], k[reset]))
        for a, kk, lo_r, hi_r in zip(at[reset].tolist(), k[reset].tolist(), lo, hi):
            state["state"]["counter"] = (0, 0, lo_r, hi_r)
            bits.state = state
            if sds is not None:
                flat[a] += stream.normal(0.0, sds[kk])
            n = int(stream.poisson(lams[kk])) if lams[kk] > 0 else 0
            if n:
                owners.append(a)
                counts.append(n)
                draws.append(stream.random(n))
        if not (ones.size or owners):
            continue
        jumps = quantile(dec.jump_distribution, np.concatenate(draws))
        flat[ones] += jumps[: ones.size]
        counts = np.array(counts, dtype=int)
        first = ones.size + np.cumsum(counts) - counts
        total = jumps[first]
        for r in range(1, counts.max(initial=0)):
            total[counts > r] += jumps[first[counts > r] + r]
        flat[owners] += total
    return np.cumsum(out, axis=1, out=out)


def empirical_cf(samples, t_grid) -> EmpiricalCF:
    """Mean of e^{it x} per t: the sample measure's transform, with the 3/sqrt(N) envelope."""
    samples = np.asarray(samples, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    for name, a in (("samples", samples), ("t_grid", t_grid)):
        if a.ndim != 1:
            raise ValueError(f"{name} must be 1-d, not {a.ndim}-d")
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    reach = math.prod(float(max(-a.min(initial=0), a.max(initial=0))) for a in (samples, t_grid))
    if not math.isfinite(reach):  # a float product, which overflows to inf silently
        raise ValueError("t x sample overflows float; the empirical CF would not be finite")
    parts = np.split(samples, range(_CF_BLOCK, samples.size, _CF_BLOCK))  # a kernel call each
    atoms = lambda x: (x, np.zeros(x.size), np.full(x.size, 1 / samples.size))
    estimates = hermitian_fold(lambda t: sum(_term_transform(*atoms(x), t) for x in parts), t_grid)
    # the N weights 1/N need not sum to 1 (for N = 49 they do not)
    estimates[t_grid == 0.0] = 1.0
    mod = np.abs(estimates)
    over = mod > 1.0
    if np.any(over):  # roundoff only; the mean of unit vectors has modulus <= 1
        estimates[over] /= mod[over]
    half = np.full(t_grid.size, 3.0 / math.sqrt(samples.size))
    return EmpiricalCF(t_grid=t_grid, estimates=estimates, half_widths=half)


# -- statistical validation ---------------------------------------------------------


@dataclass(frozen=True)
class ScalingEntry:
    lam: float
    exact_error: float
    envelope_fraction: float
    passed: bool


@dataclass(frozen=True)
class ScalingReport:
    entries: tuple
    passed: bool


SCALING_DRAWS = 100_000
MIN_ENVELOPE_FRACTION = 0.99
CHECK_EPSILON = 0.01  # the truncation level of the processes both checks sample


def scaling_check(
    law: LevyKhintchinePair, t_grid, lambdas: Sequence[float], seed: int = 0
) -> ScalingReport:
    """Verify log phi(t, lam) = lam * log phi(t, 1), exactly and empirically.

    The exact half scales the representation (drift and measure both by lam)
    and compares exponents; the empirical half samples X(lam) on
    SCALING_DRAWS paths, lambdas[j] on paths [j N, (j + 1) N), and checks
    the CF estimates against exp(lam * log phi) inside the 3/sqrt(N)
    envelope at a fraction MIN_ENVELOPE_FRACTION of grid points.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if any(not lam > 0 for lam in lambdas):
        raise ValueError("lambdas must be positive")
    base_log = log_cf_lk(law, t_grid)
    horizon = max(lambdas)
    spec = ProcessSpec(law=law, epsilon=CHECK_EPSILON, horizon=horizon, seed=seed)
    entries = []
    for j, lam in enumerate(lambdas):
        exact_err = float(np.max(np.abs(log_cf_lk(scale_law(law, lam), t_grid) - lam * base_log)))
        paths = range(j * SCALING_DRAWS, (j + 1) * SCALING_DRAWS)
        est = empirical_cf(sample_paths(spec, [0.0, lam], paths)[:, 1], t_grid)
        inside = np.abs(est.estimates - np.exp(lam * base_log)) <= est.half_widths
        frac = float(np.mean(inside))
        ok = exact_err < 1e-12 and frac >= MIN_ENVELOPE_FRACTION
        entries.append(ScalingEntry(float(lam), exact_err, frac, ok))
    return ScalingReport(entries=tuple(entries), passed=all(e.passed for e in entries))


# two-sample KS critical constant at the 1% level: sqrt(-ln(alpha/2)/2)
KS_CRITICAL_1PCT = math.sqrt(-math.log(0.005) / 2.0)


@dataclass(frozen=True)
class TriangularArrayReport:
    statistic: float
    critical: float
    passed: bool


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, sup |F_a - F_b| on the pooled sample.

    The supremum is a multiple of 1/lcm(len(a), len(b)); it is rounded to
    that multiple, as scipy.stats.ks_2samp does in its exact mode.
    """
    a = np.sort(a)
    b = np.sort(b)
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    lcm = math.lcm(a.size, b.size)
    return round(float(np.max(np.abs(cdf_a - cdf_b))) * lcm) / lcm


def triangular_array_check(
    law: LevyKhintchinePair, n: int, draws: int = 10_000, seed: int = 0
) -> TriangularArrayReport:
    """Row sums of n duration-1/n draws against direct duration-1 draws:
    X(1) on paths [draws, 2 draws) sampled at the n + 1 times k/n, against
    X(1) on paths [0, draws) sampled at 0 and 1.

    The two samples share a law exactly (the decomposition scales linearly
    in the duration), so the two-sample KS statistic stays below the 1%
    critical value 1.628 * sqrt(2/draws) up to test error. The row sums are
    sampled a few paths at a time, so memory stays O(draws), not O(n draws).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if draws < 2:
        raise ValueError("draws must be at least 2")
    spec = ProcessSpec(law=law, epsilon=CHECK_EPSILON, horizon=1.0, seed=seed)
    direct = sample_paths(spec, [0.0, 1.0], range(draws))[:, 1]
    times, per, sums = np.arange(n + 1) / n, max(1, _SAMPLE_BLOCK // n), np.empty(draws)
    for p in range(0, draws, per):
        paths = range(draws + p, draws + min(p + per, draws))
        sums[p : p + per] = sample_paths(spec, times, paths)[:, -1]
    statistic = ks_statistic(direct, sums)
    critical = KS_CRITICAL_1PCT * math.sqrt((draws + draws) / (draws * draws))
    return TriangularArrayReport(statistic, critical, statistic < critical)


# -- CSV artifacts -----------------------------------------------------------------


def _paths_csv_blocks(times, values):
    """paths_to_csv's text in pieces: the header line, then blocks of at most
    _CSV_BLOCK rows, each whole paths or, where a path is longer, part of one.

    Each time and each path id is formatted once.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if not (times.ndim == 1 and values.ndim == 2 and values.shape[1] == times.size):
        raise ValueError("values must be 2-d with one column per time")
    yield "path_id,time,value\n"
    n = times.size
    if not values.size:
        return
    t_cells = [repr(t) for t in times.tolist()]
    per, span = max(1, _CSV_BLOCK // n), min(n, _CSV_BLOCK)  # paths, times per block
    for p in range(0, len(values), per):
        ids = [str(i) for i in range(p, min(p + per, len(values)))]
        for a in range(0, n, span):
            block = values[p : p + per, a : a + span]
            id_cells = chain.from_iterable(map(repeat, ids, repeat(block.shape[1])))
            v_cells = map(repr, block.ravel().tolist())
            rows = zip(id_cells, t_cells[a : a + span] * len(ids), v_cells)
            yield "\n".join(map(",".join, rows)) + "\n"


def paths_to_csv(times, values) -> str:
    """CSV text with columns path_id, time, value; row r of values is path r at times."""
    return "".join(_paths_csv_blocks(times, values))


def empirical_cf_to_csv(ecf: EmpiricalCF) -> str:
    """CSV text with columns t, re, im, half_width."""
    e = ecf.estimates
    return _csv_text("t,re,im,half_width", ecf.t_grid, e.real, e.imag, ecf.half_widths)
