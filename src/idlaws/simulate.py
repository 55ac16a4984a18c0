"""Sampling stationary-independent-increment processes by truncation.

A process is specified by a general canonical pair plus a truncation level
epsilon. Increments are drawn from the drift + Gaussian + compound-Poisson
decomposition of the truncated law; jumps below epsilon are discarded, so
the sampler carries an explicit, measurable bias that shrinks with epsilon.
"""

import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.stats import ks_2samp

from .canonical import LevyKhintchinePair, log_cf_lk, scale_law
from .khinchin import TruncationResult, truncate_cp
from .measure import quantile


class BadTimes(ValueError):
    """Sample times must increase from 0 and stay within the horizon."""


# intervals per path in the stream layout; paths are spaced this far apart
_INTERVALS_PER_PATH = 1 << 20


def stream_for(seed: int, path_index: int = 0, interval_index: int = 0):
    """The RNG stream owned by (seed, path, interval).

    Streams are non-overlapping 2^128-step segments of one counter-based
    Philox sequence, so concurrent path generation is deterministic and
    draws for different keys never correlate. Each path owns 2^20 interval
    slots.
    """
    if not 0 <= interval_index < _INTERVALS_PER_PATH:
        raise ValueError("interval_index must lie in [0, 2^20)")
    if path_index < 0:
        raise ValueError("path_index must be non-negative")
    offset = path_index * _INTERVALS_PER_PATH + interval_index
    return np.random.Generator(np.random.Philox(key=seed).jumped(offset))


@dataclass(frozen=True)
class ProcessSpec:
    """A process: canonical pair, truncation level, horizon, and seed."""

    law: LevyKhintchinePair
    epsilon: float
    horizon: float
    seed: int

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    @cached_property
    def decomposition(self) -> TruncationResult:
        return truncate_cp(self.law, self.epsilon)


@dataclass(frozen=True)
class PathSample:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape:
            raise ValueError("times and values must have matching lengths")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class EmpiricalCF:
    """Monte Carlo CF estimates with a 3/sqrt(N) half-width envelope."""

    t_grid: np.ndarray
    estimates: np.ndarray
    half_widths: np.ndarray


def sample_increments(
    spec: ProcessSpec, duration: float, count: int, stream
) -> np.ndarray:
    """Draw independent increments of the given duration, vectorized.

    Stream draw order is fixed (normals, then Poisson counts, then jump
    uniforms); reproducibility tests pin it.
    """
    if not duration > 0:
        raise ValueError("duration must be positive")
    dec = spec.decomposition
    out = np.full(count, dec.drift * duration)
    if dec.gaussian_mass > 0:
        out += stream.normal(0.0, math.sqrt(dec.gaussian_mass * duration), count)
    lam = dec.lambda_eps * duration
    if lam > 0:
        counts = stream.poisson(lam, count)
        total = int(counts.sum())
        if total:
            jumps = quantile(dec.jump_distribution, stream.random(total))
            csum = np.concatenate([[0.0], np.cumsum(jumps)])
            ends = np.cumsum(counts)
            out += csum[ends] - csum[ends - counts]
    return out


def sample_increment(spec: ProcessSpec, duration: float, stream) -> float:
    """One increment of the given duration; deterministic given the stream."""
    return float(sample_increments(spec, duration, 1, stream)[0])


def sample_path(spec: ProcessSpec, times, path_index: int = 0) -> PathSample:
    """X sampled at the given times, one independent stream per interval."""
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0.0:
        raise BadTimes("times must start at 0")
    if times.size > 1 and np.min(np.diff(times)) <= 0:
        raise BadTimes("times must be strictly increasing")
    if times[-1] > spec.horizon:
        raise BadTimes(f"times end at {times[-1]}, beyond horizon {spec.horizon}")
    values = np.zeros(times.size)
    for k, gap in enumerate(np.diff(times)):
        stream = stream_for(spec.seed, path_index, k)
        values[k + 1] = values[k] + sample_increment(spec, float(gap), stream)
    return PathSample(times=times, values=values)


def empirical_cf(samples, t_grid) -> EmpiricalCF:
    """Mean of e^{it x} per grid point, with the 3/sqrt(N) envelope."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    t_grid = np.asarray(t_grid, dtype=float)
    estimates = np.empty(t_grid.size, dtype=complex)
    for j, t in enumerate(t_grid):
        if t == 0.0:
            estimates[j] = 1.0 + 0j
        else:
            estimates[j] = np.mean(np.exp(1j * t * samples))
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

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "entries": [
                {
                    "lambda": e.lam,
                    "exact_error": e.exact_error,
                    "envelope_fraction": e.envelope_fraction,
                    "passed": e.passed,
                }
                for e in self.entries
            ],
        }


def scaling_check(
    law: LevyKhintchinePair,
    t_grid,
    lambdas: Sequence[float],
    epsilon: float = 0.01,
    draws: int = 100_000,
    seed: int = 0,
    min_envelope_fraction: float = 0.99,
) -> ScalingReport:
    """Verify log phi(t, lam) = lam * log phi(t, 1), exactly and empirically.

    The exact half scales the representation (drift and measure both by lam)
    and compares exponents; the empirical half samples duration-lam
    increments and checks the CF estimates against exp(lam * log phi) inside
    the 3/sqrt(N) envelope at a minimum fraction of grid points.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if any(not lam > 0 for lam in lambdas):
        raise ValueError("lambdas must be positive")
    base_log = log_cf_lk(law, t_grid)
    horizon = max(lambdas)
    spec = ProcessSpec(law=law, epsilon=epsilon, horizon=horizon, seed=seed)
    entries = []
    for j, lam in enumerate(lambdas):
        scaled = scale_law(law, lam)
        exact_err = float(
            np.max(np.abs(log_cf_lk(scaled, t_grid) - lam * base_log))
        )
        x = sample_increments(spec, lam, draws, stream_for(seed, j, 0))
        est = empirical_cf(x, t_grid)
        target = np.exp(lam * base_log)
        inside = np.abs(est.estimates - target) <= est.half_widths
        frac = float(np.mean(inside))
        ok = exact_err < 1e-12 and frac >= min_envelope_fraction
        entries.append(
            ScalingEntry(
                lam=float(lam),
                exact_error=exact_err,
                envelope_fraction=frac,
                passed=ok,
            )
        )
    return ScalingReport(entries=tuple(entries), passed=all(e.passed for e in entries))


# two-sample KS critical constant at the 1% level: sqrt(-ln(alpha/2)/2)
KS_CRITICAL_1PCT = math.sqrt(-math.log(0.005) / 2.0)


@dataclass(frozen=True)
class TriangularArrayReport:
    n: int
    draws: int
    statistic: float
    critical: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "draws": self.draws,
            "statistic": self.statistic,
            "critical": self.critical,
            "passed": self.passed,
        }


def triangular_array_check(
    law: LevyKhintchinePair,
    n: int,
    draws: int = 10_000,
    epsilon: float = 0.01,
    seed: int = 0,
) -> TriangularArrayReport:
    """Row sums of n duration-1/n draws against direct duration-1 draws.

    The two samples share a law exactly (the decomposition scales linearly
    in the duration), so the two-sample KS statistic stays below the 1%
    critical value 1.628 * sqrt(2/draws) up to test error.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if draws < 2:
        raise ValueError("draws must be at least 2")
    spec = ProcessSpec(law=law, epsilon=epsilon, horizon=1.0, seed=seed)
    direct = sample_increments(spec, 1.0, draws, stream_for(seed, 0, 0))
    sums = np.zeros(draws)
    for j in range(n):
        sums += sample_increments(spec, 1.0 / n, draws, stream_for(seed, 1, j))
    statistic = float(ks_2samp(direct, sums).statistic)
    critical = KS_CRITICAL_1PCT * math.sqrt((draws + draws) / (draws * draws))
    return TriangularArrayReport(
        n=n,
        draws=draws,
        statistic=statistic,
        critical=critical,
        passed=statistic < critical,
    )


# -- CSV artifacts -----------------------------------------------------------------


def paths_to_csv(paths: Sequence[PathSample]) -> str:
    """CSV text with columns path_id, time, value."""
    buf = io.StringIO()
    buf.write("path_id,time,value\n")
    for pid, p in enumerate(paths):
        for t, v in zip(p.times, p.values):
            buf.write(f"{pid},{float(t)!r},{float(v)!r}\n")
    return buf.getvalue()


def empirical_cf_to_csv(ecf: EmpiricalCF) -> str:
    """CSV text with columns t, re, im, half_width."""
    buf = io.StringIO()
    buf.write("t,re,im,half_width\n")
    for t, e, w in zip(ecf.t_grid, ecf.estimates, ecf.half_widths):
        row = (float(t), float(e.real), float(e.imag), float(w))
        buf.write(",".join(repr(x) for x in row) + "\n")
    return buf.getvalue()
