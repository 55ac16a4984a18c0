"""Tests for keyed-stream sampling, empirical CFs, and the statistical checks."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from idlaws.canonical import LevyKhintchinePair, catalog
from idlaws.measure import CanonicalMeasure
from idlaws.simulate import (
    KS_CRITICAL_1PCT,
    BadTimes,
    EmpiricalCF,
    PathSample,
    ProcessSpec,
    empirical_cf,
    empirical_cf_to_csv,
    ks_statistic,
    paths_to_csv,
    sample_increment,
    sample_increments,
    sample_path,
    scaling_check,
    stream_for,
    triangular_array_check,
)


@pytest.fixture(scope="module")
def poisson_spec():
    return ProcessSpec(law=catalog("poisson", 1.0, 1.0), epsilon=0.5, horizon=2.0, seed=7)


# shared 10^4-path sample of a drift + Gaussian + two-sided-jump law, used by
# the stationarity and independence checks
@pytest.fixture(scope="module")
def mixed_increments():
    law = LevyKhintchinePair(
        gamma=0.2,
        G=CanonicalMeasure.from_atoms([(0.0, 0.3), (-1.0, 0.2), (1.0, 0.2)]),
    )
    spec = ProcessSpec(law=law, epsilon=0.01, horizon=4.0, seed=10)
    times = np.array([0.0, 0.5, 1.5, 2.0, 2.5, 3.5])
    n_paths = 10_000
    vals = np.empty((n_paths, times.size))
    for p in range(n_paths):
        vals[p] = sample_path(spec, times, path_index=p).values
    # columns: [0,.5], [.5,1.5], [1.5,2], [2,2.5], [2.5,3.5]
    return np.diff(vals, axis=1)


# -- spec and stream plumbing --------------------------------------------------------


def test_process_spec_validation() -> None:
    law = catalog("poisson", 1.0, 1.0)
    with pytest.raises(ValueError):
        ProcessSpec(law=law, epsilon=0.0, horizon=1.0, seed=0)
    with pytest.raises(ValueError):
        ProcessSpec(law=law, epsilon=0.1, horizon=0.0, seed=0)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon"):
            ProcessSpec(law=law, epsilon=0.1, horizon=horizon, seed=0)


def test_path_sample_length_mismatch() -> None:
    with pytest.raises(ValueError):
        PathSample(times=np.array([0.0, 1.0]), values=np.array([0.0]))


def test_stream_for_is_deterministic() -> None:
    a = stream_for(42, 3, 5).normal(size=4)
    b = stream_for(42, 3, 5).normal(size=4)
    assert np.array_equal(a, b)
    c = stream_for(42, 3, 6).normal(size=4)
    assert not np.array_equal(a, c)


def _plain(state):
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize(
    "offset", [0, 5, 1 << 63, (1 << 64) - 1, 1 << 64, (1 << 128) - 1, (1 << 128) + 7]
)
def test_stream_for_matches_jumped_philox(offset) -> None:
    path, interval = divmod(offset, 1 << 20)
    got = stream_for(99, path, interval)
    want = np.random.Generator(np.random.Philox(key=99).jumped(offset))
    assert _plain(got.bit_generator.state) == _plain(want.bit_generator.state)
    assert np.array_equal(got.integers(0, 1 << 62, size=9), want.integers(0, 1 << 62, size=9))


def test_stream_for_validates_indices() -> None:
    with pytest.raises(ValueError):
        stream_for(0, -1, 0)
    with pytest.raises(ValueError):
        stream_for(0, 0, 1 << 20)


# -- increments ---------------------------------------------------------------------


def test_drift_only_increment_is_exact() -> None:
    spec = ProcessSpec(law=catalog("gaussian", 1.0, 0.0), epsilon=0.1, horizon=9.0, seed=0)
    for d in (0.25, 1.0, 3.5):
        assert sample_increment(spec, d, stream_for(0, 0, 0)) == d


def test_poisson_increment_zero_probability(poisson_spec) -> None:
    x = sample_increments(poisson_spec, 1.0, 100_000, stream_for(7, 0, 0))
    assert np.all(x == np.round(x)) and np.all(x >= 0)
    # binomial 3-sigma band around e^{-1}: 3 sqrt(p(1-p)/N) = 0.0046
    assert abs(np.mean(x == 0.0) - math.exp(-1.0)) < 0.0046


def test_gaussian_increment_variance() -> None:
    spec = ProcessSpec(law=catalog("gaussian", 0.0, 1.0), epsilon=0.1, horizon=5.0, seed=3)
    x = sample_increments(spec, 4.0, 100_000, stream_for(3, 0, 0))
    # chi-square band: 3 sigma of the sample variance is 3 * 4 sqrt(2/N) = 0.054
    assert abs(np.var(x) - 4.0) < 0.06


def test_increments_reject_bad_duration(poisson_spec) -> None:
    with pytest.raises(ValueError):
        sample_increments(poisson_spec, 0.0, 5, stream_for(7, 0, 0))


# -- paths --------------------------------------------------------------------------


def test_path_reproducibility(poisson_spec) -> None:
    times = np.linspace(0.0, 2.0, 9)
    a = sample_path(poisson_spec, times)
    b = sample_path(poisson_spec, times)
    assert np.array_equal(a.values, b.values)
    other = ProcessSpec(
        law=poisson_spec.law, epsilon=poisson_spec.epsilon, horizon=2.0, seed=8
    )
    assert not np.array_equal(a.values, sample_path(other, times).values)


def test_drift_only_path_exact() -> None:
    spec = ProcessSpec(law=catalog("gaussian", 0.7, 0.0), epsilon=0.1, horizon=3.0, seed=0)
    p = sample_path(spec, np.array([0.0, 1.0, 2.0]))
    assert np.allclose(p.values, [0.0, 0.7, 1.4], atol=1e-15)


def test_poisson_paths_nondecreasing_unit_jumps(poisson_spec) -> None:
    times = np.linspace(0.0, 2.0, 9)
    for p in range(1000):
        path = sample_path(poisson_spec, times, path_index=p)
        inc = np.diff(path.values)
        assert np.all(inc >= 0)
        assert np.all(inc == np.round(inc))


def test_path_rejects_bad_times(poisson_spec) -> None:
    with pytest.raises(BadTimes):
        sample_path(poisson_spec, np.array([0.5, 1.0]))
    with pytest.raises(BadTimes):
        sample_path(poisson_spec, np.array([0.0, 1.0, 0.5]))
    with pytest.raises(BadTimes):
        sample_path(poisson_spec, np.array([0.0, 3.0]))  # past horizon


def test_split_interval_matches_single(poisson_spec) -> None:
    # same total duration, one draw vs sum of two independent halves
    n = 10_000
    direct = sample_increments(poisson_spec, 1.0, n, stream_for(7, 0, 0))
    halves = sample_increments(poisson_spec, 0.5, n, stream_for(7, 1, 0))
    halves = halves + sample_increments(poisson_spec, 0.5, n, stream_for(7, 1, 1))
    stat = ks_2samp(direct, halves).statistic
    assert stat < KS_CRITICAL_1PCT * math.sqrt(2.0 / n)


# -- empirical CF -------------------------------------------------------------------


def test_empirical_cf_constants() -> None:
    t = np.linspace(-5.0, 5.0, 11)
    e = empirical_cf(np.zeros(3), t)
    assert np.all(e.estimates == 1.0)
    e1 = empirical_cf(np.array([1.0]), t)
    assert np.max(np.abs(e1.estimates - np.exp(1j * t))) == 0.0
    assert np.all(e.half_widths == 3.0 / math.sqrt(3.0))


def test_empirical_cf_zero_point_exact() -> None:
    e = empirical_cf(np.array([0.3, -2.7, 9.9]), np.array([-1.0, 0.0, 1.0]))
    assert e.estimates[1] == 1.0 + 0j
    assert np.all(np.abs(e.estimates) <= 1.0)


def test_empirical_cf_normal_envelope() -> None:
    rng = np.random.default_rng(11)
    z = rng.normal(size=100_000)
    t = np.linspace(-5.0, 5.0, 201)
    e = empirical_cf(z, t)
    inside = np.abs(e.estimates - np.exp(-t * t / 2.0)) <= e.half_widths
    assert np.mean(inside) >= 0.99


def test_empirical_cf_rejects_empty() -> None:
    with pytest.raises(ValueError):
        empirical_cf(np.array([]), np.array([0.0]))


# -- scaling and triangular-array checks ----------------------------------------------


def test_scaling_check_poisson() -> None:
    t = np.linspace(-5.0, 5.0, 201)
    rep = scaling_check(catalog("poisson", 1.0, 1.0), t, [0.5, 2.0], seed=5)
    assert rep.passed
    for e in rep.entries:
        assert e.exact_error < 1e-12
        assert e.envelope_fraction >= 0.99
    d = rep.to_dict()
    assert d["passed"] and len(d["entries"]) == 2


def test_scaling_check_gaussian() -> None:
    t = np.linspace(-5.0, 5.0, 201)
    rep = scaling_check(catalog("gaussian", 0.0, 1.0), t, [0.5, 2.0], seed=5)
    assert rep.passed


def test_scaling_check_rejects_bad_lambda() -> None:
    with pytest.raises(ValueError):
        scaling_check(catalog("poisson", 1.0, 1.0), np.array([0.0, 1.0]), [0.0])


def test_triangular_array_gaussian() -> None:
    rep = triangular_array_check(catalog("gaussian", 0.0, 1.0), 4, draws=10_000, seed=2)
    assert rep.passed and rep.statistic < rep.critical


def test_triangular_array_poisson() -> None:
    rep = triangular_array_check(catalog("poisson", 1.0, 1.0), 3, draws=10_000, seed=2)
    assert rep.passed
    rep1 = triangular_array_check(catalog("poisson", 1.0, 1.0), 1, draws=10_000, seed=2)
    assert rep1.passed
    assert rep.to_dict()["n"] == 3


# -- process invariants ---------------------------------------------------------------


def test_ks_statistic_matches_scipy() -> None:
    rng = np.random.default_rng(5)
    tied = rng.poisson(3.0, 2000).astype(float), rng.poisson(3.2, 2000).astype(float)
    unequal = rng.normal(size=700), rng.normal(0.1, 1.0, size=1300)
    for a, b in (tied, unequal, unequal[::-1]):
        assert ks_statistic(a, b) == ks_2samp(a, b).statistic


def test_stationarity_of_increments(mixed_increments) -> None:
    inc = mixed_increments
    crit = KS_CRITICAL_1PCT * math.sqrt(2.0 / inc.shape[0])
    # [0, 0.5] against [2, 2.5] and [0.5, 1.5] against [2.5, 3.5]
    assert ks_2samp(inc[:, 0], inc[:, 3]).statistic < crit
    assert ks_2samp(inc[:, 1], inc[:, 4]).statistic < crit


def test_independence_of_increments(mixed_increments) -> None:
    inc = mixed_increments
    band = 3.0 / math.sqrt(inc.shape[0])
    assert abs(np.corrcoef(inc[:, 0], inc[:, 3])[0, 1]) < band
    assert abs(np.corrcoef(inc[:, 1], inc[:, 2])[0, 1]) < band


def test_cauchy_truncation_bias_decreases() -> None:
    law = catalog("cauchy", 1.0)
    t = np.linspace(-5.0, 5.0, 41)
    target = np.exp(-np.abs(t))
    gaps = []
    for j, eps in enumerate([0.5, 0.1, 0.02]):
        spec = ProcessSpec(law=law, epsilon=eps, horizon=1.0, seed=13)
        x = sample_increments(spec, 1.0, 100_000, stream_for(13, j, 0))
        e = empirical_cf(x, t)
        gaps.append(float(np.max(np.abs(e.estimates - target))))
    assert gaps[0] > gaps[1] > gaps[2]


# -- CSV artifacts --------------------------------------------------------------------


def test_paths_to_csv_layout() -> None:
    p = PathSample(times=np.array([0.0, 1.0]), values=np.array([0.0, 0.5]))
    text = paths_to_csv([p, p])
    lines = text.strip().split("\n")
    assert lines[0] == "path_id,time,value"
    assert lines[1] == "0,0.0,0.0"
    assert lines[4] == "1,1.0,0.5"


def test_empirical_cf_to_csv_layout() -> None:
    e = EmpiricalCF(
        t_grid=np.array([0.0, 1.0]),
        estimates=np.array([1.0 + 0j, 0.5 - 0.25j]),
        half_widths=np.array([0.3, 0.3]),
    )
    lines = empirical_cf_to_csv(e).strip().split("\n")
    assert lines[0] == "t,re,im,half_width"
    assert lines[2] == "1.0,0.5,-0.25,0.3"
