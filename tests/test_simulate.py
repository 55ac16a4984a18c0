"""Tests for keyed-stream sampling, empirical CFs, and the statistical checks."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from idlaws import simulate
from idlaws.canonical import LevyKhintchinePair, catalog
from idlaws.measure import CanonicalMeasure
from idlaws.simulate import (
    KS_CRITICAL_1PCT,
    BadTimes,
    EmpiricalCF,
    ProcessSpec,
    empirical_cf,
    empirical_cf_to_csv,
    ks_statistic,
    paths_to_csv,
    sample_increments,
    sample_paths,
    scaling_check,
    stream_for,
    triangular_array_check,
)


@pytest.fixture(scope="module")
def poisson_spec():
    return ProcessSpec(law=catalog("poisson", 1.0, 1.0), epsilon=0.5, horizon=2.0, seed=7)


# drift + Gaussian + two-sided jumps
MIXED_LAW = LevyKhintchinePair(
    gamma=0.2,
    G=CanonicalMeasure.from_atoms([(0.0, 0.3), (-1.0, 0.2), (1.0, 0.2)]),
)


# shared 10^4-path sample of the mixed law, used by the stationarity and
# independence checks
@pytest.fixture(scope="module")
def mixed_increments():
    spec = ProcessSpec(law=MIXED_LAW, epsilon=0.01, horizon=4.0, seed=10)
    times = np.array([0.0, 0.5, 1.5, 2.0, 2.5, 3.5])
    vals = sample_paths(spec, times, range(10_000))
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
    # the Philox key: checked here, not first by numpy once truncate_cp has run
    for seed in (-1, 1 << 128):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^128\)"):
            ProcessSpec(law=law, epsilon=0.1, horizon=1.0, seed=seed)


def test_path_sample_length_mismatch() -> None:
    times = np.array([0.0, 1.0])
    for values in (np.array([[0.0]]), np.zeros((2, 3)), np.zeros(2), np.zeros((1, 1, 2))):
        with pytest.raises(ValueError, match="one column per time"):
            paths_to_csv(times, values)


def test_stream_for_is_deterministic() -> None:
    a = stream_for(42, 3, 5).normal(size=4)
    b = stream_for(42, 3, 5).normal(size=4)
    assert np.array_equal(a, b)
    c = stream_for(42, 3, 6).normal(size=4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("path, interval", [(3, 5), ((1 << 63) + 3, (1 << 20) - 1)])
def test_stream_for_takes_numpy_indices(path, interval) -> None:
    want = stream_for(42, path, interval).integers(0, 1 << 62, size=9)
    for kind in (np.int64, np.uint64):
        if not np.iinfo(kind).min <= path <= np.iinfo(kind).max:
            continue
        got = stream_for(42, kind(path), kind(interval)).integers(0, 1 << 62, size=9)
        assert np.array_equal(got, want)
    with pytest.raises(TypeError):
        stream_for(42, 3.0, 5)


def _plain(state):
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize("key", [0, 3, (1 << 64) + 5, (1 << 128) - 1])
def test_philox_block_matches_numpy(key) -> None:
    low = [0, 1, 5, (1 << 63) + 11, (1 << 64) - 1]
    lo, hi = np.array([(a, b) for a in low for b in (0, (1 << 64) - 1)], dtype=np.uint64).T
    key_words = [int(w) for w in np.random.Philox(key=key).state["state"]["key"]]
    got = np.array(simulate._philox_block(key_words, lo, hi)).T
    for g, a, b in zip(got, lo, hi):
        want = np.random.Philox(key=key, counter=np.array([0, 0, a, b], dtype=np.uint64))
        assert np.array_equal(g, want.random_raw(4))


# (1 << 84) - 1 is the largest offset: path 2^64 - 1, interval 2^20 - 1
@pytest.mark.parametrize("offset", [0, 5, 1 << 63, (1 << 64) - 1, 1 << 64, (1 << 84) - 1])
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


# path indices outside [0, 2^64), whose offsets would pass 2^84 or fall below 0;
# with offsets taken mod 2^128, as they once were, (1 << 108) + 5 drew path 5's streams
_OUTSIDE = [-1, 1 << 64, (1 << 108) - 1, 1 << 108, (1 << 108) + 5]


@pytest.mark.parametrize("path", _OUTSIDE)
def test_path_indices_outside_uint64_raise_before_drawing(path, monkeypatch) -> None:
    def no_philox(*args, **kwargs):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(np.random, "Philox", no_philox)
    spec = ProcessSpec(law=catalog("poisson", 2.0, 3.0), epsilon=0.5, horizon=3.0, seed=7)
    with pytest.raises(ValueError, match="path_index"):
        stream_for(7, path, 3)
    with pytest.raises(ValueError, match="path_index"):
        sample_paths(spec, np.linspace(0.0, 3.0, 31), [5, path])


# -- increments ---------------------------------------------------------------------


def test_drift_only_increment_is_exact() -> None:
    spec = ProcessSpec(law=catalog("gaussian", 1.0, 0.0), epsilon=0.1, horizon=9.0, seed=0)
    for d in (0.25, 1.0, 3.5):
        assert sample_increments(spec, d, 1, stream_for(0, 0, 0))[0] == d


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
    a = sample_paths(poisson_spec, times, [0])
    b = sample_paths(poisson_spec, times, [0])
    assert a.shape == (1, 9) and np.array_equal(a, b)
    other = ProcessSpec(
        law=poisson_spec.law, epsilon=poisson_spec.epsilon, horizon=2.0, seed=8
    )
    assert not np.array_equal(a, sample_paths(other, times, [0]))


def test_drift_only_path_exact() -> None:
    spec = ProcessSpec(law=catalog("gaussian", 0.7, 0.0), epsilon=0.1, horizon=3.0, seed=0)
    p = sample_paths(spec, np.array([0.0, 1.0, 2.0]), [0])[0]
    assert np.allclose(p, [0.0, 0.7, 1.4], atol=1e-15)


def test_poisson_paths_nondecreasing_unit_jumps(poisson_spec) -> None:
    times = np.linspace(0.0, 2.0, 9)
    inc = np.diff(sample_paths(poisson_spec, times, range(1000)), axis=1)
    assert inc.shape == (1000, 8)
    assert np.all(inc >= 0)
    assert np.all(inc == np.round(inc))


def test_path_rejects_bad_times(monkeypatch) -> None:
    def no_philox(*args, **kwargs):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(np.random, "Philox", no_philox)
    bad_times = (
        [0.5, 1.0],
        [0.0, 1.0, 0.5],
        [0.0, 3.0],  # past horizon
        [0.0, math.nan, 1.0],
        [0.0, 1.0, math.nan],
    )
    poisson, gaussian, drift_only = (
        catalog("poisson", 1.0, 1.0), catalog("gaussian", 0.0, 1.0), catalog("gaussian", 0.7, 0.0)
    )
    for law in (poisson, gaussian, drift_only):
        spec = ProcessSpec(law=law, epsilon=0.5, horizon=2.0, seed=7)
        for times in bad_times:
            with pytest.raises(BadTimes):
                sample_paths(spec, np.array(times), [0])


def test_split_interval_matches_single(poisson_spec) -> None:
    # same total duration, one draw vs sum of two independent halves
    n = 10_000
    direct = sample_increments(poisson_spec, 1.0, n, stream_for(7, 0, 0))
    halves = sample_increments(poisson_spec, 0.5, n, stream_for(7, 1, 0))
    halves = halves + sample_increments(poisson_spec, 0.5, n, stream_for(7, 1, 1))
    stat = ks_2samp(direct, halves).statistic
    assert stat < KS_CRITICAL_1PCT * math.sqrt(2.0 / n)


def reference_path(spec, times, path_index=0):
    """The former sampler: a fresh stream_for stream and one increment per
    interval, kept as the reference for sample_paths' single generator."""
    times = np.asarray(times, dtype=float)
    values = np.zeros(times.size)
    for k, gap in enumerate(np.diff(times)):
        stream = stream_for(spec.seed, path_index, k)
        values[k + 1] = values[k] + sample_increments(spec, float(gap), 1, stream)[0]
    return values


_UNEVEN = np.cumsum(np.r_[0.0, np.random.default_rng(3).exponential(0.05, 50)])
# path indices past 2^63, up to the largest, 2^64 - 1
_FAR = [(1 << 63) + 3, 12345678901234567890, (1 << 64) - 1]

SAMPLER_CASES = {
    "poisson": (catalog("poisson", 1.0, 1.0), 0.5, np.linspace(0.0, 10.0, 201), range(10)),
    "cauchy": (catalog("cauchy", 1.0), 0.02, np.linspace(0.0, 1.0, 11), range(6)),
    "mixed": (MIXED_LAW, 0.01, np.array([0.0, 0.5, 1.5, 2.0, 2.5, 3.5]), range(50)),
    "poisson-25-per-interval": (
        catalog("poisson", 50.0, 1.0), 0.5, np.linspace(0.0, 2.0, 5), range(10)
    ),
    "uneven-times": (MIXED_LAW, 0.01, _UNEVEN, range(10)),
    "far-paths": (catalog("poisson", 2.0, 3.0), 0.5, np.linspace(0.0, 3.0, 31), _FAR),
    "one-time": (MIXED_LAW, 0.01, np.array([0.0]), range(2)),
    # lam * gap = 3: about one interval in five is settled by its first block
    "poisson-3-per-interval": (
        catalog("poisson", 3.0, 1.0), 0.5, np.linspace(0.0, 10.0, 11), range(10)
    ),
    "chunked": (catalog("poisson", 3.0, 1.0), 0.5, np.linspace(0.0, 10.0, 11), range(5)),
    "chunked-mixed": (MIXED_LAW, 0.01, _UNEVEN, range(3)),
}
# cases sampled 7 (path, interval) pairs at a time, so chunks split paths
SMALL_CHUNKS = {"chunked", "chunked-mixed"}


# 2^64 + 3 gives the Philox key a non-zero high word
@pytest.mark.parametrize("seed", [1, 2, (1 << 64) + 3])
@pytest.mark.parametrize("case", list(SAMPLER_CASES))
def test_sample_path_matches_per_interval_streams(case, seed, monkeypatch) -> None:
    law, eps, times, paths = SAMPLER_CASES[case]
    if case in SMALL_CHUNKS:
        monkeypatch.setattr(simulate, "_SAMPLE_BLOCK", 7)
    spec = ProcessSpec(law=law, epsilon=eps, horizon=float(times[-1]) or 1.0, seed=seed)
    want = np.array([reference_path(spec, times, path_index=p) for p in paths])
    together = sample_paths(spec, times, paths)
    one_by_one = np.array([sample_paths(spec, times, [p])[0] for p in paths])
    for got in (together, one_by_one):
        assert paths_to_csv(times, got) == paths_to_csv(times, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_sample_paths_takes_numpy_path_indices() -> None:
    spec = ProcessSpec(law=catalog("poisson", 3.0, 1.0), epsilon=0.5, horizon=2.0, seed=5)
    times = np.linspace(0.0, 2.0, 5)
    want = sample_paths(spec, times, range(3, 6)).tobytes()
    assert sample_paths(spec, times, [3, 4, 5]).tobytes() == want
    for kind in (np.int64, np.uint64):
        assert sample_paths(spec, times, np.arange(3, 6, dtype=kind)).tobytes() == want
    assert sample_paths(spec, times, []).shape == (0, 5)
    for floats in ([1.0], np.array([1.0])):
        with pytest.raises(TypeError):
            sample_paths(spec, times, floats)


def test_sample_paths_holds_no_python_object_per_path() -> None:
    # 2^18 one-interval paths that no interval resets; a Python int and a
    # divmod tuple per path put the peak at 54.6 MiB, and uint64 arrays at 19 MiB
    spec = ProcessSpec(law=catalog("poisson", 1e-9, 1.0), epsilon=0.5, horizon=1.0, seed=3)
    tracemalloc.start()
    try:
        sample_paths(spec, [0.0, 1.0], range(1 << 18))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_sample_paths_settles_each_block_before_the_next() -> None:
    # 2^16 one-interval paths at lam = 1, about a quarter of whose intervals
    # reset; call-wide jump lists and first blocks of 2^16 intervals put the
    # traced peak at 19.4 MiB for this 1 MiB result
    spec = ProcessSpec(law=catalog("poisson", 1.0, 1.0), epsilon=0.5, horizon=1.0, seed=3)
    spec.decomposition
    tracemalloc.start()
    try:
        values = sample_paths(spec, [0.0, 1.0], range(1 << 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.nbytes == 2**20
    assert 0.2 < np.mean(values[:, 1] >= 2) < 0.3  # the intervals that reset
    assert peak < 8 * 2**20


def _resets(monkeypatch, spec, times, paths) -> int:
    """Counter resets, one per interval that its first Philox block leaves open."""
    philox, writes = np.random.Philox, [0]

    def write(bits, state):
        writes[0] += 1
        philox.state.__set__(bits, state)

    class Counted(philox):
        state = property(philox.state.__get__, write)

    monkeypatch.setattr(np.random, "Philox", Counted)
    sample_paths(spec, times, paths)
    return writes[0]


def test_first_blocks_settle_most_intervals(monkeypatch) -> None:
    # the simulate calls of the benchmark workloads, at seed 3: 40,000 and
    # 8,000 intervals, with lam * gap 0.01 and about 0.16
    atomic = ProcessSpec(law=catalog("poisson", 1.0, 1.0), epsilon=0.5, horizon=10.0, seed=3)
    assert _resets(monkeypatch, atomic, np.linspace(0.0, 10.0, 1001), range(40)) <= 40
    heavy = ProcessSpec(law=catalog("cauchy", 1.0), epsilon=0.02, horizon=1.0, seed=3)
    assert _resets(monkeypatch, heavy, np.linspace(0.0, 1.0, 201), range(40)) <= 200
    # a Gaussian part is drawn first, so every interval resets
    mixed = ProcessSpec(law=MIXED_LAW, epsilon=0.01, horizon=3.5, seed=3)
    assert _resets(monkeypatch, mixed, [0.0, 0.5, 1.5, 2.0, 2.5, 3.5], range(20)) == 100


def test_sample_path_uses_one_generator_and_one_quantile(monkeypatch) -> None:
    calls = {"philox": 0, "quantile": 0}
    philox, quantile = np.random.Philox, simulate.quantile

    def counted_philox(*args, **kwargs):
        calls["philox"] += 1
        return philox(*args, **kwargs)

    def counted_quantile(*args, **kwargs):
        calls["quantile"] += 1
        return quantile(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted_philox)
    monkeypatch.setattr(simulate, "quantile", counted_quantile)
    spec = ProcessSpec(law=catalog("poisson", 1.0, 1.0), epsilon=0.5, horizon=10.0, seed=4)
    path = sample_paths(spec, np.linspace(0.0, 10.0, 101), [0])[0]
    assert calls == {"philox": 1, "quantile": 1}
    assert path[-1] > 0  # jumps were drawn
    calls.update(philox=0, quantile=0)
    gaussian = ProcessSpec(law=catalog("gaussian", 0.0, 1.0), epsilon=0.1, horizon=1.0, seed=4)
    sample_paths(gaussian, [0.0, 0.5, 1.0], [0])
    assert calls == {"philox": 1, "quantile": 0}


def test_sample_path_rejects_bad_layout_before_drawing(monkeypatch) -> None:
    def no_philox(*args, **kwargs):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(np.random, "Philox", no_philox)
    spec = ProcessSpec(law=catalog("poisson", 1.0, 1.0), epsilon=0.5, horizon=2.0, seed=0)
    with pytest.raises(ValueError, match="2\\^20 intervals"):
        sample_paths(spec, np.linspace(0.0, 2.0, (1 << 20) + 2), [0])
    with pytest.raises(ValueError, match="path_index"):
        sample_paths(spec, np.linspace(0.0, 2.0, 3), [0, -1])


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


def empirical_cf_per_t(samples, t_grid) -> np.ndarray:
    """The per-t loop empirical_cf replaced, kept as its reference (estimates
    before the modulus clip)."""
    estimates = np.empty(t_grid.size, dtype=complex)
    for j, t in enumerate(t_grid):
        if t == 0.0:
            estimates[j] = 1.0 + 0j
        else:
            estimates[j] = np.mean(np.exp(1j * t * samples))
    mod = np.abs(estimates)
    estimates[mod > 1.0] /= mod[mod > 1.0]
    return estimates


@pytest.mark.parametrize("n", [1, 2, 49, 4097, 100_000])
def test_empirical_cf_matches_per_t_reference(n) -> None:
    rng = np.random.default_rng(n)
    t = np.concatenate([np.linspace(-5.0, 5.0, 21), [-0.0, 1e-300, 40.0]])
    for samples in (rng.standard_cauchy(n), -np.abs(rng.normal(size=n))):
        got = empirical_cf(samples, t).estimates
        want = empirical_cf_per_t(samples, t)
        # bits, sign bits included: the CSV writes repr, where -0.0 is not 0.0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_empirical_cf_exponentiates_bounded_blocks(monkeypatch) -> None:
    sizes, exp = [], np.exp

    def sized_exp(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", sized_exp)
    empirical_cf(np.linspace(-1.0, 1.0, 5000), np.linspace(-5.0, 5.0, 201))
    assert sum(sizes) == 5000 * 201 and max(sizes) <= simulate._CF_BLOCK
    sizes.clear()
    empirical_cf(np.linspace(-1.0, 1.0, 70_000), np.linspace(-1.0, 1.0, 3))
    assert sizes == [70_000] * 3


# -- scaling and triangular-array checks ----------------------------------------------


def test_scaling_check_poisson() -> None:
    t = np.linspace(-5.0, 5.0, 201)
    rep = scaling_check(catalog("poisson", 1.0, 1.0), t, [0.5, 2.0], seed=5)
    assert rep.passed
    for e in rep.entries:
        assert e.exact_error < 1e-12
        assert e.envelope_fraction >= 0.99
    assert [e.lam for e in rep.entries] == [0.5, 2.0]


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
    assert rep.critical == KS_CRITICAL_1PCT * math.sqrt(2.0 / 10_000)


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
    text = paths_to_csv([0, 1], [[0.0, 0.5], [0.0, 0.5]])
    lines = text.strip().split("\n")
    assert lines[0] == "path_id,time,value"
    assert lines[1] == "0,0.0,0.0"
    assert lines[4] == "1,1.0,0.5"


def paths_to_csv_rows(times, values) -> str:
    """The writer paths_to_csv replaced, float() on each numpy scalar, kept as
    its reference."""
    out = "path_id,time,value\n"
    for pid, row in enumerate(values):
        for t, v in zip(times, row):
            out += f"{pid},{float(t)!r},{float(v)!r}\n"
    return out


def test_paths_to_csv_matches_row_by_row_reference() -> None:
    spec = ProcessSpec(law=MIXED_LAW, epsilon=0.01, horizon=3.5, seed=4)
    times = np.array([0.0, 0.5, 1.5, 2.0, 2.5, 3.5])
    poisson = ProcessSpec(law=catalog("poisson", 1.0, 1.0), epsilon=0.5, horizon=3.0, seed=4)
    long_times = np.linspace(0.0, 3.0, 300)  # 20 x 300 rows: blocks of three paths
    rng = np.random.default_rng(6)
    for t, values in (
        (times, sample_paths(spec, times, range(20))),
        (np.array([0.0, 1e-300]), np.array([[-0.0, -1e300]])),
        (long_times, sample_paths(poisson, long_times, range(20))),
        (np.array([0.0]), np.zeros((0, 1))),
        # several blocks of one path, and of one time
        (np.linspace(0.0, 1.0, 2500), rng.standard_cauchy((1, 2500))),
        (np.array([0.0]), rng.standard_cauchy((3000, 1))),
    ):
        assert paths_to_csv(t, values) == paths_to_csv_rows(t, values)


def test_paths_csv_blocks_hold_one_block_at_a_time() -> None:
    # 2^17 two-time paths, 2^18 rows; a whole-table writer peaks at 11.2 MiB
    # for this 3.5 MiB text
    spec = ProcessSpec(law=catalog("poisson", 1.0, 1.0), epsilon=0.5, horizon=1.0, seed=3)
    times = np.array([0.0, 1.0])
    values = sample_paths(spec, times, range(1 << 17))
    size = rows = 0
    tracemalloc.start()
    try:
        for block in simulate._paths_csv_blocks(times, values):
            assert block.endswith("\n") and block.count("\n") <= simulate._CSV_BLOCK
            size, rows = size + len(block), rows + block.count("\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 1 + 2**18 and size > 3 * 2**20
    assert peak < size / 8


def test_empirical_cf_to_csv_layout() -> None:
    e = EmpiricalCF(
        t_grid=np.array([0.0, 1.0]),
        estimates=np.array([1.0 + 0j, 0.5 - 0.25j]),
        half_widths=np.array([0.3, 0.3]),
    )
    lines = empirical_cf_to_csv(e).strip().split("\n")
    assert lines[0] == "t,re,im,half_width"
    assert lines[2] == "1.0,0.5,-0.25,0.3"


def empirical_cf_to_csv_rows(ecf: EmpiricalCF) -> str:
    """The row-by-row CSV writer empirical_cf_to_csv replaced, kept as its reference."""
    out = "t,re,im,half_width\n"
    for t, e, w in zip(ecf.t_grid, ecf.estimates, ecf.half_widths):
        row = (float(t), float(e.real), float(e.imag), float(w))
        out += ",".join(repr(x) for x in row) + "\n"
    return out


def test_empirical_cf_csv_matches_row_by_row_reference() -> None:
    rng = np.random.default_rng(5)
    for samples in (rng.standard_cauchy(200), np.array([0.0, 1.0, -2.0])):
        # 101 t, and 9,001 t: three row blocks
        for t_grid in (np.linspace(-5.0, 5.0, 101), np.linspace(-40.0, 40.0, 9001)):
            ecf = empirical_cf(samples, t_grid)
            assert empirical_cf_to_csv(ecf) == empirical_cf_to_csv_rows(ecf)
