"""Tests for the seeded sampling oracle: determinism and statistical
agreement with the exact moment engine at modest sample counts (the full
million-sample sweep lives in the acceptance suite)."""

import _blake2
import hashlib
import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from probstirling import montecarlo
from probstirling.distributions import (
    Bernoulli,
    Constant,
    Exponential,
    FiniteSupport,
    Geometric,
    Poisson,
    Shifted,
    StdNormal,
    Uniform01,
    UniformTimesExponential,
    format_distribution,
    sum_moment,
)
from probstirling.montecarlo import (
    NonFiniteError,
    SampleEstimate,
    SplitMixStream,
    _mean_and_std,
    _sampler,
    _stream_seed,
    compare_moment,
    estimate_sum_moment,
)

from catalog import CATALOG, HALF, digit_limit, reference_estimate, reference_sample


def _draw(dist, count, stream):
    """One chunked draw of `count` samples, assembled into one array."""
    out = np.full(count, np.nan)
    for lo, hi, values in _sampler(dist, count, stream)():
        out[lo:hi] = values
    return out


def test_stream_is_deterministic_and_counter_based():
    a = SplitMixStream(12345)
    first = a.raw(0, 10)
    assert np.array_equal(first, SplitMixStream(12345).raw(0, 10))
    # reading in different windows yields the same stream, and a read
    # neither moves the counter nor depends on it
    c = SplitMixStream(12345)
    assert c.reserve(3) == 0 and c.reserve(7) == 3 and c.counter == 10
    assert np.array_equal(first, np.concatenate([c.raw(0, 3), c.raw(3, 7)]))
    assert c.counter == 10
    assert not np.array_equal(first, SplitMixStream(54321).raw(0, 10))


def test_uniform_ranges():
    s = SplitMixStream(7)
    u = s.uniform(0, 10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    v = SplitMixStream(7).uniform_pos(0, 10000)
    assert v.min() > 0.0 and v.max() <= 1.0


_C = montecarlo._CHUNK
# every k <= 3 and n <= 6, spread over the three seeds: the draws depend on
# (seed, k, n) only through the stream seed; the rows with k = 0 or n = 0
# draw nothing, and must still equal the reference, which draws them
_KN_BY_SEED = {
    0: [(0, 0), (0, 3), (2, 6), (3, 5)],
    7: [(1, 0), (3, 4), (0, 1)],
    2024: [(1, 2), (2, 1), (3, 0)],
}


@pytest.mark.parametrize("dist", [*CATALOG, Poisson(0)], ids=repr)
def test_chunked_estimate_equals_the_whole_array_reference(dist):
    for samples in (2, 3, _C - 1, _C, _C + 1, 2 * _C + 1, 500_001):
        for seed, grid in _KN_BY_SEED.items():
            for k, n in grid:
                est = estimate_sum_moment(dist, k, n, samples, seed)
                mean, stderr = reference_estimate(dist, k, n, samples, seed)
                assert (est.mean.hex(), est.stderr.hex()) == (mean.hex(), stderr.hex()), (samples, seed, k, n)


@pytest.mark.parametrize("chunk", [1, 2, 5, 64])
def test_draws_do_not_depend_on_the_chunk_size(chunk, monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    laws = [*CATALOG, Poisson(0), Shifted(StdNormal(), Fraction(-7, 3))]
    for dist in laws:
        for count in (1, 2, 3, 4, 129, 130):
            chunked, whole = SplitMixStream(3), SplitMixStream(3)
            for _ in range(2):  # the second draw starts where the first left the counter
                expected = reference_sample(dist, count, whole)
                assert _draw(dist, count, chunked).tobytes() == expected.tobytes(), (dist, count)
                assert chunked.counter == whole.counter
        est = estimate_sum_moment(dist, 3, 3, 301, 5)
        assert (est.mean, est.stderr) == reference_estimate(dist, 3, 3, 301, 5)


def _random_arrays():
    rng = np.random.default_rng(11)
    for size in (2, 3, 9, 1000, 70_001):
        yield rng.standard_normal(size)
        yield rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    base = rng.standard_normal(5000)
    for planted in ([np.inf], [-np.inf], [np.nan], [np.inf, -np.inf], [1e300, 1e300]):
        a = base.copy()
        a[rng.integers(0, a.size, len(planted))] = planted
        yield a


def test_in_place_mean_and_std_are_numpys():
    for a in _random_arrays():
        with np.errstate(over="ignore", invalid="ignore"):
            expected = (float(a.mean()).hex(), float(a.std(ddof=1)).hex())
            got = _mean_and_std(a.copy())
        assert (got[0].hex(), got[1].hex()) == expected


def test_estimates_are_bitwise_reproducible():
    for dist in (Exponential(), StdNormal(), Poisson(1), Geometric(HALF)):
        first = estimate_sum_moment(dist, 2, 3, 20000, seed=42)
        second = estimate_sum_moment(dist, 2, 3, 20000, seed=42)
        assert first == second
        assert first.samples == 20000 and first.seed == 42
        assert estimate_sum_moment(dist, 2, 3, 20000, seed=43) != first


def test_constant_estimates_are_exact():
    for k in range(4):
        for n in range(5):
            est = estimate_sum_moment(Constant(2), k, n, 1000, seed=1)
            assert est.stderr == 0.0
            assert est.mean == float((2 * k) ** n)
            assert compare_moment(Constant(2), k, n, 1000, seed=1)[2]
    est = estimate_sum_moment(Constant(HALF), 3, 2, 1000, seed=1)
    assert est.mean == float(Fraction(9, 4)) and est.stderr == 0.0


def test_zero_variance_rows_pass_despite_rounding():
    # 1/10 and 1/3 are not float64 values: each estimate misses the exact
    # moment by rounding alone, with a standard error of pure rounding
    # noise, and the gate passes them even at z = 0
    for dist in (Constant(Fraction(1, 10)), Shifted(Constant(0), Fraction(1, 3))):
        estimate, exact, passed = compare_moment(dist, 1, 1, 100, seed=0, z=0)
        assert estimate.mean != float(exact) and 0 < estimate.stderr < 1e-16
        assert passed


@pytest.mark.parametrize("factor, passed", [(0.9, True), (1.1, False)])
def test_compare_moment_gate_is_z_stderr_plus_rounding(monkeypatch, factor, passed):
    # const:10 at k = 1, n = 3 has the exact moment 1000; 1024 samples give
    # the rounding term (k + n + log2(samples) + 2) eps |exact| = 16 eps 1000
    stderr, z = 1e-12, 6.0
    bound = z * stderr + 16 * sys.float_info.epsilon * 1000
    estimate = SampleEstimate(1000 + factor * bound, stderr, 1024, 0)
    monkeypatch.setattr(montecarlo, "estimate_sum_moment", lambda *args: estimate)
    assert compare_moment(Constant(10), 1, 3, 1024, 0, z) == (estimate, 1000, passed)


def test_compare_moment_statistical():
    dists = [
        Exponential(),
        Uniform01(),
        StdNormal(),
        UniformTimesExponential(),
        Geometric(HALF),
        Poisson(1),
        Bernoulli(Fraction(1, 3)),
        FiniteSupport(((Fraction(-1), HALF), (Fraction(3), HALF))),
        Shifted(Geometric(HALF), 1),
    ]
    for dist in dists:
        for k in range(5):
            for n in range(5):
                assert compare_moment(dist, k, n, 100_000, seed=42)[2], (dist, k, n)
    # boundary of the supported grid at a heavier sample count
    for dist in (Exponential(), Uniform01(), StdNormal()):
        assert compare_moment(dist, 4, 6, 400_000, seed=42)[2], dist


def test_uniform_sum_second_moment_near_exact():
    est = estimate_sum_moment(Uniform01(), 2, 2, 200_000, seed=2024)
    exact = float(sum_moment(Uniform01(), 2, 2))
    assert exact == pytest.approx(7 / 6)
    assert abs(est.mean - exact) <= 6 * est.stderr
    assert est.stderr < 0.01


def test_overflowed_estimate_reports_not_finite():
    # 2000 exponential samples: at n = 159 the squared deviations overflow,
    # at n = 400 the powers too; `finite` reports it, and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_sum_moment(Exponential(), 1, 159, 2000, 0)
        assert est.stderr == float("inf") and not est.finite
        assert not estimate_sum_moment(Exponential(), 1, 400, 2000, 0).finite
    assert estimate_sum_moment(Exponential(), 1, 3, 2000, 0).finite
    # an inf stderr would pass any row (|est - exact| <= 6 * inf) and at
    # n = 400 float(exact) overflows: neither is a statistical verdict
    for n in (159, 400):
        with pytest.raises(NonFiniteError, match="not finite in floating point") as refused:
            compare_moment(Exponential(), 1, n, 2000, 0)
        # the library names no CLI flag; mc-check adds its own advice
        assert isinstance(refused.value, ValueError) and "--" not in str(refused.value)
        assert "mc-check" not in str(refused.value)


def test_rejects_degenerate_sample_count():
    # one sample has no stderr; a negative k would estimate the empty sum
    # S_0 and a negative n E[1/S], against an exact value of 0
    for samples, k, n in [(1, 1, 1), (1000, -1, 1), (1000, 1, -1)]:
        with pytest.raises(ValueError):
            estimate_sum_moment(Exponential(), k, n, samples, seed=0)
        with pytest.raises(ValueError):
            compare_moment(Exponential(), k, n, samples, seed=0)


def test_unsamplable_kind_raises():
    class Weird:  # not a catalog law
        pass

    with pytest.raises(ValueError):
        estimate_sum_moment(Weird(), 1, 1, 100, seed=0)  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "dist",
    [Shifted(StdNormal(), 10**400), Constant(-(10**400)), Poisson(Fraction(10**400, 3))],
    ids=["shift", "const", "poisson"],
)
def test_parameter_beyond_float_range_raises_value_error(dist):
    with pytest.raises(ValueError, match="too large to sample"):
        estimate_sum_moment(dist, 1, 1, 10, seed=0)


# a law whose parameter spells out past the default int <-> str digit limit
# (4300) is seeded like any other, under the caller's unchanged limit
def test_law_beyond_the_digit_limit_samples():
    with digit_limit(4300):
        assert compare_moment(Constant(Fraction(10**5000, 10**5000 + 1)), 1, 1, 100, 0)[2]
        assert sys.get_int_max_str_digits() == 4300


def test_stream_seeds_in_threads_give_the_digit_limit_back():
    law = Constant(Fraction(10**5000, 10**5000 + 1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads finely
    try:
        with digit_limit(4300):
            threads = [
                threading.Thread(target=lambda: [_stream_seed(i, law, 1, 1) for i in range(200)])
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.setswitchinterval(interval)


def test_stream_seeds_use_hashlibs_blake2b():
    # the sampler imports CPython's own blake2b, so that no worker loads OpenSSL
    assert hashlib.blake2b is _blake2.blake2b is montecarlo.blake2b
    laws = [StdNormal(), Poisson(HALF), Shifted(Exponential(), Fraction(-7, 3))]
    laws.append(Constant(Fraction(10**5000, 10**5000 + 1)))  # spelled past the digit limit
    for dist in laws:
        for seed, k, n in ((0, 0, 0), (7, 3, 5), (2**70, 1, 2)):
            with digit_limit(0):
                label = f"{seed}|{format_distribution(dist)}|{k}|{n}".encode()
            digest = hashlib.blake2b(label, digest_size=8).digest()
            with digit_limit(4300):
                assert _stream_seed(seed, dist, k, n) == int.from_bytes(digest, "little")


def test_finite_support_draw_at_the_largest_uniform_is_the_last_atom():
    # ten atoms of 1/10 sum to 0.9999999999999999 in float64, the largest
    # uniform 1 - 2^-53 itself, so the search lands one past the last atom
    dist = FiniteSupport(tuple((Fraction(v), Fraction(1, 10)) for v in range(10)))
    top = 1.0 - 2.0**-53
    assert np.cumsum([0.1] * 10)[-1] == top

    class TopStream(SplitMixStream):
        def uniform(self, start, count):
            return np.full(count, top)

    assert np.array_equal(_draw(dist, 5, TopStream(0)), np.full(5, 9.0))


def test_law_beyond_the_digit_limit_and_float_range_raises_value_error():
    with digit_limit(4300), pytest.raises(ValueError, match="too large to sample in floating"):
        compare_moment(Shifted(Exponential(), 10**5000), 1, 1, 100, 0)


# sha256 of the 4096 draws of seed 7, recorded before rates beyond the CDF
# table were refused; every rate the sampler accepts draws as it did
_POISSON_DRAWS = {
    Fraction(1, 3): "2b1502e3fc543fcefc87c7f155a44a34a95dc9c500610100c10c8ba5cb15450b",
    Fraction(200): "624de97673cd0230dc08ab3963147c4a65d6be5076749e3354f6474c0c2b392c",
}


@pytest.mark.parametrize("rate", list(_POISSON_DRAWS), ids=str)
def test_poisson_draws_are_unchanged(rate):
    draws = _draw(Poisson(rate), 4096, SplitMixStream(7))
    assert hashlib.sha256(draws.tobytes()).hexdigest() == _POISSON_DRAWS[rate]


def test_poisson_samples_every_integer_rate_up_to_250():
    for rate in range(251):
        assert estimate_sum_moment(Poisson(rate), 1, 1, 2, seed=0).finite


@pytest.mark.parametrize("rate", [280, 360, 745, 1000])
def test_poisson_rate_beyond_the_cdf_table_raises(rate):
    # past rate 275 the 400-term table misses more than 1e-12 of the mass;
    # past 745 exp(-rate) underflows and the table holds only zeros
    with pytest.raises(ValueError, match="too large to sample"):
        estimate_sum_moment(Poisson(rate), 1, 1, 100, seed=0)


@pytest.mark.parametrize("z", [math.inf, math.nan, -1.0])
def test_compare_moment_refuses_bad_z(z):
    with pytest.raises(ValueError, match="z must be finite and nonnegative"):
        compare_moment(Constant(2), 1, 1, 10, seed=0, z=z)


def test_sample_count_past_memory_is_refused(fresh_python):
    # the child caps its own address space at 3 GB: 10^12 samples need 8 TB;
    # the rows with k = 0 or n = 0 draw nothing, and are refused all the same
    rows = ((1, 1), (0, 0), (2, 0), (0, 2))
    out = fresh_python(
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))\n"
        "from probstirling.distributions import StdNormal\n"
        "from probstirling.montecarlo import SampleMemoryError, estimate_sum_moment\n"
        f"for k, n in {rows!r}:\n"
        "    try:\n"
        "        estimate_sum_moment(StdNormal(), k, n, 10**12, 0)\n"
        "    except SampleMemoryError as exc:\n"
        "        print(isinstance(exc, ValueError), exc)\n"
    )
    assert out.splitlines() == [
        "True 1000000000000 samples need 8000000000000 bytes of float64, more than can be allocated"
    ] * len(rows)


def test_rows_that_draw_nothing_keep_every_refusal():
    # a row with n = 0 draws nothing, but prepares its law's sampler, so it
    # refuses what the row with n = 1 refuses
    refused = {
        Poisson(300): "Poisson rate 300.0 too large to sample",
        Constant(10**400): "too large to sample in floating point",
        Shifted(StdNormal(), 10**400): "too large to sample in floating point",
    }
    for dist, message in refused.items():
        for k in (1, 3):
            with pytest.raises(ValueError, match=message):
                estimate_sum_moment(dist, k, 0, 100, seed=0)
        # S_0 = 0 whatever the law, so k = 0 reads none of it
        for n in (0, 2):
            assert estimate_sum_moment(dist, 0, n, 100, seed=0) == SampleEstimate(float(n == 0), 0.0, 100, 0)
    for k, n in ((0, 0), (2, 0), (0, 2)):
        with pytest.raises(ValueError, match="need at least 2 samples"):
            estimate_sum_moment(StdNormal(), k, n, 1, seed=0)


def test_peak_memory_is_one_float_array(fresh_python):
    # the running sums take 8 bytes a sample; the whole-array sampler also
    # held each draw, its Box-Muller temporaries, the powers and the deviations
    samples = 4_000_000
    out = fresh_python(
        "import resource\n"
        "from probstirling.distributions import StdNormal\n"
        "from probstirling.montecarlo import estimate_sum_moment\n"
        "estimate_sum_moment(StdNormal(), 3, 5, 2, 0)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"estimate_sum_moment(StdNormal(), 3, 5, {samples}, 0)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    grown = int(out) * (1 if sys.platform == "darwin" else 1024)
    assert grown < 2 * 8 * samples
