"""Tests for the seeded sampling oracle: determinism and statistical
agreement with the exact moment engine at modest sample counts (the full
million-sample sweep lives in the acceptance suite)."""

from fractions import Fraction

import numpy as np
import pytest

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
    sum_moment,
)
from probstirling.montecarlo import (
    SampleEstimate,
    SplitMixStream,
    check_moment,
    estimate_sum_moment,
)

HALF = Fraction(1, 2)


def test_stream_is_deterministic_and_counter_based():
    a = SplitMixStream(12345)
    b = SplitMixStream(12345)
    first = a.raw(10)
    assert np.array_equal(first, b.raw(10))
    # consuming in different block sizes yields the same stream
    c = SplitMixStream(12345)
    chunks = np.concatenate([c.raw(3), c.raw(7)])
    assert np.array_equal(first, chunks)
    assert not np.array_equal(first, SplitMixStream(54321).raw(10))


def test_uniform_ranges():
    s = SplitMixStream(7)
    u = s.uniform(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    v = SplitMixStream(7).uniform_pos(10000)
    assert v.min() > 0.0 and v.max() <= 1.0


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
            assert check_moment(Constant(2), k, n, 1000, seed=1)
    est = estimate_sum_moment(Constant(HALF), 3, 2, 1000, seed=1)
    assert est.mean == float(Fraction(9, 4)) and est.stderr == 0.0


def test_check_moment_statistical():
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
                assert check_moment(dist, k, n, 100_000, seed=42), (dist, k, n)
    # boundary of the supported grid at a heavier sample count
    for dist in (Exponential(), Uniform01(), StdNormal()):
        assert check_moment(dist, 4, 6, 400_000, seed=42), dist


def test_uniform_sum_second_moment_near_exact():
    est = estimate_sum_moment(Uniform01(), 2, 2, 200_000, seed=2024)
    exact = float(sum_moment(Uniform01(), 2, 2))
    assert exact == pytest.approx(7 / 6)
    assert abs(est.mean - exact) <= 6 * est.stderr
    assert est.stderr < 0.01


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowed_estimate_reports_not_finite():
    # 2000 exponential samples: at n = 159 the squared deviations overflow
    est = estimate_sum_moment(Exponential(), 1, 159, 2000, 0)
    assert est.stderr == float("inf") and not est.finite
    assert estimate_sum_moment(Exponential(), 1, 3, 2000, 0).finite


def test_rejects_degenerate_sample_count():
    with pytest.raises(ValueError):
        estimate_sum_moment(Exponential(), 1, 1, 1, seed=0)


def test_unsamplable_kind_raises():
    class Weird:  # not a catalog law
        pass

    with pytest.raises(ValueError):
        estimate_sum_moment(Weird(), 1, 1, 100, seed=0)  # type: ignore[arg-type]
