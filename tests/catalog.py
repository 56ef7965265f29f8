"""Shared test data: the catalog laws that law-wise checks run over, the
weak-composition enumeration that the library's partition sums are checked
against, the classical Stirling polynomials from sympy, the iterated
difference with arbitrary increments, the whole-array sampler that the
chunked Monte Carlo sampler is checked against, and a digit-limit helper."""

import contextlib
import math
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import sub
from typing import Iterator, Sequence

import numpy as np
from sympy.functions.combinatorial.numbers import stirling

from probstirling.distributions import (
    Bernoulli,
    Constant,
    Distribution,
    Exponential,
    FiniteSupport,
    Geometric,
    Poisson,
    Shifted,
    StdNormal,
    Uniform01,
    UniformTimesExponential,
)
from probstirling.exact_core import Polynomial, _order
from probstirling.montecarlo import SplitMixStream, _poisson_table, _stream_seed

HALF = Fraction(1, 2)

CATALOG = [
    Constant(1),
    Constant(2),
    Bernoulli(HALF),
    Poisson(1),
    Poisson(HALF),
    Geometric(HALF),
    Geometric(Fraction(1, 3)),
    Exponential(),
    Uniform01(),
    StdNormal(),
    UniformTimesExponential(),
    FiniteSupport(((Fraction(0), HALF), (Fraction(2), Fraction(1, 4)), (Fraction(-1), Fraction(1, 4)))),
    Shifted(Geometric(HALF), 1),
]


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order: the reference enumeration that sums over
    :func:`probstirling.exact_core.partitions` must agree with."""
    _order("total", total)
    _order("parts", parts)
    if parts == 0:
        if total == 0:
            yield ()
        return
    # stars and bars: the parts are the gaps between parts - 1 nondecreasing
    # cut points in 0..total, whose lexicographic order is that of the parts
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def classical_stirling_poly(n: int, m: int, x: Fraction | int) -> Fraction:
    """The classical Stirling polynomial of the second kind at x,
    S(n, m; x) = sum_j C(n, j) S(j, m) x^(n - j), from sympy's Stirling
    numbers: the value S_Y takes for the unit constant law, computed with
    nothing from the library; 0 for m > n."""
    return sum((math.comb(n, j) * int(stirling(j, m)) * x ** (n - j) for j in range(n + 1)), Fraction(0))


def iterated_diff(p: Polynomial, ys: Sequence[Fraction | int], x: Fraction | int) -> Fraction:
    """Value at x after applying one difference step q -> q(. + y) - q per
    increment y in ys: with the m copies of a finite law as increments, the
    expected value over the atoms is m! S_Y(n, m; x) for p = t^n.

    The steps commute, so the order of ys is irrelevant; an empty ys returns
    p(x) unchanged, and the result is identically 0 as soon as len(ys)
    exceeds the degree of p.
    """
    for y in ys:
        p = p.shift(y) - p
    return p(x)


def _uniform(stream: SplitMixStream, count: int) -> np.ndarray:
    return stream.uniform(stream.reserve(count), count)


def _uniform_pos(stream: SplitMixStream, count: int) -> np.ndarray:
    return stream.uniform_pos(stream.reserve(count), count)


def reference_sample(dist: Distribution, count: int, stream: SplitMixStream) -> np.ndarray:
    """One draw of `count` samples as whole arrays, reading the stream in
    order: the reference that the chunked sampler must equal bit for bit."""
    match dist:
        case Constant(value=a):
            return np.full(count, float(a))
        case Bernoulli(p=p):
            return (_uniform(stream, count) < float(p)).astype(np.float64)
        case Exponential():
            return -np.log(_uniform_pos(stream, count))
        case Uniform01():
            return _uniform(stream, count)
        case StdNormal():
            pairs = (count + 1) // 2
            radius = np.sqrt(-2.0 * np.log(_uniform_pos(stream, pairs)))
            angle = (2.0 * np.pi) * _uniform(stream, pairs)
            return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]
        case UniformTimesExponential():
            u = _uniform(stream, count)
            return u * -np.log(_uniform_pos(stream, count))
        case Poisson(rate=rate):
            if rate == 0:
                stream.reserve(count)
                return np.zeros(count)
            table = _poisson_table(float(rate))
            return np.searchsorted(table, _uniform(stream, count), side="right").astype(np.float64)
        case Geometric(q=q):
            return np.floor(np.log(_uniform_pos(stream, count)) / math.log(float(q)))
        case FiniteSupport(atoms=atoms):
            values = np.array([float(v) for v, _ in atoms])
            cumulative = np.cumsum([float(p) for _, p in atoms])
            index = np.searchsorted(cumulative, _uniform(stream, count), side="right")
            return values[np.minimum(index, len(values) - 1)]
        case Shifted(base=base, offset=c):
            return reference_sample(base, count, stream) + float(c)
    raise ValueError(f"distribution is not samplable: {dist!r}")


def reference_estimate(dist: Distribution, k: int, n: int, samples: int, seed: int) -> tuple[float, float]:
    """The mean and standard error of S_k^n over whole arrays, from the
    stream that :func:`probstirling.montecarlo.estimate_sum_moment` reads."""
    stream = SplitMixStream(_stream_seed(seed, dist, k, n))
    total = np.zeros(samples)
    for _ in range(k):
        total += reference_sample(dist, samples, stream)
    with np.errstate(over="ignore", invalid="ignore"):
        powered = total**n
        return float(powered.mean()), float(powered.std(ddof=1) / math.sqrt(samples))


@contextlib.contextmanager
def digit_limit(limit: int):
    """Run the block under another int <-> str digit limit (0 lifts it)."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)
