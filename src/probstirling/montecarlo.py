"""Seeded Monte Carlo cross-validation of the exact moment engine.

This is the one module that touches floating point: it samples the
continuous and discrete catalog laws, estimates E[S_k^n] empirically, and
compares against the exact rational value at a configurable number of
standard errors. That comparison is made in one place,
:func:`compare_moment`, which the CLI ``mc-check`` calls: it refuses a z that gives no verdict and a row
that is not finite in floating point, so an overflow is never reported
as a statistical pass or failure.

Randomness comes from splitmix64 run in counter mode: output i of a
stream with state s is mix64(s + (i+1) * GAMMA), with the published
constants GAMMA = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, and
0x94D049BB133111EB (Steele/Lea SplittableRandom finalizer, public
domain). Every estimate owns a private stream derived by hashing
(seed, canonical distribution string, k, n) with blake2b, so estimates
are reproducible bit for bit given the seed, independent of evaluation
order, and safe to run in parallel.

Transforms are deterministic inversions: exponentials by -log(U), normals
by the Box-Muller pair transform, geometric and Poisson by CDF inversion;
a Poisson rate past about 275, whose table would miss mass, is refused.

Memory is one float64 array of `samples` entries, the running k-fold
sums, plus fixed scratch for one chunk of a draw: each draw is generated
chunk by chunk, since counter mode lets any window of a stream be read
on its own, and added into its slice of the sums. A chunk is 2^13
samples, so each of its float64 temporaries is 64 KB, which fits a
typical L2 cache, and a draw raises the peak by well under a megabyte.
Every step up to the sums is elementwise, and the power, mean and
standard deviation then run in place over the whole array in numpy's
own order, so the bits do not depend on the chunk size. A sample count
whose array cannot be allocated is refused with
:class:`SampleMemoryError`, a ValueError. The stream seeds hash with
CPython's own ``_blake2`` module, which is what ``hashlib.blake2b`` is:
importing ``hashlib`` would also map OpenSSL's libcrypto into every
process that samples.
"""

from __future__ import annotations

import math
import sys
from _blake2 import blake2b  # hashlib.blake2b itself, without loading OpenSSL
from collections.abc import Callable, Iterator
from fractions import Fraction

import numpy as np

from .distributions import (
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
    format_distribution,
    sum_moment,
)
from .exact_core import _order, _unlimited_digits

__all__ = [
    "SampleEstimate",
    "SplitMixStream",
    "estimate_sum_moment",
    "compare_moment",
    "NonFiniteError",
    "SampleMemoryError",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO53 = float(2**53)
# samples per chunk of a draw; every step is elementwise and the reductions
# run over the whole total, so no output bit depends on this size
_CHUNK = 1 << 13


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on z."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class SplitMixStream:
    """splitmix64 in counter mode over numpy uint64 arrays: any window of
    the stream can be read on its own, and a draw reserves the counters it
    reads."""

    __slots__ = ("state", "counter")

    def __init__(self, seed: int):
        self.state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def reserve(self, count: int) -> int:
        """Advance the counter past `count` outputs; return where they start."""
        start = self.counter
        self.counter += count
        return start

    def raw(self, start: int, count: int) -> np.ndarray:
        """Outputs start .. start + count - 1, wherever the counter stands."""
        z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        z *= _GAMMA
        z += self.state
        return _mix64(z)

    def uniform(self, start: int, count: int) -> np.ndarray:
        """53-bit uniforms in [0, 1) from outputs start .. start + count - 1."""
        return (self.raw(start, count) >> np.uint64(11)).astype(np.float64) / _TWO53

    def uniform_pos(self, start: int, count: int) -> np.ndarray:
        """53-bit uniforms in (0, 1], safe under log."""
        return ((self.raw(start, count) >> np.uint64(11)).astype(np.float64) + 1.0) / _TWO53


def _stream_seed(seed: int, dist: Distribution, k: int, n: int) -> int:
    # the label spells the law out in full, whatever the caller's digit limit
    with _unlimited_digits():
        label = f"{seed}|{format_distribution(dist)}|{k}|{n}".encode()
    return int.from_bytes(blake2b(label, digest_size=8).digest(), "little")


def _chunks(count: int) -> Iterator[tuple[int, int]]:
    for lo in range(0, count, _CHUNK):
        yield lo, min(lo + _CHUNK, count)


def _poisson_table(rate: float) -> np.ndarray:
    cumulative = [math.exp(-rate)]
    term = cumulative[0]
    j = 0
    while cumulative[-1] < 1.0 - 1e-15 and j < 400:
        j += 1
        term *= rate / j
        cumulative.append(cumulative[-1] + term)
    # a draw past the table's end would come back as its length
    if 1.0 - cumulative[-1] > 1e-12:
        raise ValueError(f"Poisson rate {rate} too large to sample from a {j + 1}-term table")
    return np.array(cumulative)


def _law(
    dist: Distribution, count: int, stream: SplitMixStream
) -> tuple[int, Callable[[int, int], np.ndarray]]:
    """How many stream outputs one draw of `count` samples reserves, and
    draw(at, m): the m samples whose first uniform is output `at`."""
    uniform, uniform_pos = stream.uniform, stream.uniform_pos
    match dist:
        case Constant(value=a):
            a = float(a)
            return 0, lambda at, m: np.full(m, a)
        case Bernoulli(p=p):
            p = float(p)
            return count, lambda at, m: (uniform(at, m) < p).astype(np.float64)
        case Exponential():
            return count, lambda at, m: -np.log(uniform_pos(at, m))
        case Uniform01():
            return count, uniform
        case UniformTimesExponential():
            # the exponential factors read the second half of the draw's outputs
            return 2 * count, lambda at, m: uniform(at, m) * -np.log(uniform_pos(at + count, m))
        case Poisson(rate=rate):
            rate = float(rate)
            if rate == 0.0:  # reserves its outputs all the same, as every rate does
                return count, lambda at, m: np.zeros(m)
            table = _poisson_table(rate)
            return count, lambda at, m: np.searchsorted(
                table, uniform(at, m), side="right"
            ).astype(np.float64)
        case Geometric(q=q):
            # failures before first success: invert P(Y >= j) = q^j
            log_q = math.log(float(q))
            return count, lambda at, m: np.floor(np.log(uniform_pos(at, m)) / log_q)
        case FiniteSupport(atoms=atoms):
            values = np.array([float(v) for v, _ in atoms])
            cumulative = np.cumsum([float(p) for _, p in atoms])
            last = len(values) - 1
            return count, lambda at, m: values[
                np.minimum(np.searchsorted(cumulative, uniform(at, m), side="right"), last)
            ]
    raise ValueError(f"distribution is not samplable: {dist!r}")


def _pieces(dist: Distribution, count: int, stream: SplitMixStream) -> Iterator[tuple[int, int, np.ndarray]]:
    """One draw of `count` samples as (lo, hi, samples lo .. hi - 1), at
    most one chunk of randomness at a time."""
    match dist:
        case StdNormal():
            # Box-Muller pairs: the cosines are samples 0 .. pairs - 1, the
            # sines the rest, cut at count
            pairs = (count + 1) // 2
            start = stream.reserve(2 * pairs)
            for lo, hi in _chunks(pairs):
                radius = np.sqrt(-2.0 * np.log(stream.uniform_pos(start + lo, hi - lo)))
                angle = (2.0 * np.pi) * stream.uniform(start + pairs + lo, hi - lo)
                yield lo, hi, radius * np.cos(angle)
                end = min(pairs + hi, count)
                yield pairs + lo, end, (radius * np.sin(angle))[: end - pairs - lo]
        case Shifted(base=base, offset=c):
            c = float(c)
            for lo, hi, values in _pieces(base, count, stream):
                yield lo, hi, values + c
        case _:
            width, draw = _law(dist, count, stream)
            start = stream.reserve(width)
            for lo, hi in _chunks(count):
                yield lo, hi, draw(start + lo, hi - lo)


def _mean_and_std(a: np.ndarray) -> tuple[float, float]:
    """``a.mean()`` and ``a.std(ddof=1)`` bit for bit, overwriting a: the
    steps of numpy's own ``_var``, run in place on the whole array."""
    mean = np.add.reduce(a) / a.size
    np.subtract(a, mean, out=a)
    np.square(a, out=a)
    return float(mean), float(np.sqrt(np.add.reduce(a) / (a.size - 1)))


class SampleEstimate:
    """Empirical mean of S_k^n with its standard error; floating-point
    overflow can make either infinite or nan, which :attr:`finite` reports."""

    __slots__ = ("mean", "stderr", "samples", "seed")

    def __init__(self, mean: float, stderr: float, samples: int, seed: int):
        self.mean, self.stderr, self.samples, self.seed = mean, stderr, samples, seed

    def __eq__(self, other):
        if not isinstance(other, SampleEstimate):
            return NotImplemented
        return (self.mean, self.stderr, self.samples, self.seed) == (
            other.mean, other.stderr, other.samples, other.seed
        )

    @property
    def finite(self) -> bool:
        """True iff the mean and the standard error are both finite."""
        return math.isfinite(self.mean) and math.isfinite(self.stderr)


def estimate_sum_moment(
    dist: Distribution, k: int, n: int, samples: int, seed: int
) -> SampleEstimate:
    """Monte Carlo estimate of E[S_k^n] from independent k-fold sums.

    Deterministic given (dist, k, n, samples, seed); the stream is private
    to this parameter tuple. Memory is one float64 array of `samples`
    entries, the running sums, plus scratch for one chunk of a draw; the
    power and the reductions run in place on that array, and no output bit
    depends on the chunk size. A sample count whose array cannot be
    allocated raises :class:`SampleMemoryError`, a ValueError.
    """
    if samples <= 1:
        raise ValueError(f"need at least 2 samples, got {samples}")
    _order("k", k)
    _order("n", n)
    if not isinstance(dist, Distribution):
        raise ValueError(f"distribution is not samplable: {dist!r}")
    stream = SplitMixStream(_stream_seed(seed, dist, k, n))
    try:
        total = np.zeros(samples)
    except MemoryError as exc:
        raise SampleMemoryError(
            f"{samples} samples need {8 * samples} bytes of float64, more than can be allocated"
        ) from exc
    try:
        for _ in range(k):
            for lo, hi, values in _pieces(dist, samples, stream):
                total[lo:hi] += values
    except OverflowError as exc:  # a rational parameter beyond the float range
        raise ValueError("distribution parameter too large to sample in floating point") from exc
    # an overflow shows as an inf or nan that `finite` reports, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        total **= n  # numpy's `square` for n = 2 and `power` otherwise, as `total ** n`
        mean, std = _mean_and_std(total)
    return SampleEstimate(mean=mean, stderr=std / math.sqrt(samples), samples=samples, seed=seed)


class SampleMemoryError(ValueError):
    """A sample count whose float64 array cannot be allocated."""


class NonFiniteError(ValueError):
    """A moment that is not finite in floating point, so has no statistical verdict."""


def compare_moment(
    dist: Distribution,
    k: int,
    n: int,
    samples: int,
    seed: int,
    z: float = 6.0,
) -> tuple[SampleEstimate, Fraction, bool]:
    """The one statistical gate: the estimate of E[S_k^n], the exact
    rational moment, and whether |estimate - exact| <= z * stderr plus the
    float64 rounding bound (k + n + log2(samples) + 2) * eps * |exact|, so
    that rounding alone fails no zero-variance law. At the default z = 6
    with a million samples a failure indicates a real discrepancy, not noise.

    A z that gives no verdict (nan; inf, as 0 * inf is nan; or z < 0)
    raises ValueError; a row whose exact value, estimate or standard error
    is not finite in floating point raises :class:`NonFiniteError`, a
    ValueError: an overflowed float comparison is no statistical verdict."""
    if not (math.isfinite(z) and z >= 0):
        raise ValueError(f"z must be finite and nonnegative, got {z}")
    estimate = estimate_sum_moment(dist, k, n, samples, seed)
    exact = sum_moment(dist, k, n)
    try:
        exact_float = float(exact)
    except OverflowError:
        exact_float = math.inf
    if not (math.isfinite(exact_float) and estimate.finite):
        raise NonFiniteError(
            f"row k={k}, n={n} is not finite in floating point "
            f"(exact {exact_float}, estimate {estimate.mean}, stderr {estimate.stderr})"
        )
    rounding = (k + n + math.log2(samples) + 2) * sys.float_info.epsilon * abs(exact_float)
    return estimate, exact, abs(estimate.mean - exact_float) <= z * estimate.stderr + rounding

