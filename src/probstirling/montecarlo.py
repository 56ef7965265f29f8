"""Seeded Monte Carlo cross-validation of the exact moment engine.

This is the one module that touches floating point: it samples the
continuous and discrete catalog laws, estimates E[S_k^n] empirically, and
compares against the exact rational value at a configurable number of
standard errors. That comparison is made in one place,
:func:`compare_moment`, which :func:`check_moment` and the CLI
``mc-check`` both call: it refuses a z that gives no verdict and a row
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
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
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
    "check_moment",
    "NonFiniteError",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO53 = float(2**53)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class SplitMixStream:
    """splitmix64 in counter mode over numpy uint64 arrays."""

    __slots__ = ("state", "counter")

    def __init__(self, seed: int):
        self.state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def raw(self, count: int) -> np.ndarray:
        index = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        return _mix64(self.state + index * _GAMMA)

    def uniform(self, count: int) -> np.ndarray:
        """53-bit uniforms in [0, 1)."""
        return (self.raw(count) >> np.uint64(11)).astype(np.float64) / _TWO53

    def uniform_pos(self, count: int) -> np.ndarray:
        """53-bit uniforms in (0, 1], safe under log."""
        return ((self.raw(count) >> np.uint64(11)).astype(np.float64) + 1.0) / _TWO53


def _stream_seed(seed: int, dist: Distribution, k: int, n: int) -> int:
    # the label spells the law out in full, whatever the caller's digit limit
    with _unlimited_digits():
        label = f"{seed}|{format_distribution(dist)}|{k}|{n}".encode()
    return int.from_bytes(hashlib.blake2b(label, digest_size=8).digest(), "little")


def _sample_normal(count: int, stream: SplitMixStream) -> np.ndarray:
    pairs = (count + 1) // 2
    radius = np.sqrt(-2.0 * np.log(stream.uniform_pos(pairs)))
    angle = (2.0 * np.pi) * stream.uniform(pairs)
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]


def _sample_poisson(rate: float, count: int, stream: SplitMixStream) -> np.ndarray:
    if rate == 0.0:
        stream.raw(count)  # keep stream advancement uniform across rates
        return np.zeros(count)
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
    table = np.array(cumulative)
    return np.searchsorted(table, stream.uniform(count), side="right").astype(np.float64)


def _sample(dist: Distribution, count: int, stream: SplitMixStream) -> np.ndarray:
    match dist:
        case Constant(value=a):
            return np.full(count, float(a))
        case Bernoulli(p=p):
            return (stream.uniform(count) < float(p)).astype(np.float64)
        case Exponential():
            return -np.log(stream.uniform_pos(count))
        case Uniform01():
            return stream.uniform(count)
        case StdNormal():
            return _sample_normal(count, stream)
        case UniformTimesExponential():
            u = stream.uniform(count)
            return u * -np.log(stream.uniform_pos(count))
        case Poisson(rate=rate):
            return _sample_poisson(float(rate), count, stream)
        case Geometric(q=q):
            # failures before first success: invert P(Y >= j) = q^j
            return np.floor(np.log(stream.uniform_pos(count)) / math.log(float(q)))
        case FiniteSupport(atoms=atoms):
            values = np.array([float(v) for v, _ in atoms])
            cumulative = np.cumsum([float(p) for _, p in atoms])
            index = np.searchsorted(cumulative, stream.uniform(count), side="right")
            return values[np.minimum(index, len(values) - 1)]
        case Shifted(base=base, offset=c):
            return _sample(base, count, stream) + float(c)
    raise ValueError(f"distribution is not samplable: {dist!r}")


@dataclass(frozen=True)
class SampleEstimate:
    """Empirical mean of S_k^n with its standard error; floating-point
    overflow can make either infinite or nan, which :attr:`finite` reports."""

    mean: float
    stderr: float
    samples: int
    seed: int

    @property
    def finite(self) -> bool:
        """True iff the mean and the standard error are both finite."""
        return math.isfinite(self.mean) and math.isfinite(self.stderr)


def estimate_sum_moment(
    dist: Distribution, k: int, n: int, samples: int, seed: int
) -> SampleEstimate:
    """Monte Carlo estimate of E[S_k^n] from independent k-fold sums.

    Deterministic given (dist, k, n, samples, seed); the stream is private
    to this parameter tuple.
    """
    if samples <= 1:
        raise ValueError(f"need at least 2 samples, got {samples}")
    _order("k", k)
    _order("n", n)
    if not isinstance(dist, Distribution):
        raise ValueError(f"distribution is not samplable: {dist!r}")
    stream = SplitMixStream(_stream_seed(seed, dist, k, n))
    total = np.zeros(samples)
    try:
        for _ in range(k):
            total += _sample(dist, samples, stream)
    except OverflowError as exc:  # a rational parameter beyond the float range
        raise ValueError("distribution parameter too large to sample in floating point") from exc
    # an overflow shows as an inf or nan that `finite` reports, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        powered = total**n
        mean = float(powered.mean())
        stderr = float(powered.std(ddof=1) / math.sqrt(samples))
    return SampleEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


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
    rational moment, and whether |estimate - exact| <= z * stderr.

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
    return estimate, exact, abs(estimate.mean - exact_float) <= z * estimate.stderr


def check_moment(
    dist: Distribution,
    k: int,
    n: int,
    samples: int,
    seed: int,
    z: float = 6.0,
) -> bool:
    """True iff the estimate sits within z standard errors of the exact
    rational moment, as :func:`compare_moment` decides. At the default
    z = 6 with a million samples a failure indicates a real discrepancy,
    not noise. A negative or non-finite z, or a row that is not finite in
    floating point, raises ValueError."""
    return compare_moment(dist, k, n, samples, seed, z)[2]
