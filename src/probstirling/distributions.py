"""Catalog of random variables with exact rational moment sequences.

Each distribution is an immutable value object with rational parameters;
raw moments E[Y^n], moments of the k-fold independent sum S_k, and shifted
variants E[(x + S_k)^n] are exact Fractions computed by per-kind closed
forms plus binomial convolution. Every catalog member has a finite moment
generating function near 0 (checked analytically per kind, not at
runtime), so all moments used here are finite.

Moment lookups are memoized module-wide in three tables: raw moments
E[Y^n] (:func:`moment`), partial-sum moments E[S_k^n] (:func:`sum_moment`,
filled bottom-up over k, so no k is too deep for a cold lookup) and
shifted partial-sum moments E[(x + S_k)^n] (:func:`shifted_sum_moment`,
keyed on the value of x, so an int x and an equal Fraction share an
entry). The caches are idempotent, so concurrent readers at worst
recompute an identical value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exact_core import bell_poly, binomial, double_factorial, memo_recurrence
from .polylog import li_neg

__all__ = [
    "Distribution",
    "Constant",
    "Bernoulli",
    "Poisson",
    "Geometric",
    "Exponential",
    "Uniform01",
    "StdNormal",
    "UniformTimesExponential",
    "FiniteSupport",
    "Shifted",
    "moment",
    "sum_moment",
    "shifted_sum_moment",
    "parse_distribution",
    "format_distribution",
]


def _rational(value, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{what} must be rational, got {value!r}") from exc


@dataclass(frozen=True)
class Distribution:
    """Base class for catalog distributions; instances are hashable values."""


@dataclass(frozen=True)
class Constant(Distribution):
    """Degenerate law concentrated at a fixed rational value."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", _rational(self.value, "constant value"))


@dataclass(frozen=True)
class Bernoulli(Distribution):
    """P(Y = 1) = p and P(Y = 0) = 1 - p, with 0 < p <= 1."""

    p: Fraction

    def __post_init__(self):
        p = _rational(self.p, "Bernoulli p")
        if not 0 < p <= 1:
            raise ValueError(f"Bernoulli requires 0 < p <= 1, got {p}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class Poisson(Distribution):
    """Poisson law with rational mean rate >= 0."""

    rate: Fraction

    def __post_init__(self):
        rate = _rational(self.rate, "Poisson rate")
        if rate < 0:
            raise ValueError(f"Poisson requires rate >= 0, got {rate}")
        object.__setattr__(self, "rate", rate)


@dataclass(frozen=True)
class Geometric(Distribution):
    """Failures before the first success: P(Y = j) = (1-q) q^j, 0 < q < 1."""

    q: Fraction

    def __post_init__(self):
        q = _rational(self.q, "Geometric q")
        if not 0 < q < 1:
            raise ValueError(f"Geometric requires 0 < q < 1, got {q}")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Unit-rate exponential law; E[Y^n] = n!."""


@dataclass(frozen=True)
class Uniform01(Distribution):
    """Uniform law on [0, 1]; E[Y^n] = 1/(n+1)."""


@dataclass(frozen=True)
class StdNormal(Distribution):
    """Standard normal law; odd moments vanish, E[Y^(2n)] = (2n-1)!!."""


@dataclass(frozen=True)
class UniformTimesExponential(Distribution):
    """Product of independent Uniform01 and Exponential factors;
    E[Y^n] = n!/(n+1)."""


@dataclass(frozen=True)
class FiniteSupport(Distribution):
    """Arbitrary finite rational law, as (value, probability) atoms with
    positive probabilities summing to 1."""

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        atoms = tuple(
            (_rational(v, "atom value"), _rational(p, "atom probability"))
            for v, p in self.atoms
        )
        if not atoms:
            raise ValueError("finite law needs at least one atom")
        if any(p <= 0 for _, p in atoms):
            raise ValueError("atom probabilities must be positive")
        total = sum(p for _, p in atoms)
        if total != 1:
            raise ValueError(f"atom probabilities must sum to 1, got {total}")
        object.__setattr__(self, "atoms", atoms)


@dataclass(frozen=True)
class Shifted(Distribution):
    """The law of Y + c for a catalog base law Y and rational offset c."""

    base: Distribution
    offset: Fraction

    def __post_init__(self):
        if not isinstance(self.base, Distribution):
            raise ValueError(f"shift base must be a distribution, got {self.base!r}")
        object.__setattr__(self, "offset", _rational(self.offset, "shift offset"))


@lru_cache(maxsize=None)
def moment(dist: Distribution, n: int) -> Fraction:
    """Exact raw moment E[Y^n]."""
    if n < 0:
        raise ValueError(f"moment order must be >= 0, got {n}")
    if n == 0:
        return Fraction(1)
    match dist:
        case Constant(value=a):
            return a**n
        case Bernoulli(p=p):
            return p
        case Poisson(rate=lam):
            return Fraction(bell_poly(n, lam))
        case Geometric(q=q):
            return (1 - q) * li_neg(n, q)
        case Exponential():
            return Fraction(factorial(n))
        case Uniform01():
            return Fraction(1, n + 1)
        case StdNormal():
            return Fraction(0) if n % 2 else Fraction(double_factorial(n - 1))
        case UniformTimesExponential():
            return Fraction(factorial(n), n + 1)
        case FiniteSupport(atoms=atoms):
            return sum((p * v**n for v, p in atoms), Fraction(0))
        case Shifted(base=base, offset=c):
            return sum(
                (binomial(n, j) * c ** (n - j) * moment(base, j) for j in range(n + 1)),
                Fraction(0),
            )
    raise TypeError(f"unknown distribution kind: {dist!r}")


def _sum_moment_below(dist: Distribution, k: int, n: int) -> tuple[tuple, ...]:
    """The entries of row k - 1 that E[S_k^n] reads."""
    return tuple((dist, k - 1, j) for j in range(n + 1)) if k > 0 else ()


@memo_recurrence(_sum_moment_below)
def sum_moment(dist: Distribution, k: int, n: int) -> Fraction:
    """Exact E[S_k^n] for S_k the sum of k independent copies; S_0 = 0.

    Uses the binomial convolution E[S_k^n] = sum_j C(n, j) E[S_{k-1}^j] E[Y^{n-j}].
    """
    if k < 0:
        raise ValueError(f"number of summands must be >= 0, got {k}")
    if k == 0:
        return Fraction(1 if n == 0 else 0)
    return sum(
        (
            binomial(n, j) * sum_moment(dist, k - 1, j) * moment(dist, n - j)
            for j in range(n + 1)
        ),
        Fraction(0),
    )


@lru_cache(maxsize=None)
def shifted_sum_moment(dist: Distribution, k: int, n: int, x: Fraction | int) -> Fraction:
    """Exact E[(x + S_k)^n], expanded binomially over powers of x."""
    x = Fraction(x)
    return sum(
        (binomial(n, j) * x ** (n - j) * sum_moment(dist, k, j) for j in range(n + 1)),
        Fraction(0),
    )


_SIMPLE_KINDS = {
    "exp": Exponential,
    "uniform": Uniform01,
    "normal": StdNormal,
    "ut": UniformTimesExponential,
}

_PARAM_KINDS = {
    "const": Constant,
    "bernoulli": Bernoulli,
    "poisson": Poisson,
    "geom": Geometric,
}


def parse_distribution(text: str) -> Distribution:
    """Parse the distribution string syntax used by the CLI.

    Accepted forms: ``const:a``, ``bernoulli:p``, ``poisson:lam``,
    ``geom:q``, ``exp``, ``uniform``, ``normal``, ``ut``,
    ``finite:v1:p1,v2:p2,...``, ``shift:c:<base>``. Rationals are written
    ``num/den`` or as bare integers. Raises ValueError on anything else.
    """
    text = text.strip()
    head, sep, rest = text.partition(":")
    if head in _SIMPLE_KINDS:
        if sep:
            raise ValueError(f"{head!r} takes no parameter: {text!r}")
        return _SIMPLE_KINDS[head]()
    if head in _PARAM_KINDS:
        if not rest:
            raise ValueError(f"{head!r} requires a rational parameter: {text!r}")
        return _PARAM_KINDS[head](_rational(rest, f"{head} parameter"))
    if head == "shift":
        offset_text, inner_sep, base_text = rest.partition(":")
        if not inner_sep or not base_text:
            raise ValueError(f"shift requires an offset and a base law: {text!r}")
        return Shifted(parse_distribution(base_text), _rational(offset_text, "shift offset"))
    if head == "finite":
        if not rest:
            raise ValueError(f"finite requires value:probability atoms: {text!r}")
        atoms = []
        for pair in rest.split(","):
            value_text, pair_sep, prob_text = pair.partition(":")
            if not pair_sep:
                raise ValueError(f"finite atom must look like value:prob, got {pair!r}")
            atoms.append(
                (_rational(value_text, "atom value"), _rational(prob_text, "atom probability"))
            )
        return FiniteSupport(tuple(atoms))
    raise ValueError(f"unknown distribution syntax: {text!r}")


def format_distribution(dist: Distribution) -> str:
    """Canonical string form, the inverse of :func:`parse_distribution`."""
    match dist:
        case Constant(value=a):
            return f"const:{a}"
        case Bernoulli(p=p):
            return f"bernoulli:{p}"
        case Poisson(rate=lam):
            return f"poisson:{lam}"
        case Geometric(q=q):
            return f"geom:{q}"
        case Exponential():
            return "exp"
        case Uniform01():
            return "uniform"
        case StdNormal():
            return "normal"
        case UniformTimesExponential():
            return "ut"
        case FiniteSupport(atoms=atoms):
            return "finite:" + ",".join(f"{v}:{p}" for v, p in atoms)
        case Shifted(base=base, offset=c):
            return f"shift:{c}:{format_distribution(base)}"
    raise TypeError(f"unknown distribution kind: {dist!r}")
