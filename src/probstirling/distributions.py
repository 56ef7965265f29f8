"""Catalog of random variables with exact rational moment sequences.

Each distribution is an immutable value object with rational parameters;
raw moments E[Y^n], moments of the k-fold independent sum S_k, and shifted
variants E[(x + S_k)^n] are exact Fractions. Every catalog member has a
finite moment generating function M(z) near 0 (checked analytically per
kind, not at runtime), so all moments used here are finite.

The moments live in one row table per law, row k over n: a pair of
integers (nums, den) with E[S_k^n] = nums[n] / den and gcd(den, *nums) = 1,
grown, as every exact memo row is, by ``exact_core._grow_rows``, from the
new entries of one row that this module supplies. Row 1, E[Y^n], is the
one place a law's raw moments are computed. It grows one entry at a time
from E[Y^0] = 1, by M's recurrence for a Poisson (M' = lam e^z M) or
geometric (M (1 - q e^z) = 1 - q) law and by a closed form for the others;
a shifted law Y + c sums E[(c + Y)^n] over its base law's row 1. The new
entries of row k >= 2 are the binomial convolution of rows k - 1 and 1,
summed as integers by ``exact_core._convolve_tail`` without recursion, so
no k is too deep for a cold lookup. E[(x + S_k)^n], ``_shifted_value``,
builds one Fraction from row k. The theorem12 grid runs both on an Appell
seed's initial values in place of row 1.

:func:`moment`, :func:`sum_moment` and :func:`shifted_sum_moment` (keyed on
the value of x, so an int x and an equal Fraction share an entry) are
memoized views of the tables. The caches are idempotent, and the row
tables take a lock only while they grow.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial

from .exact_core import _convolve_tail, _Frozen, _grow_rows, _order, _shifted_value
from .exact_core import double_factorial

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


class Distribution(_Frozen):
    """Base class for catalog laws, which are immutable, hashable values.

    A law names its parameters once, in ``__match_args__``, which are also
    its slots; its ``__init__`` checks them and stores them with
    :meth:`_freeze`, which also keeps them as one tuple and computes its
    hash once, since every memo keyed on a law hashes it on each lookup.
    Two laws are equal when they are of the same class with equal
    parameters.
    """

    __slots__ = ("_params", "_hash")

    def __init__(self):
        self._freeze()

    def _freeze(self, *params) -> None:
        """Store the parameters, in ``__match_args__`` order, and their hash."""
        super()._freeze(*params)
        object.__setattr__(self, "_params", params)
        object.__setattr__(self, "_hash", hash(params))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._params == other._params

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={v!r}" for name, v in zip(self.__match_args__, self._params))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # the one stored tuple that the hash and equality read
        return type(self), self._params


class Constant(Distribution):
    """Degenerate law concentrated at a fixed rational value."""

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value):
        self._freeze(_rational(value, "constant value"))


class Bernoulli(Distribution):
    """P(Y = 1) = p and P(Y = 0) = 1 - p, with 0 < p <= 1."""

    __slots__ = __match_args__ = ("p",)

    def __init__(self, p):
        p = _rational(p, "Bernoulli p")
        if not 0 < p <= 1:
            raise ValueError(f"Bernoulli requires 0 < p <= 1, got {p}")
        self._freeze(p)


class Poisson(Distribution):
    """Poisson law with rational mean rate >= 0."""

    __slots__ = __match_args__ = ("rate",)

    def __init__(self, rate):
        rate = _rational(rate, "Poisson rate")
        if rate < 0:
            raise ValueError(f"Poisson requires rate >= 0, got {rate}")
        self._freeze(rate)


class Geometric(Distribution):
    """Failures before the first success: P(Y = j) = (1-q) q^j, 0 < q < 1."""

    __slots__ = __match_args__ = ("q",)

    def __init__(self, q):
        q = _rational(q, "Geometric q")
        if not 0 < q < 1:
            raise ValueError(f"Geometric requires 0 < q < 1, got {q}")
        self._freeze(q)


class Exponential(Distribution):
    """Unit-rate exponential law; E[Y^n] = n!."""

    __slots__ = ()


class Uniform01(Distribution):
    """Uniform law on [0, 1]; E[Y^n] = 1/(n+1)."""

    __slots__ = ()


class StdNormal(Distribution):
    """Standard normal law; odd moments vanish, E[Y^(2n)] = (2n-1)!!."""

    __slots__ = ()


class UniformTimesExponential(Distribution):
    """Product of independent Uniform01 and Exponential factors;
    E[Y^n] = n!/(n+1)."""

    __slots__ = ()


class FiniteSupport(Distribution):
    """Arbitrary finite rational law, as (value, probability) atoms with
    positive probabilities summing to 1."""

    __slots__ = __match_args__ = ("atoms",)

    def __init__(self, atoms):
        atoms = tuple(
            (_rational(v, "atom value"), _rational(p, "atom probability"))
            for v, p in atoms
        )
        if not atoms:
            raise ValueError("finite law needs at least one atom")
        if any(p <= 0 for _, p in atoms):
            raise ValueError("atom probabilities must be positive")
        total = sum(p for _, p in atoms)
        if total != 1:
            raise ValueError(f"atom probabilities must sum to 1, got {total}")
        self._freeze(atoms)


class Shifted(Distribution):
    """The law of Y + c for a catalog base law Y and rational offset c."""

    __slots__ = __match_args__ = ("base", "offset")

    def __init__(self, base, offset):
        if not isinstance(base, Distribution):
            raise ValueError(f"shift base must be a distribution, got {base!r}")
        offset = _rational(offset, "shift offset")
        # a shifted base is already flat, so one step folds Y + a + b into
        # Y + (a + b) and no law nests: hashing, formatting, moments and
        # sampling never recurse more than one level
        if isinstance(base, Shifted):
            base, offset = base.base, offset + base.offset
        self._freeze(base, offset)


@lru_cache(maxsize=None)
def moment(dist: Distribution, n: int) -> Fraction:
    """Exact raw moment E[Y^n], read from row 1 of the law's table."""
    _order("moment order", n)
    nums, den = _law_moments(dist, n + 1)
    return Fraction(nums[n], den)


def _next_moment(dist: Distribution, nums: list[int], den: int) -> Fraction:
    """E[Y^n] for n = len(nums) >= 1, given E[Y^j] = nums[j] / den for j < n."""
    n = len(nums)
    match dist:
        case Constant(value=a):
            return a**n
        case Bernoulli(p=p):
            return p
        case Poisson(rate=lam):
            # M' = lam e^z M: E[Y^n] = lam sum_{j<n} C(n-1, j) E[Y^j]
            s = sum(comb(n - 1, j) * c for j, c in enumerate(nums))
            return Fraction(lam.numerator * s, lam.denominator * den)
        case Geometric(q=q):
            # M (1 - q e^z) = 1 - q: E[Y^n] = q/(1-q) sum_{j<n} C(n, j) E[Y^j]
            s = sum(comb(n, j) * c for j, c in enumerate(nums))
            return Fraction(q.numerator * s, (q.denominator - q.numerator) * den)
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
            # E[(c + Y)^n]; the base is never shifted, so this does not recurse
            return shifted_sum_moment(base, 1, n, c)
    raise TypeError(f"unknown distribution kind: {dist!r}")


# law -> rows over k of E[S_k^n], grown by `exact_core._grow_rows`: each a
# pair (nums, den) of integers with E[S_k^n] = nums[n] / den and
# gcd(den, *nums) == 1, so den is the lcm of the entries' denominators and a
# row's form does not depend on how it grew; row 0 is ([1, 0, 0, ...], 1),
# and row 1, E[S_1^n] = E[Y^n], is the law's one row of raw moments.
_SUM_MOMENT_ROWS: dict[Distribution, list[tuple[list[int], int]]] = {}


def _law_moments(dist: Distribution, width: int) -> tuple[list[int], int]:
    """Row 1 of the law's E[S_k^n] table as it is stored, E[Y^j] = nums[j] / den
    for j < len(nums), after growing it to at least `width` entries. Only a
    shifted law's growth reenters the lock, in the same thread, to grow its
    base law's row 1."""
    return _grow_rows(_SUM_MOMENT_ROWS.setdefault(dist, []), 1, width, partial(_grow_moments, dist))


def _sum_moment_row(dist: Distribution, k: int, n: int) -> tuple[list[int], int]:
    """Row k of the E[S_k^n] table of `dist`, at least n + 1 entries long,
    as the stored pair (nums, den)."""
    _order("number of summands", k)
    _order("moment order", n)
    return _grow_rows(_SUM_MOMENT_ROWS.setdefault(dist, []), k, n + 1, partial(_grow_moments, dist))


def _grow_moments(
    dist: Distribution, i: int, rows: list, nums: list[int], den: int, width: int
) -> tuple[list[int], int]:
    """The tail of row i >= 1 of the law's E[S_k^n] table from len(nums) on:
    of row 1, one entry, E[Y^0] = 1 or the next by the law's rule in
    `_next_moment`; of row i >= 2, every entry below `width`, by
    ``exact_core._convolve_tail``."""
    if i == 1:
        value = _next_moment(dist, nums, den) if nums else Fraction(1)
        return [value.numerator], value.denominator
    return _convolve_tail(i, rows, nums, den, width)


@lru_cache(maxsize=None)
def sum_moment(dist: Distribution, k: int, n: int) -> Fraction:
    """Exact E[S_k^n] for S_k the sum of k independent copies; S_0 = 0.

    Uses the binomial convolution E[S_k^n] = sum_j C(n, j) E[S_{k-1}^j] E[Y^{n-j}].
    """
    nums, den = _sum_moment_row(dist, k, n)
    return Fraction(nums[n], den)


@lru_cache(maxsize=None)
def shifted_sum_moment(dist: Distribution, k: int, n: int, x: Fraction | int) -> Fraction:
    """Exact E[(x + S_k)^n], expanded binomially over powers of x."""
    return _shifted_value(*_sum_moment_row(dist, k, n), n, x)


# syntax name -> law, for the laws written as the bare name or, for a law
# with one parameter, as name:parameter; parsing and formatting both read it
_NAMED_LAWS = {
    "const": Constant,
    "bernoulli": Bernoulli,
    "poisson": Poisson,
    "geom": Geometric,
    "exp": Exponential,
    "uniform": Uniform01,
    "normal": StdNormal,
    "ut": UniformTimesExponential,
}


def parse_distribution(text: str) -> Distribution:
    """Parse the distribution string syntax used by the CLI.

    Accepted forms: ``const:a``, ``bernoulli:p``, ``poisson:lam``,
    ``geom:q``, ``exp``, ``uniform``, ``normal``, ``ut``,
    ``finite:v1:p1,v2:p2,...``, ``shift:c:<base>``. Rationals are written
    ``num/den`` or as bare integers. Raises ValueError on anything else.
    Nested shifts are peeled off in one pass, so any depth parses in linear
    time, and fold into one :class:`Shifted`.
    """
    text = text.strip()
    offsets, start = [], 0
    # the head before the first colon is "shift" (or the whole rest is)
    while text.startswith("shift", start) and text[start + 5 : start + 6] in ("", ":"):
        colon = text.find(":", start + 6)
        if colon < 0 or colon + 1 == len(text):
            raise ValueError(f"shift requires an offset and a base law: {text[start:]!r}")
        offsets.append(text[start + 6 : colon])
        # the text ends in a non-space, so this stops inside it
        start = colon + 1
        while text[start].isspace():
            start += 1
    dist = _parse_base(text[start:])
    # innermost first, so the first bad offset refused is the innermost one
    for offset_text in reversed(offsets):
        dist = Shifted(dist, offset_text)
    return dist


def _parse_base(text: str) -> Distribution:
    """The law that `text`, stripped and not a shift, spells."""
    head, sep, rest = text.partition(":")
    if head in _NAMED_LAWS:
        law = _NAMED_LAWS[head]
        if not law.__match_args__:
            if sep:
                raise ValueError(f"{head!r} takes no parameter: {text!r}")
            return law()
        if not rest:
            raise ValueError(f"{head!r} requires a rational parameter: {text!r}")
        return law(rest)
    if head == "finite":
        if not rest:
            raise ValueError(f"finite requires value:probability atoms: {text!r}")
        atoms = []
        for pair in rest.split(","):
            value_text, pair_sep, prob_text = pair.partition(":")
            if not pair_sep:
                raise ValueError(f"finite atom must look like value:prob, got {pair!r}")
            atoms.append((value_text, prob_text))
        return FiniteSupport(tuple(atoms))
    raise ValueError(f"unknown distribution syntax: {text!r}")


def format_distribution(dist: Distribution) -> str:
    """Canonical string form, the inverse of :func:`parse_distribution`."""
    match dist:
        case FiniteSupport(atoms=atoms):
            return "finite:" + ",".join(f"{v}:{p}" for v, p in atoms)
        case Shifted(base=base, offset=c):
            return f"shift:{c}:{format_distribution(base)}"
    for name, law in _NAMED_LAWS.items():
        if isinstance(dist, law):
            return ":".join([name, *(str(getattr(dist, field)) for field in law.__match_args__)])
    raise TypeError(f"unknown distribution kind: {dist!r}")
