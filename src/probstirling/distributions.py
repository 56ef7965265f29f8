"""Catalog of random variables with exact rational moment sequences.

Each distribution is an immutable value object with rational parameters;
raw moments E[Y^n], moments of the k-fold independent sum S_k, and shifted
variants E[(x + S_k)^n] are exact Fractions computed by per-kind closed
forms plus binomial convolution. Every catalog member has a finite moment
generating function near 0 (checked analytically per kind, not at
runtime), so all moments used here are finite.

Moment lookups are memoized module-wide: raw moments E[Y^n]
(:func:`moment`), partial-sum moments E[S_k^n] (:func:`sum_moment`, read
from one row table per law, row k over n, grown by the
convolution below without recursion, so no k is too deep for a cold
lookup) and shifted partial-sum moments E[(x + S_k)^n]
(:func:`shifted_sum_moment`, keyed on the value of x, so an int x and an
equal Fraction share an entry). The caches are idempotent, and the row
tables take a lock only while they grow.

The tables the convolutions read are held as integers. Row k of a law's
table is a pair (nums, den) with E[S_k^n] = nums[n] / den, reduced so that
gcd(den, *nums) = 1. Row 1, E[S_1^n] = E[Y^n], is where the convolutions
and the S_Y engine read the law's moments: it grows by one :func:`moment`
lookup per new entry, so a moment is looked up once per law, not on every
widening. A new entry of row k sums C(n, j) times the numerators of
E[S_{k-1}^j] and E[Y^{n-j}] over the product of the two rows'
denominators, and the row is reduced with one gcd each time it grows, not
once per entry. E[(x + S_k)^n] with x = a/b sums the same numerators scaled
by a^(n-j) b^j, so a Fraction is built only for a value handed to a caller.
The moments of a shifted law Y + c are E[(c + Y)^n], one such sum over the
base law's row 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from .exact_core import _GROW_LOCK, _order, bell_poly, double_factorial, stirling2

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
        offset = _rational(self.offset, "shift offset")
        # a shifted base is already flat, so one step folds Y + a + b into
        # Y + (a + b) and no law nests: hashing, formatting, moments and
        # sampling never recurse more than one level
        if isinstance(self.base, Shifted):
            offset += self.base.offset
            object.__setattr__(self, "base", self.base.base)
        object.__setattr__(self, "offset", offset)


@lru_cache(maxsize=None)
def moment(dist: Distribution, n: int) -> Fraction:
    """Exact raw moment E[Y^n]."""
    _order("moment order", n)
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
            # through the factorial moments E[(Y)_r] = r! (q/p)^r, like bell_poly for Poisson
            return sum(stirling2(n, r) * factorial(r) * (q / (1 - q)) ** r for r in range(n + 1))
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


# law -> rows over k of E[S_k^n], each a pair (nums, den) of integers with
# E[S_k^n] = nums[n] / den and gcd(den, *nums) == 1, so den is the lcm of the
# entries' denominators and a row's form does not depend on how it grew; row 0
# is ([1, 0, 0, ...], 1), and row 1, E[S_1^n] = E[Y^n], is the law's one row
# of raw moments. A row that grows is replaced by a new pair, never changed in
# place, so a reader without the lock sees a whole row.
_SUM_MOMENT_ROWS: dict[Distribution, list[tuple[list[int], int]]] = {}


def _law_moments(dist: Distribution, width: int) -> tuple[list[int], int]:
    """Row 1 of the law's E[S_k^n] table as it is stored, E[Y^j] = nums[j] / den
    for j < len(nums), after growing it to at least `width` entries by one
    `moment` lookup per entry it lacks.

    The growth holds the tables' reentrant lock across those lookups. That
    is safe: a moment lookup takes no lock but that one (Poisson and
    geometric moments grow the Stirling tables under it, and a shifted
    law's moments grow its base law's row 1), so it can only reenter it in
    the same thread.
    """
    rows = _SUM_MOMENT_ROWS.setdefault(dist, [])
    if len(rows) > 1 and len(rows[1][0]) >= width:
        return rows[1]
    with _GROW_LOCK:
        if not rows:
            rows.append(([1], 1))
        if len(rows) == 1:
            rows.append(([], 1))
        nums, den = rows[1]
        if len(nums) < width:
            values = [moment(dist, j) for j in range(len(nums), width)]
            # the lcm of the entries' denominators is a reduced row's den
            new_den = lcm(den, *[v.denominator for v in values])
            scale = new_den // den
            nums = [c * scale for c in nums]
            nums += [v.numerator * (new_den // v.denominator) for v in values]
            rows[1] = (nums, new_den)
        head, head_den = rows[0]
        if len(head) < width:
            rows[0] = (head + [0] * (width - len(head)), head_den)
    return rows[1]


def _sum_moment_row(dist: Distribution, k: int, n: int) -> tuple[list[int], int]:
    """Row k of the E[S_k^n] table of `dist`, at least n + 1 entries long,
    as the stored pair (nums, den).

    Rows 2 and up grow by the binomial convolution
    E[S_i^n] = sum_j C(n, j) E[S_{i-1}^j] E[Y^{n-j}], summed as integers over
    den_{i-1} den_1. Row lengths never increase with the row index, so only
    the rows from the first one shorter than n + 1 through row k grow, each
    in order and each with one gcd: the table holds the rectangle below
    every lookup made so far.
    """
    _order("number of summands", k)
    _order("moment order", n)
    width = n + 1
    rows = _SUM_MOMENT_ROWS.setdefault(dist, [])
    if k < len(rows) and len(rows[k][0]) >= width:
        return rows[k]
    # this grows rows 0 and 1 to `width`, so the growth below convolves
    # only rows 2 and up
    mu, mu_den = _law_moments(dist, width)
    with _GROW_LOCK:
        # rows 0 and 1 are long enough now; the rest grow from the first row
        # shorter than `width` through row k
        low = min(k, len(rows))
        while low > 2 and len(rows[low - 1][0]) < width:
            low -= 1
        for i in range(max(low, 2), k + 1):
            if i == len(rows):
                rows.append(([], 1))
            old, old_den = rows[i]
            if len(old) >= width:
                continue
            p, p_den = rows[i - 1]
            # every entry of row i is an integer over den_{i-1} den_1, so the
            # lcm of the stored entries' denominators, old_den, divides it
            den = p_den * mu_den
            scale = den // old_den
            nums = [c * scale for c in old]
            nums += [
                sum(comb(m, j) * p[j] * mu[m - j] for j in range(m + 1))
                for m in range(len(old), width)
            ]
            g = gcd(den, *nums)
            rows[i] = ([c // g for c in nums], den // g)
    return rows[k]


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
    x = Fraction(x)
    p, p_den = _sum_moment_row(dist, k, n)
    # x = a/b, so x^(n-j) = a^(n-j) b^j / b^n; Horner's rule over j, with
    # acc = sum_{i<=j} C(n, i) p[i] a^(j-i) b^i after step j
    a, b = x.numerator, x.denominator
    acc, b_j = 0, 1
    for j in range(n + 1):
        acc = acc * a + comb(n, j) * p[j] * b_j
        b_j *= b
    return Fraction(acc, p_den * b**n)


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
        if not fields(law):
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
            return ":".join([name, *(str(getattr(dist, f.name)) for f in fields(law))])
    raise TypeError(f"unknown distribution kind: {dist!r}")
