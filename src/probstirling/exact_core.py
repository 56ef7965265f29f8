"""Exact combinatorial kernel.

Factorials, binomials, Stirling numbers of both kinds, difference operators
on dense rational polynomials, single-variable Bell polynomials, and the
integer weight family that compresses power sums over arithmetic
progressions.

Every scalar is an ``int`` or a ``fractions.Fraction``; nothing here ever
rounds. All values are immutable and all functions pure, so concurrent use
needs no coordination (the memoized Stirling triangles are idempotent
caches and may at worst be recomputed).

The Stirling triangles are memoized by :func:`memo_recurrence`, which
fills deep rows bottom-up, so a lookup from a cold cache at any row stays
within a fixed recursion depth.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "Polynomial",
    "CnNTable",
    "binomial",
    "rising_factorial",
    "falling_factorial",
    "double_factorial",
    "multinomial",
    "weak_compositions",
    "memo_recurrence",
    "stirling2",
    "stirling1",
    "stirling2_poly",
    "alternating_sum",
    "bell_poly",
    "forward_diff",
    "iterated_diff",
    "cnn_table",
    "cnn_alternating",
]


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def rising_factorial(x: Fraction | int, n: int) -> Fraction | int:
    """Ascending product x (x+1) ... (x+n-1); the empty product is 1."""
    out: Fraction | int = 1
    for i in range(n):
        out *= x + i
    return out


def falling_factorial(x: Fraction | int, n: int) -> Fraction | int:
    """Descending product x (x-1) ... (x-n+1); the empty product is 1."""
    out: Fraction | int = 1
    for i in range(n):
        out *= x - i
    return out


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ...; both (-1)!! and 0!! are 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def multinomial(parts: Sequence[int]) -> int:
    """Multinomial coefficient (sum parts)! / (parts[0]! parts[1]! ...)."""
    out, total = 1, 0
    for p in parts:
        total += p
        out *= comb(total, p)
    return out


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

# nested misses a memo_recurrence lookup follows by recursion before it
# switches to filling the entries below bottom-up
_NESTED_MISSES = 32


def memo_recurrence(below: Callable[..., Iterable[tuple]]) -> Callable[[Callable], Callable]:
    """Decorator: memoize a recursively defined function of positional
    arguments, where ``below(*args)`` lists the argument tuples the function
    reads through itself at ``args`` (none at a base case).

    A miss evaluates the function, whose own lookups may miss in turn, as
    with ``functools.lru_cache``. Once misses nest 32 deep in one thread,
    the lookup that would nest further instead computes the entries it
    depends on first, bottom-up from an explicit stack, so every
    evaluation finds what it reads already stored: no lookup recurses
    deeper than that bound, and the memo holds the same entries a
    recursive memo would hold.
    ``cache_info`` and ``cache_clear`` behave as on ``functools.lru_cache``;
    entries are idempotent, so concurrent readers at worst compute one twice.
    """

    def decorate(fn: Callable) -> Callable:
        table: dict[tuple, object] = {}
        counts = [0, 0]  # hits, misses
        nested = threading.local()  # this thread's misses in progress

        def fill(args: tuple) -> None:
            stack = [args]
            while stack:
                top = stack[-1]
                if top in table:
                    stack.pop()
                    continue
                missing = [entry for entry in below(*top) if entry not in table]
                if missing:
                    stack.extend(missing)
                else:
                    table[top] = fn(*top)
                    counts[1] += 1
                    stack.pop()

        @wraps(fn)
        def memo(*args):
            try:
                value = table[args]
            except KeyError:
                pass
            else:
                counts[0] += 1
                return value
            depth = getattr(nested, "depth", 0)
            if depth >= _NESTED_MISSES:
                fill(args)
                return table[args]
            nested.depth = depth + 1
            try:
                value = fn(*args)
            finally:
                nested.depth = depth
            table[args] = value
            counts[1] += 1
            return value

        def cache_clear() -> None:
            table.clear()
            counts[:] = [0, 0]

        memo.cache_info = lambda: _CacheInfo(counts[0], counts[1], None, len(table))
        memo.cache_clear = cache_clear
        return memo

    return decorate


def _triangle_below(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """The two entries of row n - 1 that a Stirling triangle entry reads."""
    if 0 <= m <= n and n > 0:
        return ((n - 1, m), (n - 1, m - 1))
    return ()


@memo_recurrence(_triangle_below)
def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind, by the triangular recurrence
    S(n, m) = m S(n-1, m) + S(n-1, m-1); 0 outside 0 <= m <= n."""
    if m < 0 or m > n:
        return 0
    if n == 0:
        return 1
    return m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)


@memo_recurrence(_triangle_below)
def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k), by the recurrence
    s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k); 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    return stirling1(n - 1, k - 1) - (n - 1) * stirling1(n - 1, k)


def stirling2_poly(n: int, m: int, x: Fraction | int) -> Fraction:
    """Value at x of the Stirling polynomial of the second kind: the m-th
    forward difference of t^n, evaluated at x, divided by m!.

    Identically 0 once m exceeds n, because the difference operator kills
    polynomials of lower degree; no special-casing is needed.
    """
    return Fraction(alternating_sum(m, [(x + k) ** n for k in range(m + 1)])) / factorial(m)


def alternating_sum(m: int, values: Sequence[Fraction | int]) -> Fraction | int:
    """The m-th alternating binomial difference of a sequence:
    sum over k = 0..m of (-1)^(m-k) C(m, k) values[k]."""
    # terms with m - k even carry the plus sign
    positive = sum(comb(m, k) * values[k] for k in range(m % 2, m + 1, 2))
    negative = sum(comb(m, k) * values[k] for k in range(1 - m % 2, m + 1, 2))
    return positive - negative


def bell_poly(n: int, x: Fraction | int) -> Fraction | int:
    """Single-variable Bell polynomial: sum over j of S(n, j) x^j."""
    return sum(stirling2(n, j) * x**j for j in range(n + 1))


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[j]`` is the coefficient of x^j. Trailing zeros are stripped on
    construction, so the zero polynomial has an empty coefficient tuple and
    degree -1. Instances are immutable.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def monomial(cls, n: int) -> "Polynomial":
        """x^n."""
        return cls([0] * n + [1])

    @classmethod
    def rising(cls, n: int) -> "Polynomial":
        """x (x+1) ... (x+n-1) as a polynomial in x."""
        p = cls([1])
        for i in range(n):
            p = p * cls([i, 1])
        return p

    @classmethod
    def falling(cls, n: int) -> "Polynomial":
        """x (x-1) ... (x-n+1) as a polynomial in x."""
        p = cls([1])
        for i in range(n):
            p = p * cls([-i, 1])
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return Polynomial([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def shift(self, c: Fraction | int) -> "Polynomial":
        """The composed polynomial p(x + c)."""
        c = Fraction(c)
        out = [Fraction(0)] * (len(self.coeffs) or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            power = Fraction(1)
            for j in range(i, -1, -1):
                out[j] += a * comb(i, j) * power
                power *= c
        return Polynomial(out)

    def derivative(self) -> "Polynomial":
        return Polynomial([j * c for j, c in enumerate(self.coeffs)][1:])

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"


def forward_diff(p: Polynomial, m: int = 1) -> Polynomial:
    """m-th forward difference p(x+1) - p(x), iterated; the zero polynomial
    once m exceeds the degree of p."""
    for _ in range(m):
        if not p:
            break
        p = p.shift(1) - p
    return p


def iterated_diff(p: Polynomial, ys: Sequence[Fraction | int], x: Fraction | int) -> Fraction:
    """Value at x after applying one difference step q -> q(. + y) - q per
    increment y in ys.

    The steps commute, so the order of ys is irrelevant; an empty ys returns
    p(x) unchanged, and the result is identically 0 as soon as len(ys)
    exceeds the degree of p.
    """
    for y in ys:
        p = p.shift(y) - p
    return p(x)


@dataclass(frozen=True)
class CnNTable:
    """Integer weights c[k], k = 0..min(n, N), rewriting the power sum of
    N+1 shifted n-th powers as a weighted sum of min(n, N)+1 of them.

    The row always sums to N+1, and every entry is 1 when N <= n.
    """

    n: int
    N: int
    values: tuple[int, ...]


@lru_cache(maxsize=None)
def cnn_table(n: int, N: int) -> CnNTable:
    """Weight table from the double-binomial alternating sum."""
    top = min(n, N)
    values = []
    for k in range(top + 1):
        acc = 0
        for m in range(k, top + 1):
            term = comb(N + 1, m + 1) * comb(m, k)
            acc += -term if (m - k) % 2 else term
        values.append(acc)
    return CnNTable(n, N, tuple(values))


def cnn_alternating(n: int, N: int, k: int) -> int:
    """Closed form for the weight c[k], valid only on N > n.

    Inputs with N <= n are rejected rather than extrapolated; the closed
    form is not stated there (the table itself is all ones in that range).
    """
    if N <= n:
        raise ValueError(f"closed form requires N > n, got n={n}, N={N}")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..n, got k={k}, n={n}")
    acc = sum(comb(n + 1 + i, k) * comb(n - k + i, n - k) for i in range(N - n))
    return 1 + (-acc if (n - k) % 2 else acc)
