"""Exact combinatorial kernel.

Binomials, rising and double factorials, multinomials, Stirling numbers
of both kinds, integer partitions with the count of weak compositions each
one stands for, the m-th alternating binomial difference, dense rational
polynomials with the forward difference, single-variable Bell polynomials,
and the integer weight family that compresses power sums over arithmetic
progressions.

Every scalar is an ``int`` or a ``fractions.Fraction``; nothing here ever
rounds. No function changes a value in place, and all are pure.

Every stored exact row, a pair (nums, den) of integers over one
denominator, grows by one rule, ``_grow_row``, from the new entries its
table supplies: the Stirling triangles here, the moment tables of
:mod:`probstirling.distributions` and the oracle memos of
:mod:`probstirling.gen_stirling`. ``_grow_rows`` grows a recurrence table
with no recursion, so a cold lookup at any depth costs one pass over its
rectangle. The Stirling triangles are stored sheared: row j holds (j + d, j)
for d = 0, 1, ..., read from the entry before it and the one above it. The
public functions are ``lru_cache`` memos over those tables. The k-fold
tables grow by ``_convolve_tail`` and are evaluated at x by ``_shifted_value``.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, gcd, lcm, perm

__all__ = [
    "Polynomial",
    "CnNTable",
    "binomial",
    "rising_factorial",
    "double_factorial",
    "multinomial",
    "partitions",
    "arrangements",
    "stirling2",
    "stirling1",
    "alternating_sum",
    "bell_poly",
    "forward_diff",
    "cnn_table",
    "cnn_alternating",
]


def _order(name: str, value: int, upper: int | None = None) -> None:
    """Refuse an order below 0, or above `upper` if given, naming the parameter."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    if upper is not None and value > upper:
        raise ValueError(f"{name} must be <= {upper}, got {value}")


_DIGIT_LIMIT_LOCK = threading.RLock()


@contextmanager
def _unlimited_digits() -> Iterator[None]:
    """Run the block with the int <-> str digit limit lifted, one thread at
    a time, so that each caller gets its own limit back."""
    with _DIGIT_LIMIT_LOCK:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(saved)


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n."""
    _order("n", n)
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def rising_factorial(x: Fraction | int, n: int) -> Fraction | int:
    """Ascending product x (x+1) ... (x+n-1); the empty product is 1."""
    _order("n", n)
    out: Fraction | int = 1
    for i in range(n):
        out *= x + i
    return out


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ...; both (-1)!! and 0!! are 1."""
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
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


def arrangements(parts: Sequence[int], slots: int) -> int:
    """The number of weak compositions into `slots` parts whose nonzero
    parts are `parts`: slots!/((slots - l)! prod mult!), where l is the
    number of parts and mult their multiplicities."""
    _order("slots", slots)
    out = perm(slots, len(parts))
    for mult in Counter(parts).values():
        out //= factorial(mult)
    return out


def partitions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The partitions of `total` into at most `parts` positive parts, each a
    nondecreasing tuple, in lexicographic order; 0 has the one empty
    partition. A sum over weak compositions of a symmetric function needs
    one term per partition, weighted by its arrangements."""
    _order("total", total)
    _order("parts", parts)
    if total == 0:
        yield ()
        return
    if parts == 0:
        return
    # the least way to finish a partition with `rest` in at most `room`
    # parts, each at least `low`: parts of `low` while a second one fits,
    # then the remainder (rest is 0 or at least low, and room at least 1)
    def finish(out: list[int], low: int, rest: int, room: int) -> None:
        while room > 1 and rest >= 2 * low:
            out.append(low)
            rest -= low
            room -= 1
        if rest:
            out.append(rest)

    current: list[int] = []
    finish(current, 1, total, parts)
    yield tuple(current)
    # the next partition raises the second-to-last part by the least amount
    # that leaves a valid finish: by one, or by all of the last part
    while len(current) > 1:
        rest = current.pop() - 1
        low = current.pop() + 1
        if rest >= low:
            current.append(low)
            finish(current, low, rest, parts - len(current))
        else:
            current.append(low + rest)
        yield tuple(current)


def _orbit_sum(values: Sequence[Fraction], total: int, slots: int) -> Fraction:
    """The sum over the weak compositions c of `total` into `slots` parts of
    multinomial(c) prod_j values[c_j], taken once per partition of `total`
    into at most `slots` positive parts, as the summand is symmetric, times
    its :func:`arrangements` among the slots; an empty slot contributes
    values[0]. That is at most p(total) terms, against
    C(total + slots - 1, total) compositions; with no slots it is [total == 0]."""
    out = Fraction(0)
    for parts in partitions(total, slots):
        term = arrangements(parts, slots) * multinomial(parts) * values[0] ** (slots - len(parts))
        for part in parts:
            term *= values[part]
        out += term
    return out


def _common_denominator(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Integers ``nums`` and the lcm ``den`` of the denominators of
    `values`, with values[i] == nums[i] / den; an empty list has den 1.

    Kept out of ``__all__``, so that a trace of the public functions
    charges the integer convolutions built on it to their callers.
    """
    # a list, not a generator: star-unpacking a generator left about 0.6 MB
    # of tuple blocks allocated after an identity-sweep run (tracemalloc)
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


_GROW_LOCK = threading.RLock()


def _grow_row(rows: list, k: int, width: int, tail: Callable) -> tuple[list[int], int]:
    """Row k of a table of pairs (nums, den), entries nums[j] / den, grown
    first, if need be, to `width` entries; a row not yet stored is empty.
    ``tail(nums, den, width)`` returns entries from len(nums) on, at least
    one, over a denominator of their own, until the row is wide enough. A new
    lcm rescales the held entries into a new list that replaces the row; else
    the row grows in place, as a copy per growth makes a Stirling triangle
    O(n^3). No held entry changes, so reads take no lock; growth holds one
    reentrant lock. A reduced row grown by a reduced tail stays reduced."""
    if k < len(rows) and len(rows[k][0]) >= width:
        return rows[k]
    with _GROW_LOCK:
        rows.extend(([], 1) for _ in range(len(rows), k + 1))
        nums, den = rows[k]
        while len(nums) < width:  # another thread may have grown it
            new, new_den = tail(nums, den, width)
            scale = new_den // gcd(den, new_den)  # lcm(den, new_den) / den
            if scale > 1:
                nums, den = [c * scale for c in nums], den * scale
            scale = den // new_den
            nums += [c * scale for c in new] if scale > 1 else new
        rows[k] = nums, den
    return nums, den


def _grow_rows(rows: list, k: int, width: int, grow: Callable) -> tuple[list[int], int]:
    """Row k of a recurrence table grown by :func:`_grow_row` to `width`
    entries: row 0 is 1, 0, 0, ..., and ``grow(i, rows, nums, den, width)``
    is the tail of row i > 0, given row i - 1 that wide. Row lengths never
    increase with the row index, so only the rows from the first one shorter
    than `width` through row k grow, with no recursion."""
    if k < len(rows) and len(rows[k][0]) >= width:
        return rows[k]
    low = min(k, len(rows))
    while low > 0 and len(rows[low - 1][0]) < width:
        low -= 1
    for i in range(low, k + 1):
        _grow_row(rows, i, width, partial(grow, i, rows) if i else _unit_row)
    return rows[k]


def _unit_row(nums: list[int], den: int, width: int) -> tuple[list[int], int]:
    # the tail of row 0, 1, 0, 0, ...
    return [int(not j) for j in range(len(nums), width)], 1


def _convolve_tail(i: int, rows: list, nums: list[int], den: int, width: int) -> tuple:
    """Entries len(nums) to width - 1 of row i >= 2 of a k-fold table, whose
    row 1 is a law's E[Y^m] or a seed's A_m(0): sum_j C(m, j) r_(i-1)[j]
    r_1[m - j], as integers over den_(i-1) den_1 reduced with one gcd."""
    (p, p_den), (mu, mu_den) = rows[i - 1], rows[1]
    tail = [
        sum(comb(m, j) * p[j] * mu[m - j] for j in range(m + 1)) for m in range(len(nums), width)
    ]
    g = gcd(p_den * mu_den, *tail)
    return [c // g for c in tail], p_den * mu_den // g


def _shifted_value(nums: list[int], den: int, n: int, x: Fraction | int) -> Fraction:
    """sum_j C(n, j) (nums[j] / den) x^(n-j), one Fraction: from row k of a
    k-fold table, E[(x + S_k)^n] or A_n(k; x)."""
    x = Fraction(x)
    # x = a/b, so x^(n-j) = a^(n-j) b^j / b^n; Horner's rule over j, with
    # acc = sum_{i<=j} C(n, i) nums[i] a^(j-i) b^i after step j
    a, b = x.numerator, x.denominator
    acc, b_j = 0, 1
    for j in range(n + 1):
        acc = acc * a + comb(n, j) * nums[j] * b_j
        b_j *= b
    return Fraction(acc, den * b**n)


# row j holds S(j + d, j) for d = 0, 1, ..., and likewise s(j + d, j), over den 1
_STIRLING2_ROWS: list[tuple[list[int], int]] = []
_STIRLING1_ROWS: list[tuple[list[int], int]] = []


def _grow_stirling2(j: int, rows: list, row: list[int], den: int, width: int) -> tuple:
    # S(j, j) = S(j - 1, j - 1); S(j + d, j) = j S(j + d - 1, j) + S(j + d - 1, j - 1)
    prev, last = rows[j - 1][0], row[-1] if row else 0
    return [last := j * last + prev[d] for d in range(len(row), width)], 1


def _grow_stirling1(j: int, rows: list, row: list[int], den: int, width: int) -> tuple:
    # s(j, j) = s(j - 1, j - 1); s(j + d, j) = s(j + d - 1, j - 1) - (j + d - 1) s(j + d - 1, j)
    prev, last = rows[j - 1][0], row[-1] if row else 0
    return [last := prev[d] - (j + d - 1) * last for d in range(len(row), width)], 1


@lru_cache(maxsize=None)
def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind, by the triangular recurrence
    S(n, m) = m S(n-1, m) + S(n-1, m-1); 0 outside 0 <= m <= n."""
    _order("n", n)
    if m < 0 or m > n:
        return 0
    return _grow_rows(_STIRLING2_ROWS, m, n - m + 1, _grow_stirling2)[0][n - m]


@lru_cache(maxsize=None)
def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k), by the recurrence
    s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k); 0 outside 0 <= k <= n."""
    _order("n", n)
    if k < 0 or k > n:
        return 0
    return _grow_rows(_STIRLING1_ROWS, k, n - k + 1, _grow_stirling1)[0][n - k]


def alternating_sum(m: int, values: Sequence[Fraction | int]) -> Fraction | int:
    """The m-th alternating binomial difference of a sequence:
    sum over k = 0..m of (-1)^(m-k) C(m, k) values[k]."""
    _order("m", m)
    # terms with m - k even carry the plus sign
    positive = sum(comb(m, k) * values[k] for k in range(m % 2, m + 1, 2))
    negative = sum(comb(m, k) * values[k] for k in range(1 - m % 2, m + 1, 2))
    return positive - negative


def bell_poly(n: int, x: Fraction | int) -> Fraction | int:
    """Single-variable Bell polynomial: sum over j of S(n, j) x^j."""
    _order("n", n)
    return sum(stirling2(n, j) * x**j for j in range(n + 1))


class _Frozen:
    """Base of the immutable value objects: the laws, polynomials, series,
    Appell seeds and weight tables, which memos hand out shared. ``__init__``
    sets the fields named in ``__match_args__`` once, by :meth:`_freeze`;
    assigning or deleting any field then raises AttributeError. A copy or an
    unpickled value, such as a law sent to an mc-check worker, is rebuilt
    through the constructor from those fields, so it is checked again."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _freeze(self, *values) -> None:
        """Set the fields of ``__match_args__`` to `values`, in that order."""
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class Polynomial(_Frozen):
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[j]`` is the coefficient of x^j. Trailing zeros are stripped on
    construction, so the zero polynomial has an empty coefficient tuple and
    degree -1. Instances are immutable.
    """

    __slots__ = __match_args__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._freeze(tuple(cs))

    @classmethod
    def monomial(cls, n: int) -> "Polynomial":
        """x^n."""
        _order("n", n)
        return cls([0] * n + [1])

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

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

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

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"


def forward_diff(p: Polynomial, m: int = 1) -> Polynomial:
    """m-th forward difference p(x+1) - p(x), iterated; the zero polynomial
    once m exceeds the degree of p."""
    _order("m", m)
    for _ in range(m):
        if not p:
            break
        p = p.shift(1) - p
    return p


class CnNTable(_Frozen):
    """Integer weights c[k], k = 0..min(n, N), rewriting the power sum of
    N+1 shifted n-th powers as a weighted sum of min(n, N)+1 of them.

    The row always sums to N+1, and every entry is 1 when N <= n. A table is
    immutable, as :func:`cnn_table` hands the same one to every caller.
    """

    __slots__ = __match_args__ = ("n", "N", "values")

    def __init__(self, n: int, N: int, values: tuple[int, ...]):
        self._freeze(n, N, values)


@lru_cache(maxsize=None)
def cnn_table(n: int, N: int) -> CnNTable:
    """Weight table from the double-binomial alternating sum; empty for N < 0."""
    _order("n", n)
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
    """The paper's closed form for the weight c[k] of the short power-sum
    member, valid only on N > n:
    c[k] = 1 + (-1)^(n-k) sum_{i < N-n} C(n+1+i, k) C(n-k+i, n-k).
    The tests check it against :func:`cnn_table`, the double-binomial
    alternating sum.

    Inputs with N <= n are rejected rather than extrapolated; the closed
    form is not stated there (the table itself is all ones in that range).
    """
    _order("n", n)
    if N <= n:
        raise ValueError(f"closed form requires N > n, got n={n}, N={N}")
    _order("k", k, n)
    acc = sum(comb(n + 1 + i, k) * comb(n - k + i, n - k) for i in range(N - n))
    return 1 + (-acc if (n - k) % 2 else acc)
