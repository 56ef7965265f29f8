"""Truncated power series with exact rational coefficients.

Coefficients are stored in ordinary form (``coeffs[j]`` multiplies z^j);
the factorial-scaled coefficient n! a_n is materialized only by
:func:`egf_coefficient`. Keeping products and quotients in ordinary form
avoids rescaling by factorials inside every convolution.

Truncation order is always an explicit caller choice and is never widened
implicitly; binary operations insist that both operands carry the same
order.

The Cauchy product runs on a pair (nums, den) of integer numerators over
one denominator: it convolves the numerators and reduces the result with
one gcd, and a product of products, such as a power, stays in that form, so
a Fraction is built only for a coefficient handed to a caller. The theorem12
grid in :mod:`~probstirling.sums` builds its seed powers with the moment
tables' convolution instead, so :func:`series_pow` is a second route for it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from operator import mul

from .distributions import Distribution, moment
from .exact_core import _common_denominator, _order

__all__ = [
    "EGFSeries",
    "series_one",
    "series_scale",
    "series_mul",
    "series_pow",
    "series_div",
    "series_from_moments",
    "egf_coefficient",
]


class EGFSeries:
    """Power series truncated at z^order; ``coeffs[j]`` is the ordinary
    coefficient of z^j, so ``order == len(coeffs) - 1``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs: tuple[Fraction, ...] = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a truncated series stores at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, EGFSeries):
            return NotImplemented
        return self.coeffs == other.coeffs


def series_one(order: int) -> EGFSeries:
    """The constant-1 series."""
    _order("order", order)
    return EGFSeries((1,) + (0,) * order)


def _check_orders(f: EGFSeries, g: EGFSeries) -> None:
    if f.order != g.order:
        raise ValueError(f"truncation orders differ: {f.order} != {g.order}")


def series_scale(f: EGFSeries, c: Fraction | int) -> EGFSeries:
    return EGFSeries(tuple(a * c for a in f.coeffs))


def _cauchy_product(a: list[int], a_den: int, b: list[int], b_den: int) -> tuple[list[int], int]:
    """The Cauchy product of the series a / a_den and b / b_den, truncated
    at the order of a, as integers over one denominator reduced by one gcd:
    gcd(den, *nums) == 1, so den is the lcm of the coefficients'
    denominators."""
    nums = [sum(map(mul, a[: i + 1], b[i::-1])) for i in range(len(a))]
    den = a_den * b_den
    g = gcd(den, *nums)
    return [c // g for c in nums], den // g


def series_mul(f: EGFSeries, g: EGFSeries) -> EGFSeries:
    """Cauchy product, truncated at the common order."""
    _check_orders(f, g)
    a, b = _common_denominator(f.coeffs), _common_denominator(g.coeffs)
    return _from_pair(*_cauchy_product(*a, *b))


def _from_pair(nums: list[int], den: int) -> EGFSeries:
    return EGFSeries(tuple(Fraction(c, den) for c in nums))


def series_pow(f: EGFSeries, m: int) -> EGFSeries:
    """f^m by binary exponentiation; f^0 is the constant-1 series. The m-th
    power of an Appell seed is the seed of the m-fold family, E[(x + S_m)^n]
    for a moment seed, which the tests check against the moment engine."""
    _order("m", m)
    result, base = ([1] + [0] * f.order, 1), _common_denominator(f.coeffs)
    while m:
        if m & 1:
            result = _cauchy_product(*result, *base)
        m >>= 1
        if m:
            base = _cauchy_product(*base, *base)
    return _from_pair(*result)


def series_div(f: EGFSeries, g: EGFSeries) -> EGFSeries:
    """The series h with h g = f up to the truncation order.

    Requires an invertible divisor: g must have a nonzero constant term.
    """
    _check_orders(f, g)
    if g.coeffs[0] == 0:
        raise ValueError("division requires a nonzero constant term in the divisor")
    g0 = g.coeffs[0]
    out: list[Fraction] = []
    for n in range(f.order + 1):
        acc = f.coeffs[n]
        for j in range(1, n + 1):
            if g.coeffs[j]:
                acc -= g.coeffs[j] * out[n - j]
        out.append(acc / g0)
    return EGFSeries(tuple(out))


def series_from_moments(dist: Distribution, order: int) -> EGFSeries:
    """Exact moment series of a catalog distribution: coefficient of z^n is
    E[Y^n] / n!, i.e. the truncated series of E[e^(zY)]."""
    _order("order", order)
    return EGFSeries(tuple(Fraction(moment(dist, n)) / factorial(n) for n in range(order + 1)))


def egf_coefficient(f: EGFSeries, n: int) -> Fraction:
    """The factorial-scaled coefficient n! a_n; n must not exceed the order."""
    _order("n", n, f.order)
    return factorial(n) * f.coeffs[n]
