"""Truncated power series with exact rational coefficients.

Coefficients are stored in ordinary form (``coeffs[j]`` multiplies z^j), so
no convolution rescales by factorials. Truncation order is always an
explicit caller choice and is never widened implicitly; a product insists
that both operands carry the same order.

The Cauchy product runs on a pair (nums, den) of integer numerators over
one denominator: it convolves the numerators and reduces the result with
one gcd, and a product of products, such as a power, stays in that form, so
a Fraction is built only for a coefficient handed to a caller. The theorem12
grid in :mod:`~probstirling.sums` builds its seed powers with the moment
tables' convolution instead, so :func:`series_pow` is a second route for it.
An Appell seed is built from its initial values, not by series division
(see :mod:`~probstirling.appell`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .exact_core import _common_denominator, _Frozen, _order

__all__ = ["EGFSeries", "series_mul", "series_pow"]


class EGFSeries(_Frozen):
    """Power series truncated at z^order; ``coeffs[j]`` is the ordinary
    coefficient of z^j, so ``order == len(coeffs) - 1``. Immutable."""

    __slots__ = __match_args__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs):
        self._freeze(tuple(Fraction(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("a truncated series stores at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, EGFSeries):
            return NotImplemented
        return self.coeffs == other.coeffs


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
    if f.order != g.order:
        raise ValueError(f"truncation orders differ: {f.order} != {g.order}")
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
