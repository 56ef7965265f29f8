"""Truncated power series with exact rational coefficients.

Coefficients are stored in ordinary form (``coeffs[j]`` multiplies z^j);
the factorial-scaled coefficient n! a_n is materialized only by
:func:`egf_coefficient`. Keeping products and quotients in ordinary form
avoids rescaling by factorials inside every convolution.

Truncation order is always an explicit caller choice and is never widened
implicitly; binary operations insist that both operands carry the same
order.

The Cauchy product puts each operand over the lcm of its denominators and
convolves the integer numerators, so the only gcd per output coefficient
is the one that stores it as a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
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


@dataclass(frozen=True)
class EGFSeries:
    """Power series truncated at z^order; ``coeffs[j]`` is the ordinary
    coefficient of z^j, so ``order == len(coeffs) - 1``."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a truncated series stores at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def series_one(order: int) -> EGFSeries:
    """The constant-1 series."""
    _order("order", order)
    return EGFSeries((1,) + (0,) * order)


def _check_orders(f: EGFSeries, g: EGFSeries) -> None:
    if f.order != g.order:
        raise ValueError(f"truncation orders differ: {f.order} != {g.order}")


def series_scale(f: EGFSeries, c: Fraction | int) -> EGFSeries:
    return EGFSeries(tuple(a * c for a in f.coeffs))


def series_mul(f: EGFSeries, g: EGFSeries) -> EGFSeries:
    """Cauchy product, truncated at the common order."""
    _check_orders(f, g)
    a, a_den = _common_denominator(f.coeffs)
    b, b_den = _common_denominator(g.coeffs)
    den = a_den * b_den
    return EGFSeries(
        tuple(Fraction(sum(map(mul, a[: i + 1], b[i::-1])), den) for i in range(f.order + 1))
    )


def series_pow(f: EGFSeries, m: int) -> EGFSeries:
    """f^m by binary exponentiation; f^0 is the constant-1 series."""
    _order("m", m)
    result = series_one(f.order)
    base = f
    while m:
        if m & 1:
            result = series_mul(result, base)
        m >>= 1
        if m:
            base = series_mul(base, base)
    return result


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
    return EGFSeries(tuple(Fraction(moment(dist, n)) / factorial(n) for n in range(order + 1)))


def egf_coefficient(f: EGFSeries, n: int) -> Fraction:
    """The factorial-scaled coefficient n! a_n; n must not exceed the order."""
    _order("n", n, f.order)
    return factorial(n) * f.coeffs[n]
