"""Tests for exact negative-order polylogarithm values and convolutions."""

from fractions import Fraction
from math import factorial

import pytest

from probstirling.distributions import Geometric, moment
from probstirling.exact_core import stirling2
from probstirling.polylog import li_conv_direct, li_conv_prob, li_neg

QS = [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]


class Dual:
    """Forward-mode derivative number over exact rationals: carries (value,
    derivative) through arithmetic, for differentiating rational closed forms."""

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv=0):
        self.value = Fraction(value)
        self.deriv = Fraction(deriv)

    def __add__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.value + other.value, self.deriv + other.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.value - other.value, self.deriv - other.deriv)

    def __rsub__(self, other):
        return Dual(other) - self

    def __mul__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.value * other.value, self.deriv * other.value + self.value * other.deriv)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        value = self.value / other.value
        return Dual(value, (self.deriv - value * other.deriv) / other.value)

    def __pow__(self, n: int):
        out = Dual(1)
        for _ in range(n):
            out = out * self
        return out


def li_closed(n, q):
    """The Stirling-number closed form, generic over the scalar type."""
    if n == 0:
        return q / (1 - q)
    return sum(
        (stirling2(n, r) * factorial(r) * q**r / (1 - q) ** (r + 1) for r in range(1, n + 1)),
        q * 0,
    )


def test_li_neg_values():
    assert li_neg(1, Fraction(1, 2)) == 2
    assert li_neg(2, Fraction(1, 2)) == 6
    assert li_neg(0, Fraction(1, 3)) == Fraction(1, 2)


def test_li_neg_rejects_bad_argument():
    for q in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            li_neg(2, q)


def test_li_neg_matches_truncated_series():
    # partial geometric-type sums converge from below; check stability of the
    # closed form against a long explicit partial sum plus a tail bound
    q = Fraction(1, 2)
    for n in range(5):
        partial = sum(Fraction(j**n) * q**j for j in range(1, 80))
        tail = Fraction(80**n) * q**79 * 4  # crude geometric domination
        assert abs(li_neg(n, q) - partial) <= tail


def test_derivative_recurrence():
    for q0 in QS:
        for n in range(1, 6):
            lower = li_closed(n - 1, Dual(q0, 1))
            assert li_neg(n, q0) == q0 * lower.deriv
            assert li_neg(n - 1, q0) == lower.value


def test_li_conv_direct_reductions():
    for q in QS:
        for n in range(5):
            assert li_conv_direct(n, 1, q) == li_neg(n, q)
        assert li_conv_direct(0, 0, q) == 1
        for n in range(1, 5):
            assert li_conv_direct(n, 0, q) == 0
    assert li_conv_direct(2, 2, Fraction(1, 2)) == 20


def test_li_conv_prob_examples():
    assert li_conv_prob(2, 1, Fraction(1, 2)) == 6
    assert li_conv_prob(2, 2, Fraction(1, 2)) == 20
    for q in QS:
        assert li_conv_prob(0, 0, q) == 1
        for n in range(1, 4):
            assert li_conv_prob(n, 0, q) == 0


def test_convolution_paths_agree():
    for q in QS:
        for n in range(6):
            for k in range(5):
                assert li_conv_direct(n, k, q) == li_conv_prob(n, k, q)


def test_geometric_moments_link():
    for q in QS:
        for n in range(1, 7):
            assert moment(Geometric(q), n) == (1 - q) * li_neg(n, q)


def test_deep_convolution_from_cold_cache(fresh_python):
    # at q = 1/2 the k-fold convolution at order -2 is 2k + 4k^2
    out = fresh_python(
        "from fractions import Fraction\n"
        "from probstirling.polylog import li_conv_prob\n"
        "print(li_conv_prob(2, 1500, Fraction(1, 2)))"
    )
    assert out.split() == ["9003000"]
