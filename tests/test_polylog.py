"""Tests for exact negative-order polylogarithm values and convolutions."""

from fractions import Fraction
from math import comb, factorial

import pytest
import sympy

from probstirling.exact_core import multinomial, stirling2
from probstirling.polylog import li_conv_direct, li_conv_prob, li_neg

from catalog import weak_compositions

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


def test_li_neg_matches_sympy_polylog():
    z = sympy.Symbol("z")
    for n in range(9):
        closed = sympy.expand_func(sympy.polylog(-n, z))
        for q in (Fraction(1, 2), Fraction(1, 3), Fraction(5, 7)):
            value = closed.subs(z, sympy.Rational(q.numerator, q.denominator))
            assert value.is_Rational
            assert li_neg(n, q) == Fraction(int(value.p), int(value.q)), (n, q)


def test_li_conv_direct_reads_each_order_once():
    # one li_neg lookup per order j <= n, however many compositions use it
    q = Fraction(2, 9)
    before = li_neg.cache_info()
    value = li_conv_direct(6, 4, q)
    after = li_neg.cache_info()
    assert after.hits + after.misses - before.hits - before.misses == 7
    assert value == li_conv_prob(6, 4, q)


def test_li_conv_direct_matches_the_composition_sum():
    # the partition sum against the defining sum, one term per weak composition
    for q in (Fraction(2, 5), Fraction(1, 3), Fraction(3, 4)):
        values = [li_neg(j, q) for j in range(9)]
        for n in range(9):
            for k in range(9):
                expected = Fraction(0)
                for parts in weak_compositions(n, k):
                    term = Fraction(multinomial(parts))
                    for part in parts:
                        term *= values[part]
                    expected += term
                assert li_conv_direct(n, k, q) == expected, (n, k, q)


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
    # Y ~ Geometric(q) is 0 with probability 1 - q and otherwise 1 + Y', so
    # (1 - q) E[Y^n] = q sum_{j<n} C(n, j) E[Y^j], and for n >= 1 the sum
    # sum_j j^n q^j is E[Y^n] / (1 - q)
    for q in QS:
        ey = [Fraction(1)]
        for n in range(1, 9):
            ey.append(q * sum(comb(n, j) * ey[j] for j in range(n)) / (1 - q))
            assert (1 - q) * li_neg(n, q) == ey[n], (n, q)


def test_deep_convolution_from_cold_cache(fresh_python):
    # at q = 1/2 the k-fold convolution at order -2 is 2k + 4k^2
    out = fresh_python(
        "from fractions import Fraction\n"
        "from probstirling.polylog import li_conv_prob\n"
        "print(li_conv_prob(2, 1500, Fraction(1, 2)))"
    )
    assert out.split() == ["9003000"]
