"""Exact polylogarithm values at negative integer orders.

At order -n the polylogarithm is a rational function of its argument, so
every value at rational q in (0, 1) is an exact Fraction. The production
path is the finite Stirling-number closed form; the defining series is
never summed term by term. Multinomial k-fold convolutions are evaluated
two ways: direct enumeration over weak compositions, and through moments
of shifted geometric partial sums. What the two may share is stated in
``probstirling.gen_stirling._ROUTE_MAP``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .distributions import Geometric, shifted_sum_moment
from .exact_core import _order, multinomial, stirling2, weak_compositions

__all__ = ["li_neg", "li_conv_direct", "li_conv_prob"]


def _validated_q(q: Fraction | int) -> Fraction:
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError(f"polylogarithm argument must satisfy 0 < q < 1, got {q}")
    return q


@lru_cache(maxsize=None)
def li_neg(n: int, q: Fraction) -> Fraction:
    """Exact value of sum_{j>=1} j^n q^j for rational q in (0, 1).

    Computed from the closed form sum_r S(n, r) r! q^r / (1-q)^(r+1); the
    r = 0 term belongs only to the n = 0 case, where the value is the plain
    geometric series q / (1-q).
    """
    _order("n", n)
    q = _validated_q(q)
    if n == 0:
        return q / (1 - q)
    return sum(
        stirling2(n, r) * factorial(r) * q**r / (1 - q) ** (r + 1)
        for r in range(1, n + 1)
    )


def li_conv_direct(n: int, k: int, q: Fraction | int) -> Fraction:
    """k-fold multinomial convolution of negative-order polylogarithms,
    by direct enumeration over weak compositions of n into k parts.

    The 0-fold convolution is 1 at n = 0 and 0 otherwise.
    """
    _order("n", n)
    _order("k", k)
    q = _validated_q(q)
    if k == 0:
        return Fraction(1 if n == 0 else 0)
    # read once per call: each memo lookup hashes q
    values = [li_neg(j, q) for j in range(n + 1)]
    total = Fraction(0)
    for parts in weak_compositions(n, k):
        term = Fraction(multinomial(parts))
        for part in parts:
            term *= values[part]
        total += term
    return total


def li_conv_prob(n: int, k: int, q: Fraction | int) -> Fraction:
    """The same convolution through the moment engine: (q/p)^k times the
    n-th moment of a k-fold geometric sum shifted by k, with p = 1 - q."""
    _order("n", n)
    _order("k", k)
    q = _validated_q(q)
    return (q / (1 - q)) ** k * shifted_sum_moment(Geometric(q), k, n, k)
