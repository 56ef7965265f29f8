"""Exact polylogarithm values at negative integer orders.

For Y ~ Geometric(q), E[Y^n] = (1 - q) sum_{j>=0} j^n q^j, so at order -n
the polylogarithm is a geometric moment over 1 - q: a rational function of
q, exact as a Fraction at every rational q in (0, 1), and read from the
moment engine rather than summed as a series. Multinomial k-fold
convolutions are evaluated two ways: direct enumeration, one term per
partition of the order into at most k parts, and through moments of
shifted geometric partial sums. Which moment tables each may read is
stated in ``probstirling.gen_stirling._ROUTE_MAP``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .distributions import Geometric, moment, shifted_sum_moment
from .exact_core import _orbit_sum, _order

__all__ = ["li_neg", "li_conv_direct", "li_conv_prob"]


@lru_cache(maxsize=None)
def li_neg(n: int, q: Fraction) -> Fraction:
    """Exact value of sum_{j>=1} j^n q^j for rational q in (0, 1): the
    geometric moment E[Y^n] / (1 - q), Y ~ Geometric(q), less the j = 0
    term 0^n, which is 1 only at n = 0."""
    _order("n", n)
    law = Geometric(q)
    return moment(law, n) / (1 - law.q) - (n == 0)


def li_conv_direct(n: int, k: int, q: Fraction | int) -> Fraction:
    """k-fold multinomial convolution of negative-order polylogarithms:
    the sum over weak compositions of n into k parts of the multinomial
    times the product of Li at minus each part, summed once per partition
    by :func:`~probstirling.exact_core._orbit_sum`; an empty part
    contributes Li at order 0, q/(1 - q). The 0-fold convolution is 1 at
    n = 0 and 0 otherwise.
    """
    _order("n", n)
    _order("k", k)
    q = Geometric(q).q
    # read once per call: each memo lookup hashes q
    return _orbit_sum([li_neg(j, q) for j in range(n + 1)], n, k)


def li_conv_prob(n: int, k: int, q: Fraction | int) -> Fraction:
    """The same convolution through the moment engine: (q/p)^k times the
    n-th moment of a k-fold geometric sum shifted by k, with p = 1 - q."""
    _order("n", n)
    _order("k", k)
    law = Geometric(q)
    return (law.q / (1 - law.q)) ** k * shifted_sum_moment(law, k, n, k)
