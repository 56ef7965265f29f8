"""Appell polynomial families driven by exponential generating seeds.

A family A_n(x) = E[(x + Y)^n], for a possibly signed Y with moments
A_j(0), is determined by its row of initial values A_j(0). The seed is the
series sum_j A_j(0) z^j / j! of that row, which must have a nonzero constant
term. Each catalog seed is built from the rule that defines its initial
values: the Bernoulli and Euler recurrences, the Hermite values of
:func:`~probstirling.gen_stirling.hermite_at_zero` and a law's moments. The
k-fold family, whose seed is the k-th power, is E[(x + S_k)^n], so the
moment tables' kernels ``exact_core._convolve_tail`` and ``_shifted_value``
build and evaluate it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd

from .distributions import Distribution, format_distribution, moment, parse_distribution
from .exact_core import Polynomial, _common_denominator, _Frozen, _order, _shifted_value, binomial
from .gen_stirling import hermite_at_zero
from .series import EGFSeries

__all__ = [
    "AppellSeed",
    "appell_eval",
    "appell_polynomial",
    "theorem12_check",
    "bernoulli_seed",
    "euler_seed",
    "hermite_seed",
    "appell_moment_link",
    "family_seed",
]


class AppellSeed(_Frozen):
    """Generating seed of an Appell family: the truncated series of initial
    values A_n(0) z^n / n!, required to have a nonzero constant term. Every
    evaluation reads A_j(0) = j! g_j, held once as integers over their lcm.
    A seed is immutable, so those values always match the series."""

    __slots__ = ("name", "g0", "_initial_values")
    __match_args__ = ("name", "g0")

    def __init__(self, name: str, g0: EGFSeries):
        if g0.coeffs[0] == 0:
            raise ValueError("Appell seed requires a nonzero constant term")
        self._freeze(name, g0)
        nums, den = _common_denominator(g0.coeffs)
        nums = [factorial(j) * c for j, c in enumerate(nums)]
        g = gcd(den, *nums)
        object.__setattr__(self, "_initial_values", (tuple(c // g for c in nums), den // g))

    @property
    def order(self) -> int:
        """Truncation order: the largest n for which A_n is determined."""
        return self.g0.order


def _from_initial_values(name: str, values) -> AppellSeed:
    """The seed with initial values A_j(0) = values[j]: g_j = A_j(0) / j!."""
    return AppellSeed(name, EGFSeries(Fraction(a, factorial(j)) for j, a in enumerate(values)))


def appell_polynomial(seed: AppellSeed, n: int) -> Polynomial:
    """A_n as a polynomial in x: A_n(x) = sum_k C(n, k) A_k(0) x^(n-k), the
    expansion of the generating function g(z) e^(xz) with g the seed; n
    must not exceed the seed's truncation order. It is the second route for
    :func:`appell_eval`, which sums the same expansion as integers, and the
    tests check the two against each other."""
    _order("n", n, seed.order)
    nums, den = seed._initial_values
    return Polynomial([Fraction(binomial(n, d) * nums[n - d], den) for d in range(n + 1)])


def appell_eval(seed: AppellSeed, n: int, x: Fraction | int) -> Fraction:
    """A_n(x) = sum_j C(n, j) A_j(0) x^(n-j), summed as integers, one Fraction
    in all; n must not exceed the seed's truncation order."""
    _order("n", n, seed.order)
    return _shifted_value(*seed._initial_values, n, x)


def theorem12_check(seed: AppellSeed, n: int, N: int, x: Fraction | int = 0):
    """Compare the full sum over k = 0..N of A_n(k; x) with the weighted
    short sum over k = 0..n; requires N >= n. Returns a two-sided
    IdentityReport (middle None) from a one-cell grid of the driver in
    :mod:`probstirling.sums`. The check stays in this module for its callers;
    sums imports this module, so the driver is imported on call."""
    if N < n:
        raise ValueError(f"requires N >= n, got n={n}, N={N}")
    _order("n", n, seed.order)
    from .sums import _theorem12

    return next(_theorem12(seed, [(n, [N])], [x]))


def bernoulli_seed(order: int) -> AppellSeed:
    """Seed z/(e^z - 1), whose initial values are the Bernoulli numbers:
    B_0 = 1 and sum_{j<=n} C(n+1, j) B_j = 0 for n >= 1."""
    _order("order", order)
    values = [Fraction(1)]
    for n in range(1, order + 1):
        values.append(-sum(comb(n + 1, j) * b for j, b in enumerate(values)) / (n + 1))
    return _from_initial_values("bernoulli", values)


def euler_seed(order: int) -> AppellSeed:
    """Seed 2/(e^z + 1), the classical Euler normalization: A_0 = 1 and
    2 A_n + sum_{j<n} C(n, j) A_j = 0 for n >= 1. A numerator of z instead
    of 2 would kill the constant term and admit no Appell seed."""
    _order("order", order)
    values = [Fraction(1)]
    for n in range(1, order + 1):
        values.append(-sum(comb(n, j) * a for j, a in enumerate(values)) / 2)
    return _from_initial_values("euler", values)


def hermite_seed(order: int) -> AppellSeed:
    """Seed e^(-z^2/2): the probabilists' Hermite polynomials, whose values
    at 0 are :func:`~probstirling.gen_stirling.hermite_at_zero`."""
    _order("order", order)
    return _from_initial_values("hermite", map(hermite_at_zero, range(order + 1)))


def appell_moment_link(dist: Distribution, order: int) -> AppellSeed:
    """Seed of the moment family A_n(x) = E[(x + Y)^n] for a catalog law:
    A_j(0) = E[Y^j]."""
    _order("order", order)
    values = (moment(dist, j) for j in range(order + 1))
    return _from_initial_values(f"moment:{format_distribution(dist)}", values)


def family_seed(name: str, order: int) -> AppellSeed:
    """Parse the family string syntax used by the CLI: ``bernoulli``,
    ``euler``, ``hermite``, or ``moment:<dist>``."""
    _order("order", order)
    if name == "bernoulli":
        return bernoulli_seed(order)
    if name == "euler":
        return euler_seed(order)
    if name == "hermite":
        return hermite_seed(order)
    if name.startswith("moment:"):
        return appell_moment_link(parse_distribution(name[len("moment:") :]), order)
    raise ValueError(f"unknown Appell family: {name!r}")
