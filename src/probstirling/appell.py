"""Appell polynomial families driven by exponential generating seeds.

A family A_n(x) is determined by the series of its initial values
sum_n A_n(0) z^n / n!, the seed, which must have a nonzero constant term
so that it is invertible among truncated series. A_n(x) = E[(x + Y)^n]
for a possibly signed Y with moments A_j(0), and the k-fold family, whose
seed is the k-th power, is E[(x + S_k)^n], so the moment tables' kernels
``exact_core._convolve_tail`` and ``_shifted_value`` build and evaluate it.
The families here are the classical Bernoulli, Euler, and probabilists'
Hermite polynomials plus the moment families of catalog distributions.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

from .distributions import Distribution, format_distribution, parse_distribution
from .exact_core import Polynomial, _common_denominator, _order, _shifted_value, binomial
from .series import (
    EGFSeries,
    egf_coefficient,
    series_div,
    series_from_moments,
    series_one,
    series_scale,
)

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


class AppellSeed:
    """Generating seed of an Appell family: the truncated series of initial
    values A_n(0) z^n / n!, required to have a nonzero constant term. Every
    evaluation reads A_j(0) = j! g_j, held once as integers over their lcm."""

    __slots__ = ("name", "g0", "_initial_values")

    def __init__(self, name: str, g0: EGFSeries):
        if g0.coeffs[0] == 0:
            raise ValueError("Appell seed requires a nonzero constant term")
        self.name, self.g0 = name, g0
        nums, den = _common_denominator(g0.coeffs)
        nums = [factorial(j) * c for j, c in enumerate(nums)]
        g = gcd(den, *nums)
        self._initial_values = [c // g for c in nums], den // g

    @property
    def order(self) -> int:
        """Truncation order: the largest n for which A_n is determined."""
        return self.g0.order


def appell_polynomial(seed: AppellSeed, n: int) -> Polynomial:
    """A_n as a polynomial in x: A_n(x) = sum_k C(n, k) A_k(0) x^(n-k), the
    expansion of the generating function g(z) e^(xz) with g the seed; n
    must not exceed the seed's truncation order. It is the second route for
    :func:`appell_eval`, which sums the same expansion as integers, and the
    tests check the two against each other."""
    _order("n", n, seed.order)
    return Polynomial(
        [binomial(n, d) * egf_coefficient(seed.g0, n - d) for d in range(n + 1)]
    )


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
    """Seed z/(e^z - 1), built by inverting (e^z - 1)/z, whose coefficients
    1/(j+1)! start from an invertible constant term."""
    _order("order", order)
    ratio = EGFSeries(tuple(Fraction(1, factorial(j + 1)) for j in range(order + 1)))
    return AppellSeed("bernoulli", series_div(series_one(order), ratio))


def euler_seed(order: int) -> AppellSeed:
    """Seed 2/(e^z + 1), the classical Euler normalization. A numerator of z
    instead of 2 would kill the constant term and admit no Appell seed."""
    _order("order", order)
    denom = EGFSeries(
        tuple(Fraction(2) if j == 0 else Fraction(1, factorial(j)) for j in range(order + 1))
    )
    return AppellSeed("euler", series_div(series_scale(series_one(order), 2), denom))


def hermite_seed(order: int) -> AppellSeed:
    """Seed e^(-z^2/2): the probabilists' Hermite polynomials."""
    _order("order", order)
    coeffs = [Fraction(0)] * (order + 1)
    for k in range(order // 2 + 1):
        coeffs[2 * k] = Fraction((-1) ** k, 2**k * factorial(k))
    return AppellSeed("hermite", EGFSeries(tuple(coeffs)))


def appell_moment_link(dist: Distribution, order: int) -> AppellSeed:
    """Seed of the moment family A_n(x) = E[(x + Y)^n] for a catalog law."""
    _order("order", order)
    return AppellSeed(f"moment:{format_distribution(dist)}", series_from_moments(dist, order))


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
