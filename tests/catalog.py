"""Shared test data: the catalog laws that law-wise checks run over."""

from fractions import Fraction

from probstirling.distributions import (
    Bernoulli,
    Constant,
    Exponential,
    FiniteSupport,
    Geometric,
    Poisson,
    Shifted,
    StdNormal,
    Uniform01,
    UniformTimesExponential,
)

HALF = Fraction(1, 2)

CATALOG = [
    Constant(1),
    Constant(2),
    Bernoulli(HALF),
    Poisson(1),
    Poisson(HALF),
    Geometric(HALF),
    Geometric(Fraction(1, 3)),
    Exponential(),
    Uniform01(),
    StdNormal(),
    UniformTimesExponential(),
    FiniteSupport(((Fraction(0), HALF), (Fraction(2), Fraction(1, 4)), (Fraction(-1), Fraction(1, 4)))),
    Shifted(Geometric(HALF), 1),
]
