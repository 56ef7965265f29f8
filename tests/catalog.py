"""Shared test data: the catalog laws that law-wise checks run over, the
weak-composition enumeration that the library's partition sums are checked
against, and a digit-limit helper."""

import contextlib
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import sub
from typing import Iterator

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
from probstirling.exact_core import _order

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


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order: the reference enumeration that sums over
    :func:`probstirling.exact_core.partitions` must agree with."""
    _order("total", total)
    _order("parts", parts)
    if parts == 0:
        if total == 0:
            yield ()
        return
    # stars and bars: the parts are the gaps between parts - 1 nondecreasing
    # cut points in 0..total, whose lexicographic order is that of the parts
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


@contextlib.contextmanager
def digit_limit(limit: int):
    """Run the block under another int <-> str digit limit (0 lifts it)."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)
