"""Tests for Appell families: seeds, k-fold powers, and the
weighted power-sum compression identity."""

import copy
import pickle
from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import given, settings

from probstirling.appell import (
    AppellSeed,
    appell_eval,
    appell_moment_link,
    appell_polynomial,
    bernoulli_seed,
    euler_seed,
    family_seed,
    hermite_seed,
    theorem12_check,
)
from probstirling.distributions import (
    Constant,
    Exponential,
    Uniform01,
    moment,
    shifted_sum_moment,
)
from probstirling.exact_core import Polynomial, double_factorial
from probstirling.series import EGFSeries, series_pow

from catalog import CATALOG, HALF


def test_bernoulli_seed_values():
    seq = bernoulli_seed(6)
    values = [appell_eval(seq, n, 0) for n in range(7)]
    assert values == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)]
    assert appell_polynomial(seq, 3) == Polynomial([0, HALF, Fraction(-3, 2), 1])


def test_euler_seed_values():
    seq = euler_seed(5)
    values = [appell_eval(seq, n, 0) for n in range(6)]
    assert values == [1, Fraction(-1, 2), 0, Fraction(1, 4), 0, Fraction(-1, 2)]


@pytest.mark.parametrize("seed_fn, sympy_fn", [(bernoulli_seed, sympy.bernoulli), (euler_seed, sympy.euler)])
def test_seed_polynomials_match_sympy(seed_fn, sympy_fn):
    t = sympy.Symbol("t")
    seed = seed_fn(14)
    for n in range(15):
        expected = sympy.Poly(sympy_fn(n, t), t).all_coeffs()[::-1]
        assert appell_polynomial(seed, n).coeffs == tuple(
            Fraction(int(c.p), int(c.q)) for c in expected
        ), n


def test_hermite_seed_values():
    seq = hermite_seed(12)
    for n in range(13):
        assert appell_eval(seq, n, 0) == int(sympy.hermite_prob(n, 0))
    # classical cubic: H_3(x) = x^3 - 3x
    assert appell_polynomial(seq, 3) == Polynomial([0, -3, 0, 1])


# --- the seed construction the initial-value rules replaced, kept as a reference:
# each seed as a quotient of truncated series, or as a moment series ---


def _reference_div(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    # the series h with h g = f up to the common order
    out = []
    for n in range(len(f)):
        out.append((f[n] - sum(g[j] * out[n - j] for j in range(1, n + 1))) / g[0])
    return out


def _reference_seeds(order: int) -> list[list[Fraction]]:
    """The series of the Bernoulli, Euler and Hermite seeds, then of the
    moment seed of each law of the catalog."""
    one = [Fraction(1)] + [Fraction(0)] * order
    ratio = [Fraction(1, factorial(j + 1)) for j in range(order + 1)]  # (e^z - 1)/z
    plus_one = [Fraction(2)] + [Fraction(1, factorial(j)) for j in range(1, order + 1)]  # e^z + 1
    hermite = [Fraction(0)] * (order + 1)  # e^(-z^2/2)
    for k in range(order // 2 + 1):
        hermite[2 * k] = Fraction((-1) ** k, 2**k * factorial(k))
    moments = [[Fraction(moment(dist, j)) / factorial(j) for j in range(order + 1)] for dist in CATALOG]
    return [_reference_div(one, ratio), _reference_div([2 * c for c in one], plus_one), hermite, *moments]


def test_seeds_match_the_series_construction():
    for order in range(31):
        built = [bernoulli_seed(order), euler_seed(order), hermite_seed(order)]
        built += [appell_moment_link(dist, order) for dist in CATALOG]
        for seed, coeffs in zip(built, _reference_seeds(order), strict=True):
            old = AppellSeed(seed.name, EGFSeries(coeffs))
            assert seed.g0 == old.g0, (seed.name, order)
            assert seed._initial_values == old._initial_values, (seed.name, order)


def test_seeds_are_values():
    seed = bernoulli_seed(4)
    for twin in (pickle.loads(pickle.dumps(seed)), copy.deepcopy(seed)):
        assert twin is not seed and twin.name == seed.name and twin.g0 == seed.g0
        assert twin._initial_values == seed._initial_values
    # a seed whose series could be swapped would keep evaluating the old
    # initial values, so appell_eval and appell_polynomial would disagree
    for name in AppellSeed.__slots__:
        with pytest.raises(AttributeError):
            setattr(seed, name, EGFSeries((1, 1, 1, 1, 1)))
        with pytest.raises(AttributeError):
            delattr(seed, name)
    assert seed.g0 == bernoulli_seed(4).g0
    assert appell_eval(seed, 3, HALF) == appell_polynomial(seed, 3)(HALF) == 0


def test_seed_requires_invertible_constant_term():
    with pytest.raises(ValueError):
        AppellSeed("bad", EGFSeries((0, 1, 1)))


def test_appell_eval_bounds():
    seq = bernoulli_seed(3)
    assert seq.order == 3
    with pytest.raises(ValueError):
        appell_eval(seq, 4, 0)


FAMILIES = ["bernoulli", "euler", "hermite", "moment:exp", "moment:normal", "moment:poisson:2/3",
            "moment:shift:-1/3:geom:1/4", "moment:finite:-2:1/3,1/2:2/3"]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.integers(0, 3),
    st.integers(0, 12),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
def test_appell_eval_is_the_polynomial_value(family, k, n, x):
    # the integer kernel against Horner's rule on the Fraction coefficients,
    # on the family and on the k-fold powers that theorem12 reads
    seed = family_seed(family, 12)
    seed = AppellSeed(seed.name, series_pow(seed.g0, k))
    assert appell_eval(seed, n, x) == appell_polynomial(seed, n)(x)


def test_derivative_property():
    # A_n' = n A_(n-1), the derivative taken coefficient by coefficient
    for seed in (bernoulli_seed(8), euler_seed(8), hermite_seed(8)):
        for n in range(1, 9):
            coeffs = appell_polynomial(seed, n).coeffs
            derivative = Polynomial([j * c for j, c in enumerate(coeffs)][1:])
            lower = appell_polynomial(seed, n - 1).coeffs
            assert derivative == Polynomial([n * c for c in lower])


def test_zero_fold_family_is_x_to_the_n():
    # the seed's 0th power is the constant-1 series, the seed of the identity family
    zero_fold = AppellSeed("identity", series_pow(bernoulli_seed(5).g0, 0))
    for n in range(6):
        for x in (Fraction(0), Fraction(2), Fraction(-1, 3)):
            assert appell_eval(zero_fold, n, x) == x**n


def test_hermite_kfold_initial_values():
    # the k-fold Hermite family scales the even initial values by k^h
    for k in range(5):
        seq = AppellSeed("hermite", series_pow(hermite_seed(8).g0, k))
        for h in range(4):
            sign = -1 if h % 2 else 1
            assert appell_eval(seq, 2 * h, 0) == sign * k**h * double_factorial(2 * h - 1)
            assert appell_eval(seq, 2 * h + 1, 0) == 0


def test_theorem12_check_hermite_anchor():
    report = theorem12_check(hermite_seed(8), 2, 3, 1)
    assert report.passed
    assert report.lhs == -2
    assert report.rhs == -2


def test_theorem12_check_families():
    for seed_fn in (bernoulli_seed, euler_seed, hermite_seed):
        seed = seed_fn(8)
        for n in range(5):
            for N in range(n, 9):
                for x in (Fraction(0), Fraction(1), HALF):
                    assert theorem12_check(seed, n, N, x).passed


def test_theorem12_check_trivial_and_errors():
    report = theorem12_check(bernoulli_seed(4), 0, 7, HALF)
    assert report.passed
    assert report.lhs == 8
    with pytest.raises(ValueError):
        theorem12_check(bernoulli_seed(4), 3, 2, 0)


def test_moment_link():
    exp_seq = appell_moment_link(Exponential(), 6)
    for n in range(7):
        assert appell_eval(exp_seq, n, 0) == factorial(n)
    uni_seq = appell_moment_link(Uniform01(), 6)
    for n in range(7):
        assert appell_eval(uni_seq, n, 0) == Fraction(1, n + 1)
    const_seq = appell_moment_link(Constant(Fraction(3, 2)), 5)
    for n in range(6):
        for x in (Fraction(0), Fraction(-2), HALF):
            assert appell_eval(const_seq, n, x) == (x + Fraction(3, 2)) ** n
            assert appell_eval(const_seq, n, x) == shifted_sum_moment(Constant(Fraction(3, 2)), 1, n, x)


def test_hermite_family_tracks_normal_moment_sums():
    # the k-fold Hermite values at 0 are sign-rotated moments of k-fold
    # standard normal sums, so the two-sided compression identity must
    # reproduce the normal-moment sum identities member for member
    from probstirling.distributions import StdNormal
    from probstirling.sums import sum_direct, sum_via_cnn

    seed = hermite_seed(8)
    for h in range(4):
        sign = -1 if h % 2 else 1
        for N in range(2 * h, 10):
            report = theorem12_check(seed, 2 * h, N, 0)
            assert report.passed
            assert report.lhs == sign * sum_direct(StdNormal(), 2 * h, N, 0)
            assert report.rhs == sign * sum_via_cnn(StdNormal(), 2 * h, N, 0)


def test_family_seed_syntax():
    assert family_seed("bernoulli", 5).g0 == bernoulli_seed(5).g0
    assert family_seed("euler", 5).g0 == euler_seed(5).g0
    assert family_seed("hermite", 5).g0 == hermite_seed(5).g0
    assert family_seed("moment:exp", 5).g0 == appell_moment_link(Exponential(), 5).g0
    with pytest.raises(ValueError):
        family_seed("laguerre", 5)
    with pytest.raises(ValueError):
        family_seed("moment:bogus", 5)
