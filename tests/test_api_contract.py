"""The library's argument contract.

Every object here is defined only at nonnegative integer orders. Each
public callable that takes an integer order either refuses an order
outside its domain with a ValueError whose message begins with the name of
the parameter, or returns a value that a second route confirms. Orders are
drawn from [-3, 10]. The ``@example`` rows are inputs that once returned a
wrong exact value or escaped with another exception.
"""

from fractions import Fraction
from math import comb, factorial

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings
from sympy import Rational, bell, expand_func, factorial2, polylog, rf
from sympy.functions.combinatorial.numbers import stirling

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
    Geometric,
    Poisson,
    Shifted,
    StdNormal,
    Uniform01,
    UniformTimesExponential,
    moment,
    shifted_sum_moment,
    sum_moment,
)
from probstirling.exact_core import (
    Polynomial,
    alternating_sum,
    binomial,
    bell_poly,
    cnn_alternating,
    cnn_table,
    double_factorial,
    forward_diff,
    partitions,
    rising_factorial,
    stirling1,
    stirling2,
)
from probstirling.gen_stirling import (
    hermite_at_zero,
    sy,
    sy_closed_exponential,
    sy_closed_geometric_shifted,
    sy_closed_normal,
    sy_closed_poisson,
    sy_closed_uniform,
    sy_closed_ut,
    sy_poly,
    sy_table,
    sy_via_factorial,
    sy_via_gf,
    sy_via_uniform_rep,
    whitney,
)
from probstirling.montecarlo import estimate_sum_moment
from probstirling.polylog import li_conv_direct, li_conv_prob, li_neg
from probstirling.series import EGFSeries, series_pow
from probstirling.sums import (
    classical_bernoulli_check,
    sum_direct,
    sum_via_cnn,
    sum_via_stirling,
    verify_bernoulli_classic,
    verify_corollary8,
    verify_gf,
    verify_paths,
    verify_theorem1,
    verify_theorem9,
    verify_theorem10,
    verify_theorem11,
    verify_theorem12,
)

from catalog import CATALOG, HALF, classical_stirling_poly, weak_compositions

orders = st.integers(-3, 10)
laws = st.sampled_from(CATALOG)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = rationals.filter(bool)
unit_interval = st.fractions(min_value=0, max_value=1, max_denominator=6).filter(lambda q: 0 < q < 1)
fuzz = settings(max_examples=40, deadline=None)


def contract(call, valid, expected, *names):
    """call() returns expected() when `valid`, and otherwise raises a
    ValueError whose message names one of `names`."""
    if valid:
        assert call() == expected()
        return
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value).split(" must be ")[0] in names, refused.value


def exact(value) -> Fraction:
    """A sympy rational as a Fraction."""
    return Fraction(int(value.p), int(value.q))


def symbolic(x: Fraction) -> Rational:
    return Rational(x.numerator, x.denominator)


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every weak composition, in lexicographic order: each first part,
    then the compositions of what is left into one part fewer."""
    if parts == 0:
        return [()] if total == 0 else []
    return [(a,) + rest for a in range(total + 1) for rest in compositions(total - a, parts - 1)]


@fuzz
@given(laws, orders, orders, rationals)
@example(Exponential(), -2, 0, Fraction(0))  # sy_via_factorial gave 0
@example(Exponential(), 2, -1, Fraction(0))  # sy_via_gf: IndexError; sy: factorial()
@example(Exponential(), 3, -1, Fraction(0))  # sy_poly: IndexError
@example(Exponential(), -1, 0, Fraction(0))  # sy_table gave no rows; sy_poly named m
def test_sy_routes_refuse_or_agree_with_the_engine(dist, n, m, x):
    contract(lambda: sy_table(dist, n, x), n >= 0, lambda: sy_table(dist, n, x, n), "n")
    # S_Y(n, m; x) vanishes for m > n
    expected = lambda: sy_table(dist, n, x)[n][m] if m <= n else 0
    # a negative n is refused under its own name, before any bound on m
    refused = "n" if n < 0 else "m"
    for route in (sy, sy_via_gf, sy_via_factorial):
        contract(lambda: route(dist, n, m, x), n >= 0 and m >= 0, expected, refused)
    in_triangle = 0 <= m <= n
    contract(lambda: sy_via_uniform_rep(dist, n, m, x), in_triangle, expected, refused)
    contract(lambda: sy_poly(dist, n, m)(x), in_triangle, expected, refused)


@fuzz
@given(orders, orders, nonzero, rationals, unit_interval)
@example(-2, 0, Fraction(1), Fraction(0), HALF)  # hermite_at_zero gave -1
@example(-3, 0, Fraction(1), Fraction(0), HALF)  # sy_closed_normal gave 0
@example(2, -1, Fraction(2), Fraction(0), HALF)  # whitney: factorial()
@example(-1, 0, Fraction(1), Fraction(0), HALF)  # the closed forms named m
def test_closed_forms_refuse_or_agree_with_the_engine(n, m, alpha, x, q):
    def engine(dist, x=0):
        return lambda: sy_table(dist, n, x)[n][m] if m <= n else 0

    in_triangle = 0 <= m <= n
    refused = "n" if n < 0 else "m"
    rate = abs(alpha)
    for closed, dist in [
        (sy_closed_exponential, Exponential()),
        (sy_closed_uniform, Uniform01()),
        (sy_closed_ut, UniformTimesExponential()),
        (lambda n, m: sy_closed_poisson(n, m, rate), Poisson(rate)),
        (lambda n, m: sy_closed_geometric_shifted(n, m, q), Shifted(Geometric(q), 1)),
    ]:
        contract(lambda: closed(n, m), in_triangle, engine(dist), refused)
    contract(lambda: sy_closed_normal(n, m), n >= 0 and m >= 0, engine(StdNormal()), "n_power", "m")
    contract(
        lambda: whitney(alpha, n, m, x),
        n >= 0 and m >= 0,
        lambda: sy(Constant(alpha), n, m, x) / alpha**m,
        refused,
    )
    hermite = lambda: appell_polynomial(hermite_seed(n), n)(0)
    contract(lambda: hermite_at_zero(n), n >= 0, hermite, "n")


@fuzz
@given(orders, st.integers(-3, 4), unit_interval)  # enumeration grows exponentially in k
@example(-1, 2, HALF)  # li_neg and li_conv_direct gave 0; Li_1(1/2) = log 2
def test_polylog_refuses_or_agrees_with_sympy(n, k, q):
    contract(lambda: li_neg(n, q), n >= 0, lambda: exact(expand_func(polylog(-n, symbolic(q)))), "n")
    valid = n >= 0 and k >= 0
    contract(lambda: li_conv_direct(n, k, q), valid, lambda: li_conv_prob(n, k, q), "n", "k")
    contract(lambda: li_conv_prob(n, k, q), valid, lambda: li_conv_direct(n, k, q), "n", "k")


@fuzz
@given(laws, orders, orders, rationals)
def test_moment_engine_refuses_or_agrees_across_routes(dist, k, n, x):
    valid = k >= 0 and n >= 0
    names = ("number of summands", "moment order")
    contract(lambda: sum_moment(dist, k, n), valid, lambda: shifted_sum_moment(dist, k, n, 0), *names)
    binomial_expansion = lambda: sum(
        comb(n, j) * x ** (n - j) * sum_moment(dist, k, j) for j in range(n + 1)
    )
    contract(lambda: shifted_sum_moment(dist, k, n, x), valid, binomial_expansion, *names)
    contract(lambda: moment(dist, n), n >= 0, lambda: sum_moment(dist, 1, n), "moment order")


@fuzz
@given(orders, orders, rationals)
@example(-1, 0, Fraction(1))  # stirling2, bell_poly gave 0
@example(-1, -1, Fraction(2))  # stirling1 gave 0; rising_factorial gave 1
@example(-3, 2, Fraction(2))  # double_factorial gave 1
@example(2, -1, Fraction(1))  # forward_diff gave the polynomial back
@example(1, -1, Fraction(1))  # alternating_sum(-1, [1, 2]) gave 0
@example(-1, 1, Fraction(0))  # weak_compositions(-1, 1) gave [(-1,)], now a test reference
def test_kernel_refuses_or_agrees_with_sympy(n, m, x):
    in_triangle = 0 <= m <= n
    X = symbolic(x)
    contract(lambda: stirling2(n, m), n >= 0, lambda: stirling(n, m) if in_triangle else 0, "n")
    signed = lambda: stirling(n, m, kind=1, signed=True) if in_triangle else 0
    contract(lambda: stirling1(n, m), n >= 0, signed, "n")
    contract(lambda: binomial(n, m), n >= 0, lambda: comb(n, m) if in_triangle else 0, "n")
    contract(lambda: rising_factorial(x, n), n >= 0, lambda: exact(rf(X, n)), "n")
    contract(lambda: double_factorial(n), n >= -1, lambda: factorial2(n), "n")
    contract(lambda: bell_poly(n, x), n >= 0, lambda: exact(bell(n, X)), "n")
    contract(lambda: Polynomial.monomial(n)(x), n >= 0, lambda: x**n, "n")
    # S_Y is the classical Stirling polynomial S(n, m; x) for the unit constant law
    classical = lambda: classical_stirling_poly(n, m, x)
    contract(lambda: sy(Constant(1), n, m, x), n >= 0 and m >= 0, classical, "n" if n < 0 else "m")
    power = abs(n)
    # the m-th difference of t^n at x is m! S(n, m; x)
    differences = lambda: factorial(m) * classical_stirling_poly(power, m, x)
    contract(lambda: forward_diff(Polynomial.monomial(power), m)(x), m >= 0, differences, "m")
    values = [(x + k) ** power for k in range(abs(m) + 1)]
    contract(lambda: alternating_sum(m, values), m >= 0, differences, "m")
    reference = lambda: compositions(n, m)
    contract(lambda: list(weak_compositions(n, m)), n >= 0 and m >= 0, reference, "total", "parts")
    # one partition per sorted weak composition, its zero parts dropped
    sorted_compositions = lambda: len({tuple(sorted(c)) for c in compositions(n, m)})
    contract(lambda: len(list(partitions(n, m))), n >= 0 and m >= 0, sorted_compositions, "total", "parts")


@fuzz
@given(orders, orders, orders)
@example(-1, 2, 0)  # cnn_table gave an empty table
@example(-2, 0, 0)  # cnn_alternating named k
def test_cnn_weights_refuse_or_agree_with_the_closed_form(n, N, k):
    def weights():
        if N <= n:  # all ones, and no entry for N < 0
            return (1,) * (min(n, N) + 1)
        return tuple(cnn_alternating(n, N, j) for j in range(n + 1))

    contract(lambda: cnn_table(n, N).values, n >= 0, weights, "n")
    if N > n:
        refused = "n" if n < 0 else "k"
        contract(lambda: cnn_alternating(n, N, k), 0 <= k <= n, lambda: cnn_table(n, N).values[k], refused)


@fuzz
@given(laws, orders, st.integers(0, 8), rationals)
@example(Exponential(), -1, 3, Fraction(0))  # appell_polynomial gave zero
def test_series_and_appell_refuse_or_agree_with_the_moments(dist, n, order, x):
    def moment_series(k, order):
        return EGFSeries(tuple(sum_moment(dist, k, j) / factorial(j) for j in range(order + 1)))

    seed = appell_moment_link(dist, order)
    contract(lambda: seed.g0, True, lambda: moment_series(1, order))
    contract(lambda: series_pow(seed.g0, n), n >= 0, lambda: moment_series(n, order), "m")
    in_order = 0 <= n <= order
    contract(lambda: appell_eval(seed, n, 0), in_order, lambda: moment(dist, n), "n")
    # A_n(x) = E[(x + Y)^n], and the k-fold family is E[(x + S_k)^n]
    one_fold = lambda: shifted_sum_moment(dist, 1, n, x)
    contract(lambda: appell_polynomial(seed, n)(x), in_order, one_fold, "n")
    k_fold = lambda: shifted_sum_moment(dist, n, order, x)
    k_seed = lambda: AppellSeed(seed.name, series_pow(seed.g0, n))
    contract(lambda: appell_polynomial(k_seed(), order)(x), n >= 0, k_fold, "m")
    if n >= 0:
        passed = lambda: theorem12_check(seed, n, n + 2, x).passed
        contract(passed, n <= order, lambda: True, "n")


@fuzz
@given(laws, orders, orders, rationals)
def test_power_sums_refuse_or_agree_across_forms(dist, n, N, x):
    forms = [sum_direct, sum_via_stirling, sum_via_cnn]
    for form, other in zip(forms, forms[1:] + forms[:1]):
        contract(lambda: form(dist, n, N, x), n >= 0, lambda: other(dist, n, N, x), "n")
    passed = lambda: classical_bernoulli_check(n, N, x).passed
    contract(passed, n >= 0, lambda: True, "n")
    # a grid bound below 0 is an empty grid, not a refusal, in every grid
    if n < 0:
        grids = [
            list(verify_corollary8(dist, n, N, [x])),
            list(verify_theorem1(n, N, [x])),
            list(verify_theorem9(n, N)),
            list(verify_theorem10(x, n, N)),
            list(verify_theorem11(HALF, n, N)),
            list(verify_theorem12("hermite", n, N, [x])),
            list(verify_gf(dist, n, [x])),
            list(verify_paths(dist, n, [x])),
            list(verify_bernoulli_classic(n, N, [x])),
        ]
        assert grids == [[]] * 9


@pytest.mark.parametrize(
    "build",
    [
        bernoulli_seed,
        euler_seed,
        hermite_seed,
        lambda order: appell_moment_link(Exponential(), order),
        lambda order: family_seed("moment:exp", order),
    ],
    ids=["bernoulli_seed", "euler_seed", "hermite_seed", "appell_moment_link", "family_seed"],
)
def test_seed_builders_refuse_negative_orders(build):
    with pytest.raises(ValueError, match="^order must be >= 0, got -1$"):
        build(-1)


@pytest.mark.parametrize("k, n, name", [(-1, 2, "k"), (2, -1, "n")])
def test_sampler_refuses_negative_orders(k, n, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
        estimate_sum_moment(Exponential(), k, n, 10, 0)
