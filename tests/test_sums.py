"""Tests for the power-sum identity engine."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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
from probstirling.exact_core import Polynomial, rising_factorial
from probstirling.gen_stirling import sy_via_gf
from probstirling.sums import (
    classical_bernoulli_check,
    sum_direct,
    sum_poly,
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
)

HALF = Fraction(1, 2)
X = [Fraction(0), Fraction(1), Fraction(-1), HALF]

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

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def test_anchor_value_fourteen():
    assert sum_direct(Constant(1), 2, 3, 0) == 14
    assert sum_via_stirling(Constant(1), 2, 3, 0) == 14
    assert sum_via_cnn(Constant(1), 2, 3, 0) == 14


def test_sum_direct_examples():
    for dist in (Exponential(), StdNormal(), Geometric(HALF)):
        for N in range(6):
            assert sum_direct(dist, 0, N, Fraction(3, 7)) == N + 1
    assert sum_direct(Exponential(), 1, 2, 0) == 3


def test_sum_via_cnn_normal_example():
    assert sum_via_cnn(StdNormal(), 2, 3, 0) == 6
    assert sum_direct(StdNormal(), 2, 3, 0) == 6


def test_triple_identity_across_catalog():
    for dist in CATALOG:
        for n in range(5):
            for N in range(11):
                for x in X:
                    direct = sum_direct(dist, n, N, x)
                    assert sum_via_stirling(dist, n, N, x) == direct
                    assert sum_via_cnn(dist, n, N, x) == direct


def test_cnn_form_collapses_to_direct_when_N_small():
    # all weights are 1 on N <= n, so the short form IS the long form
    for dist in (Uniform01(), Poisson(1)):
        for n in range(6):
            for N in range(n + 1):
                assert sum_via_cnn(dist, n, N, 1) == sum_direct(dist, n, N, 1)


def test_sum_poly_examples():
    report = sum_poly(Polynomial.monomial(2), Constant(1), 3, 0)
    assert report.passed and report.lhs == 14 and report.middle == 14 and report.rhs == 14

    rising3 = Polynomial.rising(3)
    report = sum_poly(rising3, Exponential(), 5, 0)
    assert report.passed
    # E[<S_k>_3] expands over moments as <k>_3 + 3<k>_2 + 2<k>_1
    assert report.lhs == sum(
        rising_factorial(k, 3) + 3 * rising_factorial(k, 2) + 2 * rising_factorial(k, 1)
        for k in range(6)
    )

    const = Polynomial([Fraction(5, 3)])
    report = sum_poly(const, StdNormal(), 7, HALF)
    assert report.passed
    assert report.lhs == 8 * Fraction(5, 3)

    with pytest.raises(ValueError):
        sum_poly(Polynomial([]), Exponential(), 3, 0)


def test_sum_poly_across_catalog():
    polys = [Polynomial([1, 2, 3]), Polynomial.rising(3), Polynomial([0, -1, 0, HALF])]
    for dist in (Poisson(1), Uniform01(), Shifted(Geometric(HALF), 1)):
        for p in polys:
            for N in range(7):
                for x in (Fraction(0), Fraction(-1)):
                    assert sum_poly(p, dist, N, x).passed


@given(
    a=small_rationals,
    b=small_rationals,
    coeffs_p=st.lists(small_rationals, min_size=1, max_size=4),
    coeffs_q=st.lists(small_rationals, min_size=1, max_size=4),
    N=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_sum_poly_linearity(a, b, coeffs_p, coeffs_q, N):
    p = Polynomial(coeffs_p)
    q = Polynomial(coeffs_q)
    combo = a * p + b * q
    if not (p and q and combo):
        return
    dist = Uniform01()
    lhs_p = sum_poly(p, dist, N, 1).lhs
    lhs_q = sum_poly(q, dist, N, 1).lhs
    assert sum_poly(combo, dist, N, 1).lhs == a * lhs_p + b * lhs_q


def test_classical_bernoulli_check():
    report = classical_bernoulli_check(2, 3, 0)
    assert report.passed and report.lhs == 14
    for N in range(10):
        report = classical_bernoulli_check(1, N, 0)
        assert report.passed and report.lhs == N * (N + 1) // 2
        report = classical_bernoulli_check(0, N, Fraction(2, 3))
        assert report.passed and report.lhs == N + 1


def test_classical_bernoulli_grid():
    for n in range(9):
        for N in range(16):
            for x in X:
                assert classical_bernoulli_check(n, N, x).passed


def test_verify_corollary8():
    reports = verify_corollary8(Shifted(Geometric(HALF), 1), 4, 10, [Fraction(0)])
    assert len(reports) == 5 * 11
    assert all(r.passed for r in reports)
    fuzz = FiniteSupport(((Fraction(0), HALF), (Fraction(2), HALF)))
    assert all(r.passed for r in verify_corollary8(fuzz, 3, 8, [Fraction(0), Fraction(1)]))
    trivial = verify_corollary8(Uniform01(), 0, 5, [Fraction(0)])
    assert all(r.passed for r in trivial)
    assert all(r.lhs == r.params["N"] + 1 for r in trivial)


def test_verify_theorem1_matches_classical():
    reports = verify_theorem1(5, 12, X)
    assert all(r.passed for r in reports)
    for r in reports:
        check = classical_bernoulli_check(r.params["n"], r.params["N"], r.params["x"])
        assert check.lhs == r.lhs


def test_verify_theorem9():
    reports = verify_theorem9(6, 12)
    assert all(r.passed for r in reports)
    spot = [r for r in reports if r.params == {"n": 2, "N": 3}]
    assert spot and spot[0].lhs == 20


def test_rising_factorial_sums_are_exponential_moment_sums():
    # the summands of the rising-factorial identity are the moments of
    # exponential partial sums, so the suite lhs must match sum_direct
    for n in range(6):
        for N in range(n, 10):
            lhs = sum(rising_factorial(k, n) for k in range(N + 1))
            assert sum_direct(Exponential(), n, N, 0) == lhs


def test_bell_sums_are_poisson_moment_sums():
    from probstirling.exact_core import bell_poly

    for rate in (Fraction(1), HALF):
        for n in range(6):
            for N in range(12):
                lhs = sum(bell_poly(n, k * rate) for k in range(N + 1))
                assert sum_direct(Poisson(rate), n, N, 0) == lhs


def test_polylog_sums_are_shifted_geometric_moment_sums():
    from probstirling.polylog import li_conv_direct

    q = HALF
    p = 1 - q
    dist = Shifted(Geometric(q), 1)
    for n in range(5):
        for N in range(9):
            lhs = sum((p / q) ** k * li_conv_direct(n, k, q) for k in range(N + 1))
            assert sum_direct(dist, n, N, 0) == lhs


def test_verify_theorem10():
    for rate in (Fraction(1), HALF):
        reports = verify_theorem10(rate, 6, 12)
        assert all(r.passed for r in reports)
    spot = [r for r in verify_theorem10(1, 2, 3) if r.params["n"] == 2 and r.params["N"] == 3]
    assert spot and spot[0].lhs == 20


def test_verify_theorem11():
    reports = verify_theorem11(HALF, 4, 8)
    assert all(r.passed for r in reports)
    spot = [r for r in verify_theorem11(HALF, 1, 1) if r.params["n"] == 1 and r.params["N"] == 1]
    assert spot and spot[0].lhs == 2


def test_verify_gf_and_paths():
    for dist in (Poisson(1), Uniform01()):
        assert all(r.passed for r in verify_gf(dist, 5, X))
        reports = verify_paths(dist, 5, [Fraction(0), Fraction(1)])
        assert all(r.passed for r in reports)
        assert {r.identity for r in reports} == {"paths", "paths-uniform"}


@pytest.mark.parametrize("dist", [Geometric(HALF), Shifted(Poisson(Fraction(1, 3)), HALF)], ids=repr)
def test_verify_gf_and_paths_read_the_one_cell_gf_values(dist):
    xs = [0, HALF, Fraction(-7, 3)]
    gf = verify_gf(dist, 6, xs)
    paths = [r for r in verify_paths(dist, 6, xs) if r.identity == "paths"]
    assert len(gf) == len(paths) == 28 * 3
    for gf_report, paths_report in zip(gf, paths):
        p = gf_report.params
        assert paths_report.params == p
        cell = sy_via_gf(dist, p["n"], p["m"], p["x"])
        assert gf_report.rhs == paths_report.middle == cell


def test_verify_bernoulli_classic_suite():
    assert all(r.passed for r in verify_bernoulli_classic(6, 10, X))


def test_report_fields():
    report = verify_corollary8(Exponential(), 2, 2, [HALF])[0]
    assert report.identity == "corollary8"
    assert report.middle is not None
    assert isinstance(report.params, dict)
