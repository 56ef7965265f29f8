"""Truncated rational power-series arithmetic tests."""

from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from probstirling.distributions import Constant, Exponential, Uniform01
from probstirling.exact_core import stirling2
from probstirling.series import (
    EGFSeries,
    egf_coefficient,
    series_div,
    series_from_moments,
    series_mul,
    series_one,
    series_pow,
    series_scale,
)

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def series_exp(order: int, scale: Fraction | int = 1) -> EGFSeries:
    """The series of e^(scale z), as the moment series of the constant law."""
    return series_from_moments(Constant(scale), order)


def exp_minus_one(order: int) -> EGFSeries:
    return EGFSeries((0,) + tuple(Fraction(1, factorial(j)) for j in range(1, order + 1)))


def test_series_exp_coefficients():
    assert series_exp(2).coeffs == (1, 1, Fraction(1, 2))
    assert series_exp(0).coeffs == (1,)
    assert series_exp(4).coeffs[4] == Fraction(1, 24)
    assert series_exp(3, scale=2).coeffs == (1, 2, 2, Fraction(4, 3))
    assert exp_minus_one(3).coeffs == (0,) + series_exp(3).coeffs[1:]


def test_series_mul():
    e = series_exp(2)
    assert series_mul(e, e).coeffs == (1, 2, 2)
    f = EGFSeries((1, Fraction(1, 3), Fraction(-2, 7)))
    assert series_mul(f, series_one(2)) == f
    up = EGFSeries((1, 1, 0))
    down = EGFSeries((1, -1, 0))
    assert series_mul(up, down).coeffs == (1, 0, -1)


def test_series_mul_order_mismatch():
    with pytest.raises(ValueError):
        series_mul(series_exp(2), series_exp(3))
    with pytest.raises(ValueError, match="orders differ"):
        series_mul(EGFSeries((0, 0, 0)), EGFSeries((1,)))


def test_series_refuses_no_coefficients():
    with pytest.raises(ValueError, match="at least the constant term"):
        EGFSeries(())


def _cauchy_reference(f: EGFSeries, g: EGFSeries) -> tuple[Fraction, ...]:
    # the naive Fraction Cauchy product
    n = f.order
    return tuple(sum((f.coeffs[i] * g.coeffs[j - i] for i in range(j + 1)), Fraction(0)) for j in range(n + 1))


@given(
    order=st.integers(min_value=0, max_value=9),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_series_mul_matches_naive_cauchy_product(order, data):
    # zeros are drawn often, so zero and sparse coefficients are covered
    coeff = st.one_of(st.just(Fraction(0)), small_rationals, st.fractions(max_denominator=10**6))
    f = EGFSeries(tuple(data.draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))))
    g = EGFSeries(tuple(data.draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))))
    product = series_mul(f, g)
    assert product.coeffs == _cauchy_reference(f, g)
    assert all(type(c) is Fraction for c in product.coeffs)
    assert series_mul(EGFSeries((0,) * (order + 1)), g).coeffs == (0,) * (order + 1)


def test_series_pow():
    sq = series_pow(exp_minus_one(3), 2)
    assert sq.coeffs == (0, 0, 1, 1)
    f = EGFSeries((2, Fraction(1, 2), 3))
    assert series_pow(f, 0) == series_one(2)
    assert series_pow(f, 1) == f


def test_series_div_bernoulli_numbers():
    order = 2
    ratio = EGFSeries(tuple(Fraction(1, factorial(j + 1)) for j in range(order + 1)))
    inv = series_div(series_one(order), ratio)
    assert inv.coeffs == (1, Fraction(-1, 2), Fraction(1, 12))
    # a_2 = B_2 / 2! so B_2 = 1/6
    assert egf_coefficient(inv, 2) == Fraction(1, 6)


def test_series_div_identity_and_errors():
    f = EGFSeries((Fraction(3, 2), -1, Fraction(1, 5), 0))
    assert series_div(f, f) == series_one(3)
    with pytest.raises(ValueError):
        series_div(series_one(3), exp_minus_one(3))
    with pytest.raises(ValueError):
        series_div(series_one(3), series_one(2))


def test_series_from_moments():
    assert series_from_moments(Constant(1), 3).coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6))
    assert series_from_moments(Exponential(), 3).coeffs == (1, 1, 1, 1)
    assert series_from_moments(Uniform01(), 2).coeffs == (1, Fraction(1, 2), Fraction(1, 6))


def test_egf_coefficient():
    half_sq = series_scale(series_pow(exp_minus_one(3), 2), Fraction(1, 2))
    assert egf_coefficient(half_sq, 3) == 3 == stirling2(3, 2)
    assert egf_coefficient(series_exp(5), 5) == 1
    with pytest.raises(ValueError):
        egf_coefficient(series_exp(3), 4)


def test_powers_of_exp_minus_one_generate_stirling2():
    order = 10
    for m in range(order + 1):
        f = series_scale(series_pow(exp_minus_one(order), m), Fraction(1, factorial(m)))
        for n in range(order + 1):
            assert egf_coefficient(f, n) == stirling2(n, m)


@given(
    f_coeffs=st.lists(small_rationals, min_size=13, max_size=13),
    g_coeffs=st.lists(small_rationals, min_size=12, max_size=12),
    g0=st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
)
@settings(max_examples=60, deadline=None)
def test_mul_then_div_roundtrip_order_12(f_coeffs, g_coeffs, g0):
    f = EGFSeries(tuple(f_coeffs))
    g = EGFSeries((g0, *g_coeffs))
    assert series_div(series_mul(f, g), g) == f


@given(
    coeffs=st.lists(small_rationals, min_size=4, max_size=4),
    a=st.integers(min_value=0, max_value=3),
    b=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_pow_is_additive(coeffs, a, b):
    f = EGFSeries(tuple(coeffs))
    assert series_pow(f, a + b) == series_mul(series_pow(f, a), series_pow(f, b))
