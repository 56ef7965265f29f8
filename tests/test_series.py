"""Truncated rational power-series arithmetic tests."""

import copy
import pickle
from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from probstirling.exact_core import stirling2
from probstirling.series import EGFSeries, series_mul, series_pow

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def series_exp(order: int, scale: Fraction | int = 1) -> EGFSeries:
    """The series of e^(scale z)."""
    return EGFSeries(Fraction(scale) ** j / factorial(j) for j in range(order + 1))


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
    assert series_mul(f, EGFSeries((1, 0, 0))) == f
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


def test_series_is_a_value():
    f = EGFSeries((1, Fraction(1, 2)))
    for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert twin is not f and twin == f
    with pytest.raises(AttributeError):
        f.coeffs = (2,)
    with pytest.raises(AttributeError):
        del f.coeffs
    assert f.coeffs == (1, Fraction(1, 2))


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
    assert series_pow(f, 0) == EGFSeries((1, 0, 0))
    assert series_pow(f, 1) == f


def test_powers_of_exp_minus_one_generate_stirling2():
    order = 10
    for m in range(order + 1):
        # (e^z - 1)^m / m! = sum_n S(n, m) z^n / n!
        f = series_pow(exp_minus_one(order), m)
        for n in range(order + 1):
            assert factorial(n) * f.coeffs[n] / factorial(m) == stirling2(n, m)


@given(
    coeffs=st.lists(small_rationals, min_size=4, max_size=4),
    a=st.integers(min_value=0, max_value=3),
    b=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_pow_is_additive(coeffs, a, b):
    f = EGFSeries(tuple(coeffs))
    assert series_pow(f, a + b) == series_mul(series_pow(f, a), series_pow(f, b))
