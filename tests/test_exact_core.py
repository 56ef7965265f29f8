"""Tests for the exact combinatorial kernel.

Expected values are either forced by definitions or computed here by
independent brute-force oracles: restricted-growth partition counting,
product-form polynomial expansion, and subset enumeration; deep Stirling
values are checked against sympy.
"""

import sys
import threading
from fractions import Fraction
from itertools import combinations, permutations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from sympy.functions.combinatorial.numbers import stirling

from probstirling.exact_core import (
    Polynomial,
    bell_poly,
    binomial,
    cnn_alternating,
    cnn_table,
    double_factorial,
    falling_factorial,
    forward_diff,
    iterated_diff,
    memo_recurrence,
    multinomial,
    rising_factorial,
    stirling1,
    stirling2,
    stirling2_poly,
    weak_compositions,
)

X = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


# ------------------------------------------------------------------ oracles


def count_partitions(n: int, m: int) -> int:
    """Partitions of an n-set into exactly m nonempty blocks, counted by
    enumerating restricted growth strings."""
    if n == 0:
        return 1 if m == 0 else 0

    def grow(i: int, used: int) -> int:
        if i == n:
            return 1 if used == m else 0
        total = used * grow(i + 1, used)
        if used < m:
            total += grow(i + 1, used + 1)
        return total

    return grow(0, 0)


def subset_expansion(p: Polynomial, ys, x) -> Fraction:
    """Inclusion-exclusion oracle for the iterated difference: sum over all
    subsets J of the increments of (-1)^(m-|J|) p(x + sum of J)."""
    m = len(ys)
    total = Fraction(0)
    for k in range(m + 1):
        for idx in combinations(range(m), k):
            value = p(x + sum((ys[i] for i in idx), Fraction(0)))
            total += value if (m - k) % 2 == 0 else -value
    return total


def uniform_power_moment(m: int, j: int) -> Fraction:
    """E[(U_1 + ... + U_m)^j] for independent uniforms on [0,1], expanded
    multinomially with E[U^a] = 1/(a+1)."""
    total = Fraction(0)
    for parts in weak_compositions(j, m):
        term = Fraction(multinomial(parts))
        for a in parts:
            term *= Fraction(1, a + 1)
        total += term
    return total


# ------------------------------------------------------------ scalar kernel


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_rising_factorial():
    assert rising_factorial(2, 3) == 24
    assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)
    assert rising_factorial(0, 4) == 0
    assert rising_factorial(Fraction(7, 3), 0) == 1


def test_falling_factorial():
    assert falling_factorial(4, 2) == 12
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(-1, 2) == 2
    assert falling_factorial(Fraction(1, 2), 0) == 1


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48


@pytest.mark.parametrize("n", range(8))
def test_stirling2_counts_set_partitions(n):
    for m in range(n + 2):
        assert stirling2(n, m) == count_partitions(n, m)


def test_stirling2_edge_cases():
    assert stirling2(4, 2) == 7
    assert stirling2(6, 6) == 1
    assert stirling2(3, 5) == 0


def test_stirling2_recurrence_matches_alternating_sum():
    # the memoized triangle against the forward-difference definition
    for n in range(11):
        for m in range(n + 2):
            assert stirling2(n, m) == stirling2_poly(n, m, Fraction(0))


def test_stirling1_from_product_expansion():
    for n in range(11):
        expanded = Polynomial.falling(n)
        coeffs = list(expanded.coeffs) + [0] * (n + 1 - len(expanded.coeffs))
        for k in range(n + 1):
            assert stirling1(n, k) == coeffs[k]
    assert stirling1(4, 2) == 11
    assert stirling1(2, 1) == -1
    assert stirling1(7, 7) == 1
    assert stirling1(3, 6) == 0


def test_stirling2_poly_values():
    assert stirling2_poly(2, 1, Fraction(0)) == 1
    assert stirling2_poly(2, 1, Fraction(1)) == 3
    assert stirling2_poly(3, 4, Fraction(5)) == 0


def test_classical_stirling_inversion_identities():
    # x^n = sum_k S(n,k) (x)_k and (x)_n = sum_k s(n,k) x^k as polynomials
    for n in range(11):
        recomposed = Polynomial([0])
        for k in range(n + 1):
            recomposed = recomposed + stirling2(n, k) * Polynomial.falling(k)
        assert recomposed == Polynomial.monomial(n)
        assert Polynomial.falling(n) == Polynomial(
            [stirling1(n, k) for k in range(n + 1)]
        )


def test_sun_uniform_representation():
    for n in range(9):
        for m in range(n + 1):
            assert stirling2(n, m) == binomial(n, m) * uniform_power_moment(m, n - m)


def test_bell_poly_values():
    assert bell_poly(3, 1) == 5
    assert bell_poly(3, 2) == 22
    assert bell_poly(0, 0) == 1
    for n in range(1, 6):
        assert bell_poly(n, 0) == 0
    assert bell_poly(4, Fraction(1, 2)) == sum(
        stirling2(4, j) * Fraction(1, 2) ** j for j in range(5)
    )


# -------------------------------------------------------------- polynomials


def test_polynomial_basics():
    p = Polynomial([1, 2, 3])
    assert p.degree == 2
    assert p(Fraction(1, 2)) == 1 + 1 + Fraction(3, 4)
    assert Polynomial([]).degree == -1
    assert Polynomial([0, 0]).degree == -1
    assert Polynomial([1, 0, 0]).degree == 0
    assert not Polynomial([])
    assert Polynomial([0, 1])


def test_polynomial_arithmetic():
    p = Polynomial([1, 1])
    q = Polynomial([-1, 1])
    assert p * q == Polynomial([-1, 0, 1])
    assert p + q == Polynomial([0, 2])
    assert p - p == Polynomial([])
    assert 3 * p == Polynomial([3, 3])
    assert (p * q).derivative() == Polynomial([0, 2])


def test_polynomial_shift():
    p = Polynomial.monomial(2)
    assert p.shift(1) == Polynomial([1, 2, 1])
    assert p.shift(Fraction(-1, 2)) == Polynomial([Fraction(1, 4), -1, 1])
    assert p.shift(2).shift(-2) == p


def test_forward_diff():
    assert forward_diff(Polynomial.monomial(2), 1) == Polynomial([1, 2])
    assert forward_diff(Polynomial.rising(2), 1) == Polynomial([2, 2])
    assert forward_diff(Polynomial.monomial(3), 4) == Polynomial([])


def test_forward_diff_of_rising_factorials():
    # the m-th difference of an ascending product drops m factors and shifts
    for n in range(9):
        for m in range(n + 1):
            expected = falling_factorial(n, m) * Polynomial.rising(n - m).shift(m)
            assert forward_diff(Polynomial.rising(n), m) == expected


def test_iterated_diff_examples():
    sq = Polynomial.monomial(2)
    assert iterated_diff(sq, [1, 1], Fraction(0)) == 2
    assert iterated_diff(Polynomial.monomial(1), [Fraction(5, 3)], Fraction(7)) == Fraction(5, 3)
    assert iterated_diff(sq, [1, 2, 3], Fraction(0)) == 0
    assert iterated_diff(sq, [], Fraction(3)) == 9


def test_iterated_diff_matches_forward_diff_on_unit_steps():
    for n in range(9):
        p = Polynomial.monomial(n)
        for m in range(9):
            for x in X:
                assert iterated_diff(p, [1] * m, x) == forward_diff(p, m)(x)


@given(
    coeffs=st.lists(rationals, min_size=1, max_size=5),
    ys=st.lists(rationals, min_size=0, max_size=5),
    x=rationals,
)
@settings(max_examples=60, deadline=None)
def test_iterated_diff_matches_subset_expansion(coeffs, ys, x):
    p = Polynomial(coeffs)
    assert iterated_diff(p, ys, x) == subset_expansion(p, ys, x)


@given(
    coeffs=st.lists(rationals, min_size=1, max_size=5),
    ys=st.lists(rationals, min_size=2, max_size=4),
    x=rationals,
)
@settings(max_examples=40, deadline=None)
def test_iterated_diff_is_symmetric_in_increments(coeffs, ys, x):
    p = Polynomial(coeffs)
    reference = iterated_diff(p, ys, x)
    for perm in permutations(ys):
        assert iterated_diff(p, list(perm), x) == reference


@given(
    coeffs=st.lists(rationals, min_size=1, max_size=4),
    x=rationals,
    ys=st.lists(rationals, min_size=4, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_iterated_diff_kills_low_degree(coeffs, x, ys):
    p = Polynomial(coeffs)
    if len(ys) > p.degree:
        assert iterated_diff(p, ys, x) == 0


# ----------------------------------------------------------------- c tables


def test_cnn_table_values():
    assert cnn_table(2, 3).values == (2, -2, 4)
    assert cnn_table(5, 3).values == (1, 1, 1, 1)
    assert cnn_table(0, 0).values == (1,)


def test_cnn_row_sums():
    for n in range(9):
        for N in range(21):
            table = cnn_table(n, N)
            assert len(table.values) == min(n, N) + 1
            assert sum(table.values) == N + 1


def test_cnn_alternating_matches_table():
    for n in range(9):
        for N in range(n + 1, 21):
            table = cnn_table(n, N)
            for k in range(n + 1):
                assert cnn_alternating(n, N, k) == table.values[k]


def test_cnn_alternating_rejects_out_of_domain():
    with pytest.raises(ValueError):
        cnn_alternating(3, 3, 0)
    with pytest.raises(ValueError):
        cnn_alternating(3, 2, 0)
    with pytest.raises(ValueError):
        cnn_alternating(2, 5, 3)


def test_ones_when_N_at_most_n():
    for n in range(7):
        for N in range(n + 1):
            assert cnn_table(n, N).values == (1,) * (N + 1)


# ------------------------------------------------------------- compositions


def test_weak_compositions_count():
    for total in range(6):
        for parts in range(5):
            got = list(weak_compositions(total, parts))
            assert len(set(got)) == len(got)
            assert all(len(c) == parts and sum(c) == total for c in got)
            if parts:
                assert len(got) == binomial(total + parts - 1, parts - 1)
            else:
                assert len(got) == (1 if total == 0 else 0)


def test_multinomial():
    assert multinomial((2, 1, 1)) == 12
    assert multinomial(()) == 1
    assert multinomial((0, 0)) == 1
    assert multinomial((3,)) == 1


@pytest.mark.parametrize(
    "kind, n, m",
    [("stirling2", 1500, 700), ("stirling1", 1500, 1490)],
)
def test_deep_stirling_from_cold_cache_matches_sympy(fresh_python, kind, n, m):
    # both lookups recurse deeper than the interpreter allows when a row
    # is computed from the row above it recursively
    out = fresh_python(
        f"from probstirling.exact_core import {kind}\n"
        f"print({kind}({n}, {m}))"
    )
    if kind == "stirling2":
        expected = stirling(n, m)
    else:
        expected = stirling(n, m, kind=1, signed=True)
    assert int(out) == int(expected)


def test_memo_recurrence_counts_like_lru_cache():
    calls = []

    @memo_recurrence(lambda n: ((n - 1,),) if n > 0 else ())
    def triangular(n):
        calls.append(n)
        return n + triangular(n - 1) if n > 0 else 0

    assert triangular(5000) == 5000 * 5001 // 2
    assert sorted(calls) == list(range(5001))
    info = triangular.cache_info()
    assert (info.misses, info.currsize) == (5001, 5001)
    assert triangular(4000) == 4000 * 4001 // 2
    assert triangular.cache_info().hits == info.hits + 1
    triangular.cache_clear()
    assert triangular.cache_info() == (0, 0, None, 0)


def test_memo_recurrence_concurrent_cold_lookups():
    @memo_recurrence(lambda n: ((n - 1,),) if n > 0 else ())
    def triangular(n):
        return n + triangular(n - 1) if n > 0 else 0

    tops = [3000 + 7 * i for i in range(6)]
    results = {}

    def work(top):
        results[top] = [triangular(n) for n in range(top, 0, -97)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(top,)) for top in tops]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == tops
    for top, values in results.items():
        assert values == [n * (n + 1) // 2 for n in range(top, 0, -97)]
    assert triangular.cache_info().currsize == max(tops) + 1
