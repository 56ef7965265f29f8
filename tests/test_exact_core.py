"""Tests for the exact combinatorial kernel.

Expected values are either forced by definitions or computed here by
independent brute-force oracles: restricted-growth partition counting and
multinomial expansion; factorial products, polynomial expansions and deep
Stirling values come from sympy.
"""

import copy
import functools
import pickle
import threading
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, perm

import pytest
import sympy
from sympy import ff, rf
from sympy.functions.combinatorial.numbers import stirling

from probstirling.exact_core import (
    _GROW_LOCK,
    _STIRLING2_ROWS,
    Polynomial,
    _grow_row,
    _grow_rows,
    _grow_stirling2,
    arrangements,
    bell_poly,
    binomial,
    cnn_alternating,
    cnn_table,
    double_factorial,
    forward_diff,
    multinomial,
    partitions,
    rising_factorial,
    stirling1,
    stirling2,
)

from catalog import weak_compositions


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


T = sympy.Symbol("t")


def sympy_poly(expr) -> Polynomial:
    """A sympy polynomial in T, products such as rf(T, n) expanded, as a
    Polynomial."""
    coeffs = sympy.Poly(sympy.expand_func(expr), T).all_coeffs()
    return Polynomial([Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)])


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
    # S(n, m) = sum_k (-1)^(m-k) C(m, k) k^n / m!
    for n in range(11):
        for m in range(n + 2):
            differences = sum((-1) ** (m - k) * comb(m, k) * k**n for k in range(m + 1))
            assert stirling2(n, m) == Fraction(differences, factorial(m))


def test_stirling1_from_product_expansion():
    for n in range(11):
        coeffs = sympy_poly(ff(T, n)).coeffs
        for k in range(n + 1):
            assert stirling1(n, k) == coeffs[k]
    assert stirling1(4, 2) == 11
    assert stirling1(2, 1) == -1
    assert stirling1(7, 7) == 1
    assert stirling1(3, 6) == 0


def test_classical_stirling_inversion_identities():
    # x^n = sum_k S(n,k) (x)_k and (x)_n = sum_k s(n,k) x^k as polynomials
    for n in range(11):
        recomposed = sum(stirling2(n, k) * ff(T, k) for k in range(n + 1))
        assert sympy_poly(recomposed) == Polynomial.monomial(n)
        assert sympy_poly(ff(T, n)) == Polynomial([stirling1(n, k) for k in range(n + 1)])


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


def test_bell_poly_matches_sympy():
    t = sympy.Symbol("t")
    for n in range(13):
        expected = sympy.Poly(sympy.bell(n, t), t)
        for x in (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(1, 2)):
            value = expected.eval(sympy.Rational(x.numerator, x.denominator))
            assert bell_poly(n, x) == Fraction(int(value.p), int(value.q)), (n, x)


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
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_polynomial_arithmetic():
    p = Polynomial([1, 1])
    q = Polynomial([-1, 1])
    assert p + q == Polynomial([0, 2])
    assert p - p == Polynomial([])


def test_polynomial_shift():
    p = Polynomial.monomial(2)
    assert p.shift(1) == Polynomial([1, 2, 1])
    assert p.shift(Fraction(-1, 2)) == Polynomial([Fraction(1, 4), -1, 1])
    assert p.shift(2).shift(-2) == p


def test_forward_diff():
    assert forward_diff(Polynomial.monomial(2), 1) == Polynomial([1, 2])
    assert forward_diff(Polynomial([0, 1, 1]), 1) == Polynomial([2, 2])
    assert forward_diff(Polynomial.monomial(3), 4) == Polynomial([])


def test_forward_diff_of_rising_factorials():
    # the m-th difference of an ascending product drops m factors and shifts
    for n in range(9):
        for m in range(n + 1):
            expected = sympy_poly(perm(n, m) * rf(T + m, n - m))
            assert forward_diff(sympy_poly(rf(T, n)), m) == expected


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


def test_polynomials_and_tables_are_values():
    p, table = Polynomial([1, Fraction(2, 3)]), cnn_table(3, 5)
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert twin is not p and twin == p
    twin = pickle.loads(pickle.dumps(table))
    assert (twin.n, twin.N, twin.values) == (3, 5, table.values)
    # cnn_table hands every caller the one memoized table, so a change to
    # its fields would change what every later cnn_table(3, 5) returns
    for value in (p, table):
        for name in value.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, (0,))
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert p.coeffs == (1, Fraction(2, 3))
    assert cnn_table(3, 5).values == (-4, 20, -25, 15)


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


def test_weak_compositions_in_lexicographic_order():
    for total in range(7):
        for parts in range(1, 6):
            expected = [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]
            assert list(weak_compositions(total, parts)) == expected


def test_partitions_are_the_sorted_weak_compositions():
    for total in range(13):
        for parts in range(13):
            got = list(partitions(total, parts))
            assert len(set(got)) == len(got)
            assert all(sorted(p) == list(p) and all(p) and sum(p) == total and len(p) <= parts for p in got)
            # the orbits of distinct partitions are disjoint, so orbit sizes
            # that add up to every weak composition leave none out
            count = comb(total + parts - 1, total) if parts else int(total == 0)
            assert sum(arrangements(p, parts) for p in got) == count
            # the enumeration itself, where it stays under a second
            if total + parts <= 18:
                orbits = Counter(tuple(sorted(filter(None, c))) for c in weak_compositions(total, parts))
                assert got == sorted(orbits)
                assert [arrangements(p, parts) for p in got] == [orbits[p] for p in got]


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


@functools.cache
def _stirling_reference(kind, n, m):
    # plain recursion on n, independent of the row tables
    if m < 0 or m > n:
        return 0
    if n == 0:
        return 1
    up, up_left = _stirling_reference(kind, n - 1, m), _stirling_reference(kind, n - 1, m - 1)
    return m * up + up_left if kind == "stirling2" else up_left - (n - 1) * up


# lookup orders over the cells (n, m); row m of a sheared table holds the
# cells (m + d, m), so "deep" is a large m and "wide" a large n - m
STIRLING_ORDERS = {
    "deep-then-wide": "sorted(cells, key=lambda c: (c[0] - c[1], -c[1]))",
    "wide-then-deep": "sorted(cells, key=lambda c: (c[1], c[1] - c[0]))",
    "shuffled": "random.Random(5).sample(cells, len(cells))",
}


@pytest.mark.parametrize("order", STIRLING_ORDERS)
def test_stirling_row_tables_match_recursive_reference(fresh_python, order):
    cells = [(n, m) for n in range(41) for m in range(-1, n + 2)]
    out = fresh_python(
        "import random\n"
        "from probstirling.exact_core import stirling1, stirling2\n"
        f"cells = {cells!r}\n"
        f"for n, m in {STIRLING_ORDERS[order]}:\n"
        "    stirling2(n, m), stirling1(n, m)\n"
        "print([(stirling2(n, m), stirling1(n, m)) for n, m in cells])"
    )
    expected = [
        (_stirling_reference("stirling2", n, m), _stirling_reference("stirling1", n, m))
        for n, m in cells
    ]
    assert out.strip() == repr(expected)


def test_memo_counters_count_public_lookups(fresh_python):
    out = fresh_python(
        "from probstirling.distributions import Exponential, sum_moment\n"
        "from probstirling.exact_core import stirling1, stirling2\n"
        "for fn, args in ((stirling2, (60, 30)), (stirling1, (60, 30)),"
        " (sum_moment, (Exponential(), 40, 3))):\n"
        "    fn(*args), fn(*args)\n"
        "    print(tuple(fn.cache_info()))\n"
        "    fn.cache_clear()\n"
        "    print(tuple(fn.cache_info()))"
    )
    # one miss and one hit each: entries the row tables compute on the
    # way are not lookups
    assert out.splitlines() == ["(1, 1, None, 1)", "(0, 0, None, 0)"] * 3


def test_row_tables_concurrent_cold_lookups(fresh_python):
    # six threads grow the Stirling tables and the E[S_k^n] tables of two
    # laws from cold, with thread switches forced as often as possible: the
    # Stirling and moment tables race only through the one lock they grow
    # under, as no moment reads a Stirling number, and the shifted law's
    # moments grow its base law's table, so that is raced too
    snippet = (
        "import sys, threading\n"
        "from fractions import Fraction\n"
        "from probstirling.distributions import Exponential, Poisson, Shifted, sum_moment\n"
        "from probstirling.exact_core import stirling1, stirling2\n"
        "law = Poisson(Fraction(1, 3))\n"
        "shifted = Shifted(Exponential(), Fraction(2, 5))\n"
        "results = {}\n"
        "def work(t):\n"
        "    results[t] = [\n"
        "        (stirling2(n, n // 2 + t), stirling1(n, n // 3 + t), sum_moment(law, n // 4, 6 + t),\n"
        "         sum_moment(shifted, n // 5, 3 + n // 20 + t))\n"
        "        for n in range(260 - 9 * t, 0, -23)\n"
        "    ]\n"
        "THREADED\n"
        "print(sorted(results.items()))"
    )
    threaded = fresh_python(
        snippet.replace(
            "THREADED",
            "sys.setswitchinterval(1e-6)\n"
            "threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join(timeout=120)\n"
            "assert not any(thread.is_alive() for thread in threads)",
        )
    )
    sequential = fresh_python(snippet.replace("THREADED", "for t in range(6):\n    work(t)"))
    assert threaded == sequential
    # two sum_moment values, so two Fractions, per lookup
    assert threaded.count("Fraction") == 2 * sum(len(range(260 - 9 * t, 0, -23)) for t in range(6))


def test_cold_lookups_need_no_recursion(fresh_python):
    # every lookup runs with only 40 frames of headroom
    out = fresh_python(
        "import inspect, sys\n"
        "from fractions import Fraction\n"
        "from probstirling.distributions import Exponential, Geometric, Poisson, moment\n"
        "from probstirling.distributions import shifted_sum_moment, sum_moment\n"
        "from probstirling.exact_core import partitions, stirling1, stirling2\n"
        "from probstirling.polylog import li_conv_direct\n"
        "sys.setrecursionlimit(len(inspect.stack()) + 40)\n"
        "print(sum_moment(Poisson(Fraction(1, 3)), 400, 6))\n"
        "print(shifted_sum_moment(Exponential(), 300, 4, Fraction(1, 2)))\n"
        "print(stirling2(300, 150))\n"
        "print(stirling1(300, 290))\n"
        "print(next(partitions(600, 600)) == (1,) * 600)\n"
        "print(sum(1 for _ in partitions(600, 2)))\n"
        "print(li_conv_direct(1, 300, Fraction(1, 2)))\n"
        "print(moment(Poisson(Fraction(1, 3)), 400))\n"
        "print(moment(Geometric(Fraction(2, 7)), 400))"
    )
    # S_400 is Poisson(400/3), whose 6th moment is the Bell polynomial
    # B_6(400/3); S_300 is Gamma(300), E[S^j] the rising factorial (300)_j;
    # 600 splits into at most two parts as 600 or a + b with 1 <= a <= b;
    # the convolution of k copies of Li_{-1}(1/2) = 2 at n = 1 is 2k; the
    # raw moments of Poisson(1/3) and of Geometric(2/7), which grow by their
    # generating functions' recurrences, are read through the Stirling
    # numbers: the Bell polynomial B_400(1/3), and the factorial moments
    # E[(Y)_r] = r! (q/(1-q))^r summed over S(400, r)
    rate = Fraction(400, 3)
    half = Fraction(1, 2)
    ratio = Fraction(2, 5)
    expected = [
        sum(int(stirling(6, j)) * rate**j for j in range(7)),
        sum(binomial(4, j) * half ** (4 - j) * rising_factorial(300, j) for j in range(5)),
        int(stirling(300, 150)),
        int(stirling(300, 290, kind=1, signed=True)),
        True,
        301,
        600,
        sum(stirling2(400, j) * Fraction(1, 3) ** j for j in range(401)),
        sum(stirling2(400, r) * factorial(r) * ratio**r for r in range(401)),
    ]
    assert out.split() == [str(value) for value in expected]


# ------------------------------------------------------------- stored rows


def test_grow_row_grows_in_place_while_den_stays():
    # new entries over the held den, or over a divisor of it, are appended to
    # the stored list: a copy per growth would make a Stirling triangle O(n^3)
    rows = []
    assert _grow_row(rows, 1, 2, lambda nums, den, width: ([1, 5], 6)) == ([1, 5], 6)
    assert rows[0] == ([], 1)
    held = rows[1][0]
    assert _grow_row(rows, 1, 4, lambda nums, den, width: ([1, 1], 2)) == ([1, 5, 3, 3], 6)
    assert rows[1][0] is held
    row = _grow_rows(_STIRLING2_ROWS, 3, 1, _grow_stirling2)[0]
    width = len(row) + 5
    assert _grow_rows(_STIRLING2_ROWS, 3, width, _grow_stirling2)[0] is row
    assert row == [_stirling_reference("stirling2", 3 + d, 3) for d in range(width)]


def test_grow_row_rescales_to_a_new_lcm_and_replaces_the_pair():
    rows = []
    _grow_row(rows, 0, 2, lambda nums, den, width: ([1, 3], 4))
    old = rows[0]
    assert _grow_row(rows, 0, 3, lambda nums, den, width: ([5], 6)) == ([3, 9, 10], 12)
    assert rows[0] == ([3, 9, 10], 12) and rows[0][0] is not old[0]
    # a reader that took the old pair still reads the same values
    assert old == ([1, 3], 4)


def test_grow_row_calls_a_short_tail_until_the_row_is_full():
    calls = []

    def tail(nums, den, width):
        calls.append(len(nums))
        return [1], len(nums) + 1

    rows = []
    nums, den = _grow_row(rows, 0, 6, tail)
    assert calls == list(range(6))
    assert [Fraction(c, den) for c in nums] == [Fraction(1, j + 1) for j in range(6)]
    assert den == 60 and rows[0] == (nums, den)
    assert _grow_row(rows, 0, 4, tail) == (nums, den) and len(calls) == 6


def test_grow_row_holds_the_lock_while_a_tail_runs():
    # a second thread cannot take the lock while a row grows, so no two
    # threads extend one row from the same length
    probes = []

    def probe():
        taken = _GROW_LOCK.acquire(blocking=False)
        if taken:
            _GROW_LOCK.release()
        probes.append(taken)

    def tail(nums, den, width):
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        return [len(nums)], 1

    assert _grow_row([], 0, 2, tail) == ([0, 1], 1)
    assert probes == [False, False]
