"""The moment tables against the moment generating function.

Every S_Y route reads the moment tables, so a wrong table entry is
invisible to the routes' agreement. These tests check the tables against
a source that shares nothing with them: each law's moment generating
function M(z) = E[e^(zY)], written in closed form as a truncated series
over QQ with sympy's ``ring_series``. n! [z^n] of M, of e^(xz) M^k and of
e^(xz) (M - 1)^m / m! must equal ``moment``, ``shifted_sum_moment`` and
the ``sy_table`` cells, for every catalog law and for laws that
hypothesis draws: finite laws with negative and repeated atoms,
Bernoulli, Poisson and geometric laws at random rational parameters, and
shifts of any of them.

For a finite law a second oracle reads no moment and no series: S_Y(n, m; x)
is the expected m-fold iterated difference of t^n, with m independent
copies of Y as the increments, divided by m!. The iterated difference
(``catalog.iterated_diff``) is itself checked first, against the unit-step
forward difference and an inclusion-exclusion sum over the increments.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.ring_series import rs_exp, rs_log, rs_mul, rs_series_inversion
from sympy.polys.rings import ring

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
    moment,
    shifted_sum_moment,
)
from probstirling.exact_core import Polynomial, forward_diff
from probstirling.gen_stirling import sy_table

from catalog import CATALOG, iterated_diff

R, z = ring("z", QQ)
XS = (Fraction(0), Fraction(1, 2), Fraction(-7, 3))


def _qq(c):
    return QQ(c.numerator, c.denominator)


def mgf(dist, order):
    """M(z) of a catalog law in closed form, truncated after z^order."""
    prec = order + 1

    def exp(a):
        return rs_exp(_qq(a) * z, z, prec)

    match dist:
        case Constant(value=a):
            return exp(a)
        case Bernoulli(p=p):
            return 1 - _qq(p) + _qq(p) * exp(1)
        case Poisson(rate=lam):
            return rs_exp(_qq(lam) * (exp(1) - 1), z, prec)
        case Geometric(q=q):
            return (1 - _qq(q)) * rs_series_inversion(1 - _qq(q) * exp(1), z, prec)
        case Exponential():
            return rs_series_inversion(1 - z, z, prec)
        case Uniform01():
            # (e^z - 1) / z
            return (rs_exp(z, z, prec + 1) - 1) // z
        case StdNormal():
            return rs_exp(QQ(1, 2) * z**2, z, prec)
        case UniformTimesExponential():
            # -log(1 - z) / z
            return -rs_log(1 - z, z, prec + 1) // z
        case FiniteSupport(atoms=atoms):
            return sum((_qq(p) * exp(v) for v, p in atoms), R(0))
        case Shifted(base=base, offset=c):
            return rs_mul(exp(c), mgf(base, order), z, prec)
    raise TypeError(f"no closed-form M(z) for {dist!r}")


def power(series, k: int, prec: int):
    """series^k truncated before z^prec; the 0-th power of 0 is 1."""
    out = R(1)
    for _ in range(k):
        out = rs_mul(out, series, z, prec)
    return out


def egf(series, n: int) -> Fraction:
    """n! [z^n] of a series over QQ."""
    c = series.coeff(z**n)
    return factorial(n) * Fraction(int(c.numerator), int(c.denominator))


def check_moments(dist, n_max: int) -> None:
    m = mgf(dist, n_max)
    assert [moment(dist, n) for n in range(n_max + 1)] == [egf(m, n) for n in range(n_max + 1)]


def check_shifted_sums(dist, k_max: int, n_max: int, xs) -> None:
    prec = n_max + 1
    m = mgf(dist, n_max)
    for x in xs:
        e_x = rs_exp(_qq(x) * z, z, prec)
        for k in range(k_max + 1):
            series = rs_mul(e_x, power(m, k, prec), z, prec)
            expected = [egf(series, n) for n in range(n_max + 1)]
            assert [shifted_sum_moment(dist, k, n, x) for n in range(n_max + 1)] == expected, (k, x)


def check_sy_table(dist, n_max: int, xs) -> None:
    prec = n_max + 1
    m_minus_1 = mgf(dist, n_max) - 1
    for x in xs:
        table = sy_table(dist, n_max, x)
        e_x = rs_exp(_qq(x) * z, z, prec)
        for m in range(n_max + 1):
            series = rs_mul(e_x, power(m_minus_1, m, prec), z, prec) * QQ(1, factorial(m))
            assert [table[n][m] for n in range(m, n_max + 1)] == [
                egf(series, n) for n in range(m, n_max + 1)
            ], (m, x)


# ------------------------------------------------- the iterated difference

X = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


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


# ------------------------------------------------------- the finite laws


def finite_sy(dist: FiniteSupport, n: int, m: int, x: Fraction) -> Fraction:
    """S_Y(n, m; x) = E[the m-fold iterated difference of t^n with
    increments Y_1, ..., Y_m at x] / m!, over every tuple of atoms."""
    mono = Polynomial.monomial(n)
    total = sum(
        (
            prod(p for _, p in atoms) * iterated_diff(mono, [v for v, _ in atoms], x)
            for atoms in product(dist.atoms, repeat=m)
        ),
        Fraction(0),
    )
    return total / factorial(m)


def check_finite_sy(dist: FiniteSupport, n_max: int, m_max: int, xs) -> None:
    for x in xs:
        table = sy_table(dist, n_max, x)
        for n in range(n_max + 1):
            for m in range(min(n, m_max) + 1):
                assert table[n][m] == finite_sy(dist, n, m, x), (n, m, x)


@pytest.mark.parametrize("dist", CATALOG, ids=repr)
def test_catalog_moments_match_the_mgf(dist):
    check_moments(dist, 40)


@pytest.mark.parametrize("dist", CATALOG, ids=repr)
def test_catalog_shifted_sum_moments_match_the_mgf(dist):
    check_shifted_sums(dist, 6, 16, XS)


@pytest.mark.parametrize("dist", CATALOG, ids=repr)
def test_catalog_sy_table_matches_the_mgf(dist):
    check_sy_table(dist, 16, XS)


@pytest.mark.parametrize("dist", [d for d in CATALOG if isinstance(d, FiniteSupport)], ids=repr)
def test_catalog_finite_sy_table_matches_the_iterated_differences(dist):
    check_finite_sy(dist, 10, 4, XS)


# small rationals, drawn from a short list often enough that atoms repeat
atom_values = st.one_of(
    st.sampled_from([Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1/3", "2")]),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
offsets = st.fractions(min_value=-3, max_value=3, max_denominator=5)
unit = st.fractions(min_value=0, max_value=1, max_denominator=9)


@st.composite
def finite_laws(draw):
    atoms = draw(st.lists(st.tuples(atom_values, st.integers(1, 5)), min_size=1, max_size=4))
    total = sum(w for _, w in atoms)
    return FiniteSupport(tuple((v, Fraction(w, total)) for v, w in atoms))


base_laws = st.one_of(
    finite_laws(),
    st.builds(Bernoulli, unit.filter(lambda p: p > 0)),
    st.builds(Poisson, st.fractions(min_value=0, max_value=3, max_denominator=7)),
    st.builds(Geometric, unit.filter(lambda q: 0 < q < 1)),
)
laws = st.one_of(base_laws, st.builds(Shifted, base_laws, offsets))


@settings(max_examples=40, deadline=None)
@given(laws, offsets)
def test_drawn_laws_match_the_mgf(dist, x):
    check_moments(dist, 16)
    check_shifted_sums(dist, 4, 10, [x])
    check_sy_table(dist, 10, [x])


@settings(max_examples=20, deadline=None)
@given(finite_laws(), offsets)
def test_drawn_finite_sy_table_matches_the_iterated_differences(dist, x):
    check_finite_sy(dist, 7, 3, [x])
