"""Tests for probabilistic Stirling polynomials: the production table
engine against the defining sum and sympy, path equivalence, and the
per-distribution closed forms."""

from fractions import Fraction
from math import factorial

import pytest
from sympy.functions.combinatorial.numbers import stirling

import probstirling.cli as cli
from probstirling import gen_stirling, series
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
from probstirling.exact_core import (
    Polynomial,
    bell_poly,
    binomial,
    rising_factorial,
    stirling2,
    stirling2_poly,
)
from probstirling.gen_stirling import (
    SyPath,
    all_paths,
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
from probstirling.series import EGFSeries, egf_coefficient, series_one, series_pow, series_sub

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


def test_sy_reduces_to_classical_for_unit_constant():
    for n in range(7):
        for m in range(n + 1):
            for x in X:
                assert sy(Constant(1), n, m, x) == stirling2_poly(n, m, x)


def test_sy_bernoulli_scaling():
    assert sy(Bernoulli(HALF), 3, 2, 0) == Fraction(3, 4)
    p = Fraction(2, 5)
    for n in range(7):
        for m in range(n + 1):
            for x in X:
                assert sy(Bernoulli(p), n, m, x) == p**m * stirling2_poly(n, m, x)


def test_sy_vanishes_when_m_exceeds_n():
    for dist in CATALOG:
        for n in range(4):
            for m in range(n + 1, n + 4):
                for x in (Fraction(0), HALF):
                    assert sy(dist, n, m, x) == 0
                    assert sy_via_gf(dist, n, m, x) == 0


def test_sy_poly():
    assert sy_poly(Constant(1), 2, 1) == Polynomial([1, 2])
    assert sy_poly(Exponential(), 2, 2) == Polynomial([1])
    for dist in (Exponential(), Poisson(1), Uniform01(), Geometric(HALF)):
        mean = moment(dist, 1)
        for n in range(6):
            for m in range(n + 1):
                p = sy_poly(dist, n, m)
                assert p.degree == n - m
                assert p.coeffs[n - m] == binomial(n, m) * mean**m
                for x in X:
                    assert p(x) == sy(dist, n, m, x)
    with pytest.raises(ValueError):
        sy_poly(Exponential(), 2, 3)


def test_sy_via_gf_examples():
    assert sy_via_gf(Constant(1), 4, 2, 0) == 7
    assert sy_via_gf(Poisson(1), 3, 2, 0) == 6
    for dist in (Uniform01(), StdNormal()):
        for n in range(5):
            for x in X:
                assert sy_via_gf(dist, n, 0, x) == shifted_sum_moment(dist, 0, n, x)


def test_sy_via_uniform_rep_examples():
    for n in range(7):
        for m in range(min(n, 4) + 1):
            assert sy_via_uniform_rep(Constant(1), n, m, 0) == stirling2(n, m)
    assert sy_via_uniform_rep(Exponential(), 3, 2, 0) == 6
    for dist in (Exponential(), Geometric(HALF)):
        for n in range(1, 5):
            assert sy_via_uniform_rep(dist, n, n, HALF) == moment(dist, 1) ** n
    with pytest.raises(ValueError):
        sy_via_uniform_rep(Exponential(), 8, 5, 0)
    assert sy_via_uniform_rep(Exponential(), 8, 5, 0, max_m=5) == sy(Exponential(), 8, 5, 0)
    with pytest.raises(ValueError):
        sy_via_uniform_rep(Exponential(), 2, 3, 0)


def test_sy_via_factorial_examples():
    assert sy_via_factorial(Poisson(1), 3, 2, 0) == 6
    assert sy_via_factorial(Shifted(Geometric(HALF), 1), 2, 1, 0) == 6
    for dist in CATALOG[:4]:
        for x in X:
            assert sy_via_factorial(dist, 0, 0, x) == 1


def test_four_paths_agree_across_catalog():
    for dist in CATALOG:
        for n in range(7):
            for m in range(n + 1):
                for x in X:
                    base = sy(dist, n, m, x)
                    assert sy_via_gf(dist, n, m, x) == base
                    assert sy_via_factorial(dist, n, m, x) == base
                    if m <= 4:
                        assert sy_via_uniform_rep(dist, n, m, x) == base


@pytest.mark.parametrize("dist", CATALOG, ids=repr)
def test_oracles_agree_without_engine_or_series(dist, monkeypatch):
    # the oracles must not lean on the production engine or on series
    # products; make every one of them raise, wherever it is bound
    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle route reached the engine or the series module")

    monkeypatch.setattr(gen_stirling, "sy_table", forbidden)
    for name in series.__all__:
        monkeypatch.setattr(series, name, forbidden)
        if hasattr(gen_stirling, name):
            monkeypatch.setattr(gen_stirling, name, forbidden)
    for n in range(9):
        for m in range(n + 1):
            for x in (Fraction(0), HALF, Fraction(-7, 3)):
                base = sy(dist, n, m, x)
                assert sy_via_factorial(dist, n, m, x) == base
                if m <= 4:
                    assert sy_via_uniform_rep(dist, n, m, x) == base


# ------------------------------------------------------- production engine

ENGINE_X = [Fraction(0), HALF, Fraction(-7, 3)]


@pytest.mark.parametrize("dist", CATALOG + [Shifted(Poisson(Fraction(1, 3)), HALF)], ids=repr)
def test_sy_table_matches_defining_sum(dist):
    for x in ENGINE_X:
        rows = sy_table(dist, 12, x)
        assert [len(row) for row in rows] == list(range(1, 14))
        for a, row in enumerate(rows):
            assert row == [sy(dist, a, m, x) for m in range(a + 1)]


def test_sy_table_m_max_is_column_prefix():
    for dist in (Poisson(Fraction(1, 3)), Geometric(HALF), CATALOG[-2]):
        for x in ENGINE_X:
            full = sy_table(dist, 9, x)
            for m_max in range(12):
                assert sy_table(dist, 9, x, m_max) == [row[: m_max + 1] for row in full]
    assert sy_table(Exponential(), 0) == [[1]]
    assert sy_table(Exponential(), -1) == []
    assert sy_table(Exponential(), 2, 0, -1) == [[], [], []]


def test_sy_table_poisson_against_sympy_double_stirling():
    rate = Fraction(1, 3)
    rows = sy_table(Poisson(rate), 20)
    for n, row in enumerate(rows):
        for m, value in enumerate(row):
            expected = sum(int(stirling(n, r) * stirling(r, m)) * rate**r for r in range(m, n + 1))
            assert value == expected, (n, m)


@pytest.mark.parametrize("dist, x", [("poisson:1/3", "-1/2"), ("exp", "0"), ("normal", "7/3")])
def test_table_sy_column_matches_full_table(capsys, dist, x):
    argv = ["table", "sy", "--dist", dist, "--n", "8", f"--x={x}"]
    assert cli.main(argv) == 0
    full = capsys.readouterr().out.splitlines()
    for m in range(9):
        assert cli.main(argv + ["--m", str(m)]) == 0
        column = capsys.readouterr().out.splitlines()
        assert column == [line for line in full if line.split(",")[1] == str(m)]


def test_all_paths_report():
    results = all_paths(Poisson(1), 3, 2, 0)
    assert {r.path for r in results} == {
        SyPath.ALTERNATING_SUM,
        SyPath.GENERATING_FUNCTION,
        SyPath.FACTORIAL_MOMENTS,
        SyPath.UNIFORM_REPRESENTATION,
    }
    assert {r.value for r in results} == {6}
    deep = all_paths(Exponential(), 8, 6, 0)
    assert SyPath.UNIFORM_REPRESENTATION not in {r.path for r in deep}


# ------------------------------------------------------------- closed forms


def test_closed_exponential():
    assert sy_closed_exponential(3, 2) == 6
    assert sy_closed_exponential(5, 5) == 1
    assert sy_closed_exponential(4, 1) == 24
    for n in range(9):
        for m in range(n + 1):
            assert sy_closed_exponential(n, m) == sy(Exponential(), n, m, 0)
    with pytest.raises(ValueError):
        sy_closed_exponential(2, 3)


def test_closed_poisson():
    assert sy_closed_poisson(3, 2, 1) == 6
    # n=2, m=1 is rate + rate^2, the second raw Poisson moment
    assert sy_closed_poisson(2, 1, HALF) == Fraction(3, 4)
    for n in range(1, 5):
        for m in range(1, n + 1):
            assert sy_closed_poisson(n, m, 0) == 0
    for lam in (Fraction(1), HALF, Fraction(2)):
        for n in range(7):
            for m in range(n + 1):
                assert sy_closed_poisson(n, m, lam) == sy(Poisson(lam), n, m, 0)
    with pytest.raises(ValueError):
        sy_closed_poisson(2, 3, 1)


def test_closed_poisson_extends_to_negative_rate():
    # the double-Stirling sum is a polynomial identity in the rate, so it
    # must match generating-function extraction even for rates outside the
    # probabilistic range
    for lam in (Fraction(-3, 2), Fraction(-1)):
        order = 6
        f = EGFSeries(tuple(Fraction(bell_poly(j, lam)) / factorial(j) for j in range(order + 1)))
        for m in range(order + 1):
            powered = series_pow(series_sub(f, series_one(order)), m)
            for n in range(m, order + 1):
                extracted = egf_coefficient(powered, n) / factorial(m)
                assert extracted == sy_closed_poisson(n, m, lam)


def test_closed_geometric_shifted():
    assert sy_closed_geometric_shifted(2, 1, HALF) == 6
    assert sy_closed_geometric_shifted(1, 1, HALF) == 2
    for q in (HALF, Fraction(1, 3)):
        p = 1 - q
        for n in range(1, 6):
            assert sy_closed_geometric_shifted(n, n, q) == Fraction(1) / p**n
        for n in range(7):
            for m in range(n + 1):
                assert sy_closed_geometric_shifted(n, m, q) == sy(Shifted(Geometric(q), 1), n, m, 0)
    with pytest.raises(ValueError):
        sy_closed_geometric_shifted(2, 3, HALF)
    with pytest.raises(ValueError):
        sy_closed_geometric_shifted(2, 1, Fraction(3, 2))


def test_closed_normal():
    assert sy_closed_normal(5, 2) == 0
    assert sy_closed_normal(4, 1) == 3
    assert sy_closed_normal(2, 1) == 1
    for n in range(9):
        for m in range(n + 1):
            assert sy_closed_normal(n, m) == sy(StdNormal(), n, m, 0)


def test_closed_uniform():
    assert sy_closed_uniform(2, 1) == Fraction(1, 3)
    assert sy_closed_uniform(1, 1) == HALF
    assert sy_closed_uniform(2, 2) == Fraction(1, 4)
    for n in range(7):
        for m in range(n + 1):
            assert sy_closed_uniform(n, m) == sy(Uniform01(), n, m, 0)
    with pytest.raises(ValueError):
        sy_closed_uniform(1, 2)


def test_closed_product_law():
    assert sy_closed_ut(1, 1) == HALF
    assert sy_closed_ut(2, 1) == Fraction(2, 3)
    assert sy_closed_ut(2, 2) == Fraction(1, 4)
    for n in range(7):
        for m in range(n + 1):
            assert sy_closed_ut(n, m) == sy(UniformTimesExponential(), n, m, 0)
    with pytest.raises(ValueError):
        sy_closed_ut(1, 2)


def test_whitney():
    for n in range(6):
        for m in range(n + 1):
            for x in X:
                assert whitney(1, n, m, x) == stirling2_poly(n, m, x)
    assert whitney(2, 2, 1, 0) == 2
    assert whitney(2, 2, 2, 0) == 1
    assert whitney(Fraction(-1, 2), 3, 2, HALF) == sy(Constant(Fraction(-1, 2)), 3, 2, HALF) * 4
    with pytest.raises(ValueError):
        whitney(0, 2, 1, 0)


def test_hermite_at_zero():
    assert [hermite_at_zero(n) for n in range(7)] == [1, 0, -1, 0, 3, 0, -15]
