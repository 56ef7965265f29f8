"""Tests for probabilistic Stirling polynomials: the production table
engine against the defining sum and sympy, path equivalence, and the
per-distribution closed forms."""

import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from sympy.functions.combinatorial.numbers import stirling

import probstirling.cli as cli
from probstirling import gen_stirling, series, sums
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
    multinomial,
    rising_factorial,
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
from probstirling.series import EGFSeries, series_pow

from catalog import CATALOG, HALF, classical_stirling_poly, weak_compositions

X = [Fraction(0), Fraction(1), Fraction(-1), HALF]


def test_sy_reduces_to_classical_for_unit_constant():
    for n in range(7):
        for m in range(n + 1):
            for x in X:
                assert sy(Constant(1), n, m, x) == classical_stirling_poly(n, m, x)


def test_sy_bernoulli_scaling():
    assert sy(Bernoulli(HALF), 3, 2, 0) == Fraction(3, 4)
    p = Fraction(2, 5)
    for n in range(7):
        for m in range(n + 1):
            for x in X:
                assert sy(Bernoulli(p), n, m, x) == p**m * classical_stirling_poly(n, m, x)


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
    assert sy_via_uniform_rep(Exponential(), 8, 5, 0) == sy(Exponential(), 8, 5, 0)
    with pytest.raises(ValueError):
        sy_via_uniform_rep(Exponential(), 2, 3, 0)


def test_sy_via_uniform_rep_matches_the_composition_sum():
    # the partition sums against the defining expansion, one term per weak
    # composition of n - m into the x exponent and the m pair exponents
    for dist in CATALOG:
        factors = [moment(dist, a + 1) / (a + 1) for a in range(10)]
        for n in range(10):
            for m in range(n + 1):
                for x in (Fraction(0), HALF, Fraction(-7, 3)):
                    expected = Fraction(0)
                    for parts in weak_compositions(n - m, m + 1):
                        term = multinomial(parts) * x ** parts[0]
                        for a in parts[1:]:
                            term *= factors[a]
                        expected += term
                    assert sy_via_uniform_rep(dist, n, m, x) == binomial(n, m) * expected, (dist, n, m, x)


def test_sy_via_factorial_examples():
    assert sy_via_factorial(Poisson(1), 3, 2, 0) == 6
    assert sy_via_factorial(Shifted(Geometric(HALF), 1), 2, 1, 0) == 6
    for dist in CATALOG[:4]:
        for x in X:
            assert sy_via_factorial(dist, 0, 0, x) == 1


def test_four_paths_agree_across_catalog():
    # what the routes may share is checked in test_route_map.py
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


# each route's cells in an order that grows its memo rows by extension,
# with x = 0 given as an int and then as an equal Fraction, which share the
# rows, and then x = -7/3; a Poisson rate of 1/3 makes the rows' common
# denominators grow with their width, so a row extended without rescaling
# its old entries gives wrong cells
GROWTH_ORDER = (12, 3, 7, 15)
GROWTH_CHILD = """
from fractions import Fraction
from probstirling.distributions import Poisson
from probstirling.gen_stirling import sy, sy_via_factorial, sy_via_uniform_rep
law = Poisson(Fraction(1, 3))
for x in (0, Fraction(0), Fraction(-7, 3)):
    for n in {order}:
        print(x, n, *(route(law, n, 2, x) for route in (sy, sy_via_factorial, sy_via_uniform_rep)))
    print(x, "m > n", sy(law, 3, 5, x), sy_via_factorial(law, 3, 5, x))
"""
COLD_SY_CHILD = """
from fractions import Fraction
from probstirling.distributions import Poisson
from probstirling.gen_stirling import sy
print(sy(Poisson(Fraction(1, 3)), {n}, 2, Fraction({x!r})))
"""


def test_oracle_memos_grow_to_the_cold_values(fresh_python):
    lines = fresh_python(GROWTH_CHILD.format(order=GROWTH_ORDER)).splitlines()
    cold = {
        (x, n): fresh_python(COLD_SY_CHILD.format(n=n, x=x)).strip()
        for x in ("0", "-7/3")
        for n in GROWTH_ORDER
    }
    expected = []
    for x in ("0", "0", "-7/3"):
        expected += [f"{x} {n} " + " ".join([cold[x, n]] * 3) for n in GROWTH_ORDER]
        expected.append(f"{x} m > n 0 0")
    assert lines == expected


def test_oracle_memos_concurrent_growth(fresh_python):
    # six threads extend the same oracle rows, half with n rising and half
    # with n falling, with thread switches forced as often as possible: rows
    # grow under one lock, in place while their denominator stays, so every
    # value still matches a sequential run
    snippet = (
        "import sys, threading\n"
        "from fractions import Fraction\n"
        "from probstirling.distributions import Poisson\n"
        "from probstirling.gen_stirling import sy, sy_via_factorial, sy_via_uniform_rep\n"
        "law, x = Poisson(Fraction(1, 3)), Fraction(-7, 3)\n"
        "results = {}\n"
        "def work(t):\n"
        "    ns = range(13) if t % 2 else range(12, -1, -1)\n"
        "    results[t] = [\n"
        "        route(law, n, m, x) for n in ns for m in range(min(n, 2 + t) + 1)\n"
        "        for route in (sy, sy_via_factorial, sy_via_uniform_rep)\n"
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
    assert threaded.count("Fraction") == 3 * sum(
        min(n, 2 + t) + 1 for t in range(6) for n in range(13)
    )


def test_production_paths_never_reach_an_oracle(capsys, monkeypatch):
    # the reverse of the test above: every production value comes from the
    # engine or a closed form, so the oracles may raise wherever they are bound
    def forbidden(*args, **kwargs):
        raise AssertionError("a production path reached an oracle route")

    oracles = ("sy", "sy_via_factorial", "sy_via_uniform_rep")
    memos = ("_grow_row", "_falling_row", "_difference_row", "_orbits", "_orbit_sum")
    for name in oracles + memos:
        for module in (gen_stirling, sums):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    law, x = Shifted(Poisson(Fraction(1, 3)), HALF), Fraction(-7, 3)
    sy_table(law, 8, x)
    sy_poly(law, 6, 2)
    sy_via_gf(law, 6, 2, x)
    assert whitney(2, 2, 1, 0) == 2
    sums.sum_via_stirling(law, 5, 7, x)
    grids = [
        sums.verify_corollary8(law, 4, 6, [0, x]),
        sums.verify_theorem1(4, 6, [0, x]),
        sums.verify_theorem9(4, 6),
        sums.verify_theorem10(HALF, 4, 6),
        sums.verify_theorem11(HALF, 3, 5),
        sums.verify_theorem12("moment:poisson:1/3", 3, 5, [x]),
        sums.verify_bernoulli_classic(4, 6, [x]),
    ]
    assert all(r.passed for reports in grids for r in reports)
    assert cli.main(["table", "sy", "--dist", "poisson:1/3", "--n", "6", "--x=1/2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 28


# ------------------------------------------------------- production engine

ENGINE_X = [Fraction(0), HALF, Fraction(-7, 3)]


@pytest.mark.parametrize("dist", CATALOG + [Shifted(Poisson(Fraction(1, 3)), HALF)], ids=repr)
def test_sy_table_matches_defining_sum(dist):
    for x in ENGINE_X:
        rows = sy_table(dist, 12, x)
        assert [len(row) for row in rows] == list(range(1, 14))
        for a, row in enumerate(rows):
            assert row == [sy(dist, a, m, x) for m in range(a + 1)]


def _sy_table_reference(dist, n, x):
    """The Fraction series-product column build: column m holds the
    ordinary coefficients of e^(xz) (M(z) - 1)^m / m!, each column the one
    before times M - 1, divided by m."""
    f = [Fraction(0)] + [moment(dist, j) / factorial(j) for j in range(1, n + 1)]
    column = [Fraction(x) ** j / factorial(j) for j in range(n + 1)]
    rows = [[] for _ in range(n + 1)]
    for m in range(n + 1):
        if m:
            product = [Fraction(0)] * (n + 1)
            for i, c in enumerate(column):
                for j in range(n + 1 - i):
                    product[i + j] += c * f[j]
            column = [c / m for c in product]
        for a in range(m, n + 1):
            rows[a].append(factorial(a) * column[a])
    return rows


ENGINE_LAWS = CATALOG + [
    Shifted(Poisson(Fraction(1, 3)), HALF),
    Shifted(Exponential(), Fraction(2, 5)),
    FiniteSupport(((Fraction(-3, 2), Fraction(1, 3)), (Fraction(5, 7), Fraction(2, 3)))),
]


@pytest.mark.parametrize("dist", ENGINE_LAWS, ids=repr)
def test_sy_table_matches_series_product_reference(dist):
    n = 24
    for x in ENGINE_X:
        expected = _sy_table_reference(dist, n, x)
        for m_max in range(-1, n + 2):
            rows = sy_table(dist, n, x, m_max)
            assert rows == [row[: max(m_max + 1, 0)] for row in expected], (x, m_max)
            assert all(type(v) is Fraction for row in rows for v in row)


def test_sy_table_few_columns_keep_little_memory():
    # a deep table with one or two columns holds O(n) integers at a time,
    # not a weight for every pair of rows
    law, n = Exponential(), 250
    for j in range(n + 1):
        moment(law, j)
    for x, m_max in ((HALF, 1), (0, 2)):
        tracemalloc.start()
        try:
            rows = sy_table(law, n, x, m_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (x, peak)
        assert rows[n][1:] == [sy(law, n, m, x) for m in range(1, m_max + 1)]


def test_sy_table_m_max_is_column_prefix():
    for dist in (Poisson(Fraction(1, 3)), Geometric(HALF), CATALOG[-2]):
        for x in ENGINE_X:
            full = sy_table(dist, 9, x)
            for m_max in range(12):
                assert sy_table(dist, 9, x, m_max) == [row[: m_max + 1] for row in full]
    assert sy_table(Exponential(), 0) == [[1]]
    # a negative row bound is refused; a negative m_max keeps no columns
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        sy_table(Exponential(), -1)
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
        # the moment series minus its constant term 1
        f = EGFSeries((0,) + tuple(Fraction(bell_poly(j, lam)) / factorial(j) for j in range(1, order + 1)))
        for m in range(order + 1):
            powered = series_pow(f, m)
            for n in range(m, order + 1):
                extracted = factorial(n) * powered.coeffs[n] / factorial(m)
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
                assert whitney(1, n, m, x) == classical_stirling_poly(n, m, x)
    assert whitney(2, 2, 1, 0) == 2
    assert whitney(2, 2, 2, 0) == 1
    assert whitney(Fraction(-1, 2), 3, 2, HALF) == sy(Constant(Fraction(-1, 2)), 3, 2, HALF) * 4
    with pytest.raises(ValueError):
        whitney(0, 2, 1, 0)


def test_hermite_at_zero():
    assert [hermite_at_zero(n) for n in range(7)] == [1, 0, -1, 0, 3, 0, -15]
