"""Tests for the distribution catalog and its exact moment engine."""

import copy
import functools
import math
import pickle
from fractions import Fraction

import pytest

from probstirling import distributions
from probstirling.distributions import (
    Bernoulli,
    Constant,
    Distribution,
    Exponential,
    FiniteSupport,
    Geometric,
    Poisson,
    Shifted,
    StdNormal,
    Uniform01,
    UniformTimesExponential,
    format_distribution,
    moment,
    parse_distribution,
    shifted_sum_moment,
    sum_moment,
)
from probstirling.exact_core import (
    bell_poly,
    binomial,
    double_factorial,
    rising_factorial,
    stirling1,
    stirling2,
)
from probstirling.polylog import li_conv_direct

from catalog import CATALOG, HALF


# ------------------------------------------------------------------ moments


def test_moment_normalization():
    for dist in CATALOG:
        assert moment(dist, 0) == 1


def test_moment_closed_forms():
    assert moment(Poisson(1), 3) == 5 == bell_poly(3, 1)
    assert moment(StdNormal(), 4) == 3
    assert moment(Geometric(HALF), 2) == 3
    assert moment(Exponential(), 5) == 120
    assert moment(Uniform01(), 3) == Fraction(1, 4)
    assert moment(UniformTimesExponential(), 2) == Fraction(2, 3)
    assert moment(Constant(Fraction(-2, 3)), 3) == Fraction(-8, 27)
    assert moment(Bernoulli(Fraction(1, 3)), 7) == Fraction(1, 3)


def test_normal_moment_parity():
    for n in range(1, 12, 2):
        assert moment(StdNormal(), n) == 0
    for n in range(0, 12, 2):
        assert moment(StdNormal(), n) == double_factorial(n - 1)


def test_finite_support_moments():
    dist = FiniteSupport(((Fraction(0), HALF), (Fraction(2), HALF)))
    assert moment(dist, 3) == 4
    two_point = FiniteSupport(((Fraction(0), Fraction(2, 3)), (Fraction(1), Fraction(1, 3))))
    for n in range(8):
        assert moment(two_point, n) == moment(Bernoulli(Fraction(1, 3)), n)


def test_shifted_moments_match_atom_shift():
    # shifting a finite law is the same as shifting each atom
    atoms = ((Fraction(-1), HALF), (Fraction(3, 2), HALF))
    c = Fraction(5, 3)
    shifted = Shifted(FiniteSupport(atoms), c)
    direct = FiniteSupport(tuple((v + c, p) for v, p in atoms))
    for n in range(9):
        assert moment(shifted, n) == moment(direct, n)


def test_nested_shifts_fold_into_one():
    law = Shifted(Shifted(Poisson(HALF), Fraction(1, 3)), -1)
    assert (law.base, law.offset) == (Poisson(HALF), Fraction(-2, 3))
    assert format_distribution(law) == "shift:-2/3:poisson:1/2"
    assert Shifted(Shifted(Exponential(), 1), -1) == Shifted(Exponential(), 0)
    # 10^4 levels: each fold is one step, so nothing recurses with the depth
    text = "shift:1/2:" * 10**4 + "exp"
    deep = parse_distribution(text)
    assert deep == Shifted(Exponential(), 5000) and hash(deep) == hash(Shifted(Exponential(), 5000))
    assert format_distribution(deep) == "shift:5000:exp"
    assert moment(deep, 2) == moment(Shifted(Exponential(), 5000), 2)


@pytest.mark.parametrize("dist", CATALOG, ids=repr)
def test_laws_are_values(dist):
    # an mc-check worker receives its law pickled
    for twin in (pickle.loads(pickle.dumps(dist)), copy.deepcopy(dist)):
        assert twin is not dist and twin == dist and hash(twin) == hash(dist)
    for name in (*dist.__match_args__, "offset"):
        with pytest.raises(AttributeError):
            setattr(dist, name, Fraction(1))
        with pytest.raises(AttributeError):
            delattr(dist, name)


def test_law_reprs_and_equality():
    # the reprs are test ids, so they keep their form
    assert repr(Poisson(HALF)) == "Poisson(rate=Fraction(1, 2))"
    finite = FiniteSupport(((0, HALF), (2, Fraction(1, 4)), (-1, Fraction(1, 4))))
    assert repr(finite) == (
        "FiniteSupport(atoms=((Fraction(0, 1), Fraction(1, 2)), "
        "(Fraction(2, 1), Fraction(1, 4)), (Fraction(-1, 1), Fraction(1, 4))))"
    )
    folded = Shifted(Shifted(Geometric(HALF), 1), Fraction(-1, 3))
    assert repr(folded) == "Shifted(base=Geometric(q=Fraction(1, 2)), offset=Fraction(2, 3))"
    assert Poisson(HALF) != Bernoulli(HALF) and not Poisson(HALF) == Bernoulli(HALF)


def test_unpickled_law_is_checked_again():
    law = Geometric(HALF)
    # a stored parameter that no constructor accepts, as a corrupt pickle could carry
    object.__setattr__(law, "_params", (Fraction(2),))
    with pytest.raises(ValueError, match="Geometric requires 0 < q < 1"):
        pickle.loads(pickle.dumps(law))


def test_parameter_validation():
    with pytest.raises(ValueError):
        Bernoulli(0)
    with pytest.raises(ValueError):
        Bernoulli(Fraction(3, 2))
    with pytest.raises(ValueError):
        Poisson(-1)
    with pytest.raises(ValueError):
        Geometric(0)
    with pytest.raises(ValueError):
        Geometric(1)
    with pytest.raises(ValueError):
        FiniteSupport(((Fraction(0), HALF),))
    with pytest.raises(ValueError):
        FiniteSupport(((Fraction(0), Fraction(3, 2)), (Fraction(1), Fraction(-1, 2))))
    with pytest.raises(ValueError):
        FiniteSupport(())
    with pytest.raises(ValueError, match="shift base must be a distribution, got 'exp'"):
        Shifted("exp", 1)


# ---------------------------------------------------------------- sum moments


def test_sum_moment_base_cases():
    for dist in CATALOG:
        assert sum_moment(dist, 0, 0) == 1
        for n in range(1, 4):
            assert sum_moment(dist, 0, n) == 0
        for n in range(4):
            assert sum_moment(dist, 1, n) == moment(dist, n)


def test_sum_moment_exponential_is_rising_factorial():
    assert sum_moment(Exponential(), 2, 3) == 24
    for k in range(9):
        for n in range(9):
            assert sum_moment(Exponential(), k, n) == rising_factorial(k, n)


def test_sum_moment_uniform_is_stirling_ratio():
    assert sum_moment(Uniform01(), 2, 2) == Fraction(7, 6)
    for k in range(7):
        for n in range(7):
            assert sum_moment(Uniform01(), k, n) * binomial(n + k, k) == stirling2(n + k, k)


def test_sum_moment_product_law_is_stirling1_ratio():
    for k in range(7):
        for n in range(7):
            lhs = sum_moment(UniformTimesExponential(), k, n) * binomial(n + k, k)
            assert lhs == (-1) ** n * stirling1(n + k, k)


def test_sum_moment_poisson_scales_rate():
    for lam in (Fraction(1), HALF):
        for k in range(7):
            for n in range(7):
                assert sum_moment(Poisson(lam), k, n) == bell_poly(n, k * lam)


def test_sum_moment_normal_scaling():
    for k in range(6):
        for n in range(6):
            assert sum_moment(StdNormal(), k, 2 * n + 1) == 0
            assert sum_moment(StdNormal(), k, 2 * n) == k**n * double_factorial(2 * n - 1)


def test_sum_moment_shifted_geometric_matches_polylog_convolution():
    q = HALF
    p = 1 - q
    dist = Shifted(Geometric(q), 1)
    for k in range(5):
        for n in range(5):
            assert sum_moment(dist, k, n) * (q / p) ** k == li_conv_direct(n, k, q)


def test_shifted_sum_moment():
    for k in range(4):
        for n in range(4):
            for x in (Fraction(0), Fraction(1), Fraction(-1, 2)):
                assert shifted_sum_moment(Constant(1), k, n, x) == (x + k) ** n
    assert shifted_sum_moment(StdNormal(), 1, 2, 0) == 1
    d = Geometric(HALF)
    assert shifted_sum_moment(d, 2, 3, 0) == sum_moment(d, 2, 3)


def _shifted_reference(dist, k, n, x):
    # the Fraction expansion sum_j C(n, j) x^(n-j) E[S_k^j]
    return sum(
        (binomial(n, j) * Fraction(x) ** (n - j) * sum_moment(dist, k, j) for j in range(n + 1)),
        Fraction(0),
    )


@pytest.mark.parametrize("dist", CATALOG, ids=format_distribution)
def test_shifted_sum_moment_memo_matches_expansion(dist):
    expand = shifted_sum_moment.__wrapped__
    for k in range(4):
        for n in range(6):
            for x in (0, 1, -2, HALF, Fraction(-7, 3)):
                value = shifted_sum_moment(dist, k, n, x)
                assert type(value) is Fraction
                assert value == expand(dist, k, n, x) == expand(dist, k, n, Fraction(x))
                assert value == _shifted_reference(dist, k, n, x)
        # E[S^-1] is no finite sum of moments: a negative power is refused
        with pytest.raises(ValueError, match="moment order must be >= 0, got -1"):
            sum_moment(dist, k, -1)
        with pytest.raises(ValueError, match="moment order must be >= 0, got -1"):
            shifted_sum_moment(dist, k, -1, 0)


def test_shifted_sum_moment_int_and_fraction_x_share_an_entry():
    dist = Poisson(Fraction(5, 7))  # used by no other test
    value = shifted_sum_moment(dist, 3, 4, 2)
    before = shifted_sum_moment.cache_info()
    again = shifted_sum_moment(dist, 3, 4, Fraction(2))
    after = shifted_sum_moment.cache_info()
    assert type(value) is type(again) is Fraction and again == value
    assert after.hits == before.hits + 1 and after.currsize == before.currsize


def test_sum_moment_rejects_negative_summand_count():
    with pytest.raises(ValueError, match="summands"):
        sum_moment(Exponential(), -1, 2)


@functools.cache
def _sum_moment_reference(dist, k, n):
    # plain recursion on k, independent of the row tables
    if k == 0:
        return Fraction(1 if n == 0 else 0)
    return sum(
        (
            binomial(n, j) * _sum_moment_reference(dist, k - 1, j) * moment(dist, n - j)
            for j in range(n + 1)
        ),
        Fraction(0),
    )


# lookup orders over the cells (law, k, n): "deep" is a large k, "wide" a large n
SUM_MOMENT_ORDERS = {
    "deep-then-wide": "sorted(cells, key=lambda c: (c[2], -c[1]))",
    "wide-then-deep": "sorted(cells, key=lambda c: (c[1], -c[2]))",
    "shuffled": "random.Random(5).sample(cells, len(cells))",
}


@pytest.mark.parametrize("order", SUM_MOMENT_ORDERS)
def test_sum_moment_row_tables_match_recursive_reference(fresh_python, order):
    cells = [(format_distribution(d), k, n) for d in CATALOG for k in range(7) for n in range(9)]
    out = fresh_python(
        "import random\n"
        "from probstirling.distributions import parse_distribution, sum_moment\n"
        f"cells = {cells!r}\n"
        f"for law, k, n in {SUM_MOMENT_ORDERS[order]}:\n"
        "    sum_moment(parse_distribution(law), k, n)\n"
        "print([sum_moment(parse_distribution(law), k, n) for law, k, n in cells])"
    )
    expected = [_sum_moment_reference(parse_distribution(law), k, n) for law, k, n in cells]
    assert out.strip() == repr(expected)


@pytest.mark.parametrize("dist", CATALOG, ids=repr)
def test_sum_moment_row_does_not_depend_on_how_it_grew(dist, monkeypatch):
    # every stored row (nums, den) is reduced, so its form is fixed by its
    # values: growing the rows at once and one width at a time store the
    # same pairs, and each one equals the Fraction reference
    at_once, one_by_one = {}, {}
    monkeypatch.setattr(distributions, "_SUM_MOMENT_ROWS", at_once)
    distributions._sum_moment_row(dist, 5, 11)
    monkeypatch.setattr(distributions, "_SUM_MOMENT_ROWS", one_by_one)
    for n in range(12):
        distributions._sum_moment_row(dist, 5, n)
    assert at_once[dist] == one_by_one[dist]
    assert [len(nums) for nums, _ in at_once[dist]] == [12] * 6
    for k, (nums, den) in enumerate(at_once[dist]):
        assert den > 0 and math.gcd(den, *nums) == 1, k
        reference = [_sum_moment_reference(dist, k, n) for n in range(12)]
        assert [Fraction(c, den) for c in nums] == reference


def test_deep_sum_moment_from_cold_cache(fresh_python):
    # E[S_k^2] = k + k^2 for the unit exponential; k = 800 exceeds the
    # recursion limit of a row-by-row recursive memo
    out = fresh_python(
        "from probstirling.distributions import Exponential, sum_moment\n"
        "print(sum_moment(Exponential(), 800, 2))"
    )
    assert out.split() == ["640800"]


def test_poisson_and_geometric_moments_read_no_stirling_number(fresh_python):
    # row 1 of these laws grows by their generating functions' recurrences,
    # so the engine and the routes that read it leave the Stirling tables cold
    out = fresh_python(
        "from fractions import Fraction\n"
        "from probstirling import exact_core\n"
        "from probstirling.distributions import Geometric, Poisson, moment, sum_moment\n"
        "from probstirling.gen_stirling import sy, sy_table\n"
        "from probstirling.polylog import li_conv_direct, li_conv_prob\n"
        "for law in (Poisson(Fraction(5, 7)), Geometric(Fraction(2, 7))):\n"
        "    moment(law, 30), sum_moment(law, 4, 12), sy_table(law, 16, Fraction(1, 2))\n"
        "    sy(law, 8, 3, Fraction(-1, 3))\n"
        "li_conv_direct(6, 3, Fraction(1, 3)), li_conv_prob(6, 3, Fraction(1, 3))\n"
        "print(exact_core.stirling2.cache_info().misses)\n"
        "print(exact_core._STIRLING2_ROWS, exact_core._STIRLING1_ROWS)"
    )
    assert out.splitlines() == ["0", "[] []"]


# -------------------------------------------------------------------- syntax


def test_parse_round_trip():
    for dist in CATALOG:
        assert parse_distribution(format_distribution(dist)) == dist


def test_format_refuses_a_law_outside_the_catalog():
    with pytest.raises(TypeError, match="unknown distribution kind"):
        format_distribution(Distribution())


def test_parse_examples():
    assert parse_distribution("const:3") == Constant(3)
    assert parse_distribution("bernoulli:1/2") == Bernoulli(HALF)
    assert parse_distribution("poisson:1/2") == Poisson(HALF)
    assert parse_distribution("geom:1/3") == Geometric(Fraction(1, 3))
    assert parse_distribution("exp") == Exponential()
    assert parse_distribution("uniform") == Uniform01()
    assert parse_distribution("normal") == StdNormal()
    assert parse_distribution("ut") == UniformTimesExponential()
    assert parse_distribution("finite:0:1/2,2:1/2") == FiniteSupport(
        ((Fraction(0), HALF), (Fraction(2), HALF))
    )
    assert parse_distribution("shift:1:geom:1/2") == Shifted(Geometric(HALF), 1)
    # spaces after a shift's offset are skipped, as before the whole text
    assert parse_distribution("shift:1: poisson:1") == parse_distribution("shift:1:poisson:1")
    # nested shifts fold into one
    assert parse_distribution("shift:-1/2:shift:1:uniform") == Shifted(Uniform01(), HALF)


@pytest.mark.parametrize(
    "text",
    [
        "bogus:1",
        "geom:2",
        "bernoulli:0",
        "const",
        "exp:1",
        "finite:1:1/2",
        "finite:1",
        "finite:",
        "shift:1",
        "poisson:a",
        "const:1/0",
        "",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_distribution(text)
