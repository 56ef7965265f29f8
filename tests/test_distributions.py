"""Tests for the distribution catalog and its exact moment engine."""

from fractions import Fraction

import pytest

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

HALF = Fraction(1, 2)

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


@pytest.mark.parametrize("dist", CATALOG, ids=format_distribution)
def test_shifted_sum_moment_memo_matches_expansion(dist):
    expand = shifted_sum_moment.__wrapped__
    for k in range(4):
        for n in range(6):
            for x in (0, 1, -2, HALF, Fraction(-7, 3)):
                value = shifted_sum_moment(dist, k, n, x)
                assert type(value) is Fraction
                assert value == expand(dist, k, n, x) == expand(dist, k, n, Fraction(x))


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


def test_deep_sum_moment_from_cold_cache(fresh_python):
    # E[S_k^2] = k + k^2 for the unit exponential; k = 800 exceeds the
    # recursion limit of a row-by-row recursive memo
    out = fresh_python(
        "from probstirling.distributions import Exponential, sum_moment\n"
        "print(sum_moment(Exponential(), 800, 2))"
    )
    assert out.split() == ["640800"]


# -------------------------------------------------------------------- syntax


def test_parse_round_trip():
    for dist in CATALOG:
        assert parse_distribution(format_distribution(dist)) == dist


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
    assert parse_distribution("shift:-1/2:shift:1:uniform") == Shifted(
        Shifted(Uniform01(), 1), Fraction(-1, 2)
    )


@pytest.mark.parametrize(
    "text",
    [
        "bogus:1",
        "geom:2",
        "bernoulli:0",
        "const",
        "exp:1",
        "finite:1:1/2",
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
