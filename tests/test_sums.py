"""Tests for the power-sum identity engine."""

from fractions import Fraction
from itertools import zip_longest
from math import factorial, perm

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from probstirling import sums
from probstirling.appell import (
    AppellSeed,
    appell_eval,
    bernoulli_seed,
    euler_seed,
    family_seed,
    hermite_seed,
    theorem12_check,
)
from probstirling.distributions import (
    Constant,
    Exponential,
    FiniteSupport,
    Geometric,
    Poisson,
    Shifted,
    StdNormal,
    Uniform01,
    format_distribution,
    shifted_sum_moment,
)
from probstirling.exact_core import (
    Polynomial,
    _convolve_tail,
    _grow_rows,
    alternating_sum,
    bell_poly,
    binomial,
    cnn_table,
    forward_diff,
    rising_factorial,
)
from probstirling.gen_stirling import (
    sy_closed_geometric_shifted,
    sy_closed_poisson,
    sy_table,
    sy_via_gf,
)
from probstirling.polylog import li_conv_prob
from probstirling.series import EGFSeries, series_mul, series_pow
from probstirling.sums import (
    UNIFORM_REP_DEFAULT_CAP,
    _poly_mean,
    classical_bernoulli_check,
    make_report,
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
    verify_theorem12,
)

from catalog import CATALOG, HALF

X = [Fraction(0), Fraction(1), Fraction(-1), HALF]

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

    rising3 = Polynomial([0, 2, 3, 1])  # x (x + 1) (x + 2)
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
    polys = [Polynomial([1, 2, 3]), Polynomial([0, 2, 3, 1]), Polynomial([0, -1, 0, HALF])]
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
    combo = Polynomial([a * c + b * d for c, d in zip_longest(coeffs_p, coeffs_q, fillvalue=0)])
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
    reports = list(verify_corollary8(Shifted(Geometric(HALF), 1), 4, 10, [Fraction(0)]))
    assert len(reports) == 5 * 11
    assert all(r.passed for r in reports)
    fuzz = FiniteSupport(((Fraction(0), HALF), (Fraction(2), HALF)))
    assert all(r.passed for r in verify_corollary8(fuzz, 3, 8, [Fraction(0), Fraction(1)]))
    trivial = list(verify_corollary8(Uniform01(), 0, 5, [Fraction(0)]))
    assert all(r.passed for r in trivial)
    assert all(r.lhs == r.params["N"] + 1 for r in trivial)


def test_verify_theorem1_matches_classical():
    reports = list(verify_theorem1(5, 12, X))
    assert all(r.passed for r in reports)
    for r in reports:
        check = classical_bernoulli_check(r.params["n"], r.params["N"], r.params["x"])
        assert check.lhs == r.lhs


def test_verify_theorem9():
    reports = list(verify_theorem9(6, 12))
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
        reports = list(verify_paths(dist, 5, [Fraction(0), Fraction(1)]))
        assert all(r.passed for r in reports)
        assert {r.identity for r in reports} == {"paths", "paths-uniform"}
        # the uniform-representation route runs exactly up to its default cap
        uniform = {(r.params["n"], r.params["m"]) for r in reports if r.identity == "paths-uniform"}
        cells = {(n, m) for n in range(6) for m in range(n + 1)}
        assert uniform == {(n, m) for n, m in cells if m <= UNIFORM_REP_DEFAULT_CAP}


@pytest.mark.parametrize("dist", [Geometric(HALF), Shifted(Poisson(Fraction(1, 3)), HALF)], ids=repr)
def test_verify_gf_and_paths_read_the_one_cell_gf_values(dist):
    xs = [0, HALF, Fraction(-7, 3)]
    gf = list(verify_gf(dist, 6, xs))
    paths = [r for r in verify_paths(dist, 6, xs) if r.identity == "paths"]
    assert len(gf) == len(paths) == 28 * 3
    for gf_report, paths_report in zip(gf, paths):
        p = gf_report.params
        assert paths_report.params == p
        cell = sy_via_gf(dist, p["n"], p["m"], p["x"])
        assert gf_report.rhs == paths_report.middle == cell


def test_verify_bernoulli_classic_suite():
    assert all(r.passed for r in verify_bernoulli_classic(6, 10, X))


def test_bernoulli_grid_evaluates_each_bernoulli_value_once(monkeypatch):
    calls = []

    def counted(seed, n, x):
        calls.append((n, x))
        return appell_eval(seed, n, x)

    monkeypatch.setattr(sums, "appell_eval", counted)
    reports = list(verify_bernoulli_classic(10, 60))
    # B_(n+1)(x + N + 1) per report, and B_(n+1)(x) once per n, not per N
    assert len(reports) == 11 * 61
    assert len(calls) == len(set(calls)) == 11 * 61 + 11
    assert repr(reports) == repr([_reference_bernoulli(n, N, 0) for n in range(11) for N in range(61)])


def test_report_fields():
    report = list(verify_corollary8(Exponential(), 2, 2, [HALF]))[0]
    assert report.identity == "corollary8"
    assert report.middle is not None
    assert isinstance(report.params, dict)


# --- the per-instance formulas the grid driver replaced, kept as references ---


def _reference_triple(identity, params, n, N, term, middle_term):
    terms = [term(k) for k in range(N + 1)]
    lhs = sum(terms, Fraction(0))
    rhs = sum((w * terms[k] for k, w in enumerate(cnn_table(n, N).values)), Fraction(0))
    middle = sum(
        (binomial(N + 1, m + 1) * middle_term(m) for m in range(min(n, N) + 1)), Fraction(0)
    )
    return make_report(identity, params, lhs, middle, rhs)


def _reference_theorem12(seed, n, N, x):
    values = []
    power = EGFSeries((1,) + (0,) * seed.g0.order)
    for _ in range(N + 1):
        values.append(appell_eval(AppellSeed(seed.name, power), n, x))
        power = series_mul(power, seed.g0)
    lhs = sum(values, Fraction(0))
    weights = cnn_table(n, N).values
    rhs = sum((weights[k] * values[k] for k in range(n + 1)), Fraction(0))
    params = {"family": seed.name, "n": n, "N": N, "x": Fraction(x)}
    return make_report("theorem12", params, lhs, None, rhs)


def _reference_bernoulli(n, N, x):
    x = Fraction(x)
    lhs = sum(((x + k) ** n for k in range(N + 1)), Fraction(0))
    mono = Polynomial.monomial(n)
    middle = sum(
        (binomial(N + 1, m + 1) * forward_diff(mono, m)(x) for m in range(min(n, N) + 1)),
        Fraction(0),
    )
    seed = bernoulli_seed(n + 1)
    # an empty sum for every N <= -1, like the other two members
    rhs = (appell_eval(seed, n + 1, x + max(N + 1, 0)) - appell_eval(seed, n + 1, x)) / (n + 1)
    return make_report("bernoulli-classic", {"n": n, "N": N, "x": x}, lhs, middle, rhs)


def _reference_moment_grid(identity, dist, n_max, N_max, xs):
    label = format_distribution(dist)
    tables = {Fraction(x): sy_table(dist, n_max, x) for x in xs}
    return [
        _reference_triple(
            identity,
            {"dist": label, "n": n, "N": N, "x": x},
            n,
            N,
            lambda k: shifted_sum_moment(dist, k, n, x),
            lambda m: factorial(m) * tables[x][n][m],
        )
        for n in range(n_max + 1)
        for N in range(N_max + 1)
        for x in map(Fraction, xs)
    ]


GRID_XS = [[0], [2, HALF, HALF, Fraction(-1, 3)], []]
GRID_SIZES = [(3, 5), (4, 2), (0, 0)]


@pytest.mark.parametrize("n_max, N_max", GRID_SIZES)
@pytest.mark.parametrize("xs", GRID_XS, ids=repr)
def test_moment_grids_match_the_per_instance_formula(n_max, N_max, xs):
    for dist in (Poisson(HALF), Shifted(Geometric(Fraction(1, 3)), HALF)):
        got = list(verify_corollary8(dist, n_max, N_max, xs))
        assert repr(got) == repr(_reference_moment_grid("corollary8", dist, n_max, N_max, xs))
    got = list(verify_theorem1(n_max, N_max, xs))
    assert repr(got) == repr(_reference_moment_grid("theorem1", Constant(1), n_max, N_max, xs))


@pytest.mark.parametrize("n_max, N_max", GRID_SIZES)
def test_closed_form_grids_match_the_per_instance_formula(n_max, N_max):
    upper = [(n, N) for n in range(n_max + 1) for N in range(n, N_max + 1)]
    t9 = [
        _reference_triple(
            "theorem9",
            {"n": n, "N": N},
            n,
            N,
            lambda k: Fraction(rising_factorial(k, n)),
            lambda m: perm(n, m) * rising_factorial(m, n - m),
        )
        for n, N in upper
    ]
    assert repr(list(verify_theorem9(n_max, N_max))) == repr(t9)
    rate = Fraction(2, 3)
    t10 = [
        _reference_triple(
            "theorem10",
            {"rate": rate, "n": n, "N": N},
            n,
            N,
            lambda k: Fraction(bell_poly(n, k * rate)),
            lambda m: factorial(m) * sy_closed_poisson(n, m, rate),
        )
        for n, N in upper
    ]
    assert repr(list(verify_theorem10(rate, n_max, N_max))) == repr(t10)
    q = Fraction(1, 3)
    t11 = [
        _reference_triple(
            "theorem11",
            {"q": q, "n": n, "N": N},
            n,
            N,
            lambda k: ((1 - q) / q) ** k * li_conv_prob(n, k, q),
            lambda m: factorial(m) * sy_closed_geometric_shifted(n, m, q),
        )
        for n, N in upper
    ]
    assert repr(list(verify_theorem11(q, n_max, N_max))) == repr(t11)


@pytest.mark.parametrize("n_max, N_max", GRID_SIZES)
@pytest.mark.parametrize("xs", GRID_XS, ids=repr)
def test_theorem12_and_bernoulli_grids_match_the_per_instance_formula(n_max, N_max, xs):
    for family in ("bernoulli", "euler", "hermite", "moment:exp"):
        seed = family_seed(family, n_max)
        expected = [
            _reference_theorem12(seed, n, N, x)
            for n in range(n_max + 1)
            for N in range(n, N_max + 1)
            for x in xs
        ]
        assert repr(list(verify_theorem12(family, n_max, N_max, xs))) == repr(expected)
    expected = [
        _reference_bernoulli(n, N, x)
        for n in range(n_max + 1)
        for N in range(N_max + 1)
        for x in xs
    ]
    assert repr(list(verify_bernoulli_classic(n_max, N_max, xs))) == repr(expected)


@pytest.mark.parametrize("N", [-3, -1, 0, 1, 3, 6])
def test_one_instance_checks_match_the_per_instance_formula(N):
    for n in range(4):
        for x in (0, HALF, 3):
            got = classical_bernoulli_check(n, N, x)
            assert repr(got) == repr(_reference_bernoulli(n, N, x))
            if N >= n:
                got = theorem12_check(euler_seed(4), n, N, x)
                assert repr(got) == repr(_reference_theorem12(euler_seed(4), n, N, x))
    dist = Poisson(1)
    # the last is x (x + 1) (x + 2) (x + 3)
    for p in (Polynomial([1, 2, 3]), Polynomial([Fraction(5, 3)]), Polynomial([0, 6, 11, 6, 1])):
        x = Fraction(-1, 2)
        means = [_poly_mean(p, dist, k, x) for k in range(N + 1)]
        params = {"poly": [str(c) for c in p.coeffs], "dist": "poisson:1", "N": N, "x": x}
        expected = _reference_triple(
            "poly-sum", params, p.degree, N, means.__getitem__, lambda m: alternating_sum(m, means)
        )
        assert repr(sum_poly(p, dist, N, x)) == repr(expected)


def test_theorem12_grid_builds_each_seed_power_once(monkeypatch):
    # row 0 is the unit row and row 1 the seed's initial values, so the
    # convolution builds rows 2..N_max, once each, for every n and x
    calls = []

    def counting_tail(i, *args):
        calls.append(i)
        return _convolve_tail(i, *args)

    monkeypatch.setattr(sums, "_convolve_tail", counting_tail)
    reports = list(verify_theorem12("moment:exp", 4, 9, [0, HALF, HALF]))
    assert len(reports) == 3 * sum(10 - n for n in range(5))
    assert calls == list(range(2, 10))
    calls.clear()
    theorem12_check(hermite_seed(4), 2, 5, 1)
    assert calls == [2, 3, 4, 5]


@pytest.mark.parametrize("family", ["bernoulli", "euler", "hermite", "moment:exp"])
def test_theorem12_rows_are_the_scaled_seed_powers(monkeypatch, family):
    # row k holds A_j(0) of the k-fold family, j! [z^j] g^k, which
    # series_pow computes by Cauchy products, without the grid's table
    rows = {}

    def recording(table, k, width, grow):
        rows[k] = _grow_rows(table, k, width, grow)
        return rows[k]

    monkeypatch.setattr(sums, "_grow_rows", recording)
    list(verify_theorem12(family, 6, 6, [HALF]))
    g0 = family_seed(family, 6).g0
    assert sorted(rows) == list(range(7))
    for k, (nums, den) in rows.items():
        power = series_pow(g0, k).coeffs
        assert [Fraction(c, den) for c in nums] == [factorial(j) * power[j] for j in range(7)]


def test_theorem11_refuses_q_outside_the_unit_interval():
    for q in (0, 1, Fraction(3, 2), -1):
        with pytest.raises(ValueError, match="0 < q < 1"):
            verify_theorem11(q, 2, 3)


def test_lazy_grids_refuse_their_parameters_at_call_time():
    # no report is asked for, so each refusal comes from the call itself
    with pytest.raises(ValueError, match="unknown Appell family"):
        verify_theorem12("bogus", 2, 3)
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        verify_theorem10("x", 2, 3)
