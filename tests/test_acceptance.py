"""Acceptance suite.

One test per exit criterion, each run at its stated grid with exact
(zero-tolerance) comparisons and its stated runtime bound, printing one
pass/fail line. Run `pytest tests/test_acceptance.py -v -s` to see the
lines as they complete.
"""

import random
import time
from fractions import Fraction

import pytest
from sympy.functions.combinatorial.numbers import stirling

from probstirling.appell import bernoulli_seed, euler_seed, hermite_seed, theorem12_check
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
)
from probstirling.exact_core import (
    bell_poly,
    binomial,
    cnn_alternating,
    cnn_table,
    multinomial,
    rising_factorial,
    stirling2,
)
from probstirling.gen_stirling import (
    sy,
    sy_closed_exponential,
    sy_closed_geometric_shifted,
    sy_closed_normal,
    sy_closed_poisson,
    sy_closed_uniform,
    sy_closed_ut,
    sy_table,
    sy_via_factorial,
    sy_via_gf,
    sy_via_uniform_rep,
)
from probstirling.montecarlo import compare_moment, estimate_sum_moment
from probstirling.polylog import li_conv_direct, li_conv_prob, li_neg
from probstirling.sums import (
    classical_bernoulli_check,
    sum_direct,
    sum_via_cnn,
    sum_via_stirling,
    verify_theorem9,
    verify_theorem10,
    verify_theorem11,
)

from catalog import CATALOG, HALF, classical_stirling_poly, weak_compositions

X4 = [Fraction(0), Fraction(1), Fraction(-1), HALF]

MC_SEED = 42


def _finish(num: int, label: str, started: float, limit: float) -> None:
    _check_elapsed(num, label, time.perf_counter() - started, limit)


def _check_elapsed(num: int, label: str, elapsed: float, limit: float) -> None:
    verdict = "PASS" if elapsed < limit else "FAIL"
    print(f"criterion {num:2d} ({label}): {verdict} [{elapsed:.2f}s, limit {limit:g}s]")
    assert elapsed < limit, f"criterion {num} exceeded runtime bound: {elapsed:.2f}s"


def test_criterion_01_row_sums():
    started = time.perf_counter()
    for n in range(9):
        for N in range(21):
            assert sum(cnn_table(n, N).values) == N + 1
    _finish(1, "c table row sums", started, 1.0)


def test_criterion_02_alternating_closed_form():
    started = time.perf_counter()
    for n in range(9):
        for N in range(n + 1, 21):
            table = cnn_table(n, N).values
            for k in range(n + 1):
                assert cnn_alternating(n, N, k) == table[k]
    _finish(2, "alternating closed form", started, 1.0)


def test_criterion_03_four_path_agreement():
    started = time.perf_counter()
    for dist in CATALOG:
        for n in range(9):
            for m in range(n + 1):
                for x in X4:
                    base = sy(dist, n, m, x)
                    assert sy_via_gf(dist, n, m, x) == base
                    assert sy_via_factorial(dist, n, m, x) == base
                    if m <= 4:
                        assert sy_via_uniform_rep(dist, n, m, x) == base
    _finish(3, "four-path agreement", started, 30.0)


def test_criterion_04_closed_form_theorems():
    started = time.perf_counter()
    for n in range(9):
        for m in range(n + 1):
            assert sy(Exponential(), n, m, 0) == sy_closed_exponential(n, m)
            assert sy(StdNormal(), n, m, 0) == sy_closed_normal(n, m)
            assert sy(Uniform01(), n, m, 0) == sy_closed_uniform(n, m)
            assert sy(UniformTimesExponential(), n, m, 0) == sy_closed_ut(n, m)
            for rate in (Fraction(1), HALF, Fraction(2)):
                assert sy(Poisson(rate), n, m, 0) == sy_closed_poisson(n, m, rate)
            for q in (HALF, Fraction(1, 3)):
                assert sy(Shifted(Geometric(q), 1), n, m, 0) == sy_closed_geometric_shifted(n, m, q)
            for x in X4:
                assert sy(Bernoulli(HALF), n, m, x) == HALF**m * classical_stirling_poly(n, m, x)
    _finish(4, "closed-form theorems", started, 10.0)


def test_criterion_05_triple_sum_identity():
    started = time.perf_counter()
    assert sum_direct(Constant(1), 2, 3, 0) == 14
    assert sum_via_stirling(Constant(1), 2, 3, 0) == 14
    assert sum_via_cnn(Constant(1), 2, 3, 0) == 14
    for dist in CATALOG:
        for n in range(7):
            for N in range(16):
                for x in X4:
                    direct = sum_direct(dist, n, N, x)
                    assert sum_via_stirling(dist, n, N, x) == direct
                    assert sum_via_cnn(dist, n, N, x) == direct
    _finish(5, "triple sum identity", started, 30.0)


def test_criterion_06_specialized_sums():
    started = time.perf_counter()
    reports = list(verify_theorem9(6, 12))
    for rate in (Fraction(1), HALF):
        reports += verify_theorem10(rate, 6, 12)
    reports += verify_theorem11(HALF, 4, 12)
    assert reports and all(r.passed for r in reports)
    _finish(6, "specialized sums", started, 10.0)


def test_criterion_07_appell_sums_and_classical_baseline():
    started = time.perf_counter()
    for seed_fn in (bernoulli_seed, euler_seed, hermite_seed):
        seed = seed_fn(6)
        for n in range(7):
            for N in range(n, 13):
                for x in (Fraction(0), Fraction(1), HALF):
                    assert theorem12_check(seed, n, N, x).passed
    for n in range(9):
        for N in range(16):
            for x in X4:
                assert classical_bernoulli_check(n, N, x).passed
    _finish(7, "Appell sums and classical baseline", started, 10.0)


def test_criterion_08_uniform_representation():
    started = time.perf_counter()
    for n in range(9):
        for m in range(n + 1):
            expectation = Fraction(0)
            for parts in weak_compositions(n - m, m):
                term = Fraction(multinomial(parts))
                for a in parts:
                    term *= Fraction(1, a + 1)
                expectation += term
            assert binomial(n, m) * expectation == stirling2(n, m)
    _finish(8, "uniform product representation", started, 5.0)


def test_criterion_09_polylog_convolutions():
    started = time.perf_counter()
    assert li_neg(2, HALF) == 6
    for q in (HALF, Fraction(1, 3), Fraction(3, 4)):
        for n in range(6):
            for k in range(5):
                assert li_conv_direct(n, k, q) == li_conv_prob(n, k, q)
    _finish(9, "polylog convolutions", started, 2.0)


def test_criterion_10_monte_carlo():
    started = time.perf_counter()
    dists = [
        Exponential(),
        Uniform01(),
        StdNormal(),
        UniformTimesExponential(),
        Geometric(HALF),
        Poisson(1),
    ]
    samples = 1_000_000
    for dist in dists:
        for k in range(4):
            for n in range(6):
                assert compare_moment(dist, k, n, samples, MC_SEED)[2], (dist, k, n)
    # bitwise reproducibility of a representative slice
    for dist in (StdNormal(), Geometric(HALF)):
        for k in range(4):
            first = estimate_sum_moment(dist, k, 5, samples, MC_SEED)
            second = estimate_sum_moment(dist, k, 5, samples, MC_SEED)
            assert first == second
    _finish(10, "Monte Carlo cross-check", started, 60.0)


def test_criterion_11_finite_support_fuzz():
    started = time.perf_counter()
    rng = random.Random(20260810)
    for _ in range(100):
        n_atoms = rng.randint(1, 4)
        values = rng.sample(range(-8, 9), n_atoms)
        weights = [rng.randint(1, 9) for _ in range(n_atoms)]
        total = sum(weights)
        atoms = tuple(
            (Fraction(v, rng.randint(1, 4)), Fraction(w, total))
            for v, w in zip(values, weights)
        )
        dist = FiniteSupport(atoms)
        n = rng.randint(0, 5)
        N = rng.randint(0, 10)
        x = Fraction(rng.choice((0, 1)))
        direct = sum_direct(dist, n, N, x)
        assert sum_via_stirling(dist, n, N, x) == direct
        assert sum_via_cnn(dist, n, N, x) == direct
    _finish(11, "finite-support fuzz", started, 30.0)


def test_criterion_12_factorial_route_table(fresh_python):
    # timed in a fresh interpreter, so every memo table starts empty
    out = fresh_python(
        "import time\n"
        "from fractions import Fraction\n"
        "from probstirling.distributions import Exponential\n"
        "from probstirling.gen_stirling import sy_via_factorial\n"
        "started = time.perf_counter()\n"
        "rows = [[sy_via_factorial(Exponential(), n, m, Fraction(1, 2)) for m in range(n + 1)]"
        " for n in range(21)]\n"
        "elapsed = time.perf_counter() - started\n"
        "print(rows)\n"
        "print(elapsed)"
    )
    rows, elapsed = out.splitlines()
    assert rows == str(sy_table(Exponential(), 20, HALF))
    _check_elapsed(12, "factorial route, n <= 20 table", float(elapsed), 2.0)


def test_criterion_13_deep_stirling_rows(fresh_python):
    # timed in a fresh interpreter, so both Stirling tables start empty
    out = fresh_python(
        "import time\n"
        "from probstirling.exact_core import stirling1, stirling2\n"
        "started = time.perf_counter()\n"
        "values = (stirling2(1500, 700), stirling1(1500, 700))\n"
        "elapsed = time.perf_counter() - started\n"
        "print(*values)\n"
        "print(elapsed)"
    )
    values, elapsed = out.splitlines()
    expected = (stirling(1500, 700), stirling(1500, 700, kind=1, signed=True))
    assert values.split() == [str(value) for value in expected]
    _check_elapsed(13, "cold Stirling rows at (1500, 700)", float(elapsed), 4.0)


# stdout sha256 of the command below, recorded before the integer engine
# replaced the Fraction series products
SY_TABLE_100_SHA256 = "568bd64deb6831ace806b92c54509eaa4d369e165e1e6fd9fe5c2015e821d56b"


def test_criterion_14_sy_table_n100(fresh_python):
    # timed in a fresh interpreter, imports included, so nothing is cached
    out = fresh_python(
        "import contextlib, hashlib, io, time\n"
        "started = time.perf_counter()\n"
        "from probstirling import cli\n"
        "buffer = io.StringIO()\n"
        "with contextlib.redirect_stdout(buffer):\n"
        "    status = cli.main(['table', 'sy', '--dist', 'poisson:1/3', '--n', '100', '--x=1/2'])\n"
        "elapsed = time.perf_counter() - started\n"
        "text = buffer.getvalue()\n"
        "print(status, hashlib.sha256(text.encode()).hexdigest(), elapsed)\n"
        "print(text, end='')"
    )
    summary, *lines = out.splitlines()
    status, digest, elapsed = summary.split()
    assert status == "0" and digest == SY_TABLE_100_SHA256
    row = {int(m): Fraction(value) for a, m, value in (line.split(",") for line in lines) if a == "100"}
    for m in range(5):
        assert row[m] == sy(Poisson(Fraction(1, 3)), 100, m, HALF), m
    _check_elapsed(14, "sy table, poisson:1/3, n = 100", float(elapsed), 1.0)


# stdout sha256 of each command, recorded before the verify grids shared
# their summands across N
GRID_RUNS = {
    15: (
        ["verify", "theorem12", "--family", "moment:exp", "--n-max", "10", "--N-max", "200"],
        "32b5632d71284d3b8fad4b4dc790da945cf7dd3bfaafe124f952d319ddbbfb77",
        3.0,
    ),
    16: (
        ["verify", "bernoulli-classic", "--n-max", "10", "--N-max", "200"],
        "4d8f00918d086a920680b522ea3bc96df0f6434abbbea72621dd3514c15baae5",
        2.0,
    ),
    17: (
        ["verify", "theorem11", "--n-max", "1", "--N-max", "1200"],
        "88416b6c21fa262f6524c15a35afaa29dcaf91c610623619dab04a0541ae3f91",
        10.0,
    ),
}


@pytest.mark.parametrize("num", sorted(GRID_RUNS))
def test_criteria_15_to_17_verify_grids(fresh_python, num):
    # timed in a fresh interpreter, imports included, so nothing is cached
    argv, expected, limit = GRID_RUNS[num]
    out = fresh_python(
        "import contextlib, hashlib, io, time\n"
        "started = time.perf_counter()\n"
        "from probstirling import cli\n"
        "buffer = io.StringIO()\n"
        "with contextlib.redirect_stdout(buffer):\n"
        f"    status = cli.main({argv!r})\n"
        "elapsed = time.perf_counter() - started\n"
        "print(status, hashlib.sha256(buffer.getvalue().encode()).hexdigest(), elapsed)"
    )
    status, digest, elapsed = out.split()
    assert status == "0" and digest == expected
    _check_elapsed(num, " ".join(argv), float(elapsed), limit)
