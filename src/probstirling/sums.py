"""Evaluation and verification of generalized power-sum identities.

The headline identity rewrites the sum over k = 0..N of E[(x + S_k)^n]
two further ways: as a binomial-weighted sum of generalized Stirling
polynomial values, and as a short weighted sum using the integer c table.
One function, :func:`triple_identity`, builds every instance: the long and
short members share the summands, computed once, and the binomial-weighted
middle member is the independent one, evaluated by its own formula.
Instances are packaged as exact :class:`IdentityReport` comparisons,
together with the specialized rising-factorial, Bell-polynomial, and
polylogarithm sum suites, the Appell-family sums, and the classical
Bernoulli-polynomial formula as a baseline cross-check.

Reports carry every member value, not just a flag, so a failure localizes
which expression diverged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .appell import appell_eval, bernoulli_seed, family_seed, theorem12_check
from .distributions import (
    Constant,
    Distribution,
    format_distribution,
    shifted_sum_moment,
)
from .exact_core import (
    Polynomial,
    alternating_sum,
    bell_poly,
    binomial,
    cnn_table,
    falling_factorial,
    forward_diff,
    rising_factorial,
)
from .gen_stirling import (
    UNIFORM_REP_DEFAULT_CAP,
    sy,
    sy_closed_geometric_shifted,
    sy_closed_poisson,
    sy_table,
    sy_via_factorial,
    sy_via_gf,
    sy_via_uniform_rep,
)
from .polylog import li_conv_prob

__all__ = [
    "IdentityReport",
    "make_report",
    "triple_identity",
    "sum_direct",
    "sum_via_stirling",
    "sum_via_cnn",
    "sum_poly",
    "classical_bernoulli_check",
    "verify_corollary8",
    "verify_theorem1",
    "verify_theorem9",
    "verify_theorem10",
    "verify_theorem11",
    "verify_theorem12",
    "verify_gf",
    "verify_paths",
    "verify_bernoulli_classic",
]


@dataclass(frozen=True)
class IdentityReport:
    """Exact comparison of the members of one identity instance.

    ``middle`` is None for inherently two-sided identities; ``passed``
    then means lhs == rhs, otherwise exact triple equality.
    """

    identity: str
    params: dict
    lhs: Fraction
    middle: Fraction | None
    rhs: Fraction
    passed: bool


def make_report(
    identity: str,
    params: dict,
    lhs: Fraction,
    middle: Fraction | None,
    rhs: Fraction,
) -> IdentityReport:
    passed = lhs == rhs and (middle is None or middle == lhs)
    return IdentityReport(identity, params, lhs, middle, rhs, passed)


def _binomial_weighted(n: int, N: int, middle_term: Callable[[int], Fraction]) -> Fraction:
    """Sum over m = 0..min(n, N) of C(N+1, m+1) times middle_term(m)."""
    weighted = (binomial(N + 1, m + 1) * middle_term(m) for m in range(min(n, N) + 1))
    return sum(weighted, Fraction(0))


def _cnn_weighted(n: int, N: int, terms: Sequence[Fraction]) -> Fraction:
    """Integer c weights against the first min(n, N) + 1 summands."""
    return sum((w * terms[k] for k, w in enumerate(cnn_table(n, N).values)), Fraction(0))


def triple_identity(
    identity: str,
    params: dict,
    n: int,
    N: int,
    term: Callable[[int], Fraction],
    middle_term: Callable[[int], Fraction],
) -> IdentityReport:
    """One instance of the triple identity: the long sum of term(k) over
    k = 0..N, the binomial-weighted sum of middle_term(m) over
    m = 0..min(n, N), and the c-weighted short sum. The N + 1 summands are
    computed once and shared by the long and short members."""
    terms = [term(k) for k in range(N + 1)]
    lhs, rhs = sum(terms, Fraction(0)), _cnn_weighted(n, N, terms)
    return make_report(identity, params, lhs, _binomial_weighted(n, N, middle_term), rhs)


def sum_direct(dist: Distribution, n: int, N: int, x: Fraction | int = 0) -> Fraction:
    """The long form: sum over k = 0..N of E[(x + S_k)^n]."""
    return sum(
        (shifted_sum_moment(dist, k, n, x) for k in range(N + 1)), Fraction(0)
    )


def sum_via_stirling(dist: Distribution, n: int, N: int, x: Fraction | int = 0) -> Fraction:
    """The binomial-weighted form: sum over m = 0..min(n, N) of
    C(N+1, m+1) m! times the generalized Stirling polynomial value."""
    rows = sy_table(dist, n, x, min(n, N))
    return _binomial_weighted(n, N, lambda m: factorial(m) * rows[n][m])


def sum_via_cnn(dist: Distribution, n: int, N: int, x: Fraction | int = 0) -> Fraction:
    """The short weighted form: integer c weights against the first
    min(n, N) + 1 summands of the long form."""
    return _cnn_weighted(n, N, [shifted_sum_moment(dist, k, n, x) for k in range(min(n, N) + 1)])


def _poly_mean(p: Polynomial, dist: Distribution, k: int, x: Fraction) -> Fraction:
    """E[p(x + S_k)], expanding p over monomials."""
    return sum(
        (c * shifted_sum_moment(dist, k, d, x) for d, c in enumerate(p.coeffs) if c),
        Fraction(0),
    )


def sum_poly(p: Polynomial, dist: Distribution, N: int, x: Fraction | int = 0) -> IdentityReport:
    """Three-way comparison of the polynomial version of the identity:
    long sum of E[p(x + S_k)], binomial-weighted sum of expected iterated
    differences, and the short c-weighted sum. Rejects the zero polynomial
    (the identity is stated for exact degree n)."""
    if not p:
        raise ValueError("requires a nonzero polynomial")
    x = Fraction(x)
    means = [_poly_mean(p, dist, k, x) for k in range(N + 1)]
    params = {
        "poly": [str(c) for c in p.coeffs],
        "dist": format_distribution(dist),
        "N": N,
        "x": x,
    }
    # E of the m-fold iterated difference with random increments equals
    # the alternating binomial sum over E[p(x + S_k)]
    return triple_identity(
        "poly-sum", params, p.degree, N, means.__getitem__, lambda m: alternating_sum(m, means)
    )


def classical_bernoulli_check(n: int, N: int, x: Fraction | int = 0) -> IdentityReport:
    """The classical baseline: the power sum over an arithmetic progression
    against its forward-difference form and the Bernoulli-polynomial
    difference divided by n + 1."""
    x = Fraction(x)
    lhs = sum(((x + k) ** n for k in range(N + 1)), Fraction(0))
    mono = Polynomial.monomial(n)
    middle = sum(
        (
            binomial(N + 1, m + 1) * forward_diff(mono, m)(x)
            for m in range(min(n, N) + 1)
        ),
        Fraction(0),
    )
    seed = bernoulli_seed(n + 1)
    rhs = (appell_eval(seed, n + 1, x + N + 1) - appell_eval(seed, n + 1, x)) / (n + 1)
    return make_report("bernoulli-classic", {"n": n, "N": N, "x": x}, lhs, middle, rhs)


def _moment_grid(
    identity: str, dist: Distribution, n_max: int, N_max: int, xs: Sequence[Fraction | int]
) -> list[IdentityReport]:
    """The moment-driven triple identity over the full (n, N, x) grid; the
    middle member of every N reads one engine table per x."""
    label = format_distribution(dist)
    tables = {x: sy_table(dist, n_max, x) for x in map(Fraction, xs)}
    return [
        triple_identity(
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


def verify_corollary8(
    dist: Distribution,
    n_max: int,
    N_max: int,
    xs: Sequence[Fraction | int] = (0,),
) -> list[IdentityReport]:
    """Triple-identity sweep over the full (n, N, x) grid."""
    return _moment_grid("corollary8", dist, n_max, N_max, xs)


def verify_theorem1(n_max: int, N_max: int, xs: Sequence[Fraction | int] = (0,)) -> list[IdentityReport]:
    """The classical specialization: the triple identity for the unit
    constant law, whose summands are plain shifted powers."""
    return _moment_grid("theorem1", Constant(1), n_max, N_max, xs)


def verify_theorem9(n_max: int, N_max: int) -> list[IdentityReport]:
    """Rising-factorial sums: the sum over k = 0..N of <k>_n against its
    binomial-weighted closed form and its c-weighted short form, computed
    from factorials alone (no moment engine). Requires N >= n, so the grid
    runs n <= N <= N_max."""
    return [
        triple_identity(
            "theorem9",
            {"n": n, "N": N},
            n,
            N,
            lambda k: Fraction(rising_factorial(k, n)),
            lambda m: falling_factorial(n, m) * rising_factorial(m, n - m),
        )
        for n in range(n_max + 1)
        for N in range(n, N_max + 1)
    ]


def verify_theorem10(rate: Fraction | int, n_max: int, N_max: int) -> list[IdentityReport]:
    """Bell-polynomial sums: the sum over k = 0..N of B_n(k rate) against
    the binomial-weighted double-Stirling closed form and the c-weighted
    short form. Requires N >= n."""
    rate = Fraction(rate)
    return [
        triple_identity(
            "theorem10",
            {"rate": rate, "n": n, "N": N},
            n,
            N,
            lambda k: Fraction(bell_poly(n, k * rate)),
            lambda m: factorial(m) * sy_closed_poisson(n, m, rate),
        )
        for n in range(n_max + 1)
        for N in range(n, N_max + 1)
    ]


def verify_theorem11(q: Fraction | int, n_max: int, N_max: int) -> list[IdentityReport]:
    """Polylogarithm-convolution sums: the sum over k = 0..N of
    (p/q)^k Li*k at order -n, each convolution taken through the moment
    engine (:func:`li_conv_prob`), against the binomial-weighted
    shifted-geometric closed form and the c-weighted short form. Requires
    N >= n."""
    q = Fraction(q)
    ratio = (1 - q) / q
    return [
        triple_identity(
            "theorem11",
            {"q": q, "n": n, "N": N},
            n,
            N,
            lambda k: ratio**k * li_conv_prob(n, k, q),
            lambda m: factorial(m) * sy_closed_geometric_shifted(n, m, q),
        )
        for n in range(n_max + 1)
        for N in range(n, N_max + 1)
    ]


def verify_theorem12(
    family: str, n_max: int, N_max: int, xs: Sequence[Fraction | int] = (0,)
) -> list[IdentityReport]:
    """Appell-family compression sums for one family string (see
    :func:`family_seed`) over n <= N <= N_max and every x."""
    seed = family_seed(family, n_max)
    return [
        theorem12_check(seed, n, N, x)
        for n in range(n_max + 1)
        for N in range(n, N_max + 1)
        for x in xs
    ]


def verify_gf(
    dist: Distribution, n_max: int, xs: Sequence[Fraction | int] = (0,)
) -> list[IdentityReport]:
    """The defining alternating sum against the production engine's
    generating-function extraction."""
    reports = []
    for n in range(n_max + 1):
        for m in range(n + 1):
            for x in xs:
                x = Fraction(x)
                params = {"dist": format_distribution(dist), "n": n, "m": m, "x": x}
                reports.append(
                    make_report("gf", params, sy(dist, n, m, x), None, sy_via_gf(dist, n, m, x))
                )
    return reports


def verify_paths(
    dist: Distribution,
    n_max: int,
    xs: Sequence[Fraction | int] = (0,),
    uniform_cap: int = UNIFORM_REP_DEFAULT_CAP,
) -> list[IdentityReport]:
    """All-route agreement: the alternating sum against the production
    engine's generating function and the factorial-moment oracle, plus the
    uniform-representation oracle where its cap allows."""
    reports = []
    for n in range(n_max + 1):
        for m in range(n + 1):
            for x in xs:
                x = Fraction(x)
                params = {"dist": format_distribution(dist), "n": n, "m": m, "x": x}
                base = sy(dist, n, m, x)
                reports.append(
                    make_report(
                        "paths",
                        params,
                        base,
                        sy_via_gf(dist, n, m, x),
                        sy_via_factorial(dist, n, m, x),
                    )
                )
                if m <= uniform_cap:
                    reports.append(
                        make_report(
                            "paths-uniform",
                            params,
                            base,
                            None,
                            sy_via_uniform_rep(dist, n, m, x, uniform_cap),
                        )
                    )
    return reports


def verify_bernoulli_classic(
    n_max: int, N_max: int, xs: Sequence[Fraction | int] = (0,)
) -> list[IdentityReport]:
    """Classical power-sum baseline over the full grid."""
    return [
        classical_bernoulli_check(n, N, Fraction(x))
        for n in range(n_max + 1)
        for N in range(N_max + 1)
        for x in xs
    ]
