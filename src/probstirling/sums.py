"""Evaluation and verification of generalized power-sum identities.

The headline identity rewrites the sum over k = 0..N of E[(x + S_k)^n]
two further ways: as a binomial-weighted sum of generalized Stirling
polynomial values, and as a short weighted sum using the integer c table.
One driver, :func:`triple_identity`, builds every instance of it and of its
relatives (corollary8, theorem1, the polynomial version, the rising-factorial,
Bell, polylogarithm and Appell-family sums, and the classical Bernoulli
baseline); a one-instance check is a one-cell grid. It evaluates each summand
and middle term once per (n, x) and reads the long member off a running sum,
so a grid costs O(N_max) evaluations per (n, x); the middle member keeps its
own formula. Reports carry every member value, not just a flag, so a failure
localizes which expression diverged. Every ``verify_*`` grid returns an
iterator that makes each report when it is asked for, so ``verify`` prints
each record as soon as it is made and a grid holds no list of its reports; a
parameter the suite refuses is still refused by the call itself. What the
three power-sum forms :func:`sum_direct`, :func:`sum_via_stirling` and
:func:`sum_via_cnn` may read and share is stated in
``probstirling.gen_stirling._ROUTE_MAP``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, product
from math import factorial

from .appell import AppellSeed, appell_eval, bernoulli_seed, family_seed
from .distributions import (
    Constant,
    Distribution,
    Geometric,
    format_distribution,
    shifted_sum_moment,
)
from .exact_core import (
    Polynomial,
    _convolve_tail,
    _grow_rows,
    _order,
    _shifted_value,
    alternating_sum,
    bell_poly,
    binomial,
    cnn_table,
    forward_diff,
    rising_factorial,
)
from .gen_stirling import (
    sy,
    sy_closed_exponential,
    sy_closed_geometric_shifted,
    sy_closed_poisson,
    sy_table,
    sy_via_factorial,
    sy_via_uniform_rep,
)
from .polylog import li_conv_prob

# (n, the N values reported for that n) pairs, in report order
Grid = Iterable[tuple[int, Sequence[int]]]

__all__ = [
    "UNIFORM_REP_DEFAULT_CAP",
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

# the cells m <= this bound get a paths-uniform record; the uniform route
# itself takes any m, but a record on every cell would change the output
UNIFORM_REP_DEFAULT_CAP = 4


class IdentityReport:
    """Exact comparison of the members of one identity instance.

    ``middle`` is None for inherently two-sided identities; ``passed``
    then means lhs == rhs, otherwise exact triple equality.
    """

    __slots__ = ("identity", "params", "lhs", "middle", "rhs", "passed")

    def __init__(
        self,
        identity: str,
        params: dict,
        lhs: Fraction,
        middle: Fraction | None,
        rhs: Fraction,
        passed: bool,
    ):
        self.identity, self.params = identity, params
        self.lhs, self.middle, self.rhs, self.passed = lhs, middle, rhs, passed

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"IdentityReport({fields})"


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
    label: Callable[[int, int, Fraction], dict],
    grid: Grid,
    term: Callable[[int, Fraction, int], Fraction],
    middle_term: Callable[[int, Fraction, int], Fraction] | None,
    xs: Sequence[Fraction | int] = (0,),
    short: Callable[[int, int, Fraction], Fraction] | None = None,
) -> Iterator[IdentityReport]:
    """Yield one report per (n, N, x) of the grid and xs, in that order, labelled
    label(n, N, x): the long sum of term(n, x, k) over k = 0..N, the
    binomial-weighted sum of middle_term(n, x, m) over m = 0..min(n, N) (None
    if two-sided) and short(n, N, x), by default the c-weighted sum of the
    first min(n, N) + 1 summands. Summands and middle terms are evaluated once
    per (n, x) up to the largest N, and the long member is a running sum. A
    suite without an evaluation point keeps the default x and leaves it out
    of its labels."""
    xs = [Fraction(x) for x in xs]
    for n, Ns in grid:
        top = max(Ns, default=-1)  # an empty N range evaluates nothing
        terms = {x: [term(n, x, k) for k in range(top + 1)] for x in dict.fromkeys(xs)}
        partial = {x: list(accumulate(terms[x], initial=Fraction(0))) for x in terms}
        if middle_term is not None:
            mids = {x: [middle_term(n, x, m) for m in range(min(n, top) + 1)] for x in terms}
        for N, x in product(Ns, xs):
            middle = None if middle_term is None else _binomial_weighted(n, N, mids[x].__getitem__)
            rhs = _cnn_weighted(n, N, terms[x]) if short is None else short(n, N, x)
            lhs = partial[x][max(N + 1, 0)]  # a negative N sums no summand
            yield make_report(identity, label(n, N, x), lhs, middle, rhs)


def sum_direct(dist: Distribution, n: int, N: int, x: Fraction | int = 0) -> Fraction:
    """The long form: sum over k = 0..N of E[(x + S_k)^n]."""
    _order("n", n)
    return sum((shifted_sum_moment(dist, k, n, x) for k in range(N + 1)), Fraction(0))


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
    """Three-way comparison of the paper's polynomial version of the
    power-sum formula, with a polynomial p of exact degree n in place of
    t^n: long sum of E[p(x + S_k)], binomial-weighted sum of expected
    iterated differences, and the short c-weighted sum, each member a check
    on the others. Rejects the zero polynomial (the identity is stated for
    exact degree n)."""
    if not p:
        raise ValueError("requires a nonzero polynomial")
    x = Fraction(x)
    means = [_poly_mean(p, dist, k, x) for k in range(N + 1)]
    poly, law = [str(c) for c in p.coeffs], format_distribution(dist)
    # E of the m-fold iterated difference with random increments equals
    # the alternating binomial sum over E[p(x + S_k)]
    return next(
        triple_identity(
            "poly-sum",
            lambda n, N, x: {"poly": poly, "dist": law, "N": N, "x": x},
            [(p.degree, [N])],
            lambda n, x, k: means[k],
            lambda n, x, m: alternating_sum(m, means),
            [x],
        )
    )


def _bernoulli_classic(grid: Grid, xs: Sequence[Fraction | int]) -> Iterator[IdentityReport]:
    """The classical baseline over a grid (see :func:`classical_bernoulli_check`),
    reading one Bernoulli seed, of the grid's largest order n + 1, whose
    initial values are computed once, when it is built."""
    seed = bernoulli_seed(max((n for n, _ in grid), default=-1) + 1)
    at_x = {}  # B_(n+1)(x), the same for every N
    diffs = {}  # the m-th forward differences of x^n, m = 0..n, for every x

    def middle(n: int, x: Fraction, m: int) -> Fraction:
        if n not in diffs:
            diffs[n] = [Polynomial.monomial(n)]
            for _ in range(n):
                diffs[n].append(forward_diff(diffs[n][-1]))
        return diffs[n][m](x)

    def short(n: int, N: int, x: Fraction) -> Fraction:
        if (n, x) not in at_x:
            at_x[n, x] = appell_eval(seed, n + 1, x)
        # a negative N sums no summand, as in the long member
        return (appell_eval(seed, n + 1, x + max(N + 1, 0)) - at_x[n, x]) / (n + 1)

    return triple_identity(
        "bernoulli-classic",
        lambda n, N, x: {"n": n, "N": N, "x": x},
        grid,
        lambda n, x, k: (x + k) ** n,
        middle,
        xs,
        short,
    )


def classical_bernoulli_check(n: int, N: int, x: Fraction | int = 0) -> IdentityReport:
    """The classical formula for sums of powers on an arithmetic progression,
    which the paper extends: the power sum against its forward-difference
    form and the Bernoulli-polynomial difference divided by n + 1, each
    member a check on the others. The one-instance form of
    :func:`verify_bernoulli_classic`."""
    _order("n", n)
    return next(_bernoulli_classic([(n, [N])], [x]))


def _sy_tables(
    dist: Distribution, n_max: int, xs: Sequence[Fraction | int]
) -> dict[Fraction, list[list[Fraction]]]:
    """One production table up to row n_max per distinct evaluation point; none for n_max < 0."""
    return {x: sy_table(dist, n_max, x) for x in dict.fromkeys(map(Fraction, xs)) if n_max >= 0}


def _moment_grid(
    identity: str, dist: Distribution, n_max: int, N_max: int, xs: Sequence[Fraction | int]
) -> Iterator[IdentityReport]:
    """The moment-driven triple identity over the full (n, N, x) grid; the
    middle member reads one engine table per x."""
    label = format_distribution(dist)
    tables = _sy_tables(dist, n_max, xs)
    return triple_identity(
        identity,
        lambda n, N, x: {"dist": label, "n": n, "N": N, "x": x},
        [(n, range(N_max + 1)) for n in range(n_max + 1)],
        lambda n, x, k: shifted_sum_moment(dist, k, n, x),
        lambda n, x, m: factorial(m) * tables[x][n][m],
        xs,
    )


def verify_corollary8(
    dist: Distribution,
    n_max: int,
    N_max: int,
    xs: Sequence[Fraction | int] = (0,),
) -> Iterator[IdentityReport]:
    """Triple-identity sweep over the full (n, N, x) grid."""
    return _moment_grid("corollary8", dist, n_max, N_max, xs)


def verify_theorem1(
    n_max: int, N_max: int, xs: Sequence[Fraction | int] = (0,)
) -> Iterator[IdentityReport]:
    """The classical specialization: the triple identity for the unit
    constant law, whose summands are plain shifted powers."""
    return _moment_grid("theorem1", Constant(1), n_max, N_max, xs)


def verify_theorem9(n_max: int, N_max: int) -> Iterator[IdentityReport]:
    """Rising-factorial sums: the sum over k = 0..N of <k>_n against the
    binomial-weighted exponential-law closed form and the c-weighted short
    form, computed from factorials alone (no moment engine). Requires
    N >= n, so the grid runs n <= N <= N_max."""
    return triple_identity(
        "theorem9",
        lambda n, N, x: {"n": n, "N": N},
        [(n, range(n, N_max + 1)) for n in range(n_max + 1)],
        lambda n, x, k: Fraction(rising_factorial(k, n)),
        lambda n, x, m: factorial(m) * sy_closed_exponential(n, m),
    )


def verify_theorem10(rate: Fraction | int, n_max: int, N_max: int) -> Iterator[IdentityReport]:
    """Bell-polynomial sums: the sum over k = 0..N of B_n(k rate) against
    the binomial-weighted double-Stirling closed form and the c-weighted
    short form. Requires N >= n."""
    rate = Fraction(rate)
    return triple_identity(
        "theorem10",
        lambda n, N, x: {"rate": rate, "n": n, "N": N},
        [(n, range(n, N_max + 1)) for n in range(n_max + 1)],
        lambda n, x, k: Fraction(bell_poly(n, k * rate)),
        lambda n, x, m: factorial(m) * sy_closed_poisson(n, m, rate),
    )


def verify_theorem11(q: Fraction | int, n_max: int, N_max: int) -> Iterator[IdentityReport]:
    """Polylogarithm-convolution sums: the sum over k = 0..N of
    (p/q)^k Li*k at order -n, each convolution taken through the moment
    engine (:func:`li_conv_prob`), against the binomial-weighted
    shifted-geometric closed form and the c-weighted short form. Requires
    N >= n and 0 < q < 1."""
    q = Geometric(q).q
    ratio = (1 - q) / q
    return triple_identity(
        "theorem11",
        lambda n, N, x: {"q": q, "n": n, "N": N},
        [(n, range(n, N_max + 1)) for n in range(n_max + 1)],
        lambda n, x, k: ratio**k * li_conv_prob(n, k, q),
        lambda n, x, m: factorial(m) * sy_closed_geometric_shifted(n, m, q),
    )


def _theorem12(seed: AppellSeed, grid: Grid, xs: Sequence[Fraction | int]) -> Iterator[IdentityReport]:
    """Two-sided Appell-family compression sums for one seed over a grid: the
    k-th summand A_n(k; x) is one ``_shifted_value`` of row k of a table grown
    once per grid as a moment table is, from row 0, 1, 0, 0, ..., and row 1,
    the seed's initial values A_j(0), by ``_convolve_tail``."""
    width = seed.order + 1
    rows = [([1] + [0] * seed.order, 1), seed._initial_values]

    def term(n: int, x: Fraction, k: int) -> Fraction:
        return _shifted_value(*_grow_rows(rows, k, width, _convolve_tail), n, x)

    label = lambda n, N, x: {"family": seed.name, "n": n, "N": N, "x": x}
    return triple_identity("theorem12", label, grid, term, None, xs)


def verify_theorem12(
    family: str, n_max: int, N_max: int, xs: Sequence[Fraction | int] = (0,)
) -> Iterator[IdentityReport]:
    """Appell-family compression sums for one family string (see
    :func:`family_seed`) over n <= N <= N_max and every x."""
    grid = [(n, range(n, N_max + 1)) for n in range(n_max + 1)]
    # a negative n_max is an empty grid, read from a seed of order 0
    return _theorem12(family_seed(family, max(n_max, 0)), grid, xs)


def _sy_cells(
    dist: Distribution, n_max: int, xs: Sequence[Fraction | int]
) -> Iterable[tuple[dict, int, int, Fraction, Fraction]]:
    """Each S_Y cell of the gf and paths suites in report order: its labels,
    n, m, x and the production value, read from one table per x."""
    label = format_distribution(dist)
    tables = _sy_tables(dist, n_max, xs)
    xs = [Fraction(x) for x in xs]
    for n in range(n_max + 1):
        for m in range(n + 1):
            for x in xs:
                yield {"dist": label, "n": n, "m": m, "x": x}, n, m, x, tables[x][n][m]


def verify_gf(
    dist: Distribution, n_max: int, xs: Sequence[Fraction | int] = (0,)
) -> Iterator[IdentityReport]:
    """The defining alternating sum against the production engine's
    generating-function extraction."""
    return (
        make_report("gf", params, sy(dist, n, m, x), None, engine)
        for params, n, m, x, engine in _sy_cells(dist, n_max, xs)
    )


def verify_paths(
    dist: Distribution, n_max: int, xs: Sequence[Fraction | int] = (0,)
) -> Iterator[IdentityReport]:
    """All-route agreement: the alternating sum against the production
    engine's generating function and the factorial-moment oracle, plus the
    uniform-representation oracle on the cells m <= UNIFORM_REP_DEFAULT_CAP."""
    for params, n, m, x, engine in _sy_cells(dist, n_max, xs):
        base = sy(dist, n, m, x)
        yield make_report("paths", params, base, engine, sy_via_factorial(dist, n, m, x))
        if m <= UNIFORM_REP_DEFAULT_CAP:
            yield make_report("paths-uniform", params, base, None, sy_via_uniform_rep(dist, n, m, x))


def verify_bernoulli_classic(
    n_max: int, N_max: int, xs: Sequence[Fraction | int] = (0,)
) -> Iterator[IdentityReport]:
    """Classical power-sum baseline over the full grid."""
    return _bernoulli_classic([(n, range(N_max + 1)) for n in range(n_max + 1)], xs)
