"""Probabilistic Stirling polynomials attached to a catalog distribution.

The central quantity S_Y(n, m; x) is the degree-(n-m) polynomial obtained
by applying an m-fold alternating binomial sum to the moments
E[(x + S_k)^n] of the partial sums S_k of independent copies of Y. It
reduces to the classical Stirling polynomial of the second kind when Y is
the constant 1.

One production engine computes the values: :func:`sy_table` builds whole
tables column by column from the generating function
sum_a S_Y(a, m; x) z^a / a! = e^(xz) (M(z) - 1)^m / m!, with M the exact
moment series of Y. Since column m is column m - 1 times (M - 1) / m, its
coefficients obey
S_Y(a, m; x) = (1/m) sum_{j>=1} C(a, j) E[Y^j] S_Y(a - j, m - 1; x),
with column 0 equal to x^a. The engine keeps each column as Python ints
over one common denominator, reads the moments over their lcm from the
table that the partial-sum moments read, and cancels with one gcd pass
per column, so a table up to row n costs O(n^3) integer multiplications
(against O(n^4) rational ones for the defining sum per cell) and no gcd
per operation. :func:`sy_via_gf` reads one cell of it, and :func:`sy_poly`,
the CLI ``table sy`` and the power-sum identities read its rows and columns.

Three oracle routes check the engine: :func:`sy`, the defining
alternating moment sum; :func:`sy_via_factorial`, through falling-factorial
moments; and :func:`sy_via_uniform_rep`, a product representation over
independent uniform variables. Each holds the part of its sum that does
not depend on n in a memo of its own, which its docstring names and
prices. The rows of ``sy`` and ``sy_via_factorial`` are integers over one
denominator, grown by ``exact_core._grow_row`` when a cell asks for a wider
one, so one of their cells costs O(n) integer products and one ``Fraction``.
Every production value, :func:`whitney` included, comes from the engine or
from a named closed form; the oracles only check it. What they, the
power-sum forms of :mod:`~probstirling.sums` and the polylogarithm
convolutions may read and share is stated once, in ``_ROUTE_MAP`` below.
Closed forms for specific catalog laws round out the module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from .distributions import Constant, Distribution, Geometric, moment, shifted_sum_moment
from .distributions import _law_moments
from .exact_core import (
    Polynomial,
    _common_denominator,
    _grow_row,
    _orbit_sum,
    _order,
    alternating_sum,
    binomial,
    double_factorial,
    rising_factorial,
    stirling1,
    stirling2,
)

__all__ = [
    "sy",
    "sy_table",
    "sy_poly",
    "sy_via_gf",
    "sy_via_uniform_rep",
    "sy_via_factorial",
    "sy_closed_exponential",
    "sy_closed_poisson",
    "sy_closed_geometric_shifted",
    "sy_closed_normal",
    "sy_closed_uniform",
    "sy_closed_ut",
    "whitney",
    "hermite_at_zero",
]

# What the routes that check one another may read and share. Each route is
# listed in its group with the moment tables it reads, and enters exactly
# those, which are charged with their own calls. Within a group, two routes
# may enter in common only those tables and the helpers under "shared". Their
# exact agreement is evidence of correctness only while that holds, and
# tests/test_route_map.py checks it. The moment tables that they share are
# checked against each law's moment generating function, which shares
# nothing with them, in tests/test_mgf_oracle.py. The rule that grows every
# stored row only stores entries a route computed, so it may be shared. The
# uniform route and li_conv_direct share exact_core._orbit_sum across groups.
# Names are "module.function" strings.
_ROUTE_MAP = {
    "groups": (
        {"gen_stirling.sy_table": ("distributions._law_moments",),
         "gen_stirling.sy": ("distributions.shifted_sum_moment",),
         "gen_stirling.sy_via_factorial": ("distributions.shifted_sum_moment",),
         "gen_stirling.sy_via_uniform_rep": ("distributions.moment",)},
        {"sums.sum_direct": ("distributions.shifted_sum_moment",),
         "sums.sum_via_stirling": ("distributions._law_moments",),
         "sums.sum_via_cnn": ("distributions.shifted_sum_moment",)},
        {"polylog.li_conv_direct": ("distributions.moment",),
         "polylog.li_conv_prob": ("distributions.shifted_sum_moment",)},
    ),
    "shared": {
        "exact_core._order": "the order check: it refuses an argument and computes nothing",
        "exact_core.alternating_sum": "the difference S_Y is defined by; sy_table and "
        "sy_via_uniform_rep, which do not call it, check it",
        **dict.fromkeys(
            ("exact_core._grow_row", "exact_core._common_denominator"),
            "holding an oracle's memo row as integers over one denominator, which "
            "computes no value; sy_table and sy_via_uniform_rep, which do not call it, check it",
        ),
        "distributions.Distribution.__hash__": "a law's hash, computed when it is built, "
        "which every memo keyed on the law reads",
        **dict.fromkeys(
            ("distributions.Geometric.__init__", "distributions.Distribution._freeze",
             "exact_core._Frozen._freeze", "distributions._rational"),
            "building the law whose moment tables both polylog routes read",
        ),
    },
}


# the oracles' memo rows, lists of rows over i grown by `exact_core._grow_row`,
# per (law, x): for `sy`, E[(x + S_k)^n] over k by n; for `sy_via_factorial`,
# E[(x + S_k)_i] by k, and their m-th differences at k = 0 by m
_SY_COLUMNS: dict = {}
_FACTORIAL_ROWS: dict = {}


def sy(dist: Distribution, n: int, m: int, x: Fraction | int = 0) -> Fraction:
    """The defining route: (1/m!) sum_k C(m, k) (-1)^(m-k) E[(x + S_k)^n].

    Identically 0 whenever m > n: the alternating sum is the expectation of
    an m-fold iterated difference of a degree-n polynomial, which the
    operator annihilates. The cancellation is exact, so no special case is
    needed (or wanted; it is tested as a theorem).

    ``_SY_COLUMNS`` holds E[(x + S_k)^n] per (law, x) and n, extended to
    k <= m as cells ask, so a cell costs m + 1 products of a binomial with
    an O(n log n)-bit integer, and one ``Fraction``.
    """
    _order("n", n)
    _order("m", m)

    def column(held, den, width):
        moments = [shifted_sum_moment(dist, k, n, x) for k in range(len(held), width)]
        return _common_denominator(moments)

    nums, den = _grow_row(_SY_COLUMNS.setdefault((dist, x), []), n, m + 1, column)
    return Fraction(alternating_sum(m, nums), den * factorial(m))


def sy_table(
    dist: Distribution, n: int, x: Fraction | int = 0, m_max: int | None = None
) -> list[list[Fraction]]:
    """The production engine: ``rows[a][m]`` = S_Y(a, m; x) for every
    a <= n and m <= min(a, m_max), with m_max = n when omitted; a negative
    n is refused, and a negative m_max gives rows with no columns.

    Column 0 is x^a; column m is read off column m - 1 by the coefficient
    recurrence S_Y(a, m; x) = (1/m) sum_{j>=1} C(a, j) E[Y^j] S_Y(a - j, m - 1; x).
    """
    _order("n", n)
    m_max = n if m_max is None else min(m_max, n)
    mu, mu_den = _law_moments(dist, n + 1)
    # each column is held as integers over one denominator: x = u/v gives
    # x^a = u^a v^(n-a) / v^n
    x = Fraction(x)
    u, v = x.numerator, x.denominator
    column = [u**a * v ** (n - a) for a in range(n + 1)]
    den = v**n
    rows: list[list[Fraction]] = [[] for _ in range(n + 1)]
    for m in range(m_max + 1):
        if m:
            # S_Y(i, m - 1; x) vanishes for i < m - 1, and zero entries (all
            # of column 0 past a = 0 when x = 0) are skipped; the weights
            # C(a, i) E[Y^(a-i)] are not kept between columns, which would
            # hold O(n^2) big integers however few columns are asked for
            column = [0] * m + [
                sum(comb(a, i) * mu[a - i] * c for i, c in enumerate(column[m - 1 : a], m - 1) if c)
                for a in range(m, n + 1)
            ]
            den *= m * mu_den
            g = gcd(den, *column)
            column = [c // g for c in column]
            den //= g
        for a in range(m, n + 1):
            rows[a].append(Fraction(column[a], den))
    return rows


def sy_poly(dist: Distribution, n: int, m: int) -> Polynomial:
    """S_Y(n, m; x) as a polynomial in x, read off the production engine at
    x = 0: the factor e^(xz) of the generating function gives
    S_Y(n, m; x) = sum_d C(n, d) S_Y(n - d, m; 0) x^d, of exact degree
    n - m whenever E[Y] is nonzero; requires m <= n. The tests check its
    values against :func:`sy`."""
    _order("n", n)
    _order("m", m, n)
    rows = sy_table(dist, n, 0, m)
    coeffs = [binomial(n, d) * rows[n - d][m] for d in range(n - m + 1)]
    return Polynomial(coeffs)


def sy_via_gf(dist: Distribution, n: int, m: int, x: Fraction | int = 0) -> Fraction:
    """Generating-function route: n! times the z^n coefficient of
    e^(xz) (M(z) - 1)^m / m!, read from the production table."""
    _order("n", n)
    _order("m", m)
    # (M - 1)^m starts at z^m, so the coefficient vanishes for m > n
    if m > n:
        return Fraction(0)
    return sy_table(dist, n, x, m)[n][m]


def sy_via_uniform_rep(dist: Distribution, n: int, m: int, x: Fraction | int = 0) -> Fraction:
    """Uniform-product route: C(n, m) E[Y_1 ... Y_m (x + Y_1 U_1 + ... +
    Y_m U_m)^(n-m)] with independent uniform U_j on [0, 1].

    The power is expanded binomially in x; the power e of x leaves
    :func:`_orbits` of t = n - m - e, memoized per (law, t, m), so a cell
    costs n - m + 1 ``Fraction`` products of O(n log n) bits. It serves only
    as an oracle.
    """
    _order("n", n)
    _order("m", m, n)
    x = Fraction(x)
    u, v, t = x.numerator, x.denominator, n - m
    # x^e = u^e v^(t-e) / v^t
    terms = (comb(t, e) * u**e * v ** (t - e) * _orbits(dist, t - e, m) for e in range(t + 1))
    return comb(n, m) * sum(terms, Fraction(0)) / v**t


@lru_cache(maxsize=None)
def _orbits(dist: Distribution, t: int, m: int) -> Fraction:
    """E[Y_1 ... Y_m (Y_1 U_1 + ... + Y_m U_m)^t], expanded
    multinomially; independence factors each term into moments of Y and of
    U, with E[U^a] = 1/(a+1), and the m pairs (Y_j, U_j) are exchangeable,
    so :func:`~probstirling.exact_core._orbit_sum` sums the terms once per
    partition of t: at most p(t) terms of m + 1 ``Fraction`` products each."""
    # E[Y^(a+1) U^a] = E[Y^(a+1)] / (a+1), for each exponent a that a part can take
    return _orbit_sum([moment(dist, a + 1) / (a + 1) for a in range(t + 1)], t, m)


def _falling_row(dist: Distribution, x, rows: list, k: int, width: int) -> tuple[list[int], int]:
    """E[(x + S_k)_i] for i < width, the falling-factorial moments, held in
    `rows`, from the shifted power moments through signed Stirling numbers
    of the first kind."""

    def tail(held, den, width):
        powers, den = _common_denominator([shifted_sum_moment(dist, k, j, x) for j in range(width)])
        return [
            sum(stirling1(i, j) * powers[j] for j in range(i + 1)) for i in range(len(held), width)
        ], den

    return _grow_row(rows, k, width, tail)


def _difference_row(dist: Distribution, m: int, x, width: int) -> tuple[list[int], int]:
    """D_m[i] = sum_k (-1)^(m-k) C(m, k) E[(x + S_k)_i] for i < width."""
    falling, differences = _FACTORIAL_ROWS.setdefault((dist, x), ([], []))

    def tail(held, den, width):
        rows = [_falling_row(dist, x, falling, k, width) for k in range(m + 1)]
        den = lcm(*[d for _, d in rows])
        scaled = [(nums, den // d) for nums, d in rows]
        return [
            alternating_sum(m, [nums[i] * s for nums, s in scaled]) for i in range(len(held), width)
        ], den

    return _grow_row(differences, m, width, tail)


def sy_via_factorial(dist: Distribution, n: int, m: int, x: Fraction | int = 0) -> Fraction:
    """Factorial-moment route: expand t^n over falling factorials with
    classical Stirling numbers of the second kind, take the falling-factorial
    moments E[(x + S_k)_i] of the shifted partial sums, and apply the
    alternating binomial sum: S_Y(n, m; x) = (1/m!) sum_i S(n, i) D_m[i].

    Its rows, in ``_FACTORIAL_ROWS`` per (law, x) and grown to i <= n: the
    falling-factorial moments per k, at O(n^2) products of a Stirling number
    with an O(n log n)-bit integer, and D_m per m, at m + 1 products an
    entry. A cell costs n + 1 more, and one ``Fraction``.
    """
    _order("n", n)
    _order("m", m)
    diffs, den = _difference_row(dist, m, x, n + 1)
    return Fraction(sum(stirling2(n, i) * diffs[i] for i in range(n + 1)), den * factorial(m))


# ----------------------------------------------------------- closed forms


def sy_closed_exponential(n: int, m: int) -> Fraction:
    """Unit-rate exponential law: C(n, m) times the ascending product of
    n - m terms starting at m."""
    _order("n", n)
    _order("m", m, n)
    return Fraction(binomial(n, m) * rising_factorial(m, n - m))


def sy_closed_poisson(n: int, m: int, rate: Fraction | int) -> Fraction:
    """Poisson law: the double-Stirling sum over r of S(n, r) S(r, m) rate^r.

    A polynomial identity in the rate; negative rational rates remain valid
    even though no Poisson law exists there.
    """
    _order("n", n)
    _order("m", m, n)
    rate = Fraction(rate)
    return sum((stirling2(n, r) * stirling2(r, m) * rate**r for r in range(m, n + 1)), Fraction(0))


def sy_closed_geometric_shifted(n: int, m: int, q: Fraction | int) -> Fraction:
    """Geometric law shifted by 1 (support starting at 1): the finite sum
    q^(-m) sum_r C(r, m) <m>_(r-m) S(n, r) (q/p)^r with p = 1 - q."""
    _order("n", n)
    _order("m", m, n)
    q = Geometric(q).q
    ratio = q / (1 - q)
    total = sum(
        binomial(r, m) * rising_factorial(m, r - m) * stirling2(n, r) * ratio**r
        for r in range(m, n + 1)
    )
    return total / q**m


def hermite_at_zero(n: int) -> Fraction:
    """Value at 0 of the probabilists' Hermite polynomial H_n, the Appell
    family of the standard normal law: 0 for odd n and (-1)^(n/2) (n-1)!!
    for even n. The Hermite seed e^(-z^2/2) of :mod:`probstirling.appell`
    reads these values, and the tests check them against sympy's
    ``hermite_prob(n, 0)``."""
    _order("n", n)
    if n % 2:
        return Fraction(0)
    sign = -1 if (n // 2) % 2 else 1
    return Fraction(sign * double_factorial(n - 1))


def sy_closed_normal(n_power: int, m: int) -> Fraction:
    """The paper's standard normal example: 0 at odd powers; at power 2h the
    value is (-1)^h H_(2h)(0) S(h, m) with H the probabilists' Hermite
    family, which is (2h-1)!! S(h, m). The tests check it against
    :func:`sy`."""
    _order("n_power", n_power)
    _order("m", m)
    if n_power % 2:
        return Fraction(0)
    return Fraction(double_factorial(n_power - 1) * stirling2(n_power // 2, m))


def _uniform_closed(n: int, m: int, stirling) -> Fraction:
    """n!/(n+m)! times the sum over k = 0..m of (-1)^(m-k) C(n+m, n+k) stirling(n+k, k).

    C(n+m, n+k) = C(m, k) (n+m)! k! / (m! (n+k)!), so this is n!/m! times
    the m-th alternating sum of k! stirling(n+k, k) / (n+k)!.
    """
    _order("n", n)
    _order("m", m, n)
    values = [Fraction(factorial(k) * stirling(n + k, k), factorial(n + k)) for k in range(m + 1)]
    return Fraction(factorial(n), factorial(m)) * alternating_sum(m, values)


def sy_closed_uniform(n: int, m: int) -> Fraction:
    """The paper's uniform example, the law on [0, 1]: n!/(n+m)! times an
    alternating binomial sum of classical Stirling numbers S(n+k, k). The
    k = 0 term vanishes for n >= 1 but is kept as stated. The tests check
    it against :func:`sy`."""
    return _uniform_closed(n, m, stirling2)


def sy_closed_ut(n: int, m: int) -> Fraction:
    """The paper's example of a product of independent uniform and
    exponential factors: the uniform closed form with S(n+k, k) replaced by
    signed Stirling numbers of the first kind and an overall sign (-1)^n.
    The tests check it against :func:`sy`."""
    value = _uniform_closed(n, m, stirling1)
    return -value if n % 2 else value


def whitney(alpha: Fraction | int, n: int, m: int, x: Fraction | int = 0) -> Fraction:
    """Whitney numbers of the second kind with rational parameter alpha, the
    paper's constant-law example: S_Y(n, m; x) for Y = alpha, rescaled by
    alpha^(-m), read from the production engine. At alpha = 1 they are the
    classical Stirling polynomials. The tests check them against :func:`sy`
    and against sympy's Stirling numbers."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("Whitney rescaling requires a nonzero parameter")
    return sy_via_gf(Constant(alpha), n, m, x) / alpha**m
