"""Probabilistic Stirling polynomials attached to a catalog distribution.

The central quantity S_Y(n, m; x) is the degree-(n-m) polynomial obtained
by applying an m-fold alternating binomial sum to the moments
E[(x + S_k)^n] of the partial sums S_k of independent copies of Y. It
reduces to the classical Stirling polynomial of the second kind when Y is
the constant 1.

One production engine computes the values: :func:`sy_table` builds whole
tables column by column from the generating function
sum_a S_Y(a, m; x) z^a / a! = e^(xz) (M(z) - 1)^m / m!, with M the exact
moment series of Y. Column m is column m - 1 times (M - 1) / m, so a
table up to row n costs n series products of order n, O(n^3) rational
multiplications against O(n^4) for evaluating the defining sum per cell.
:func:`sy_via_gf` reads one cell of it, and :func:`sy_poly`, the CLI
``table sy`` and the power-sum identities read its rows and columns.

Three oracle routes check the engine and never call it, or the series
module:

* :func:`sy`, the defining alternating moment sum, reads E[(x + S_k)^n]
  from the shifted partial-sum memo
  (:func:`~probstirling.distributions.shifted_sum_moment`);
* :func:`sy_via_factorial`, an expansion through classical Stirling
  numbers, reads the falling-factorial moments E[(x + S_k)_i] from its
  own memo keyed on (dist, k, i, x), each entry built once from the
  shifted memo and Stirling numbers of the first kind;
* :func:`sy_via_uniform_rep`, a product representation over auxiliary
  independent uniform variables, expands multinomially over the raw
  moment table (:func:`~probstirling.distributions.moment`).

The engine shares with the oracles only the raw moment table; ``sy`` and
``sy_via_factorial`` share the shifted partial-sum memo and the kernel's
alternating binomial sum, ``sy_via_uniform_rep`` the kernel's
multinomials. Their exact agreement is therefore evidence of correctness
rather than a tautology. The slow uniform-representation route is capped
at small m by default. Closed forms for specific catalog laws round out
the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .distributions import Constant, Distribution, moment, shifted_sum_moment
from .exact_core import (
    Polynomial,
    alternating_sum,
    binomial,
    double_factorial,
    multinomial,
    rising_factorial,
    stirling1,
    stirling2,
    weak_compositions,
)
from .series import (
    egf_coefficient,
    series_exp,
    series_from_moments,
    series_mul,
    series_one,
    series_scale,
    series_sub,
)

__all__ = [
    "SyPath",
    "GenStirlingResult",
    "UNIFORM_REP_DEFAULT_CAP",
    "sy",
    "sy_table",
    "sy_poly",
    "sy_via_gf",
    "sy_via_uniform_rep",
    "sy_via_factorial",
    "all_paths",
    "sy_closed_exponential",
    "sy_closed_poisson",
    "sy_closed_geometric_shifted",
    "sy_closed_normal",
    "sy_closed_uniform",
    "sy_closed_ut",
    "whitney",
    "hermite_at_zero",
]

# multinomial blowup makes the uniform-representation oracle impractical
# beyond small m; callers may raise the cap explicitly
UNIFORM_REP_DEFAULT_CAP = 4


class SyPath(Enum):
    """Which evaluation route produced a value."""

    ALTERNATING_SUM = "alternating-sum"
    GENERATING_FUNCTION = "generating-function"
    UNIFORM_REPRESENTATION = "uniform-representation"
    FACTORIAL_MOMENTS = "factorial-moments"
    CLOSED_FORM = "closed-form"


@dataclass(frozen=True)
class GenStirlingResult:
    """A value of the generalized Stirling polynomial, labeled by route."""

    value: Fraction
    path: SyPath


def _require_m_le_n(n: int, m: int) -> None:
    if m > n:
        raise ValueError(f"requires m <= n, got n={n}, m={m}")


def sy(dist: Distribution, n: int, m: int, x: Fraction | int = 0) -> Fraction:
    """The defining route: (1/m!) sum_k C(m, k) (-1)^(m-k) E[(x + S_k)^n].

    Identically 0 whenever m > n: the alternating sum is the expectation of
    an m-fold iterated difference of a degree-n polynomial, which the
    operator annihilates. The cancellation is exact, so no special case is
    needed (or wanted; it is tested as a theorem).
    """
    moments = [shifted_sum_moment(dist, k, n, x) for k in range(m + 1)]
    return alternating_sum(m, moments) / factorial(m)


def sy_table(
    dist: Distribution, n: int, x: Fraction | int = 0, m_max: int | None = None
) -> list[list[Fraction]]:
    """The production engine: ``rows[a][m]`` = S_Y(a, m; x) for every
    a <= n and m <= min(a, m_max), with m_max = n when omitted; a negative
    n gives no rows and a negative m_max no columns.

    Column m is read off the series e^(xz) (M(z) - 1)^m / m!, built from
    column m - 1 by one product with M - 1 and a division by m.
    """
    if n < 0:
        return []
    m_max = n if m_max is None else min(m_max, n)
    f = series_sub(series_from_moments(dist, n), series_one(n))
    column = series_exp(n, scale=x)
    rows: list[list[Fraction]] = [[] for _ in range(n + 1)]
    for m in range(m_max + 1):
        if m:
            column = series_scale(series_mul(column, f), Fraction(1, m))
        for a in range(m, n + 1):
            rows[a].append(egf_coefficient(column, a))
    return rows


def sy_poly(dist: Distribution, n: int, m: int) -> Polynomial:
    """The generalized Stirling polynomial in x, of exact degree n - m
    whenever E[Y] is nonzero; requires m <= n."""
    _require_m_le_n(n, m)
    rows = sy_table(dist, n, 0, m)
    coeffs = [binomial(n, d) * rows[n - d][m] for d in range(n - m + 1)]
    return Polynomial(coeffs)


def sy_via_gf(dist: Distribution, n: int, m: int, x: Fraction | int = 0) -> Fraction:
    """Generating-function route: n! times the z^n coefficient of
    e^(xz) (M(z) - 1)^m / m!, read from the production table."""
    # (M - 1)^m starts at z^m, so the coefficient vanishes for m > n
    if m > n:
        return Fraction(0)
    return sy_table(dist, n, x, m)[n][m]


def sy_via_uniform_rep(
    dist: Distribution,
    n: int,
    m: int,
    x: Fraction | int = 0,
    max_m: int = UNIFORM_REP_DEFAULT_CAP,
) -> Fraction:
    """Uniform-product route: C(n, m) E[Y_1 ... Y_m (x + Y_1 U_1 + ... +
    Y_m U_m)^(n-m)] with independent uniform U_j on [0, 1].

    The power is expanded multinomially; independence factors each term
    into moments of Y and of U, with E[U^a] = 1/(a+1). This is the slowest
    route and serves as an oracle, hence the cap on m.
    """
    _require_m_le_n(n, m)
    if m > max_m:
        raise ValueError(f"uniform-representation route capped at m <= {max_m}, got m={m}")
    x = Fraction(x)
    total = Fraction(0)
    # parts[0] counts the x factors; parts[1..m] the Y_j U_j factors
    for parts in weak_compositions(n - m, m + 1):
        term = Fraction(multinomial(parts)) * x ** parts[0]
        for a in parts[1:]:
            term *= moment(dist, a + 1) * Fraction(1, a + 1)
        total += term
    return binomial(n, m) * total


@lru_cache(maxsize=None)
def _falling_moment(dist: Distribution, k: int, i: int, x: Fraction | int) -> Fraction:
    """E[(x + S_k)_i], the falling-factorial moment, from the shifted power
    moments through signed Stirling numbers of the first kind."""
    return sum(
        (stirling1(i, j) * shifted_sum_moment(dist, k, j, x) for j in range(i + 1)),
        Fraction(0),
    )


def sy_via_factorial(dist: Distribution, n: int, m: int, x: Fraction | int = 0) -> Fraction:
    """Factorial-moment route: expand t^n over falling factorials with
    classical Stirling numbers of the second kind, take the falling-factorial
    moments E[(x + S_k)_i] of the shifted partial sums, and apply the
    alternating binomial sum."""
    total = Fraction(0)
    for i in range(n + 1):
        s2 = stirling2(n, i)
        if s2 == 0:
            continue
        falling_moments = [_falling_moment(dist, k, i, x) for k in range(m + 1)]
        total += s2 * alternating_sum(m, falling_moments)
    return total / factorial(m)


def all_paths(
    dist: Distribution,
    n: int,
    m: int,
    x: Fraction | int = 0,
    max_m: int = UNIFORM_REP_DEFAULT_CAP,
) -> list[GenStirlingResult]:
    """Evaluate every applicable route; the uniform-representation route is
    included only for m <= min(n, max_m)."""
    results = [
        GenStirlingResult(sy(dist, n, m, x), SyPath.ALTERNATING_SUM),
        GenStirlingResult(sy_via_gf(dist, n, m, x), SyPath.GENERATING_FUNCTION),
        GenStirlingResult(sy_via_factorial(dist, n, m, x), SyPath.FACTORIAL_MOMENTS),
    ]
    if m <= min(n, max_m):
        results.append(
            GenStirlingResult(sy_via_uniform_rep(dist, n, m, x, max_m), SyPath.UNIFORM_REPRESENTATION)
        )
    return results


# ----------------------------------------------------------- closed forms


def sy_closed_exponential(n: int, m: int) -> Fraction:
    """Unit-rate exponential law: C(n, m) times the ascending product of
    n - m terms starting at m."""
    _require_m_le_n(n, m)
    return Fraction(binomial(n, m) * rising_factorial(m, n - m))


def sy_closed_poisson(n: int, m: int, rate: Fraction | int) -> Fraction:
    """Poisson law: the double-Stirling sum over r of S(n, r) S(r, m) rate^r.

    A polynomial identity in the rate; negative rational rates remain valid
    even though no Poisson law exists there.
    """
    _require_m_le_n(n, m)
    rate = Fraction(rate)
    return sum(
        (stirling2(n, r) * stirling2(r, m) * rate**r for r in range(m, n + 1)),
        Fraction(0),
    )


def sy_closed_geometric_shifted(n: int, m: int, q: Fraction | int) -> Fraction:
    """Geometric law shifted by 1 (support starting at 1): the finite sum
    q^(-m) sum_r C(r, m) <m>_(r-m) S(n, r) (q/p)^r with p = 1 - q."""
    _require_m_le_n(n, m)
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError(f"requires 0 < q < 1, got {q}")
    p = 1 - q
    ratio = q / p
    total = sum(
        (
            binomial(r, m) * rising_factorial(m, r - m) * stirling2(n, r) * ratio**r
            for r in range(m, n + 1)
        ),
        Fraction(0),
    )
    return total / q**m


def hermite_at_zero(n: int) -> Fraction:
    """Value at 0 of the probabilists' Hermite polynomial: 0 for odd n and
    (-1)^(n/2) (n-1)!! for even n."""
    if n % 2:
        return Fraction(0)
    sign = -1 if (n // 2) % 2 else 1
    return Fraction(sign * double_factorial(n - 1))


def sy_closed_normal(n_power: int, m: int) -> Fraction:
    """Standard normal law: 0 at odd powers; at power 2h the value is
    (-1)^h H_(2h)(0) S(h, m) with H the probabilists' Hermite family, which
    collapses to (2h-1)!! S(h, m)."""
    if n_power % 2:
        return Fraction(0)
    half = n_power // 2
    sign = -1 if half % 2 else 1
    return Fraction(sign) * hermite_at_zero(n_power) * stirling2(half, m)


def sy_closed_uniform(n: int, m: int) -> Fraction:
    """Uniform law on [0, 1]: n!/(n+m)! times an alternating binomial sum of
    classical Stirling numbers S(n+k, k). The k = 0 term vanishes for
    n >= 1 but is kept as stated."""
    _require_m_le_n(n, m)
    total = 0
    for k in range(m + 1):
        term = binomial(n + m, n + k) * stirling2(n + k, k)
        total += -term if (m - k) % 2 else term
    return Fraction(factorial(n), factorial(n + m)) * total


def sy_closed_ut(n: int, m: int) -> Fraction:
    """Product of independent uniform and exponential factors: the uniform
    closed form with S(n+k, k) replaced by signed Stirling numbers of the
    first kind and an overall sign (-1)^n."""
    _require_m_le_n(n, m)
    total = 0
    for k in range(m + 1):
        term = binomial(n + m, n + k) * stirling1(n + k, k)
        total += -term if (m - k) % 2 else term
    sign = -1 if n % 2 else 1
    return Fraction(sign) * Fraction(factorial(n), factorial(n + m)) * total


def whitney(alpha: Fraction | int, n: int, m: int, x: Fraction | int = 0) -> Fraction:
    """Whitney numbers of the second kind with rational parameter alpha,
    realized as the constant-shift value rescaled by alpha^(-m)."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("Whitney rescaling requires a nonzero parameter")
    return sy(Constant(alpha), n, m, x) / alpha**m
