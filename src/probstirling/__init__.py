"""Exact probabilistic Stirling numbers of the second kind.

A library and CLI for the family S_Y(n, m; x): Stirling polynomials of
the second kind attached to a random variable Y with exact rational
moments. Everything outside the Monte Carlo sampler runs in arbitrary
precision rational arithmetic, and the headline summation identities are
verified through several structurally independent computation routes.
"""

from .appell import (
    AppellSeed,
    appell_eval,
    appell_moment_link,
    appell_polynomial,
    bernoulli_seed,
    binomial_convolve,
    euler_seed,
    family_seed,
    hermite_seed,
    identity_seed,
    kfold,
    theorem12_check,
)
from .distributions import (
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
from .exact_core import (
    CnNTable,
    Polynomial,
    Rational,
    alternating_sum,
    bell_poly,
    binomial,
    cnn_alternating,
    cnn_table,
    double_factorial,
    falling_factorial,
    forward_diff,
    iterated_diff,
    rising_factorial,
    stirling1,
    stirling2,
    stirling2_poly,
)
from .gen_stirling import (
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
from .polylog import li_conv_direct, li_conv_prob, li_neg
from .series import (
    EGFSeries,
    egf_coefficient,
    series_div,
    series_from_moments,
    series_mul,
    series_one,
    series_pow,
    series_scale,
)
from .sums import (
    IdentityReport,
    classical_bernoulli_check,
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

__version__ = "0.1.0"

# the Monte Carlo names load numpy, so they are imported on first use
_MONTECARLO_NAMES = ("SampleEstimate", "check_moment", "compare_moment", "estimate_sum_moment")


def __getattr__(name: str):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
