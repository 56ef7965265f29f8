"""Seeded inputs for the four benchmark workloads.

Every workload draws its inputs from the benchmark seed alone, and every
seed draws inputs of the same cost shape: the grid sizes, the law kinds
and the (kind, n, N) schedule of the identity stream are fixed, and only
rationals of bounded numerator and denominator size change with the seed.
That keeps the work per run the same across seeds, so runs on different
seeds can be compared.

This module imports nothing from probstirling: the benchmark process
generates plain strings and integers, and only the child processes turn
them into library objects.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("sy-table", "verify-routes", "identity-sweep", "mc-check")

# "full" is what the benchmark measures; "tiny" exists for the self-checks
SIZES = {
    "full": {"sy_n": 32, "paths_n": 10, "mc_samples": 500_000, "queries": 240},
    "tiny": {"sy_n": 6, "paths_n": 3, "mc_samples": 2_000, "queries": 20},
}

# identity-sweep mix per block of ten queries: 6 corollary8, 3 theorem12, 1 theorem11
_QUERY_BLOCK = ("corollary8",) * 6 + ("theorem12",) * 3 + ("theorem11",)
_C8_LAWS = (
    "poisson",
    "geom",
    "bernoulli",
    "const",
    "finite",
    "shift-exp",
    "shift-uniform",
    "shift-normal",
    "shift-ut",
    "shift-poisson",
)
_T12_FAMILIES = ("bernoulli", "euler", "hermite", "moment")
_T12_MOMENT_LAWS = ("exp", "uniform", "normal", "ut")


@dataclass(frozen=True)
class Inputs:
    """The generated inputs of one workload at one seed.

    ``argv`` is the CLI command line for the CLI workloads; ``queries``
    holds the identity-stream specs for identity-sweep. ``records`` is the
    number of output records one invocation must produce.
    """

    workload: str
    seed: int
    size: str
    records: int
    argv: tuple[str, ...] = ()
    queries: tuple[dict, ...] = ()
    params: dict = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 of the canonical input spec; goldens are keyed on it."""
        spec = {"workload": self.workload, "argv": list(self.argv), "queries": list(self.queries)}
        return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


def generate(workload: str, seed: int, size: str = "full") -> Inputs:
    """Inputs of ``workload`` for ``seed``; seed 0 gives the documented sizing point."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    sizes = SIZES[size]
    if workload == "sy-table":
        return _sy_table(seed, size, rng, sizes["sy_n"])
    if workload == "verify-routes":
        return _verify_routes(seed, size, rng, sizes["paths_n"])
    if workload == "mc-check":
        return _mc_check(seed, size, sizes["mc_samples"])
    return _identity_sweep(seed, size, rng, sizes["queries"])


def _sy_table(seed: int, size: str, rng: random.Random, n: int) -> Inputs:
    # the table's cost grows with the bit lengths of the rate and x, so
    # seeds vary only the rate's numerator by one bit and the sign of x
    rate = Fraction(1, 3) if seed == 0 else Fraction(rng.choice((1, 2)), 3)
    x = Fraction(1, 2) if seed == 0 else Fraction(rng.choice((1, -1)), 2)
    # "--x=" because argparse reads a separate "-1/2" as an option
    argv = ("table", "sy", "--dist", f"poisson:{rate}", "--n", str(n), f"--x={x}")
    params = {"rate": str(rate), "x": str(x), "n": n}
    return Inputs("sy-table", seed, size, (n + 1) * (n + 2) // 2, argv=argv, params=params)


def _verify_routes(seed: int, size: str, rng: random.Random, n_max: int) -> Inputs:
    if seed == 0:
        q, xs = Fraction(1, 2), (Fraction(0), Fraction(1, 2))
    else:
        q = rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))
        xs = (Fraction(0), Fraction(rng.choice((1, -1)), 2))
    argv = ["verify", "paths", "--dist", f"geom:{q}", "--n-max", str(n_max)]
    argv += [f"--x={x}" for x in xs]
    # one three-route record per (n, m, x), plus one uniform-route record where m <= 4
    pairs = sum(n + 1 for n in range(n_max + 1))
    uniform_pairs = sum(min(n, 4) + 1 for n in range(n_max + 1))
    params = {"q": str(q), "xs": [str(x) for x in xs], "n_max": n_max}
    return Inputs(
        "verify-routes", seed, size, (pairs + uniform_pairs) * len(xs), argv=tuple(argv), params=params
    )


def _mc_check(seed: int, size: str, samples: int) -> Inputs:
    argv = ("mc-check", "--dist", "normal", "--samples", str(samples), f"--seed={seed}")
    params = {"k_max": 3, "n_max": 5, "samples": samples, "z": 6.0}
    return Inputs("mc-check", seed, size, 4 * 6, argv=argv, params=params)


def _small_rational(rng: random.Random, lo: int, hi: int, den: tuple[int, ...]) -> Fraction:
    """A rational num/den with den drawn from ``den`` and lo < value < hi."""
    while True:
        d = rng.choice(den)
        value = Fraction(rng.randint(lo * d, hi * d), d)
        if lo < value < hi:
            return value


def _law(kind: str, rng: random.Random) -> str:
    if kind == "poisson":
        return f"poisson:{_small_rational(rng, 0, 2, (3, 5, 7))}"
    if kind == "geom":
        return f"geom:{_small_rational(rng, 0, 1, (3, 5, 7))}"
    if kind == "bernoulli":
        return f"bernoulli:{_small_rational(rng, 0, 1, (3, 5, 7))}"
    if kind == "const":
        return f"const:{_small_rational(rng, 0, 3, (2, 3, 5))}"
    if kind == "finite":
        p = _small_rational(rng, 0, 1, (3, 5, 7))
        v1 = _small_rational(rng, -2, 0, (2, 3))
        v2 = _small_rational(rng, 0, 2, (2, 3))
        return f"finite:{v1}:{p},{v2}:{1 - p}"
    base = kind.removeprefix("shift-")
    if base == "poisson":
        base = f"poisson:{_small_rational(rng, 0, 2, (3, 5, 7))}"
    return f"shift:{_small_rational(rng, -1, 1, (3, 5, 7))}:{base}"


def _identity_sweep(seed: int, size: str, rng: random.Random, count: int) -> Inputs:
    # each query gets its own x, drawn without replacement, so the
    # x-keyed work is never shared between queries
    xs_pool = sorted(
        {Fraction(num, den) for den in range(9, 17) for num in range(-2 * den + 1, 2 * den)},
        key=lambda v: (v.denominator, v.numerator),
    )
    xs = iter(rng.sample(xs_pool, count))
    queries = []
    seen = {"corollary8": 0, "theorem12": 0, "theorem11": 0}
    for i in range(count):
        kind = _QUERY_BLOCK[i % len(_QUERY_BLOCK)]
        j = seen[kind]
        seen[kind] += 1
        if kind == "corollary8":
            query = {
                "kind": kind,
                "dist": _law(_C8_LAWS[j % len(_C8_LAWS)], rng),
                "n": 1 + (3 * j) % 10,
                "N": (7 * j) % 31,
                "x": str(next(xs)),
            }
        elif kind == "theorem12":
            family = _T12_FAMILIES[j % len(_T12_FAMILIES)]
            if family == "moment":
                family = f"moment:{_T12_MOMENT_LAWS[(j // 4) % len(_T12_MOMENT_LAWS)]}"
            n = 1 + (3 * j) % 10
            query = {"kind": kind, "family": family, "n": n, "N": n + (7 * j) % (31 - n), "x": str(next(xs))}
        else:
            n = 1 + j % 4
            query = {
                "kind": kind,
                "q": str(_small_rational(rng, 0, 1, (3, 4, 5))),
                "n": n,
                "N": n + (3 * j) % (11 - n),
            }
        queries.append(query)
    rng.shuffle(queries)
    counts = {k: sum(q["kind"] == k for q in queries) for k in seen}
    return Inputs("identity-sweep", seed, size, count, queries=tuple(queries), params=counts)
