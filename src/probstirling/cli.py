"""Command-line surface: exact tables, identity verification suites, and
the Monte Carlo cross-check.

Output contract: tables are headerless CSV (or a single JSON object with
``--format json``); verification suites and the Monte Carlo check emit one
JSON object per line. Rational values are always rendered losslessly as
``num/den`` strings (bare integers when the denominator is 1), never as
floats; only Monte Carlo estimates and standard errors are floating point.

Exit codes: 0 when everything passes, 1 when a verified mathematical or
statistical comparison fails, 2 on usage or parse errors, including
negative bounds, an option the table kind or verify suite does not read,
and Monte Carlo rows that are not finite in floating point.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

from .distributions import (
    format_distribution,
    parse_distribution,
    sum_moment,
)
from .exact_core import bell_poly, cnn_table, stirling1, stirling2
from .gen_stirling import sy_table
from .sums import (
    IdentityReport,
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

SCHEMA_VERSION = 1

# table kind -> the options it reads, with their defaults
TABLE_KINDS = {
    "stirling2": {"n": None, "m": None},
    "stirling1": {"n": None, "m": None},
    "cnn": {"n": None, "N": None},
    "sy": {"n": None, "m": None, "x": Fraction(0), "dist": None},
    "bell": {"n": None, "x": Fraction(1)},
}
_TABLE_OPTIONS = ("n", "N", "m", "x", "dist")


def _required(args, option: str):
    value = getattr(args, option)
    if not value:
        raise ValueError(f"suite {args.suite!r} requires --{option}")
    return value


# suite -> (the options it reads, with their defaults; runner(args));
# runners look the verify_* functions up at call time, so replacing one on
# this module takes effect
_ORIGIN = (Fraction(0),)
VERIFY_SUITES = {
    "corollary8": (
        {"dist": None, "n_max": 5, "N_max": 10, "x": _ORIGIN},
        lambda a: verify_corollary8(_required(a, "dist"), a.n_max, a.N_max, a.x),
    ),
    "theorem1": (
        {"n_max": 5, "N_max": 10, "x": _ORIGIN},
        lambda a: verify_theorem1(a.n_max, a.N_max, a.x),
    ),
    "theorem9": (
        {"n_max": 6, "N_max": 12},
        lambda a: verify_theorem9(a.n_max, a.N_max),
    ),
    "theorem10": (
        {"n_max": 6, "N_max": 12, "rate": Fraction(1)},
        lambda a: verify_theorem10(a.rate, a.n_max, a.N_max),
    ),
    "theorem11": (
        {"n_max": 4, "N_max": 12, "q": Fraction(1, 2)},
        lambda a: verify_theorem11(a.q, a.n_max, a.N_max),
    ),
    "theorem12": (
        {"family": None, "n_max": 6, "N_max": 12, "x": _ORIGIN},
        lambda a: verify_theorem12(_required(a, "family"), a.n_max, a.N_max, a.x),
    ),
    "gf": (
        {"dist": None, "n_max": 6, "x": _ORIGIN},
        lambda a: verify_gf(_required(a, "dist"), a.n_max, a.x),
    ),
    "paths": (
        {"dist": None, "n_max": 6, "x": _ORIGIN},
        lambda a: verify_paths(_required(a, "dist"), a.n_max, a.x),
    ),
    "bernoulli-classic": (
        {"n_max": 8, "N_max": 15, "x": _ORIGIN},
        lambda a: verify_bernoulli_classic(a.n_max, a.N_max, a.x),
    ),
}
_VERIFY_OPTIONS = ("dist", "family", "n_max", "N_max", "q", "rate", "x")


def _flag(dest: str) -> str:
    return "--" + ("lambda" if dest == "rate" else dest.replace("_", "-"))


def _read_options(args, name: str, reads: dict, options: Sequence[str]) -> None:
    """Fill in the defaults of the options ``name`` reads, and refuse any
    other option given; every option in ``options`` defaults to None."""
    for dest in options:
        if getattr(args, dest) is None:
            setattr(args, dest, reads.get(dest))
        elif dest not in reads:
            raise ValueError(f"{_flag(dest)} is not used by {name}")


def _check_bounds(**bounds) -> None:
    """Refuse a negative row or grid bound; None means the option was not given."""
    for option, value in bounds.items():
        if value is not None and value < 0:
            raise ValueError(f"{_flag(option)} must be nonnegative, got {value}")


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:  # argparse only converts ValueError
        raise ValueError(str(exc)) from exc


def _render(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_render(v) for v in value]
    return value


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _emit_report(report: IdentityReport) -> None:
    _emit_json(
        {
            "schema": SCHEMA_VERSION,
            "identity": report.identity,
            "params": {k: _render(v) for k, v in report.params.items()},
            "lhs": str(report.lhs),
            "middle": None if report.middle is None else str(report.middle),
            "rhs": str(report.rhs),
            "pass": report.passed,
        }
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probstirling",
        description="Exact probabilistic Stirling tables and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="print an exact value table")
    table.add_argument("kind", choices=TABLE_KINDS)
    table.add_argument("--n", type=int, help="row bound (inclusive)")
    table.add_argument("--N", type=int, help="progression length parameter")
    table.add_argument("--m", type=int, help="restrict to one column")
    table.add_argument("--x", type=_rational_arg, help="evaluation point (rational)")
    table.add_argument("--dist", type=parse_distribution, help="distribution syntax")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.set_defaults(handler=_handle_table)

    verify = sub.add_parser("verify", help="run an identity verification suite")
    verify.add_argument("suite", choices=VERIFY_SUITES)
    verify.add_argument("--dist", type=parse_distribution, help="distribution syntax")
    verify.add_argument("--family", help="Appell family: bernoulli|euler|hermite|moment:<dist>")
    verify.add_argument("--n-max", type=int, dest="n_max")
    verify.add_argument("--N-max", type=int, dest="N_max")
    verify.add_argument("--q", type=_rational_arg, help="geometric q (default 1/2)")
    verify.add_argument(
        "--lambda", type=_rational_arg, dest="rate", help="Poisson rate (default 1)"
    )
    verify.add_argument(
        "--x",
        type=_rational_arg,
        action="append",
        help="evaluation point; repeatable (default 0)",
    )
    verify.set_defaults(handler=_handle_verify)

    mc = sub.add_parser("mc-check", help="Monte Carlo cross-check of exact moments")
    mc.add_argument("--dist", type=parse_distribution, required=True)
    mc.add_argument("--k-max", type=int, default=3, dest="k_max")
    mc.add_argument("--n-max", type=int, default=5, dest="n_max")
    mc.add_argument("--samples", type=int, default=1_000_000)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--z", type=float, default=6.0)
    mc.set_defaults(handler=_handle_mc)

    return parser


def _table_rows(args) -> tuple[tuple[str, ...], list[tuple], dict]:
    _read_options(args, args.kind, TABLE_KINDS[args.kind], _TABLE_OPTIONS)
    _check_bounds(n=args.n, N=args.N, m=args.m)
    kind = args.kind
    if kind == "cnn":
        if args.n is None or args.N is None:
            raise ValueError("cnn table requires --n and --N")
        table = cnn_table(args.n, args.N)
        rows = [(k, v) for k, v in enumerate(table.values)]
        return ("k", "value"), rows, {"n": args.n, "N": args.N}

    if args.n is None:
        raise ValueError(f"{kind} table requires --n")
    if args.m is not None and args.m > args.n:
        raise ValueError(f"--m must not exceed --n, got m={args.m}, n={args.n}")

    if kind in ("stirling2", "stirling1"):
        fn = stirling2 if kind == "stirling2" else stirling1
        rows = []
        for row_n in range(args.n + 1):
            columns = [args.m] if args.m is not None else list(range(row_n + 1))
            rows.extend((row_n, m, fn(row_n, m)) for m in columns if m <= row_n)
        return ("n", "m", "value"), rows, {"n": args.n, "m": args.m}

    if kind == "sy":
        if args.dist is None:
            raise ValueError("sy table requires --dist")
        table = sy_table(args.dist, args.n, args.x, args.m)
        if args.m is None:
            rows = [(a, m, v) for a, row in enumerate(table) for m, v in enumerate(row)]
        else:
            rows = [(a, args.m, table[a][args.m]) for a in range(args.m, args.n + 1)]
        params = {"dist": format_distribution(args.dist), "n": args.n, "m": args.m, "x": args.x}
        return ("n", "m", "value"), rows, params

    # bell
    rows = [(row_n, bell_poly(row_n, args.x)) for row_n in range(args.n + 1)]
    return ("n", "value"), rows, {"n": args.n, "x": args.x}


def _handle_table(args) -> int:
    fields, rows, params = _table_rows(args)
    if args.format == "csv":
        for row in rows:
            print(",".join(str(_render(v)) for v in row))
    else:
        _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "table": args.kind,
                "params": {k: _render(v) for k, v in params.items()},
                "rows": [dict(zip(fields, map(_render, row))) for row in rows],
            }
        )
    return 0


def _handle_verify(args) -> int:
    reads, run = VERIFY_SUITES[args.suite]
    _read_options(args, args.suite, reads, _VERIFY_OPTIONS)
    _check_bounds(n_max=args.n_max, N_max=args.N_max)
    reports = run(args)
    for report in reports:
        _emit_report(report)
    return 0 if all(r.passed for r in reports) else 1


def _handle_mc(args) -> int:
    # the sampler loads numpy, which no other command needs
    from .montecarlo import estimate_sum_moment

    _check_bounds(k_max=args.k_max, n_max=args.n_max)
    all_pass = True
    for k in range(args.k_max + 1):
        for n in range(args.n_max + 1):
            estimate = estimate_sum_moment(args.dist, k, n, args.samples, args.seed)
            exact = sum_moment(args.dist, k, n)
            try:
                exact_float = float(exact)
            except OverflowError:
                exact_float = math.inf
            # an overflowed float comparison is no statistical verdict
            if not (math.isfinite(exact_float) and estimate.finite):
                raise ValueError(
                    f"mc-check row k={k}, n={n} is not finite in floating point "
                    f"(exact {exact_float}, estimate {estimate.mean}, "
                    f"stderr {estimate.stderr}); lower --k-max or --n-max"
                )
            passed = abs(estimate.mean - exact_float) <= args.z * estimate.stderr
            all_pass = all_pass and passed
            _emit_json(
                {
                    "schema": SCHEMA_VERSION,
                    "check": "mc",
                    "params": {
                        "dist": format_distribution(args.dist),
                        "k": k,
                        "n": n,
                        "samples": args.samples,
                        "seed": args.seed,
                        "z": args.z,
                    },
                    "estimate": estimate.mean,
                    "stderr": estimate.stderr,
                    "exact": str(exact),
                    "pass": passed,
                }
            )
    return 0 if all_pass else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
