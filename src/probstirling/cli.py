"""Command-line surface: exact tables, identity verification suites, and
the Monte Carlo cross-check.

Output contract: tables are headerless CSV (or a single JSON object with
``--format json``); verification suites and the Monte Carlo check emit one
JSON object per line, through one loop that prints each record the moment
it is made, so a run that stops partway keeps the records it printed.
Rational values are always rendered losslessly as ``num/den`` strings
(bare integers when the denominator is 1), never as floats; only Monte
Carlo estimates and standard errors are floating point.

Exit codes: 0 when everything passes, 1 when a verified mathematical or
statistical comparison fails, 2 on usage or parse errors, including
negative bounds, an option the table kind or verify suite requires but
is not given or does not read, Monte Carlo rows that are not finite in
floating point, and an ``mc-check`` worker process killed from outside,
and on any other failure: running out of memory (one line naming the
size options to lower) or an unexpected exception (one line, then its
traceback); 130 on an interrupt; 141, the status a shell reports for a
writer killed by SIGPIPE, when the reader closes stdout before the
output ends.

Each command imports only what it runs: ``verify`` alone loads ``sums``
(with ``appell``, ``series`` and ``polylog``), on which its runners look
their suite functions up at call time, and ``mc-check`` alone loads numpy
and, when it forks workers, the modules of its worker pool. ``json`` is
loaded only to print JSON, and ``traceback`` only for an unexpected
exception.

``mc-check`` runs its rows on W = min(CPUs, rows that draw) forked worker
processes, heaviest first, and prints them in row order; every row owns
its random stream, so the output does not depend on W or on the order the
rows run in. A row (k, n) draws k summands, and none when k = 0 or n = 0
(see ``montecarlo``). Each worker holds numpy, the sampler and one
float64 array of ``--samples`` entries; its draws add fixed scratch of
well under a megabyte, and it loads no OpenSSL. So W is also cut to the
arrays that fit in half the free memory, and a run too small to pay for
its workers (fewer than 2^17 samples a row, or 2^23 summand samples over
all rows) keeps W = 1, which runs in process.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import partial

from .distributions import Distribution, _sum_moment_row, format_distribution, parse_distribution
from .exact_core import _unlimited_digits, bell_poly, cnn_table, stirling1, stirling2
from .gen_stirling import sy_table

SCHEMA_VERSION = 1

# marks an option that a table kind or suite cannot run without
_REQUIRED = object()
_ORIGIN = (Fraction(0),)


def _triangle(args, entry) -> tuple[tuple[str, ...], list[tuple]]:
    """The triangle entry(n, m), 0 <= m <= n <= --n, or its column --m."""
    rows = [
        (n, m, entry(n, m))
        for n in range(args.n + 1)
        for m in ([args.m] if args.m is not None else range(n + 1))
        if m <= n
    ]
    return ("n", "m", "value"), rows


def _sy_rows(args) -> tuple[tuple[str, ...], list[tuple]]:
    table = sy_table(args.dist, args.n, args.x, args.m)
    return _triangle(args, lambda n, m: table[n][m])


# kind -> (the options it reads, with their defaults; rows(args) as field
# names and rows), and suite -> (the options it reads, with their defaults;
# runner(sums, args)); the builders look the exact functions up on this
# module and the runners on the `sums` module, both at call time, so
# replacing one there takes effect
TABLE_KINDS = {
    "stirling2": ({"n": _REQUIRED, "m": None}, lambda a: _triangle(a, stirling2)),
    "stirling1": ({"n": _REQUIRED, "m": None}, lambda a: _triangle(a, stirling1)),
    "cnn": (
        {"n": _REQUIRED, "N": _REQUIRED},
        lambda a: (("k", "value"), list(enumerate(cnn_table(a.n, a.N).values))),
    ),
    "sy": ({"n": _REQUIRED, "m": None, "x": Fraction(0), "dist": _REQUIRED}, _sy_rows),
    "bell": (
        {"n": _REQUIRED, "x": Fraction(1)},
        lambda a: (("n", "value"), [(n, bell_poly(n, a.x)) for n in range(a.n + 1)]),
    ),
}
VERIFY_SUITES = {
    "corollary8": (
        {"dist": _REQUIRED, "n_max": 5, "N_max": 10, "x": _ORIGIN},
        lambda sums, a: sums.verify_corollary8(a.dist, a.n_max, a.N_max, a.x),
    ),
    "theorem1": (
        {"n_max": 5, "N_max": 10, "x": _ORIGIN},
        lambda sums, a: sums.verify_theorem1(a.n_max, a.N_max, a.x),
    ),
    "theorem9": (
        {"n_max": 6, "N_max": 12},
        lambda sums, a: sums.verify_theorem9(a.n_max, a.N_max),
    ),
    "theorem10": (
        {"n_max": 6, "N_max": 12, "rate": Fraction(1)},
        lambda sums, a: sums.verify_theorem10(a.rate, a.n_max, a.N_max),
    ),
    "theorem11": (
        {"n_max": 4, "N_max": 12, "q": Fraction(1, 2)},
        lambda sums, a: sums.verify_theorem11(a.q, a.n_max, a.N_max),
    ),
    "theorem12": (
        {"family": _REQUIRED, "n_max": 6, "N_max": 12, "x": _ORIGIN},
        lambda sums, a: sums.verify_theorem12(a.family, a.n_max, a.N_max, a.x),
    ),
    "gf": (
        {"dist": _REQUIRED, "n_max": 6, "x": _ORIGIN},
        lambda sums, a: sums.verify_gf(a.dist, a.n_max, a.x),
    ),
    "paths": (
        {"dist": _REQUIRED, "n_max": 6, "x": _ORIGIN},
        lambda sums, a: sums.verify_paths(a.dist, a.n_max, a.x),
    ),
    "bernoulli-classic": (
        {"n_max": 8, "N_max": 15, "x": _ORIGIN},
        lambda sums, a: sums.verify_bernoulli_classic(a.n_max, a.N_max, a.x),
    ),
}


def _flag(dest: str) -> str:
    return "--" + ("lambda" if dest == "rate" else dest.replace("_", "-"))


def _read_options(args, name: str, registry: dict):
    """Fill in the defaults of the options ``name`` reads, refuse any other
    option of the registry that is given and any required one that is not,
    and return the runner of ``name``. An option not given is None."""
    reads, run = registry[name]
    options = {dest for entry_reads, _ in registry.values() for dest in entry_reads}
    # in the parser's order, so the first refusal names the first option
    for dest in [dest for dest in vars(args) if dest in options]:
        if getattr(args, dest) is None:
            setattr(args, dest, reads.get(dest))
        elif dest not in reads:
            raise ValueError(f"{_flag(dest)} is not used by {name}")
    for dest in reads:
        if getattr(args, dest) is _REQUIRED:
            raise ValueError(f"{name} requires {_flag(dest)}")
    return run


def _check_bounds(**bounds) -> None:
    """Refuse a negative row or grid bound; None means the option was not given."""
    for option, value in bounds.items():
        if value is not None and value < 0:
            raise ValueError(f"{_flag(option)} must be nonnegative, got {value}")


# argparse names the option in front of an ArgumentTypeError's message; for
# any other error it prints the converter's function name
def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _distribution_arg(text: str):
    try:
        return parse_distribution(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _render(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Distribution):
        return format_distribution(value)
    return value


def _emit_json(obj) -> None:
    import json  # here, so that a csv table does not load it

    print(json.dumps(obj, sort_keys=True))


def _emit_records(records) -> int:
    """Print each (record, passed) pair as one JSON line, stamped with the
    schema, the moment it is made; 0 when every record passes, else 1."""
    all_pass = True
    for record, passed in records:
        _emit_json({"schema": SCHEMA_VERSION, **record, "pass": passed})
        all_pass = all_pass and passed
    return 0 if all_pass else 1


def _report_record(report) -> tuple[dict, bool]:
    record = {
        "identity": report.identity,
        "params": {k: _render(v) for k, v in report.params.items()},
        "lhs": str(report.lhs),
        "middle": None if report.middle is None else str(report.middle),
        "rhs": str(report.rhs),
    }
    return record, report.passed


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
    table.add_argument("--dist", type=_distribution_arg, help="distribution syntax")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.set_defaults(handler=_handle_table)

    verify = sub.add_parser("verify", help="run an identity verification suite")
    verify.add_argument("suite", choices=VERIFY_SUITES)
    verify.add_argument("--dist", type=_distribution_arg, help="distribution syntax")
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
    mc.add_argument("--dist", type=_distribution_arg, required=True)
    mc.add_argument("--k-max", type=int, default=3, dest="k_max")
    mc.add_argument("--n-max", type=int, default=5, dest="n_max")
    mc.add_argument("--samples", type=int, default=1_000_000)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--z", type=float, default=6.0)
    mc.set_defaults(handler=_handle_mc)

    return parser


def _handle_table(args) -> int:
    rows_of = _read_options(args, args.kind, TABLE_KINDS)
    _check_bounds(n=args.n, N=args.N, m=args.m)
    if args.m is not None and args.m > args.n:
        raise ValueError(f"--m must not exceed --n, got m={args.m}, n={args.n}")
    fields, rows = rows_of(args)
    if args.format == "csv":
        for row in rows:
            print(",".join(str(_render(v)) for v in row))
    else:
        _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "table": args.kind,
                "params": {k: _render(getattr(args, k)) for k in TABLE_KINDS[args.kind][0]},
                "rows": [dict(zip(fields, map(_render, row))) for row in rows],
            }
        )
    return 0


def _handle_verify(args) -> int:
    run = _read_options(args, args.suite, VERIFY_SUITES)
    _check_bounds(n_max=args.n_max, N_max=args.N_max)
    # sums loads appell, series and polylog, which no other command needs
    from . import sums

    return _emit_records(map(_report_record, run(sums, args)))


def _compare_row(job: tuple, row: tuple[int, int]) -> tuple[dict, bool]:
    """The record and verdict of compare_moment on row (k, n) of the
    mc-check whose law, formatted law, --samples, --seed and --z are `job`,
    with its refusals worded for the command line; compare_moment is looked
    up on ``montecarlo`` at call time, so replacing it there takes effect."""
    from . import montecarlo

    dist, law, samples, seed, z = job
    k, n = row
    try:
        estimate, exact, passed = montecarlo.compare_moment(dist, k, n, samples, seed, z)
    except montecarlo.NonFiniteError as exc:
        raise ValueError(f"mc-check {exc}; lower --k-max or --n-max") from exc
    except montecarlo.SampleMemoryError as exc:
        raise ValueError(f"mc-check {exc}; lower --samples") from exc
    record = {
        "check": "mc",
        "params": {"dist": law, "k": k, "n": n, "samples": samples, "seed": seed, "z": z},
        "estimate": estimate.mean,
        "stderr": estimate.stderr,
        "exact": str(exact),
    }
    return record, passed


# the cgroup v2 files of this process, as a cgroup namespace shows them
_CGROUP = "/sys/fs/cgroup"


def _free_memory() -> int:
    """Bytes of physical memory free now, or fewer when the cgroup v2 limit
    on this process leaves less room."""
    free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

    def read(name: str) -> str:
        with open(os.path.join(_CGROUP, name)) as file:
            return file.read().strip()

    try:
        limit, in_use = read("memory.max"), int(read("memory.current"))
        return free if limit == "max" else min(free, int(limit) - in_use)
    except (OSError, ValueError):
        return free


# runs too small to pay for a pool stay in process: on 2 CPUs a worker
# costs about 0.1 s to start and a row about 0.2 ms to ship and collect,
# while a sample of a summand costs about 20-70 ns to draw
_POOL_MIN_ROW_SAMPLES = 1 << 17
_POOL_MIN_SAMPLES = 1 << 23


def _worker_count(rows: Sequence[tuple[int, int]], samples: int) -> int:
    """min(CPUs, rows that draw), and no more workers than half the free
    memory holds arrays of `samples` float64 entries, one per worker; 1
    when the draws are too small to pay for a pool, or only one array fits.
    A row (k, n) draws k summands of `samples` each, and none when k = 0
    or n = 0 (see ``montecarlo.estimate_sum_moment``)."""
    summands = [k for k, n in rows if k and n]
    if samples < _POOL_MIN_ROW_SAMPLES or sum(summands) * samples < _POOL_MIN_SAMPLES:
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, len(summands), _free_memory() // 2 // (8 * samples)))


def _handle_mc(args) -> int:
    _check_bounds(k_max=args.k_max, n_max=args.n_max)
    rows = [(k, n) for k in range(args.k_max + 1) for n in range(args.n_max + 1)]
    law = format_distribution(args.dist)
    compare = partial(_compare_row, (args.dist, law, args.samples, args.seed, args.z))
    workers = _worker_count(rows, args.samples)
    if workers == 1:
        return _emit_records(map(compare, rows))
    # the pool's modules, which nothing else needs
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    # every row reads the law's E[S_k^n] table: grown here once, so that
    # the workers inherit it instead of each growing its own
    _sum_moment_row(args.dist, args.k_max, args.n_max)
    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
    try:
        # every row is submitted at once, which forks all the workers before
        # this process loads numpy: forking once its BLAS threads run is
        # unsafe. The heaviest rows go first, as a row costs about k draws
        # and a power, so no worker is left alone with a heavy row at the
        # end; the free rows (k = 0 or n = 0) come last. The records are
        # read and printed in row order all the same.
        futures = [pool.submit(compare, row) for row in reversed(rows)]
        return _emit_records(future.result() for future in reversed(futures))
    except BrokenProcessPool as exc:
        raise ValueError(f"mc-check lost a worker process: {exc}") from exc
    finally:
        # rows not yet started are dropped; the running ones finish, and
        # every worker is joined before the command returns
        pool.shutdown(cancel_futures=True)


# the options that size a command's work, named when it runs out of memory
_SIZES = ("n", "N", "n_max", "N_max", "k_max", "samples")


def main(argv: Sequence[str] | None = None) -> int:
    # exact values may pass the int <-> str digit limit; in-process callers keep theirs
    with _unlimited_digits():
        args = build_parser().parse_args(argv)
        try:
            return args.handler(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BrokenPipeError:
            # the reader closed stdout: point it at devnull, so the flush at
            # exit cannot raise again, and exit as a writer killed by SIGPIPE
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        except KeyboardInterrupt:
            return 130
        except MemoryError:
            pass  # reported below, once the frames that filled memory are freed
        except Exception as exc:
            # a bug: one error line, then the traceback that locates it;
            # traceback is imported here, as no other path prints one
            import traceback

            print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
            traceback.print_exc()
            return 2
    sizes = [_flag(dest) for dest in _SIZES if getattr(args, dest, None) is not None]
    print(f"error: out of memory; lower {' or '.join(sizes)}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
