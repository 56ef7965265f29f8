"""Workload child process: one fresh interpreter per invocation.

    python3 perfbench/child.py setup <workload> <seed> <size>
    python3 perfbench/child.py sweep identity-sweep <seed> <size>
    python3 perfbench/child.py trace <workload> <seed> <size> <summary.json> <spans.tsv>

``setup`` imports probstirling and generates and parses the workload's
inputs, then exits; its spawn-to-exit time is the set-up time. ``sweep``
runs the identity stream through the library API, printing one JSON
report per query and, as the last line, the per-query latencies. ``trace``
installs the span recorder and then runs the workload in process (the CLI
through ``probstirling.cli.main``), writing the same stdout as an
untraced run plus a summary and the spans to the given files.

The benchmark sets PYTHONPATH to the checkout's ``src`` directory; the
child refuses to run against a probstirling imported from anywhere else.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction
from math import factorial

import workloads


def _import_library():
    import probstirling

    expected = os.environ.get("PERFBENCH_SRC", "")
    if not expected or not os.path.abspath(probstirling.__file__).startswith(expected + os.sep):
        raise SystemExit(f"probstirling imported from {probstirling.__file__}, not from {expected!r}")
    return probstirling


def _parse_queries(queries):
    """Turn query specs into (kind, arguments) with library objects."""
    from probstirling.distributions import parse_distribution

    parsed = []
    for q in queries:
        if q["kind"] == "corollary8":
            args = (parse_distribution(q["dist"]), q["n"], q["N"], Fraction(q["x"]))
        elif q["kind"] == "theorem12":
            # the family seed is built inside the query: for moment families it is real work
            args = (q["family"], q["n"], q["N"], Fraction(q["x"]))
        else:
            args = (Fraction(q["q"]), q["n"], q["N"])
        parsed.append((q["kind"], args))
    return parsed


def _run_query(kind, args):
    # names are looked up on the modules at call time, so a traced run
    # goes through the recorder's wrappers
    from probstirling import appell, distributions, exact_core, gen_stirling, polylog, sums

    if kind == "corollary8":
        dist, n, N, x = args
        params = {"dist": distributions.format_distribution(dist), "n": n, "N": N, "x": x}
        return sums.make_report(
            "corollary8",
            params,
            sums.sum_direct(dist, n, N, x),
            sums.sum_via_stirling(dist, n, N, x),
            sums.sum_via_cnn(dist, n, N, x),
        )
    if kind == "theorem12":
        family, n, N, x = args
        return appell.theorem12_check(appell.family_seed(family, n), n, N, x)
    # one theorem11 instance: the polylogarithm convolution sum against
    # the shifted-geometric closed form and the c-weighted short sum
    q, n, N = args
    ratio = (1 - q) / q
    terms = [ratio**k * polylog.li_conv_direct(n, k, q) for k in range(N + 1)]
    middle = sum(
        (
            exact_core.binomial(N + 1, m + 1)
            * factorial(m)
            * gen_stirling.sy_closed_geometric_shifted(n, m, q)
            for m in range(n + 1)
        ),
        Fraction(0),
    )
    weights = exact_core.cnn_table(n, N).values
    rhs = sum((w * terms[k] for k, w in enumerate(weights)), Fraction(0))
    return sums.make_report("theorem11", {"q": q, "n": n, "N": N}, sum(terms, Fraction(0)), middle, rhs)


def _render(report) -> str:
    return json.dumps(
        {
            "identity": report.identity,
            "params": {k: str(v) for k, v in report.params.items()},
            "lhs": str(report.lhs),
            "middle": None if report.middle is None else str(report.middle),
            "rhs": str(report.rhs),
            "pass": report.passed,
        },
        sort_keys=True,
    )


def _sweep(inputs, tracer=None) -> int:
    parsed = _parse_queries(inputs.queries)
    clock = time.perf_counter_ns
    latencies = []
    out = sys.stdout
    for index, (kind, args) in enumerate(parsed):
        if tracer is not None:
            tracer.run_id = index
        start = clock()
        report = _run_query(kind, args)
        latencies.append(clock() - start)
        out.write(_render(report) + "\n")
    out.write(json.dumps({"latencies_ns": latencies}) + "\n")
    return 0


def _setup(inputs) -> int:
    if inputs.queries:
        _parse_queries(inputs.queries)
    else:
        from probstirling.cli import build_parser

        build_parser().parse_args(list(inputs.argv))
    return 0


def _trace(inputs, summary_path: str, spans_path: str) -> int:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    if inputs.queries:
        status = _sweep(inputs, tracer)
    else:
        from probstirling import cli

        status = cli.main(list(inputs.argv))
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as out:
        json.dump({"status": status, **tracer.summary()}, out)
    tracer.write_spans(spans_path)
    return status


def main(argv: list[str]) -> int:
    mode, workload, seed, size, *paths = argv
    inputs = workloads.generate(workload, int(seed), size)
    _import_library()
    if mode == "setup":
        return _setup(inputs)
    if mode == "sweep":
        return _sweep(inputs)
    if mode == "trace":
        return _trace(inputs, *paths)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
