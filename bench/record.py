"""Record one point of the benchmark trajectory as BENCH_<pr>.json.

    python3 bench/record.py --pr N

Run it from the root of a checkout; it measures the library in that
checkout's ``src`` directory and writes ``BENCH_<pr>.json`` there. It
first runs ``python3 -m compileall -q src``, so that no child compiles
the modules again when ``PYTHONDONTWRITEBYTECODE`` is set, and records
``"precompiled": true``. The file holds the commit, a digest of the
sources, the Python version and the CPU count, all copied from
perfbench's run record, and two row sets:

* ``end_to_end``: the ``wall_s``, ``setup_s`` and ``peak_rss_mb`` medians
  of ``perfbench/run.py --trace 0`` at seed 0, 3 s per workload, one row
  per workload;
* ``in_process``: timings of single library calls at sizes where the
  computation, not interpreter start-up, dominates: ``sy_table``, a cold
  ``sum_moment``, a cold ``sum_direct`` of shift:1/3:poisson:5/7 at
  n = 10, N = 30, x = 7/11, a cold ``theorem12_check`` of the Hermite
  seed at n = 10, N = 30, x = 3/13, a cold ``family_seed`` of order 30
  for bernoulli, euler, hermite and moment:exp, the theorem12 and
  bernoulli-classic verify grids at n <= 10, N <= 60, the all-route
  ``verify_paths`` grid for geom:1/2 at n <= 10 and x = 0, 1/2 (each
  grid collected into a list, as a grid is an iterator that computes
  nothing until read), the
  corollary8 grid of poisson:1/3 at n <= 12, N <= 1500, x = 1/2, each
  report dropped once read, as ``verify`` drops it once printed, every
  ``sy_via_uniform_rep`` cell for geom:1/2 at n <= 14 and x = 1/2, every
  ``sy_via_factorial`` cell and every ``sy`` cell for geom:2/3 at n <= 14
  and x = -1/2, every ``li_conv_direct`` cell at q = 1/3, n <= 6, k <= 8,
  a Monte Carlo ``estimate_sum_moment`` of the normal law at k = 3,
  n = 5 and 500k samples, a cold
  ``_law_moments`` (a law's row of raw moments) of poisson:5/7 and
  geom:2/7 at widths 11 and 60 and of uniform and shift:2/9:exp at width
  200, a cold ``stirling2(600, 300)`` and ``stirling1(600, 300)`` (both
  Stirling row tables), ``import probstirling.cli``, the imports that
  ``table`` runs, ``import probstirling.sums``, the further imports that
  ``verify`` runs, and ``import probstirling.montecarlo``, the imports an
  ``mc-check`` worker runs. Every repeat runs in a fresh interpreter, so
  every memo and row table starts empty and nothing is imported yet, and
  only the call itself is timed; the row also records how far the call
  raised the interpreter's peak RSS. The identity-sweep
  row is the summed per-query latency of the seed-0 identity stream, run
  by ``perfbench/child.py sweep``.

Each in-process row gives the median, the repeat count (5) and every
value. Run length and repeat count are fixed, so every point is comparable
with the one before it. The whole
recording takes under two minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sy-table", "verify-routes", "identity-sweep", "mc-check")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
# fixed, so that every recorded point is comparable with the one before it
REPEATS = 5  # fresh interpreters per in-process row
SECONDS = 3  # perfbench run length per workload
# facts about the checkout and interpreter, copied from perfbench's run record
PROVENANCE = ("commit", "source_sha256", "python", "nproc")

# name -> (setup code, timed expression); each runs in a fresh interpreter
CALLS = {
    f"sy_table {law} n={n} x=1/2": (
        "from fractions import Fraction\n"
        "from probstirling.distributions import parse_distribution\n"
        "from probstirling.gen_stirling import sy_table\n"
        f"law = parse_distribution({law!r})\n",
        f"sy_table(law, {n}, Fraction(1, 2))",
    )
    for law in ("exp", "poisson:1/3")
    for n in (60, 100)
}
CALLS["cold sum_moment poisson:1/3 k=60 n=60"] = (
    "from fractions import Fraction\n"
    "from probstirling.distributions import Poisson, sum_moment\n",
    "sum_moment(Poisson(Fraction(1, 3)), 60, 60)",
)
CALLS["cold sum_direct shift:1/3:poisson:5/7 n=10 N=30 x=7/11"] = (
    "from fractions import Fraction\n"
    "from probstirling.distributions import parse_distribution\n"
    "from probstirling.sums import sum_direct\n"
    'law = parse_distribution("shift:1/3:poisson:5/7")\n',
    "sum_direct(law, 10, 30, Fraction(7, 11))",
)
CALLS["cold theorem12_check hermite_seed(10) n=10 N=30 x=3/13"] = (
    "from fractions import Fraction\n"
    "from probstirling.appell import hermite_seed, theorem12_check\n"
    "seed = hermite_seed(10)\n",
    "theorem12_check(seed, 10, 30, Fraction(3, 13))",
)
CALLS.update(
    {
        f"cold family_seed {family} order=30": (
            "from probstirling.appell import family_seed\n",
            f"family_seed({family!r}, 30)",
        )
        for family in ("bernoulli", "euler", "hermite", "moment:exp")
    }
)
CALLS["verify_theorem12 moment:exp n<=10 N<=60"] = (
    "from probstirling.sums import verify_theorem12\n",
    'list(verify_theorem12("moment:exp", 10, 60))',
)
CALLS["verify_bernoulli_classic n<=10 N<=60"] = (
    "from probstirling.sums import verify_bernoulli_classic\n",
    "list(verify_bernoulli_classic(10, 60))",
)
CALLS["verify_paths geom:1/2 n<=10 x=0,1/2"] = (
    "from fractions import Fraction\n"
    "from probstirling.distributions import Geometric\n"
    "from probstirling.sums import verify_paths\n",
    "list(verify_paths(Geometric(Fraction(1, 2)), 10, [0, Fraction(1, 2)]))",
)
CALLS["verify_corollary8 poisson:1/3 n<=12 N<=1500 x=1/2 consumed"] = (
    "from collections import deque\n"
    "from fractions import Fraction\n"
    "from probstirling.distributions import Poisson\n"
    "from probstirling.sums import verify_corollary8\n",
    "deque(verify_corollary8(Poisson(Fraction(1, 3)), 12, 1500, [Fraction(1, 2)]), 0)",
)
CALLS["sy_via_uniform_rep geom:1/2 n<=14 x=1/2 every cell"] = (
    "from fractions import Fraction\n"
    "from probstirling.distributions import Geometric\n"
    "from probstirling.gen_stirling import sy_via_uniform_rep\n"
    "law = Geometric(Fraction(1, 2))\n",
    "[sy_via_uniform_rep(law, n, m, Fraction(1, 2)) for n in range(15) for m in range(n + 1)]",
)
CALLS.update(
    {
        f"{route} geom:2/3 n<=14 x=-1/2 every cell": (
            "from fractions import Fraction\n"
            "from probstirling.distributions import Geometric\n"
            f"from probstirling.gen_stirling import {route}\n"
            "law = Geometric(Fraction(2, 3))\n",
            f"[{route}(law, n, m, Fraction(-1, 2)) for n in range(15) for m in range(n + 1)]",
        )
        for route in ("sy_via_factorial", "sy")
    }
)
CALLS["li_conv_direct q=1/3 n<=6 k<=8"] = (
    "from fractions import Fraction\n"
    "from probstirling.polylog import li_conv_direct\n",
    "[li_conv_direct(n, k, Fraction(1, 3)) for n in range(7) for k in range(9)]",
)
CALLS["estimate_sum_moment normal k=3 n=5 samples=500000"] = (
    "from probstirling.distributions import StdNormal\n"
    "from probstirling.montecarlo import estimate_sum_moment\n",
    "estimate_sum_moment(StdNormal(), 3, 5, 500_000, 0)",
)
CALLS.update(
    {
        f"cold _law_moments {law} width={width}": (
            "from probstirling.distributions import _law_moments, parse_distribution\n"
            f"law = parse_distribution({law!r})\n",
            f"_law_moments(law, {width})",
        )
        for law, width in (
            ("poisson:5/7", 11),
            ("poisson:5/7", 60),
            ("geom:2/7", 11),
            ("geom:2/7", 60),
            ("uniform", 200),
            ("shift:2/9:exp", 200),
        )
    }
)
CALLS["cold stirling2(600, 300) and stirling1(600, 300)"] = (
    "from probstirling.exact_core import stirling1, stirling2\n",
    "stirling2(600, 300), stirling1(600, 300)",
)
CALLS["import probstirling.cli"] = ("", "import probstirling.cli")
CALLS["import probstirling.sums"] = ("", "import probstirling.sums")
CALLS["import probstirling.montecarlo"] = ("", "import probstirling.montecarlo")

# prints the call's seconds and how far it raised the peak RSS, in KiB (Linux)
_TIMER = (
    "import resource, time\n{setup}"
    "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "started = time.perf_counter()\n{call}\nelapsed = time.perf_counter() - started\n"
    "print(elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak)\n"
)


def _env(root: Path) -> dict:
    src = str(root / "src")
    return dict(os.environ, PYTHONPATH=src, PERFBENCH_SRC=src, PYTHONHASHSEED="0")


def _run(cmd: list[str], root: Path) -> str:
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def _row(name: str, values: list[float], rss_growth_kib: list[int] | None = None) -> dict:
    row = {
        "name": name,
        "median_s": round(statistics.median(values), 4),
        "repeats": len(values),
        "values_s": [round(v, 4) for v in values],
    }
    if rss_growth_kib is not None:
        row["rss_growth_mb"] = round(statistics.median(rss_growth_kib) / 1024, 2)
    return row


def in_process_rows(root: Path) -> list[dict]:
    rows = []
    for name, (setup, call) in CALLS.items():
        code = _TIMER.format(setup=setup, call=call)
        runs = [_run([sys.executable, "-c", code], root).split() for _ in range(REPEATS)]
        rows.append(_row(name, [float(t) for t, _ in runs], [int(kib) for _, kib in runs]))
    sweep = [sys.executable, "perfbench/child.py", "sweep", "identity-sweep", "0", "full"]
    totals = []
    for _ in range(REPEATS):
        last = _run(sweep, root).rstrip("\n").rpartition("\n")[2]
        totals.append(sum(json.loads(last)["latencies_ns"]) / 1e9)
    rows.append(_row("identity-sweep stream, seed 0", totals))
    return rows


def end_to_end_rows(root: Path) -> tuple[dict, list[dict]]:
    """The checkout's provenance, as perfbench records it, and one row per workload."""
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0"]
        lines = _run([*cmd, "--seconds", str(SECONDS), "--trace", "0"], root).splitlines()
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        metrics = {name: round(result["metrics"][name]["value"], 4) for name in END_TO_END}
        rows.append(
            {"workload": workload, **metrics, "invocations": record["invocations"], "failed": result["failed"]}
        )
    return {key: record[key] for key in PROVENANCE}, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "probstirling" / "__init__.py").is_file():
        print(f"error: no probstirling sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    _run([sys.executable, "-m", "compileall", "-q", "src"], root)
    provenance, end_to_end = end_to_end_rows(root)
    bench = {
        "pr": args.pr,
        **provenance,
        "precompiled": True,
        "end_to_end": end_to_end,
        "in_process": in_process_rows(root),
    }
    out = root / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
