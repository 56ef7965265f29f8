"""probstirling benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload sy-table --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it runs the library from that
checkout's ``src`` directory and exits with code 2, printing no result,
when there is none. There is nothing to build: the first child of a run
writes the bytecode caches before anything is timed.

Load model: a closed loop with one caller. This process starts one
workload child at a time and starts the next only when the previous one
has exited, so it never runs more than one child; children run with
numpy/BLAS thread counts pinned to 1 and a fixed hash seed.

With ``--trace 0`` a run measures, in fresh interpreters:

* ``setup_s``: median spawn-to-exit time of a child that imports
  probstirling and generates and parses the workload's inputs;
* ``wall_s``: median spawn-to-exit time of the workload child, repeated
  for ``--seconds``;
* ``peak_rss_mb``: median peak resident set of those children.

With ``--trace 1`` it alternates untraced children with children that
run the same inputs under the span recorder (``tracing.py``) and reports
the per-module metrics, the traced wall time and the tracing overhead.

Every invocation's stdout is checked (``checks.py``). The last stdout
line is the result object; the line before it is the run record, which
also carries failed_ratio, the commit, tool versions, nproc, the load
average, and for identity-sweep the per-query p50/p95 latency with its
sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from checks import Check, failed_run
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
MIN_INVOCATIONS = 3
CHILD_CPU_LIMIT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "distributions.self_s": "s",
    "distributions.shifted_sum_moment.calls": "count",
    "distributions.shifted_sum_moment.self_s": "s",
    "distributions.shifted_sum_moment.repeat_ratio": "ratio",
    "distributions.sum_moment.hits": "count",
    "distributions.sum_moment.misses": "count",
    "distributions.moment.misses": "count",
    "gen_stirling.self_s": "s",
    "gen_stirling.sy.calls": "count",
    "gen_stirling.sy.total_s": "s",
    "gen_stirling.sy_via_factorial.total_s": "s",
    "gen_stirling.sy_via_gf.total_s": "s",
    "gen_stirling.sy_via_uniform_rep.total_s": "s",
    "series.self_s": "s",
    "series.series_mul.calls": "count",
    "series.series_mul.self_s": "s",
    "appell.self_s": "s",
    "appell.theorem12_check.calls": "count",
    "polylog.self_s": "s",
    "polylog.li_conv_direct.total_s": "s",
    "polylog.li_neg.hits": "count",
    "polylog.li_neg.misses": "count",
    "sums.self_s": "s",
    "sums.reports": "count",
    "exact_core.self_s": "s",
    "exact_core.stirling2.hits": "count",
    "exact_core.stirling2.misses": "count",
    "exact_core.stirling1.hits": "count",
    "exact_core.stirling1.misses": "count",
    "exact_core.cnn_table.hits": "count",
    "exact_core.cnn_table.misses": "count",
    "exact_core.weak_compositions.yielded": "count",
    "montecarlo.self_s": "s",
    "montecarlo.samples_per_s": "1/s",
    "montecarlo.nonfinite": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "exact.output_bits": "bits",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}
MODULE_SELF = [name for name in PER_LAYER if name.count(".") == 1 and name.endswith(".self_s")]


class Bench:
    """Spawns and measures the children of one run in one checkout.

    This process stays small on purpose: the kernel counts the memory of
    the spawning process in a child's peak RSS, so output checks, which
    load sympy, run in a child of their own.
    """

    def __init__(self, root: Path):
        self.root = root
        # spans are kept after the run; every other file lives in a
        # directory of this process's own and is removed with it
        self.spans_dir = root / ".perfbench"
        self.spans_dir.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=self.spans_dir)
        self.out = Path(self._tmp.name)
        src = str(root / "src")
        self.env = dict(
            os.environ,
            PYTHONPATH=src,
            PERFBENCH_SRC=src,
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc) -> None:
        self._tmp.cleanup()

    def spawn(self, cmd: list[str]) -> dict:
        """Run one child to completion; returns wall time, peak RSS, status and stdout."""
        stdout_path, stderr_path = self.out / "stdout", self.out / "stderr"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024,
            "status": proc.returncode,
            "stdout": stdout_path.read_bytes(),
            "stderr": stderr_path.read_bytes()[-2000:].decode(errors="replace"),
        }

    def child(self, mode: str, inputs, *extra: str) -> list[str]:
        return [sys.executable, str(HERE / "child.py"), mode, inputs.workload, str(inputs.seed), inputs.size, *extra]

    def workload_cmd(self, inputs) -> list[str]:
        if inputs.argv:
            return [sys.executable, "-m", "probstirling", *inputs.argv]
        return self.child("sweep", inputs)


class Outputs:
    """Tallies the records of every invocation in a run.

    All invocations of a run get the same inputs, so each must print the
    same bytes, traced or not; the first output is checked once, and every
    invocation that differs from it, or exits non-zero, fails all its records.
    """

    def __init__(self, inputs, golden: str | None):
        self.inputs = inputs
        self.golden = golden
        self.first: bytes | None = None
        self.matching = 0
        self.attempted = 0
        self.failed = 0
        self.output_bits = 0
        self.problems: list[str] = []

    def add(self, result: dict, body: bytes, what: str) -> None:
        if result["status"] != 0:
            self._tally(failed_run(self.inputs, f"{what} exited {result['status']}: {result['stderr'][-300:]}"))
        elif self.first is None or body == self.first:
            self.first = body
            self.matching += 1
        else:
            self._tally(failed_run(self.inputs, f"{what} stdout differs from the run's first invocation"))

    def finish(self, bench: Bench) -> None:
        """Check the first output in a separate process and count it for every match."""
        if self.first is None:
            return
        path = bench.out / "checked-stdout"
        path.write_bytes(self.first)
        inputs = self.inputs
        cmd = [sys.executable, str(HERE / "checks.py"), inputs.workload, str(inputs.seed), inputs.size]
        result = bench.spawn([*cmd, str(path), self.golden or "-"])
        if result["status"] != 0:
            check = failed_run(inputs, f"output check exited {result['status']}: {result['stderr'][-300:]}")
        else:
            check = Check(**json.loads(result["stdout"]))
        self.output_bits = check.output_bits
        for _ in range(self.matching):
            self._tally(check)

    def _tally(self, check: Check) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        self.problems.extend(p for p in check.problems if p not in self.problems)


def _golden_for(inputs) -> str | None:
    entry = json.loads(GOLDEN.read_text()).get(inputs.workload)
    if entry and entry["inputs_sha256"] == inputs.digest():
        return entry["stdout_sha256"]
    return None


def _split_latencies(inputs, result: dict) -> tuple[bytes, list[float]]:
    """The checked body of a workload's stdout, and its per-query latencies in ms.

    Only identity-sweep children print latencies, as their last line.
    """
    stdout = result["stdout"]
    if inputs.argv or result["status"] != 0:
        return stdout, []
    body, _, last = stdout.rstrip(b"\n").rpartition(b"\n")
    try:
        latencies = json.loads(last)["latencies_ns"]
    except (ValueError, KeyError, TypeError):
        return stdout, []
    return body + b"\n", [ns / 1e6 for ns in latencies]


def measure(bench: Bench, inputs, seconds: float, trace: bool, golden: str | None) -> tuple[dict, dict, Outputs]:
    """One run of the timed loop; returns (metrics, record, outputs).

    Untraced, each round spawns a set-up child and a workload child;
    traced, an untraced and a traced workload child. Set-up children are
    spread over the run like the workload's, so a slow spell on a shared
    machine moves both medians alike.
    """
    outputs = Outputs(inputs, golden)
    # the first child writes bytecode caches, so it is not timed
    bench.spawn(bench.child("setup", inputs))
    setups, plain, traced, summaries, latencies = [], [], [], [], []
    summary_path = bench.out / f"trace-{inputs.workload}.json"
    spans_path = bench.spans_dir / f"spans-{inputs.workload}.tsv"
    start = time.perf_counter()
    while True:
        if not trace:
            result = bench.spawn(bench.child("setup", inputs))
            if result["status"] != 0:
                outputs.add(result, b"", f"setup child {len(setups)}")
            setups.append(result)
        result = bench.spawn(bench.workload_cmd(inputs))
        body, query_ms = _split_latencies(inputs, result)
        outputs.add(result, body, f"invocation {len(plain)}")
        plain.append(result)
        latencies.extend(query_ms)
        if trace:
            result = bench.spawn(bench.child("trace", inputs, str(summary_path), str(spans_path)))
            outputs.add(result, _split_latencies(inputs, result)[0], f"traced invocation {len(traced)}")
            traced.append(result)
            if result["status"] == 0:
                summaries.append(json.loads(summary_path.read_text()))
        elapsed = time.perf_counter() - start
        # stop when another round would likely end past the run length
        if len(plain) >= MIN_INVOCATIONS and elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    outputs.finish(bench)

    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        metrics = _per_layer(inputs, wall, traced, summaries, outputs)
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(r["wall_s"] for r in setups),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
    record = {
        "invocations": len(plain),
        "wall_s_all": [round(r["wall_s"], 4) for r in plain],
        "setup_s_all": [round(r["wall_s"], 4) for r in setups],
        "failed_ratio": outputs.failed / outputs.attempted if outputs.attempted else 1.0,
    }
    if latencies:
        cuts = statistics.quantiles(latencies, n=100)
        record.update(query_p50_ms=cuts[49], query_p95_ms=cuts[94], query_samples=len(latencies))
    return metrics, record, outputs


def _per_layer(inputs, wall: float, traced: list[dict], summaries: list[dict], outputs: Outputs) -> dict:
    if not summaries:
        return {name: 0.0 for name in PER_LAYER}
    trace_wall = statistics.median(r["wall_s"] for r in traced)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in summaries[0]:
            # times vary between invocations, counts repeat exactly
            values = [s[name] for s in summaries]
            metrics[name] = statistics.median(values) if unit in ("s", "1/s") else values[0]
    metrics["cli.output_bytes"] = len(traced[0]["stdout"]) if inputs.argv else 0
    metrics["exact.output_bits"] = outputs.output_bits
    metrics["trace.wall_s"] = trace_wall
    metrics["trace.overhead_ratio"] = trace_wall / wall
    return metrics


def _commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "probstirling").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def run_one(bench: Bench, workload: str, seed: int, seconds: float, trace: bool, size: str = "full", golden=...):
    """Measure one workload; returns (record, result) as printed."""
    inputs = generate(workload, seed, size)
    if golden is ...:
        golden = _golden_for(inputs)
    load_start = os.getloadavg()[0]
    metrics, record, outputs = measure(bench, inputs, seconds, trace, golden)
    units = PER_LAYER if trace else END_TO_END
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": inputs.params,
        "inputs_sha256": inputs.digest(),
        "golden_checked": golden is not None,
        "commit": _commit(bench.root),
        "source_sha256": _source_sha256(bench.root),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        **record,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "problems": outputs.problems[:10],
    }
    result = {
        "correct": outputs.failed == 0 and outputs.attempted > 0,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "probstirling" / "__init__.py").is_file():
        print(f"error: no probstirling sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    # a runaway child is killed at this CPU limit; each child inherits it afresh
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    with Bench(root) as bench:
        for name in names:
            record, result = run_one(bench, name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"record": record}))
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
