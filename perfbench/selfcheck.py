"""Self-checks of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Run from the root of a checkout. Checks that BENCHMARK.json names exactly
the metrics the benchmark emits, with the same units; that every workload
emits every metric with its unit and passes its output checks, untraced
and traced; that per-module self times sum to no more than the traced
wall time; and that a tampered golden, a wrong table cell and a wrong
exact moment each make records fail. Exits 1 if any check fails.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from checks import check_output
from run import END_TO_END, MODULE_SELF, PER_LAYER, Bench, run_one
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json lists the four workloads")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == table, f"BENCHMARK.json {key} names and units match the emitted metrics")

    with Bench(Path.cwd()) as bench:
        _run_checks(bench, expect)
    print(f"{len(failures)} self-check(s) failed" if failures else "all self-checks passed")
    return 1 if failures else 0


def _run_checks(bench: Bench, expect) -> None:
    for workload in WORKLOADS:
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            _, result = run_one(bench, workload, 1, 0, trace, size="tiny")
            metrics = result["metrics"]
            label = f"{workload} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0, f"{label}: outputs pass their checks")
            expect(
                {k: v["unit"] for k, v in metrics.items()} == units,
                f"{label}: every named metric is emitted with its unit",
            )
            if trace:
                self_sum = sum(metrics[name]["value"] for name in MODULE_SELF)
                wall = metrics["trace.wall_s"]["value"]
                expect(0 < self_sum <= wall, f"{label}: module self_s sum {self_sum:.4f} <= trace.wall_s {wall:.4f}")
            else:
                expect(all(v["value"] > 0 for v in metrics.values()), f"{label}: end-to-end metrics are nonzero")

    record, result = run_one(bench, "sy-table", 0, 0, False, size="tiny", golden="0" * 64)
    expect(result["failed"] > 0 and record["failed_ratio"] > 0, "a tampered golden raises failed_ratio above 0")

    inputs = generate("sy-table", 2, "tiny")
    result = bench.spawn(bench.workload_cmd(inputs))
    good = result["stdout"]
    expect(check_output(inputs, good, hashlib.sha256(good).hexdigest()).failed == 0, "a matching golden passes")
    # append a digit to every value: each cell the oracle samples must fail
    tampered = "".join(line + "1\n" for line in good.decode().splitlines()).encode()
    expect(check_output(inputs, tampered, None).failed > 0, "wrong sy-table cells fail against the sympy oracle")

    inputs = generate("mc-check", 2, "tiny")
    good = bench.spawn(bench.workload_cmd(inputs))["stdout"].decode()
    tampered = good.replace('"exact": "3"', '"exact": "4"', 1).encode()
    expect(check_output(inputs, tampered, None).failed == 1, "a wrong exact moment fails against (n-1)!! k^(n/2)")


if __name__ == "__main__":
    sys.exit(main())
