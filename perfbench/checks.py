"""Output checks for the benchmark workloads.

Each check parses one invocation's stdout and counts records attempted
and failed. A record fails if it is missing or malformed, if its ``pass``
is false, if its members differ when the benchmark compares them itself,
or if it disagrees with an independent oracle:

* sy-table: a seeded sample of cells against the Poisson closed form
  sum_r S(n, r) S(r, m) rate^r built from sympy's Stirling numbers and
  shifted to x through sum_d C(n, d) x^d S_Y(n - d, m; 0);
* mc-check: the exact column against E[S_k^n] = (n-1)!! k^(n/2) for the
  standard normal law (0 at odd n), and every estimate within z standard
  errors of it.

At inputs that have a golden (the default seed), the whole stdout must
also match the golden sha256 byte for byte; a mismatch fails every record.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from workloads import generate

ORACLE_CELLS = 24


@dataclass
class Check:
    attempted: int
    failed: int = 0
    output_bits: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(problem)


def _bits(value: Fraction) -> int:
    return abs(value.numerator).bit_length() + value.denominator.bit_length()


def check_output(inputs, stdout: bytes, golden: str | None) -> Check:
    """Check one invocation's stdout; ``golden`` is the expected sha256, if any.

    For identity-sweep, ``stdout`` is the report lines without the
    trailing latency line.
    """
    try:
        text = stdout.decode()
    except UnicodeDecodeError:
        check = Check(inputs.records)
        check.fail(inputs.records, "stdout is not UTF-8")
        return check
    check = _CHECKS[inputs.workload](inputs, text.splitlines())
    if golden is not None and hashlib.sha256(stdout).hexdigest() != golden:
        check.failed = check.attempted
        check.problems.append("stdout differs from the golden sha256")
    return check


def failed_run(inputs, problem: str) -> Check:
    """A crashed or killed invocation: every record it owed counts as failed."""
    check = Check(inputs.records)
    check.fail(inputs.records, problem)
    return check


def _expect_count(check: Check, lines: list, expected: int, what: str) -> None:
    if len(lines) != expected:
        check.fail(abs(expected - len(lines)), f"{len(lines)} {what}, expected {expected}")


def _sy_table(inputs, lines: list[str]) -> Check:
    n_top = inputs.params["n"]
    rate, x = Fraction(inputs.params["rate"]), Fraction(inputs.params["x"])
    check = Check(inputs.records)
    cells = [(n, m) for n in range(n_top + 1) for m in range(n + 1)]
    _expect_count(check, lines, len(cells), "rows")
    values = {}
    for (n, m), line in zip(cells, lines):
        try:
            row_n, row_m, value = line.split(",")
            value = Fraction(value)
            if (int(row_n), int(row_m)) != (n, m):
                raise ValueError(f"row {line!r} out of order")
        except ValueError as exc:
            check.fail(1, str(exc))
            continue
        values[n, m] = value
        check.output_bits += _bits(value)
    sample = random.Random(f"oracle/{inputs.seed}").sample(cells, min(ORACLE_CELLS, len(cells)))
    for n, m in sample:
        if (n, m) in values and values[n, m] != _poisson_oracle(rate, n, m, x):
            check.fail(1, f"S_Y({n}, {m}; {x}) = {values[n, m]} disagrees with the sympy oracle")
    return check


def _poisson_oracle(rate: Fraction, n: int, m: int, x: Fraction) -> Fraction:
    from sympy import Rational, binomial
    from sympy.functions.combinatorial.numbers import stirling

    lam, x_ = Rational(rate.numerator, rate.denominator), Rational(x.numerator, x.denominator)

    def at_zero(a):
        return sum((stirling(a, r) * stirling(r, m) * lam**r for r in range(m, a + 1)), Rational(0))

    value = sum((binomial(n, d) * x_**d * at_zero(n - d) for d in range(n - m + 1)), Rational(0))
    return Fraction(int(value.p), int(value.q))


def _records(check: Check, lines: list[str]) -> list[dict]:
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            check.fail(1, f"not JSON: {line[:80]!r}")
            records.append({})
    return records


def _members_agree(check: Check, record: dict) -> None:
    """Compare lhs, middle and rhs here, not through the program's own flag."""
    try:
        lhs, rhs = Fraction(record["lhs"]), Fraction(record["rhs"])
        middle = None if record["middle"] is None else Fraction(record["middle"])
    except (KeyError, TypeError, ValueError):
        check.fail(1, f"malformed record {str(record)[:80]}")
        return
    check.output_bits += _bits(lhs) + _bits(rhs) + (0 if middle is None else _bits(middle))
    if record.get("pass") is not True or lhs != rhs or (middle is not None and middle != lhs):
        check.fail(1, f"members disagree: {str(record)[:120]}")


def _verify_routes(inputs, lines: list[str]) -> Check:
    check = Check(inputs.records)
    _expect_count(check, lines, inputs.records, "records")
    expected = []
    for n in range(inputs.params["n_max"] + 1):
        for m in range(n + 1):
            for x in inputs.params["xs"]:
                expected.append(("paths", n, m, x))
                if m <= 4:
                    expected.append(("paths-uniform", n, m, x))
    for want, record in zip(expected, _records(check, lines)):
        if not record:
            continue
        params = record.get("params", {})
        got = (record.get("identity"), params.get("n"), params.get("m"), params.get("x"))
        if got != want or params.get("dist") != f"geom:{inputs.params['q']}":
            check.fail(1, f"record {got} where {want} was expected")
            continue
        _members_agree(check, record)
    return check


def _identity_sweep(inputs, reports: list[str]) -> Check:
    check = Check(inputs.records)
    _expect_count(check, reports, inputs.records, "reports")
    for query, record in zip(inputs.queries, _records(check, reports)):
        if not record:
            continue
        params = record.get("params", {})
        if record.get("identity") != query["kind"] or params.get("n") != str(query["n"]):
            check.fail(1, f"report {str(record)[:80]} does not answer query {query}")
            continue
        _members_agree(check, record)
    return check


def _normal_sum_moment(k: int, n: int) -> Fraction:
    from sympy import factorial2

    if n % 2:
        return Fraction(0)
    return Fraction(int(factorial2(n - 1))) * k ** (n // 2)


def _mc_check(inputs, lines: list[str]) -> Check:
    check = Check(inputs.records)
    _expect_count(check, lines, inputs.records, "rows")
    expected = [(k, n) for k in range(inputs.params["k_max"] + 1) for n in range(inputs.params["n_max"] + 1)]
    for (k, n), record in zip(expected, _records(check, lines)):
        if not record:
            continue
        try:
            params = record["params"]
            exact = Fraction(record["exact"])
            estimate, stderr = float(record["estimate"]), float(record["stderr"])
            z = float(params["z"])
        except (KeyError, TypeError, ValueError):
            check.fail(1, f"malformed row {str(record)[:80]}")
            continue
        check.output_bits += _bits(exact)
        want = {"dist": "normal", "k": k, "n": n, "samples": inputs.params["samples"], "seed": inputs.seed}
        if any(params.get(key) != value for key, value in want.items()):
            check.fail(1, f"row params {params} where {want} were expected")
        elif exact != _normal_sum_moment(k, n):
            check.fail(1, f"exact E[S_{k}^{n}] = {exact}, oracle says {_normal_sum_moment(k, n)}")
        elif not (math.isfinite(estimate) and math.isfinite(stderr)):
            check.fail(1, f"non-finite estimate at k={k}, n={n}")
        elif record.get("pass") is not True or abs(estimate - float(exact)) > z * stderr:
            check.fail(1, f"estimate {estimate} is not within {z} x {stderr} of {exact}")
    return check


_CHECKS = {
    "sy-table": _sy_table,
    "verify-routes": _verify_routes,
    "identity-sweep": _identity_sweep,
    "mc-check": _mc_check,
}


def main(argv: list[str]) -> int:
    """``checks.py <workload> <seed> <size> <stdout file> <golden sha256 or ->``:
    print the check of one output as JSON.

    The benchmark runs checks in this separate process so that sympy never
    loads into the process that spawns the measured children: a child's
    peak RSS counts the memory of the process that spawned it.
    """
    workload, seed, size, path, golden = argv
    inputs = generate(workload, int(seed), size)
    with open(path, "rb") as stdout:
        check = check_output(inputs, stdout.read(), None if golden == "-" else golden)
    print(json.dumps(asdict(check)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
