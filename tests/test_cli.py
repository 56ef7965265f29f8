"""CLI contract tests: output formats, determinism, and exit codes
(0 = pass, 1 = mathematical/statistical mismatch, 2 = usage error)."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import probstirling.cli as cli
from probstirling import montecarlo, sums
from probstirling.distributions import Poisson, format_distribution, parse_distribution
from probstirling.exact_core import binomial, rising_factorial
from probstirling.montecarlo import compare_moment
from probstirling.sums import make_report

from catalog import CATALOG, digit_limit


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env():
    """The environment of a child that imports this checkout's probstirling."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def jsonl(out: str):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_table_cnn_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "cnn", "--n", "2", "--N", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0,2", "1,-2", "2,4"]


def test_table_stirling2_trivial(capsys):
    code, out, _ = run_cli(capsys, "table", "stirling2", "--n", "0")
    assert code == 0
    assert out.splitlines() == ["0,0,1"]


def test_table_stirling1_column(capsys):
    code, out, _ = run_cli(capsys, "table", "stirling1", "--n", "4", "--m", "2")
    assert code == 0
    assert out.splitlines() == ["2,2,1", "3,2,-3", "4,2,11"]


def test_table_sy_json_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "table", "sy", "--dist", "exp", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["table"] == "sy"
    assert doc["params"]["dist"] == "exp"
    for row in doc["rows"]:
        n, m = row["n"], row["m"]
        expected = binomial(n, m) * rising_factorial(m, n - m)
        assert Fraction(row["value"]) == expected


def test_table_bell(capsys):
    code, out, _ = run_cli(capsys, "table", "bell", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["0,1", "1,1", "2,2", "3,5"]


def test_table_rational_rendering(capsys):
    code, out, _ = run_cli(capsys, "table", "sy", "--dist", "uniform", "--n", "2", "--x", "1/2")
    assert code == 0
    for line in out.splitlines():
        for cell in line.split(","):
            assert "." not in cell  # never floats


def test_table_usage_errors(capsys):
    code, _, err = run_cli(capsys, "table", "cnn", "--n", "2")
    assert code == 2 and "requires" in err
    code, _, err = run_cli(capsys, "table", "sy", "--dist", "exp", "--n", "2", "--m", "5")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "nope", "--n", "1"])
    assert exc.value.code == 2


def test_verify_corollary8_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "corollary8", "--dist", "poisson:1", "--n-max", "4", "--N-max", "8"
    )
    assert code == 0
    records = jsonl(out)
    assert len(records) == 5 * 9
    assert all(r["pass"] for r in records)
    assert all(r["lhs"] == r["middle"] == r["rhs"] for r in records)
    assert records[0]["schema"] == 1


def test_verify_unknown_dist_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "corollary8", "--dist", "bogus:1"])
    assert exc.value.code == 2


def test_verify_theorem_suites_pass(capsys):
    for argv in (
        ["verify", "theorem1", "--n-max", "3", "--N-max", "6", "--x", "1/2"],
        ["verify", "theorem9", "--n-max", "4", "--N-max", "8"],
        ["verify", "theorem10", "--lambda", "1/2", "--n-max", "4", "--N-max", "8"],
        ["verify", "theorem11", "--q", "1/2", "--n-max", "3", "--N-max", "6"],
        ["verify", "theorem12", "--family", "hermite", "--n-max", "4", "--N-max", "8"],
        ["verify", "gf", "--dist", "geom:1/2", "--n-max", "4"],
        ["verify", "paths", "--dist", "ut", "--n-max", "4", "--x", "1"],
        ["verify", "bernoulli-classic", "--n-max", "5", "--N-max", "8"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert all(r["pass"] for r in jsonl(out))


def test_verify_theorem12_requires_family(capsys):
    code, _, err = run_cli(capsys, "verify", "theorem12")
    assert code == 2 and "family" in err


def test_verify_exit_1_on_mismatch(capsys, monkeypatch):
    # the rhs alone differs, then the middle alone
    for members in ((1, 1, 2), (1, 2, 1)):
        bad = make_report("corollary8", {"n": 1}, *map(Fraction, members))
        assert bad.passed is False
        monkeypatch.setattr(sums, "verify_corollary8", lambda *a, **k: [bad])
        code, out, _ = run_cli(capsys, "verify", "corollary8", "--dist", "exp")
        assert code == 1
        record = jsonl(out)[0]
        assert record["pass"] is False
        assert (record["lhs"], record["middle"], record["rhs"]) == tuple(map(str, members))


def test_verify_exit_1_when_only_the_first_record_fails(capsys, monkeypatch):
    def runner(*args, **kwargs):
        yield make_report("corollary8", {"n": 0}, Fraction(1), Fraction(1), Fraction(2))
        yield make_report("corollary8", {"n": 1}, Fraction(1), Fraction(1), Fraction(1))

    monkeypatch.setattr(sums, "verify_corollary8", runner)
    code, out, _ = run_cli(capsys, "verify", "corollary8", "--dist", "exp")
    assert code == 1
    assert [r["pass"] for r in jsonl(out)] == [False, True]


def test_verify_keeps_the_records_printed_before_a_refusal(capsys, monkeypatch):
    # a runner that refuses after its first report
    def runner(*args, **kwargs):
        yield make_report("corollary8", {"n": 0}, Fraction(1), Fraction(1), Fraction(1))
        raise ValueError("refused partway")

    monkeypatch.setattr(sums, "verify_corollary8", runner)
    code, out, err = run_cli(capsys, "verify", "corollary8", "--dist", "exp")
    assert (code, err) == (2, "error: refused partway\n")
    assert [r["pass"] for r in jsonl(out)] == [True]

    # a suite grid that refuses at n = 1, once the n = 0 reports are printed
    def summand(k, n):
        if n == 1:
            raise ValueError("refused at n = 1")
        return rising_factorial(k, n)

    monkeypatch.setattr(sums, "rising_factorial", summand)
    code, out, err = run_cli(capsys, "verify", "theorem9", "--n-max", "2", "--N-max", "3")
    assert (code, err) == (2, "error: refused at n = 1\n")
    assert [(r["params"]["n"], r["params"]["N"]) for r in jsonl(out)] == [(0, 0), (0, 1), (0, 2), (0, 3)]


def test_mc_check_constant(capsys):
    code, out, _ = run_cli(
        capsys,
        "mc-check", "--dist", "const:2", "--k-max", "2", "--n-max", "2",
        "--samples", "1000", "--seed", "42",
    )
    assert code == 0
    records = jsonl(out)
    assert len(records) == 9
    assert all(r["stderr"] == 0.0 for r in records)
    assert all(r["pass"] for r in records)
    # a constant that float64 holds inexactly has a standard error of pure
    # rounding noise, and the gate allows for the rounding
    for law in ("const:1/10", "shift:1/3:const:0"):
        code, out, _ = run_cli(
            capsys, "mc-check", "--dist", law, "--k-max", "3", "--n-max", "2", "--samples", "100"
        )
        assert code == 0
        assert all(r["pass"] for r in jsonl(out))


def test_mc_check_negative_constant_passes_despite_rounding(capsys):
    # the rounding allowance scales with |exact|: a negative exact moment
    # gets the same allowance as its positive twin
    code, out, _ = run_cli(
        capsys, "mc-check", "--dist", "const:-1/10", "--k-max", "1", "--n-max", "1", "--samples", "1000"
    )
    assert code == 0
    assert [r["pass"] for r in jsonl(out)] == [True] * 4


def test_table_reads_a_shift_with_a_space_before_its_base(capsys):
    code, out, err = run_cli(capsys, "table", "sy", "--dist", "shift:1: poisson:1", "--n", "2")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "table", "sy", "--dist", "shift:1:poisson:1", "--n", "2")[1]


def test_mc_check_deterministic(capsys):
    argv = [
        "mc-check", "--dist", "normal", "--k-max", "1", "--n-max", "2",
        "--samples", "20000", "--seed", "7",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_mc_check_exit_1_when_only_the_first_row_fails(capsys, monkeypatch):
    compare = montecarlo.compare_moment

    def first_row_fails(dist, k, n, *rest):
        estimate, exact, passed = compare(dist, k, n, *rest)
        return estimate, exact, passed and (k, n) != (0, 0)

    monkeypatch.setattr(montecarlo, "compare_moment", first_row_fails)
    code, out, _ = run_cli(
        capsys, "mc-check", "--dist", "const:2", "--k-max", "1", "--n-max", "1", "--samples", "100"
    )
    assert code == 1
    assert [r["pass"] for r in jsonl(out)] == [False, True, True, True]


def test_mc_check_statistical_failure_exits_1(capsys):
    # an absurdly tight z forces a statistical failure on a nondegenerate law
    code, out, _ = run_cli(
        capsys,
        "mc-check", "--dist", "exp", "--k-max", "1", "--n-max", "1",
        "--samples", "5000", "--seed", "3", "--z", "0.000001",
    )
    assert code == 1
    assert any(not r["pass"] for r in jsonl(out))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "probstirling", "table", "cnn", "--n", "2", "--N", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0,2", "1,-2", "2,4"]


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "stirling2", "--n", "150"],
        ["verify", "theorem11", "--n-max", "1", "--N-max", "2000"],
        ["verify", "corollary8", "--dist", "poisson:1/3", "--n-max", "12", "--N-max", "1500", "--x", "1/2"],
    ],
)
def test_closed_pipe_exits_141_without_traceback(argv):
    # a reader such as `head -1` closes the pipe while the output is still
    # being written; 141 is the status a shell gives a writer killed by SIGPIPE
    with subprocess.Popen(
        [sys.executable, "-m", "probstirling", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
    assert err == ""  # no BrokenPipeError traceback


def _readme_examples():
    """Each ``probstirling ...`` line of the README's sh blocks, as an argv,
    with the comment lines right below it (the output it shows, if any)."""
    examples, in_sh, shown = [], False, None
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh, shown = line == "```sh" and not in_sh, None
        elif in_sh and line.startswith("probstirling "):
            shown = []
            examples.append((shlex.split(line, comments=True)[1:], shown))
        elif shown is not None and line.startswith("# "):
            shown.append(line[2:])
        else:
            shown = None
    return examples


def test_readme_examples_run(capsys):
    examples = _readme_examples()
    assert {argv[0] for argv, _ in examples} == {"table", "verify", "mc-check"}
    assert (["table", "cnn", "--n", "2", "--N", "3", "--format", "csv"], ["0,2", "1,-2", "2,4"]) in examples
    for argv, shown in examples:
        cli.build_parser().parse_args(argv)
        if argv[0] == "mc-check":
            continue  # a million samples per row; parsing is the check here
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if shown:
            assert out.splitlines() == shown, argv


def test_exact_paths_do_not_load_numpy(fresh_python):
    # nor the worker pool's modules, which only mc-check imports
    out = fresh_python(
        "import sys\n"
        "import probstirling, probstirling.cli\n"
        "print('numpy' in sys.modules)\n"
        "print(any(m in sys.modules for m in ('concurrent.futures', 'multiprocessing')))\n"
        "from probstirling import SampleEstimate, compare_moment, estimate_sum_moment\n"
        "print(estimate_sum_moment.__module__, 'numpy' in sys.modules)"
    )
    assert out.split() == ["False", "False", "probstirling.montecarlo", "True"]


def test_package_root_loads_no_submodule(fresh_python):
    out = fresh_python(
        "import sys\n"
        "import probstirling\n"
        "print(hasattr(probstirling, '__wrapped__'))\n"
        "print(sorted(m for m in sys.modules if m.startswith('probstirling.')))\n"
        "from probstirling import sums\n"
        "print('numpy' in sys.modules, 'probstirling.montecarlo' in sys.modules)"
    )
    # a private name raises without importing, and a submodule imports alone
    assert out.splitlines() == ["False", "[]", "False False"]


def test_mc_check_refuses_samples_past_memory(fresh_python):
    _refuses_samples_past_memory(fresh_python, 1)


def test_mc_check_refuses_samples_past_memory_in_workers(fresh_python):
    _refuses_samples_past_memory(fresh_python, 2)


def _refuses_samples_past_memory(fresh_python, workers):
    # the child caps its own address space at 3 GB, and its forked workers
    # inherit the cap; 10^12 samples need 8 TB
    argv = ["mc-check", "--dist", "normal", "--k-max", "1", "--n-max", "1", "--samples", str(10**12)]
    out = fresh_python(
        "import contextlib, io, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))\n"
        "from probstirling import cli\n"
        f"cli._worker_count = lambda rows, samples: {workers}\n"
        "stdout, stderr = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):\n"
        f"    status = cli.main({argv!r})\n"
        "print(status, repr(stdout.getvalue()))\n"
        "print(stderr.getvalue(), end='')"
    )
    assert out.splitlines() == [
        "2 ''",
        "error: mc-check 1000000000000 samples need 8000000000000 bytes of float64, "
        "more than can be allocated; lower --samples",
    ]


# prints which of the stdlib modules that no command runs a snippet has
# loaded since it recorded `before` (this interpreter's site may preload some)
PRINT_UNUSED_STDLIB = (
    "print([m for m in ('dataclasses', 'inspect', 'traceback', 'typing')\n"
    "       if m in sys.modules and m not in before])\n"
)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["table", "sy", "--dist", "poisson:1/3", "--n", "3", "--x=1/2"], "[] False"),
        (
            ["verify", "theorem9", "--n-max", "2", "--N-max", "2"],
            "['sums', 'appell', 'series', 'polylog'] False",
        ),
        (["mc-check", "--dist", "exp", "--k-max", "1", "--n-max", "1", "--samples", "100"], "[] True"),
        # the geometric moments no longer go through the polylogarithm
        (["table", "sy", "--dist", "geom:1/3", "--n", "3"], "[] False"),
    ],
)
def test_each_command_loads_only_what_it_runs(fresh_python, argv, loaded):
    # sums imports appell, series and polylog, which only verify needs;
    # only mc-check needs numpy, and it loads the worker pool's modules
    # only for a run large enough to fork workers, which this one is not;
    # no command loads a stdlib module it does not run, except what numpy
    # itself imports
    out = fresh_python(
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from probstirling import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main({argv!r})\n"
        "modules = [m for m in ('sums', 'appell', 'series', 'polylog')\n"
        "           if 'probstirling.' + m in sys.modules]\n"
        "print(status, modules, 'numpy' in sys.modules)\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
        # OpenSSL's hashlib backend, which the Monte Carlo stream seeds do not need
        "print('_hashlib' in sys.modules)\n"
        + PRINT_UNUSED_STDLIB
    )
    numpy_loads = "[]\n"
    if loaded.endswith("True"):
        numpy_loads = fresh_python("import sys\nbefore = set(sys.modules)\nimport numpy\n" + PRINT_UNUSED_STDLIB)
    assert out == f"0 {loaded}\n[]\nFalse\n{numpy_loads}"


@pytest.mark.parametrize("fmt, loaded", [("csv", "False"), ("json", "True")])
def test_only_json_output_loads_json(fresh_python, fmt, loaded):
    out = fresh_python(
        "import contextlib, io, sys\n"
        "from probstirling import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main(['table', 'sy', '--dist', 'poisson:1/3', '--n', '3', '--format', {fmt!r}])\n"
        "print('json' in sys.modules)"
    )
    assert out == f"{loaded}\n"


def test_library_import_loads_no_unused_stdlib(fresh_python):
    # the modules that verify imports
    out = fresh_python("import sys\nbefore = set(sys.modules)\nimport probstirling.sums\n" + PRINT_UNUSED_STDLIB)
    assert out == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "stirling2", "--n", "-1"],
        ["table", "cnn", "--n", "2", "--N", "-2"],
        ["table", "bell", "--n", "-1"],
        ["table", "stirling2", "--n", "3", "--m", "-1"],
        ["verify", "corollary8", "--dist", "exp", "--n-max", "-2"],
        ["verify", "theorem11", "--N-max", "-1"],
        ["mc-check", "--dist", "exp", "--k-max", "-1"],
    ],
)
def test_negative_bounds_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be nonnegative" in err


def test_mc_check_nonfinite_row_exits_2(capsys):
    # 2000 exponential samples: at n = 159 the squared deviations overflow,
    # so the stderr becomes inf while the exact moment is still finite
    code, out, err = run_cli(
        capsys,
        "mc-check", "--dist", "exp", "--k-max", "1", "--n-max", "170",
        "--samples", "2000",
    )
    assert code == 2
    assert err == (
        "error: mc-check row k=1, n=159 is not finite in floating point (exact "
        "2.9467022724950384e+282, estimate 1.389168217985723e+151, stderr inf); "
        "lower --k-max or --n-max\n"
    )
    for record in jsonl(out):
        assert float("-inf") < record["estimate"] < float("inf")
        assert 0 <= record["stderr"] < float("inf")


# ---------------------------------- mc-check rows over forked worker processes


def _pin_workers(monkeypatch, workers):
    monkeypatch.setattr(cli, "_worker_count", lambda rows, samples: workers)


@pytest.mark.parametrize("dist", [*CATALOG, Poisson(0)], ids=repr)
def test_mc_check_output_does_not_depend_on_the_worker_count(capsys, monkeypatch, dist):
    for seed in (0, 5):
        argv = [
            "mc-check", "--dist", format_distribution(dist), "--k-max", "2", "--n-max", "3",
            "--samples", "3001", f"--seed={seed}",
        ]
        runs = []
        for workers in (1, 2, 3):
            _pin_workers(monkeypatch, workers)
            runs.append(run_cli(capsys, *argv))
        assert runs == runs[:1] * 3
        code, out, err = runs[0]
        assert code in (0, 1) and err == "" and len(jsonl(out)) == 12


def test_mc_check_nonfinite_row_exits_2_in_workers(capsys, monkeypatch):
    # the same rows, then the same error line, as in process
    argv = [
        "mc-check", "--dist", "exp", "--k-max", "1", "--n-max", "170", "--samples", "2000",
    ]
    runs = []
    for workers in (1, 2):
        _pin_workers(monkeypatch, workers)
        runs.append(run_cli(capsys, *argv))
    assert runs[1] == runs[0]
    code, out, err = runs[1]
    assert code == 2 and err.startswith("error: mc-check row k=1, n=159 is not finite")
    assert len(jsonl(out)) == 171 + 159


def _run_pinned(argv, workers, before=""):
    """Popen a child that runs ``cli.main(argv)`` over `workers` workers,
    after the lines `before`, in a session of its own, with its stdout and
    stderr piped."""
    code = (
        "import os, signal, sys\n"
        "from probstirling import cli, montecarlo\n"
        f"cli._worker_count = lambda rows, samples: {workers}\n"
        f"{before}"
        f"sys.exit(cli.main({argv!r}))"
    )
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
        start_new_session=True,
    )


def _assert_no_process_left(proc):
    # the child led a session of its own; a worker that outlived it would
    # still be in its process group
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_mc_check_closed_pipe_exits_141_and_leaves_no_worker():
    # 961 rows, about 150 KB of output: more than the pipe and stdout buffers hold
    argv = ["mc-check", "--dist", "uniform", "--k-max", "30", "--n-max", "30", "--samples", "100"]
    with _run_pinned(argv, 2) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        # a worker left running would hold stderr open: time out, not hang
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")
    _assert_no_process_left(proc)


def test_mc_check_killed_worker_exits_2_without_hanging():
    # the worker that draws row (1, 2) kills itself as if from outside
    before = (
        "compare = montecarlo.compare_moment\n"
        "def row(dist, k, n, *rest):\n"
        "    if (k, n) == (1, 2):\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return compare(dist, k, n, *rest)\n"
        "montecarlo.compare_moment = row\n"
    )
    argv = ["mc-check", "--dist", "exp", "--k-max", "2", "--n-max", "3", "--samples", "1000"]
    with _run_pinned(argv, 2, before) as proc:
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode().startswith("error: mc-check lost a worker process: ")
    assert err.decode().count("\n") == 1
    _assert_no_process_left(proc)


def test_mc_check_worker_exception_meets_the_exit_code_boundary():
    # the worker that draws row (1, 2) fails with a bug; the pool raises it here
    before = (
        "compare = montecarlo.compare_moment\n"
        "def row(dist, k, n, *rest):\n"
        "    if (k, n) == (1, 2):\n"
        "        raise RuntimeError('row (1, 2)')\n"
        "    return compare(dist, k, n, *rest)\n"
        "montecarlo.compare_moment = row\n"
    )
    argv = ["mc-check", "--dist", "exp", "--k-max", "2", "--n-max", "3", "--samples", "1000"]
    with _run_pinned(argv, 2, before) as proc:
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert len(out.splitlines()) == 4 + 2  # the rows before (1, 2)
    lines = err.decode().splitlines()
    assert lines[0] == "error: unexpected RuntimeError: row (1, 2)"
    # the worker's own traceback comes first, as the cause
    assert lines[1] == "concurrent.futures.process._RemoteTraceback: "
    assert lines[-1] == "RuntimeError: row (1, 2)"
    _assert_no_process_left(proc)


def test_exhausted_memory_exits_2_with_one_line(fresh_python):
    # the child caps its address space at 64 MB past what it holds after its
    # imports; the moments 2^j of const:2 alone need n^2 / 16 bytes
    out = fresh_python(
        "import contextlib, io, resource\n"
        "from probstirling import cli\n"
        "with open('/proc/self/status') as status:\n"
        "    held = next(int(line.split()[1]) for line in status if line.startswith('VmSize:'))\n"
        "cap = held * 1024 + 64 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "stdout, stderr = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):\n"
        "    status = cli.main(['table', 'sy', '--dist', 'const:2', '--n', '1000000', '--m', '1'])\n"
        "print(status, repr(stdout.getvalue()))\n"
        "print(stderr.getvalue(), end='')"
    )
    assert out.splitlines() == ["2 ''", "error: out of memory; lower --n"]


def test_unexpected_exception_exits_2_with_its_traceback(capsys, monkeypatch):
    def builder(n, m):
        raise RuntimeError("boom")

    # the table builders look stirling2 up on the cli module at call time
    monkeypatch.setattr(cli, "stirling2", builder)
    code, out, err = run_cli(capsys, "table", "stirling2", "--n", "2")
    lines = err.splitlines()
    assert (code, out) == (2, "")
    assert lines[:2] == ["error: unexpected RuntimeError: boom", "Traceback (most recent call last):"]
    assert lines[-1] == "RuntimeError: boom"


def test_interrupt_exits_130_without_traceback(capsys, monkeypatch):
    def builder(n, m):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "stirling2", builder)
    assert run_cli(capsys, "table", "stirling2", "--n", "2") == (130, "", "")


def test_worker_count_is_bounded_by_cpus_rows_and_free_memory(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
    monkeypatch.setattr(cli, "_free_memory", lambda: 10**9)
    # half of 1 GB holds 6 arrays of 10^7 float64 entries (80 MB each)
    assert cli._worker_count(24, 10**7) == 6
    assert cli._worker_count(3, 10**7) == 3
    assert cli._worker_count(100, 2 * 10**5) == 32
    # one array past half the free memory is drawn in process, as it
    # would be without a pool
    assert cli._worker_count(24, 10**8) == 1
    monkeypatch.setattr(cli, "_free_memory", lambda: -1)
    assert cli._worker_count(24, 10**6) == 1


def test_worker_count_keeps_small_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
    monkeypatch.setattr(cli, "_free_memory", lambda: 10**12)
    least = cli._POOL_MIN_ROW_SAMPLES
    # too few samples in a row, or in all rows, to pay for the workers
    assert cli._worker_count(10**6, least - 1) == 1
    assert cli._worker_count(cli._POOL_MIN_SAMPLES // least - 1, least) == 1
    assert cli._worker_count(cli._POOL_MIN_SAMPLES // least, least) == 32
    for samples in (-1, 0, 1):
        assert cli._worker_count(24, samples) == 1


def test_free_memory_reads_a_cgroup_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CGROUP", str(tmp_path))
    # no cgroup v2 files: physical memory, which is more than 4 MB
    assert cli._free_memory() > 4 * 10**6
    (tmp_path / "memory.current").write_text("1000000\n")
    (tmp_path / "memory.max").write_text("max\n")
    assert cli._free_memory() > 4 * 10**6
    (tmp_path / "memory.max").write_text("5000000\n")
    assert cli._free_memory() == 4 * 10**6
    (tmp_path / "memory.max").write_text("garbled\n")
    assert cli._free_memory() > 4 * 10**6


def test_mc_check_forks_its_workers_before_numpy_loads(fresh_python):
    # forking once numpy's BLAS threads run can deadlock a child, and
    # Python 3.12 and later warn of it: every fork must find this process
    # without numpy and with one thread
    argv = ["mc-check", "--dist", "normal", "--k-max", "1", "--n-max", "1", "--samples", "100"]
    out = fresh_python(
        "import contextlib, io, os, sys, warnings\n"
        "warnings.simplefilter('error', DeprecationWarning)\n"
        "from probstirling import cli\n"
        "cli._worker_count = lambda rows, samples: 2\n"
        "forks = []\n"
        "def before():\n"
        "    forks.append(('numpy' in sys.modules, len(os.listdir('/proc/self/task'))))\n"
        "os.register_at_fork(before=before)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main({argv!r})\n"
        "print(status, forks)\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    assert out == "0 [(False, 1), (False, 1)]\n['concurrent.futures', 'multiprocessing']\n"


def test_mc_check_workers_inherit_the_exact_table(fresh_python):
    # a worker that had to grow the law's E[S_k^n] table would fail its row
    argv = [
        "mc-check", "--dist", "poisson:1/3", "--k-max", "3", "--n-max", "5", "--samples", "100",
        "--z", "100",
    ]
    out = fresh_python(
        "import contextlib, io, os\n"
        "from probstirling import cli, distributions\n"
        "cli._worker_count = lambda rows, samples: 2\n"
        "parent, grow_moments = os.getpid(), distributions._grow_moments\n"
        "def grow(*args):\n"
        "    if os.getpid() != parent:\n"
        "        raise ValueError('a worker grew the table')\n"
        "    return grow_moments(*args)\n"
        "distributions._grow_moments = grow\n"
        "stdout, stderr = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):\n"
        f"    status = cli.main({argv!r})\n"
        "print(status, len(stdout.getvalue().splitlines()), repr(stderr.getvalue()))"
    )
    assert out == "0 24 ''\n"


# 10^4 nested shifts, about 80 KB of law: within one argument's length limit
_DEEP_SHIFT = "shift:1:" * 10**4 + "exp"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "sy", "--n", "3", "--x=1/2"],
        ["verify", "paths", "--n-max", "2"],
        ["mc-check", "--k-max", "1", "--n-max", "2", "--samples", "1000"],
    ],
    ids=lambda argv: argv[0],
)
def test_deeply_nested_shift_runs_or_is_refused_cleanly(argv):
    # the child caps its own address space at 3 GB, and its workers inherit it
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))\n"
        "from probstirling import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv, "--dist", _DEEP_SHIFT],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode in (0, 2), proc.stderr[-2000:]
    # nothing on stderr for a run, one error line for a refusal
    assert len(proc.stderr.splitlines()) == (proc.returncode == 2), proc.stderr[-2000:]
    if argv[0] != "table":
        assert all(r["pass"] for r in jsonl(proc.stdout))
        assert {r["params"]["dist"] for r in jsonl(proc.stdout)} == {"shift:10000:exp"}


@pytest.mark.parametrize(
    "argv, option, name",
    [
        (["verify", "theorem9", "--x", "1/2"], "--x", "theorem9"),
        (["verify", "theorem9", "--dist", "exp"], "--dist", "theorem9"),
        (["verify", "gf", "--dist", "exp", "--N-max", "3"], "--N-max", "gf"),
        (["verify", "paths", "--dist", "exp", "--N-max", "3"], "--N-max", "paths"),
        (["verify", "corollary8", "--dist", "exp", "--q", "1/3"], "--q", "corollary8"),
        (["verify", "theorem10", "--q", "1/3"], "--q", "theorem10"),
        (["verify", "theorem11", "--lambda", "2"], "--lambda", "theorem11"),
        (["verify", "corollary8", "--dist", "exp", "--family", "euler"], "--family", "corollary8"),
        (["table", "cnn", "--n", "2", "--N", "3", "--m", "1"], "--m", "cnn"),
        (["table", "stirling2", "--n", "3", "--x", "1"], "--x", "stirling2"),
        (["table", "bell", "--n", "3", "--dist", "exp"], "--dist", "bell"),
        (["table", "sy", "--dist", "exp", "--n", "3", "--N", "2"], "--N", "sy"),
    ],
)
def test_unused_option_exits_2(capsys, argv, option, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {option} is not used by {name}\n"


# every option that a table kind or suite requires, with a command line that
# omits only that one
_MISSING_REQUIRED = [
    (["table", "stirling2"], "stirling2", "--n"),
    (["table", "stirling1", "--m", "1"], "stirling1", "--n"),
    (["table", "bell", "--x", "1/2"], "bell", "--n"),
    (["table", "cnn", "--n", "2"], "cnn", "--N"),
    (["table", "cnn", "--N", "2"], "cnn", "--n"),
    (["table", "sy", "--n", "3"], "sy", "--dist"),
    (["table", "sy", "--dist", "exp"], "sy", "--n"),
    (["verify", "corollary8", "--n-max", "2"], "corollary8", "--dist"),
    (["verify", "gf", "--x", "1/2"], "gf", "--dist"),
    (["verify", "paths"], "paths", "--dist"),
    (["verify", "theorem12", "--N-max", "3"], "theorem12", "--family"),
]


@pytest.mark.parametrize("argv, name, option", _MISSING_REQUIRED)
def test_missing_required_option_exits_2(capsys, argv, name, option):
    assert run_cli(capsys, *argv) == (2, "", f"error: {name} requires {option}\n")


def test_missing_required_cases_cover_both_registries():
    marked = {
        (name, cli._flag(dest))
        for registry in (cli.TABLE_KINDS, cli.VERIFY_SUITES)
        for name, (reads, _) in registry.items()
        for dest, default in reads.items()
        if default is cli._REQUIRED
    }
    assert marked == {(name, option) for _, name, option in _MISSING_REQUIRED}


@pytest.mark.parametrize("z", ["inf", "nan", "-1", "1e5000"])
def test_mc_check_refuses_bad_z(capsys, z):
    code, out, err = run_cli(
        capsys, "mc-check", "--dist", "const:2", "--k-max", "1", "--n-max", "1",
        "--samples", "10", "--z", z,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: z must be finite and nonnegative, got ")


def test_mc_check_refuses_poisson_rate_beyond_the_sampler(capsys):
    # the 400-term CDF table of rate 1000 starts at exp(-1000) = 0, so every
    # draw used to come back as 401 and fail as a statistical mismatch
    code, out, err = run_cli(
        capsys, "mc-check", "--dist", "poisson:1000", "--k-max", "1", "--n-max", "1",
        "--samples", "100",
    )
    assert code == 2
    assert err.startswith("error: Poisson rate 1000.0 too large to sample")
    assert [r["params"]["k"] for r in jsonl(out)] == [0, 0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "sy", "--dist", "exp", "--n", "3", "--x", "1/0"], "argument --x: not a rational number: '1/0'"),
        (["table", "bell", "--n", "3", "--x", "abc"], "argument --x: not a rational number: 'abc'"),
        (["verify", "theorem11", "--q", "1/0"], "argument --q: not a rational number: '1/0'"),
        (["verify", "theorem10", "--lambda", "1/0"], "argument --lambda: not a rational number: '1/0'"),
        (["verify", "gf", "--dist", "exp", "--x=2/0"], "argument --x: not a rational number: '2/0'"),
        (
            ["table", "sy", "--dist", "poisson:1/0", "--n", "3"],
            "argument --dist: Poisson rate must be rational, got '1/0'",
        ),
        (["verify", "paths", "--dist", "geom:2"], "argument --dist: Geometric requires 0 < q < 1, got 2"),
        (["mc-check", "--dist", "bogus:1"], "argument --dist: unknown distribution syntax: 'bogus:1'"),
        (
            ["verify", "gf", "--dist", "finite:1"],
            "argument --dist: finite atom must look like value:prob, got '1'",
        ),
    ],
)
def test_bad_option_value_names_the_problem(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")
    assert "_rational_arg" not in captured.err and "parse_distribution" not in captured.err


def test_exact_values_beyond_the_digit_limit(capsys):
    code, out, err = run_cli(capsys, "table", "bell", "--n", "1", "--x", "1e5000")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["0,1", "1,1" + "0" * 5000]

    digits = "7" * 4400
    code, out, err = run_cli(capsys, "table", "bell", "--n", "1", "--x", digits)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["0,1", "1," + digits]

    # S_Y(a, 1; 0) = a! for the exponential law; 1700! has 4700 digits
    code, out, err = run_cli(capsys, "table", "sy", "--dist", "exp", "--n", "1700", "--m", "1")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1700
    with digit_limit(0):
        assert lines[-1] == f"1700,1,{factorial(1700)}"


def test_digit_limit_is_restored_after_main(capsys):
    with digit_limit(5000):
        assert run_cli(capsys, "table", "bell", "--n", "1", "--x", "1e6000")[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        assert run_cli(capsys, "table", "cnn", "--n", "2")[0] == 2
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            cli.main(["table", "bell", "--n", "x"])
        assert sys.get_int_max_str_digits() == 5000


def test_theorem11_q_zero_exits_2(capsys):
    for argv in (["verify", "theorem11", "--q", "0"], ["verify", "theorem11", "--q=-0"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: Geometric requires 0 < q < 1, got 0\n"


# --- grammar fuzz: every argv exits 0, 1 or 2, and 1 only with a failing record ---

_RATIONALS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=5).map(str),
    st.sampled_from(["0", "-0", "1/0", "1e5000", "-1e5000", "abc", "", "0.25", "3/1"]),
)
_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=5).map(str)
_SIMPLE_LAWS = st.one_of(
    st.sampled_from(["exp", "uniform", "normal", "ut"]),
    st.builds("{}:{}".format, st.sampled_from(["const", "bernoulli", "poisson", "geom"]), _UNIT),
    st.builds("{}:{}".format, st.sampled_from(["const", "bernoulli", "poisson", "geom"]), _RATIONALS),
    st.lists(st.tuples(_RATIONALS, _UNIT), min_size=1, max_size=3).map(
        lambda atoms: "finite:" + ",".join(f"{v}:{p}" for v, p in atoms)
    ),
    st.sampled_from(["bogus:1", "exp:1", "poisson", "finite:", "shift:1"]),
)
# a simple law under zero to three shifts, nested as written
_LAWS = st.builds(
    lambda offsets, base: "".join(f"shift:{c}:" for c in offsets) + base,
    st.lists(_RATIONALS, max_size=3),
    _SIMPLE_LAWS,
)
_FAMILIES = st.one_of(
    st.sampled_from(["bernoulli", "euler", "hermite", "bogus"]), _LAWS.map("moment:{}".format)
)
_MOSTLY = st.sampled_from([True, True, True, True, False])
_SELDOM = _MOSTLY.map(lambda given: not given)
# option -> (its destination, its values); --n-max and --N-max are bounded
# here, because a suite's default grid is larger than n <= 5, N <= 6
_OPTIONS = {
    "table": {
        "--n": ("n", st.integers(-1, 5)),
        "--N": ("N", st.integers(-1, 6)),
        "--m": ("m", st.integers(-1, 5)),
        "--x": ("x", _RATIONALS),
        "--dist": ("dist", _LAWS),
        "--format": ("format", st.sampled_from(["csv", "json"])),
    },
    "verify": {
        "--dist": ("dist", _LAWS),
        "--family": ("family", _FAMILIES),
        "--q": ("q", _RATIONALS),
        "--lambda": ("rate", _RATIONALS),
    },
    "mc-check": {
        "--dist": ("dist", _LAWS),
        "--k-max": ("k_max", st.integers(-1, 3)),
        "--n-max": ("n_max", st.integers(-1, 5)),
        "--seed": ("seed", st.integers(0, 3)),
        "--z": ("z", st.sampled_from(["6", "0", "-1", "nan", "inf", "1e5000", "x"])),
    },
}


@st.composite
def _argv(draw):
    """One command line: a kind, a table kind or suite, and options. An
    option the command reads is mostly given, any other one seldom, with
    values inside and outside its grammar."""
    kind = draw(st.sampled_from(list(_OPTIONS)))
    reads = {"format", "dist", "k_max", "n_max", "seed", "z"}
    argv = [kind]
    if kind == "table":
        argv.append(draw(st.sampled_from(list(cli.TABLE_KINDS))))
        reads = {"format", *cli.TABLE_KINDS[argv[1]][0]}
    elif kind == "verify":
        argv.append(draw(st.sampled_from(list(cli.VERIFY_SUITES))))
        reads = cli.VERIFY_SUITES[argv[1]][0]
        argv.append(f"--n-max={draw(st.integers(-1, 5))}")
        if draw(_MOSTLY if "N_max" in reads else _SELDOM):
            argv.append(f"--N-max={draw(st.integers(-1, 6))}")
        if draw(_MOSTLY if "x" in reads else _SELDOM):
            argv += [f"--x={x}" for x in draw(st.lists(_RATIONALS, min_size=1, max_size=2))]
    else:
        argv.append(f"--samples={draw(st.integers(0, 200))}")
    for flag, (dest, values) in _OPTIONS[kind].items():
        if draw(_MOSTLY if dest in reads else _SELDOM):
            argv.append(f"{flag}={draw(values)}")
    return argv


def _not_json(constant: str):
    """Refuse the NaN and Infinity that json.dumps writes for non-finite floats."""
    raise ValueError(f"not JSON: {constant}")


@given(argv=_argv())
@example(argv=["verify", "theorem11", "--q=0"])
@example(argv=["mc-check", "--samples=50", "--dist=exp", "--k-max=2", "--n-max=3", "--z=0"])
@example(argv=["mc-check", "--samples=2", "--dist=shift:1e5000:exp", "--k-max=0", "--n-max=0"])
@example(argv=["mc-check", "--samples=20", "--dist=shift:1:shift:-1/2:normal", "--k-max=1", "--n-max=2"])
@settings(max_examples=200, deadline=None)
def test_cli_grammar_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    # a traceback would be a bug that the exit-code boundary reported
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    records = []
    if argv[0] != "table" or "--format=json" in argv:
        lines = out.getvalue().splitlines()
        records = [json.loads(line, parse_constant=_not_json) for line in lines]
    if code == 1:
        assert any(record["pass"] is False for record in records), argv
    if argv[0] == "mc-check" and code in (0, 1):
        # the CLI and the library reach their verdicts through one gate; a
        # law may have a parameter beyond the int <-> str digit limit, which
        # main lifts, so the library call runs under the lifted limit too
        for record in records:
            p = record["params"]
            with digit_limit(0):
                dist = parse_distribution(p["dist"])
                verdict = compare_moment(dist, p["k"], p["n"], p["samples"], p["seed"], p["z"])[2]
            assert record["pass"] == verdict, (argv, record)
