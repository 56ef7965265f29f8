"""CLI contract tests: output formats, determinism, and exit codes
(0 = pass, 1 = mathematical/statistical mismatch, 2 = usage error)."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

import probstirling.cli as cli
from probstirling.exact_core import binomial, rising_factorial
from probstirling.sums import make_report


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    bad = make_report("corollary8", {"n": 1}, Fraction(1), Fraction(1), Fraction(2))
    monkeypatch.setattr(cli, "verify_corollary8", lambda *a, **k: [bad])
    code, out, _ = run_cli(capsys, "verify", "corollary8", "--dist", "exp")
    assert code == 1
    record = jsonl(out)[0]
    assert record["pass"] is False
    assert record["lhs"] == "1" and record["rhs"] == "2"


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


def test_mc_check_deterministic(capsys):
    argv = [
        "mc-check", "--dist", "normal", "--k-max", "1", "--n-max", "2",
        "--samples", "20000", "--seed", "7",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


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


def test_exact_paths_do_not_load_numpy(fresh_python):
    out = fresh_python(
        "import sys\n"
        "import probstirling, probstirling.cli\n"
        "print('numpy' in sys.modules)\n"
        "from probstirling import SampleEstimate, check_moment, estimate_sum_moment\n"
        "print(estimate_sum_moment.__module__, 'numpy' in sys.modules)"
    )
    assert out.split() == ["False", "probstirling.montecarlo", "True"]


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
    assert "error:" in err and "not finite" in err
    for record in jsonl(out):
        assert float("-inf") < record["estimate"] < float("inf")
        assert 0 <= record["stderr"] < float("inf")


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
            "argument --dist: poisson parameter must be rational, got '1/0'",
        ),
        (["verify", "paths", "--dist", "geom:2"], "argument --dist: Geometric requires 0 < q < 1, got 2"),
        (["mc-check", "--dist", "bogus:1"], "argument --dist: unknown distribution syntax: 'bogus:1'"),
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
