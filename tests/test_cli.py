"""CLI tests: output formats, exit codes, batch behavior, selftest."""

import json
import math
import subprocess
import sys

import pytest

import sincint.cli as cli
from sincint import IntegralParams, evaluate, parse_exact_value
from sincint.oracle import VerifyReport
from sincint.exact import ExactValue


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that refuses the non-RFC 8259 constants Infinity and NaN."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


# |I(300, 300, 0, 1000, 0)| is far above the largest double.
OVERFLOW_ARGS = ["-a", "300", "-b", "300", "-c", "0", "-p", "1000", "-q", "0"]


def test_eval_plain_pi_anchor(capsys):
    code, out, err = run_cli(["eval", "-a", "3", "-b", "3", "-c", "0", "-p", "1", "-q", "0"], capsys)
    assert code == 0
    assert out.strip() == "3/8*pi = 1.1780972450961724"


def test_eval_plain_log_value(capsys):
    code, out, _ = run_cli(["eval", "-a", "3", "-b", "2", "-c", "0", "-p", "1", "-q", "0"], capsys)
    assert code == 0
    assert out.startswith("3/4*ln(3) = ")


def test_eval_json_record(capsys):
    code, out, _ = run_cli(
        ["eval", "-a", "3", "-b", "2", "-c", "0", "-p", "1", "-q", "0", "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record == {
        "a": 3, "b": 2, "c": 0, "p": 1, "q": 0,
        "exact": "3/4*ln(3)", "decimal": 0.8239592165010823,
    }


def test_eval_domain_error_names_constraint(capsys):
    code, out, err = run_cli(["eval", "-a", "2", "-b", "3", "-c", "0", "-p", "1", "-q", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "a >= b" in err


def test_eval_b1_needs_flag(capsys):
    code, _, err = run_cli(["eval", "-a", "1", "-b", "1", "-c", "0", "-p", "1", "-q", "0"], capsys)
    assert code == 2
    assert "b >= 2" in err
    code, out, _ = run_cli(
        ["eval", "-a", "1", "-b", "1", "-c", "0", "-p", "1", "-q", "0", "--allow-b1"], capsys
    )
    assert code == 0
    assert out.startswith("1/2*pi")


def test_malformed_flags_exit_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["eval", "-a", "x", "-b", "2", "-c", "0", "-p", "1", "-q", "0"])
    assert excinfo.value.code == 1


def test_verify_pass_json(capsys):
    code, out, _ = run_cli(
        ["verify", "-a", "4", "-b", "4", "-c", "0", "-p", "1", "-q", "0", "--tol", "1e-6"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["pass"] is True
    assert record["exact"] == "1/3*pi"
    assert record["tol"] == 1e-6


def test_verify_grid_member(capsys):
    code, out, _ = run_cli(
        ["verify", "-a", "6", "-b", "3", "-c", "1", "-p", "1", "-q", "2", "--tol", "1e-6"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_zero_case(capsys):
    code, out, _ = run_cli(["verify", "-a", "2", "-b", "2", "-c", "0", "-p", "0", "-q", "0"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["exact_decimal"] == 0.0
    assert record["oracle"] == 0.0


def test_verify_tolerance_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("SINCINT_TOL", "1e-7")
    code, out, _ = run_cli(["verify", "-a", "2", "-b", "2", "-c", "0", "-p", "1", "-q", "0"], capsys)
    assert code == 0
    assert json.loads(out)["tol"] == 1e-7


@pytest.mark.parametrize("command", ["verify", "selftest"])
@pytest.mark.parametrize("tol", ["1e-10", "nan", "inf", "-1", "abc"])
def test_invalid_tol_flag_is_a_usage_error(command, tol, capsys):
    argv = [command, "--tol", tol]
    if command == "verify":
        argv += ["-a", "2", "-b", "2", "-c", "0", "-p", "1", "-q", "0"]
    else:
        argv += ["--max-a", "2", "--max-c", "0", "--max-p", "1", "--max-q", "0"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "--tol" in err and tol in err


@pytest.mark.parametrize("raw", ["abc", "nan", "1e-12", ""])
def test_invalid_tolerance_environment_is_a_usage_error(raw, capsys, monkeypatch):
    monkeypatch.setenv("SINCINT_TOL", raw)
    code, out, err = run_cli(["verify", "-a", "2", "-b", "2", "-c", "0", "-p", "1", "-q", "0"], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "SINCINT_TOL" in err


def test_tol_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("SINCINT_TOL", "abc")
    code, out, _ = run_cli(
        ["verify", "-a", "2", "-b", "2", "-c", "0", "-p", "1", "-q", "0", "--tol", "1e-6"], capsys
    )
    assert code == 0
    assert json.loads(out)["tol"] == 1e-6


def test_eval_json_out_of_double_range_is_null(capsys):
    code, out, _ = run_cli(["eval", *OVERFLOW_ARGS, "--format", "json"], capsys)
    assert code == 0
    record = strict_json(out)
    assert record["decimal"] is None
    assert parse_exact_value(record["exact"]) == evaluate(IntegralParams(300, 300, 0, 1000, 0))


def test_batch_json_out_of_double_range_is_null(tmp_path, capsys):
    path = tmp_path / "cases.txt"
    path.write_text("300 300 0 1000 0\n2 2 0 1 0\n")
    code, out, _ = run_cli(["batch", str(path)], capsys)
    assert code == 0
    first, second = (strict_json(line) for line in out.splitlines())
    assert first["status"] == "ok" and first["decimal"] is None
    assert second["decimal"] == 1.5707963267948966


def test_verify_report_json_out_of_double_range_is_null():
    report = VerifyReport(
        params=IntegralParams(300, 300, 0, 1000, 0),
        exact=ExactValue.pi_multiple(10**400),
        exact_decimal=math.inf,
        oracle_estimate=None,
        oracle_error_bound=None,
        abs_diff=math.inf,
        tolerance=1e-6,
        passed=False,
        reason="oracle skipped",
    )
    record = strict_json(report.to_json())
    assert record["exact_decimal"] is None
    assert record["abs_diff"] is None
    assert record["pass"] is False


def test_batch_anchors_in_order(tmp_path, capsys):
    path = tmp_path / "cases.txt"
    path.write_text("2 2 0 1 0\n4 4 0 1 0\n")
    code, out, _ = run_cli(["batch", str(path)], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["exact"] for r in records] == ["1/2*pi", "1/3*pi"]
    assert all(r["status"] == "ok" for r in records)


def test_batch_comments_only(tmp_path, capsys):
    path = tmp_path / "cases.txt"
    path.write_text("# comment only\n")
    code, out, _ = run_cli(["batch", str(path)], capsys)
    assert code == 0
    assert out == ""


def test_batch_domain_error_reported_inline(tmp_path, capsys):
    path = tmp_path / "cases.txt"
    path.write_text("2 3 0 1 0\n")
    code, out, _ = run_cli(["batch", str(path)], capsys)
    assert code == 3
    record = json.loads(out)
    assert record["status"] == "domain_error"
    assert record["error"] == "a >= b"


def test_batch_parse_error_reported_inline(tmp_path, capsys):
    path = tmp_path / "cases.txt"
    path.write_text("2 2 0 1\n2 2 0 1 0\n")
    code, out, _ = run_cli(["batch", str(path)], capsys)
    assert code == 3
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["status"] == "parse_error"
    assert second["status"] == "ok"


def test_batch_unreadable_file(capsys):
    code, _, err = run_cli(["batch", "/nonexistent/input.txt"], capsys)
    assert code == 1
    assert "cannot read" in err


def test_batch_deterministic_output(tmp_path, capsys):
    path = tmp_path / "cases.txt"
    path.write_text("5 3 2 2 3\n3 2 0 -1 0\n")
    _, first, _ = run_cli(["batch", str(path)], capsys)
    _, second, _ = run_cli(["batch", str(path)], capsys)
    assert first == second


def test_exact_string_round_trip_through_cli_records(tmp_path, capsys):
    lines = []
    expected = []
    for a, b, c, p, q in [
        (2, 2, 0, 1, 0), (3, 2, 0, 1, 0), (6, 3, 1, 1, 2), (5, 3, 2, 2, 3),
        (4, 2, 3, 2, 1), (3, 2, 0, -2, 0), (7, 4, 2, 1, 1),
    ]:
        lines.append(f"{a} {b} {c} {p} {q}")
        expected.append(evaluate(IntegralParams(a, b, c, p, q)))
    path = tmp_path / "cases.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(["batch", str(path)], capsys)
    assert code == 0
    for line, value in zip(out.splitlines(), expected):
        assert parse_exact_value(json.loads(line)["exact"]) == value


def test_selftest_small_bounds(capsys):
    code, out, _ = run_cli(
        ["selftest", "--max-a", "4", "--max-c", "2", "--max-p", "2", "--max-q", "2",
         "--grid-max-a", "4", "--grid-max-c", "1", "--grid-max-p", "2", "--grid-max-q", "1"],
        capsys,
    )
    assert code == 0
    assert "identity sweep" in out
    assert "0 failures" in out


# 3000^3 * pi/3 needs relative precision 3.5e-17 to meet 1e-6: below double rounding.
UNVERIFIABLE_ARGS = ["-a", "4", "-b", "4", "-c", "0", "-p", "3000", "-q", "0"]
SMALL_SELFTEST = [
    "selftest", "--max-a", "2", "--max-c", "0", "--max-p", "1", "--max-q", "0",
    "--grid-max-a", "2", "--grid-max-c", "0", "--grid-max-p", "1", "--grid-max-q", "0",
]


def _disagreeing(real_verify):
    """A verify whose exact side is off by 1.0: a disagreement, not a refusal."""
    def broken_verify(params, tol, **kwargs):
        report = real_verify(params, tol, **kwargs)
        return VerifyReport(
            params=report.params,
            exact=ExactValue.pi_multiple(1),
            exact_decimal=report.exact_decimal + 1.0,
            oracle_estimate=report.oracle_estimate,
            oracle_error_bound=report.oracle_error_bound,
            abs_diff=abs(report.exact_decimal + 1.0 - report.oracle_estimate),
            tolerance=report.tolerance,
            passed=False,
        )

    return broken_verify


def test_verify_unverifiable_has_its_own_exit_code(capsys):
    code, out, _ = run_cli(["verify", *UNVERIFIABLE_ARGS], capsys)
    assert code == 5
    assert code == cli.EXIT_UNVERIFIABLE
    record = strict_json(out)
    assert record["pass"] is False
    assert record["oracle"] is None
    assert "rounding floor" in record["reason"]
    code, out, _ = run_cli(["verify", *UNVERIFIABLE_ARGS, "--format", "plain"], capsys)
    assert code == 5
    assert ": UNVERIFIABLE (" in out


def test_verify_overflow_keeps_stderr_clean():
    # The head of I(300, 300, 1, 100, 99) overflows; the refusal alone reports it.
    result = subprocess.run(
        [sys.executable, "-m", "sincint.cli", "verify", "-a", "300", "-b", "300", "-c", "1", "-p", "100", "-q", "99"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 5
    assert result.stderr == ""
    assert "double range" in strict_json(result.stdout)["reason"]


def test_verify_disagreement_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify", _disagreeing(cli.verify))
    code, out, _ = run_cli(
        ["verify", "-a", "2", "-b", "2", "-c", "0", "-p", "1", "-q", "0"], capsys
    )
    assert code == 4
    record = strict_json(out)
    assert record["pass"] is False
    assert "reason" not in record


def test_selftest_reports_injected_oracle_fault(capsys, monkeypatch):
    # Harness sanity: a corrupted evaluator must drive the selftest to exit 4.
    monkeypatch.setattr(cli, "verify", _disagreeing(cli.verify))
    code, out, _ = run_cli(SMALL_SELFTEST, capsys)
    assert code == 4
    assert "FIRST FAILURE (disagreement)" in out


def test_selftest_names_an_unverifiable_first_failure(capsys, monkeypatch):
    real_verify = cli.verify
    monkeypatch.setattr(
        cli, "verify", lambda params, tol, **kwargs: real_verify(IntegralParams(4, 4, 0, 3000, 0), tol)
    )
    code, out, _ = run_cli(SMALL_SELFTEST, capsys)
    assert code == 4
    assert "FIRST FAILURE (unverifiable)" in out


def test_console_script_available():
    result = subprocess.run(
        [sys.executable, "-m", "sincint.cli", "eval", "-a", "2", "-b", "2", "-c", "0", "-p", "1", "-q", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "1/2*pi = 1.5707963267948966"
