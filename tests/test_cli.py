"""CLI tests: output formats, exit codes, batch behavior, selftest."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sincint.cli as cli
import sincint.identities as identities
import sincint.oracle as oracle
from sincint import IntegralParams, SweepRecord, SweepReport, evaluate, parse_exact_value, verify
from sincint.oracle import VerifyReport
from sincint.exact import ExactValue

# The directory holding the package, for the PYTHONPATH of subprocess tests.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's refusal of a malformed command line
        code = exc.code
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


def test_eval_domain_error_names_constraint(capsys):
    # verify reports a domain error the same way, before any quadrature.
    for command in ("eval", "verify"):
        code, out, err = run_cli([command, "-a", "2", "-b", "3", "-c", "0", "-p", "1", "-q", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == "domain error: constraint violated: a >= b [a >= b]\n"


def test_eval_b1_needs_flag(capsys):
    code, _, err = run_cli(["eval", "-a", "1", "-b", "1", "-c", "0", "-p", "1", "-q", "0"], capsys)
    assert code == 2
    assert "b >= 2" in err
    # The gate runs after the parameters are built: a >= b is named first.
    code, _, err = run_cli(["eval", "-a", "0", "-b", "1", "-c", "0", "-p", "1", "-q", "0"], capsys)
    assert (code, err) == (2, "domain error: constraint violated: a >= b [a >= b]\n")
    code, out, _ = run_cli(
        ["eval", "-a", "1", "-b", "1", "-c", "0", "-p", "1", "-q", "0", "--allow-b1"], capsys
    )
    assert code == 0
    assert out.startswith("1/2*pi")


def test_verify_b1_needs_flag(capsys):
    args = ["verify", "-a", "3", "-b", "1", "-c", "0", "-p", "1", "-q", "0"]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert "b >= 2" in err
    code, out, _ = run_cli([*args, "--allow-b1"], capsys)
    assert code == 0
    record = strict_json(out)
    assert record["exact"] == "1/4*pi" and record["pass"] is True


def test_batch_refuses_b_one(tmp_path, capsys):
    # The library evaluates (3, 1, 0, 1, 0), but batch takes no --allow-b1.
    path = tmp_path / "cases.txt"
    path.write_text("3 1 0 1 0\n2 2 0 1 0\n")
    code, out, err = run_cli(["batch", str(path)], capsys)
    assert (code, err) == (3, "")
    refused, ok = map(strict_json, out.splitlines())
    assert refused == {"a": 3, "b": 1, "c": 0, "p": 1, "q": 0, "status": "domain_error", "error": "b >= 2"}
    assert ok["status"] == "ok" and ok["exact"] == "1/2*pi"


def test_options_without_a_caller_are_usage_errors(tmp_path, capsys):
    # eval prints plain text only, verify and batch print JSON only, batch refuses b = 1
    # and selftest runs at the default tolerance.
    path = tmp_path / "cases.txt"
    path.write_text("1 1 0 1 0\n2 2 0 1 0\n")
    for command, option in ((["eval", "-a", "3", "-b", "2", "-c", "0", "-p", "1", "-q", "0"], "--format json"),
                            (["eval", "-a", "3", "-b", "2", "-c", "0", "-p", "1", "-q", "0"], "--format plain"),
                            (["verify", "-a", "2", "-b", "2", "-c", "0", "-p", "1", "-q", "0"], "--format json"),
                            (["batch", str(path)], "--format json"),
                            (["batch", str(path)], "--allow-b1"),
                            (["selftest"], "--tol 1e-6")):
        code, out, err = run_cli([*command, *option.split()], capsys)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: unrecognized arguments: {option}\n")


def test_malformed_flags_exit_usage(capsys):
    for argv in (["eval", "-a", "x", "-b", "2", "-c", "0", "-p", "1", "-q", "0"], ["selftest", "--max-a", "3"]):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
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


@pytest.mark.parametrize("raw", ["abc", "nan", "1e-12", "", "1e-7"])
def test_tolerance_environment_variable_is_ignored(raw, capsys, monkeypatch):
    # --tol is the tolerance's only source; without it the default applies.
    monkeypatch.setenv("SINCINT_TOL", raw)
    code, out, _ = run_cli(["verify", "-a", "2", "-b", "2", "-c", "0", "-p", "1", "-q", "0"], capsys)
    assert code == 0
    assert json.loads(out)["tol"] == 1e-6


@pytest.mark.parametrize("command", ["verify", "selftest"])
@pytest.mark.parametrize("tol", ["1e-10", "nan", "inf", "-1", "abc"])
def test_invalid_tol_flag_is_a_usage_error(command, tol, capsys):
    # verify refuses, in one line, a tolerance its oracle cannot certify; selftest
    # takes no options, so its parser refuses every --tol after a usage line.
    argv = [command, "--tol", tol]
    if command == "verify":
        argv += ["-a", "2", "-b", "2", "-c", "0", "-p", "1", "-q", "0"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    *usage, message = err.splitlines()
    assert len(usage) == (0 if command == "verify" else 1)
    assert "--tol" in message and tol in message


# float() reads these as 10.0, 1.0 (an Arabic-Indic digit) and 1e-6 (a fullwidth digit).
NOT_ASCII_DECIMALS = ["1_0", "\u0661", "\uff11e-6"]


@pytest.mark.parametrize(
    "tol", ["1e-8", "0.00000001", "9.999999999999999e-09", "1e300", "inf", "nan", "-0.0", *NOT_ASCII_DECIMALS]
)
def test_cli_and_library_accept_the_same_tolerances(tol, capsys):
    # p = 0 makes the case instant; 1e-8 is MIN_TOL itself and is accepted.  Like
    # the integer fields, --tol reads ASCII decimal literals only.
    code, out, err = run_cli(["verify", "-a", "2", "-b", "2", "-c", "0", "-p", "0", "-q", "0", "--tol", tol], capsys)
    try:
        oracle._check_tol(float(tol))
    except ValueError:
        assert (code, out, len(err.splitlines())) == (1, "", 1)
    else:
        if tol in NOT_ASCII_DECIMALS:
            assert (code, out, err) == (1, "", f"usage error: --tol {tol!r} is not a finite number >= 1e-08\n")
        else:
            assert code == 0
            assert json.loads(out)["tol"] == float(tol)
    assert (code == 0) == (tol in {"1e-8", "0.00000001", "1e300"})


def test_eval_out_of_double_range_prints_inf(capsys):
    code, out, _ = run_cli(["eval", *OVERFLOW_ARGS], capsys)
    assert code == 0
    assert out == f"{evaluate(IntegralParams(300, 300, 0, 1000, 0))} = inf\n"


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
        exact=ExactValue(pi_coeff=10**400),
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


def test_records_open_with_the_case_fields_in_order(tmp_path, capsys):
    path = tmp_path / "cases.txt"
    path.write_text("3 2 0 1 0\n2 3 0 1 0\n")
    code, out, _ = run_cli(["batch", str(path)], capsys)
    ok, refused = map(json.loads, out.splitlines())
    assert (code, ok["status"], refused["status"]) == (3, "ok", "domain_error")
    report = json.loads(verify(IntegralParams(3, 2, 0, 1, 0)).to_json())
    for record in (ok, refused, report):
        assert list(record)[:5] == ["a", "b", "c", "p", "q"]


def test_factoring_over_the_work_limit_is_a_domain_error(tmp_path, capsys):
    # |L| = p + q = 2*10^13 + 21 is prime: refused before any trial division.
    args = ["-a", "3", "-b", "2", "-c", "1", "-p", "10000000000000", "-q", "10000000000021"]
    for command in ("eval", "verify"):
        start = time.perf_counter()
        code, out, err = run_cli([command, *args], capsys)
        assert time.perf_counter() - start < 0.1
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("domain error: ") and "[trial divisions <= 10000000]" in err
    path = tmp_path / "cases.txt"
    path.write_text("3 2 1 10000000000000 10000000000021\n2 2 0 1 0\n")
    start = time.perf_counter()
    code, out, _ = run_cli(["batch", str(path)], capsys)
    assert time.perf_counter() - start < 0.1
    assert code == 3
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["status"] == "domain_error" and first["error"] == "trial divisions <= 10000000"
    assert second["status"] == "ok"


def test_big_integer_work_over_the_limit_is_a_domain_error(tmp_path, capsys):
    # (100001, 2, 0, 1, 0) does not finish in 10 s unrefused; each command
    # refuses it before the spectrum, and the refusal itself takes under 1 ms.
    args = ["-a", "100001", "-b", "2", "-c", "0", "-p", "1", "-q", "0"]
    for command in ("eval", "verify"):
        start = time.perf_counter()
        code, out, err = run_cli([command, *args], capsys)
        assert time.perf_counter() - start < 0.1
        assert code == 2
        assert out == ""
        assert err.startswith("domain error: ") and err.endswith(" [bit operations <= 1000000000]\n")
    path = tmp_path / "cases.txt"
    path.write_text("100001 2 0 1 0\n2 2 0 1 0\n")
    start = time.perf_counter()
    code, out, _ = run_cli(["batch", str(path)], capsys)
    assert time.perf_counter() - start < 0.1
    assert code == 3
    first, second = (json.loads(line) for line in out.splitlines())
    assert first == {"a": 100001, "b": 2, "c": 0, "p": 1, "q": 0,
                     "status": "domain_error", "error": "bit operations <= 1000000000"}
    assert second["status"] == "ok"
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        assert cli._batch_line("100001 2 0 1 0")["status"] == "domain_error"
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 1e-3


# A coefficient of more than 4,300 digits: the denominator 2^1500 * 1500! of
# I(1501, 1501, 0, 1, 0), and the scale (10^100)^49 of I(50, 50, 0, 10^100, 0).
OVER_DIGITS = [["-a", "1501", "-b", "1501", "-c", "0", "-p", "1", "-q", "0"],
               ["-a", "50", "-b", "50", "-c", "0", "-p", "1" + "0" * 100, "-q", "0"]]
DIGITS_ERROR = "domain error: the closed form has a coefficient of more than 4300 digits [exact value digits <= 4300]\n"


@pytest.mark.parametrize("args", OVER_DIGITS, ids=["denominator", "scale"])
def test_values_over_the_digit_limit_are_domain_errors(args, capsys):
    for command in ("eval", "verify"):
        code, out, err = run_cli([command, *args], capsys)
        assert (code, out, err) == (2, "", DIGITS_ERROR)
    # The largest value below the limit still prints.
    code, out, _ = run_cli(["eval", "-a", "1401", "-b", "1401", "-c", "0", "-p", "1", "-q", "0"], capsys)
    assert code == 0 and len(out) == 8430


def test_batch_keeps_going_past_over_long_values_and_fields(tmp_path, capsys):
    path = tmp_path / "cases.txt"
    long_field = "1" * 4301
    path.write_text(f"2 2 0 1 0\n1501 1501 0 1 0\n50 50 0 1{'0' * 100} 0\n2 2 0 {long_field} 0\n3 2 0 1 0\n")
    code, out, err = run_cli(["batch", str(path)], capsys)
    assert code == 3 and err == ""
    records = [strict_json(line) for line in out.splitlines()]
    assert [r["status"] for r in records] == ["ok", "domain_error", "domain_error", "parse_error", "ok"]
    assert records[1]["error"] == records[2]["error"] == "exact value digits <= 4300"
    assert records[3] == {"status": "parse_error", "input": f"2 2 0 {long_field} 0",
                          "error": "fields must have at most 4300 digits"}
    assert records[4]["exact"] == "3/4*ln(3)"
    assert cli._batch_line(f"2 2 0 -{'0' * 4300} 0")["status"] == "ok"


def test_scale_counts_in_the_work_estimate(capsys):
    # g^(b-1) = 10^8000000 is refused before any power is built.
    start = time.perf_counter()
    code, out, err = run_cli(["eval", "-a", "2001", "-b", "2001", "-c", "0", "-p", "1" + "0" * 4000, "-q", "0"], capsys)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (2, "")
    assert err.endswith(" [bit operations <= 1000000000]\n")


def test_estimates_past_the_digit_limit_still_print(capsys):
    # The refusals of a 4,300-digit a and of a 4,299-digit coprime p name estimates
    # of more than 4,300 digits, which str() alone would refuse.
    code, out, err = run_cli(["eval", "-a", "1" * 4300, "-b", "2", "-c", "0", "-p", "1", "-q", "0"], capsys)
    assert (code, out) == (2, "")
    assert err == "domain error: the closed form needs about 10^12890 bit operations [bit operations <= 1000000000]\n"
    code, out, err = run_cli(["verify", "-a", "2", "-b", "2", "-c", "1", "-p", "1" + "0" * 4297 + "1", "-q", "1"], capsys)
    assert (code, err) == (5, "")
    assert strict_json(out)["reason"] == "one period needs 10^4300 evaluations, budget is 6000000"


def test_digit_limit_does_not_follow_the_interpreter_limit(capsys):
    # The limit is the package's own: lifting CPython's int/str limit changes no refusal.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for args in OVER_DIGITS:
            assert run_cli(["eval", *args], capsys) == (2, "", DIGITS_ERROR)
        assert cli._batch_line(f"2 2 0 {'1' * 4301} 0")["status"] == "parse_error"
    finally:
        sys.set_int_max_str_digits(old)


_SMALL = st.integers(-3, 12).map(str)
_HUGE = st.builds(str.__mul__, st.sampled_from("0123456789"), st.integers(4000, 5000))
_ANY_LENGTH = st.builds(str.__mul__, st.sampled_from("0123456789"), st.integers(1, 5000))
_SIGN = st.sampled_from(["", "+", "-"])
_JUNK = st.sampled_from(["x", "1_0", "\u0663", "1.5", "0x10", "--1", "#", "nan"])


def _signed(digits):
    return st.builds(str.__add__, _SIGN, digits)


# a, b and c are small or over 4,000 digits, so every admitted case is small and fast;
# p and q take any length up to 5,000 digits.
_CASE = st.tuples(*[_signed(st.one_of(_SMALL, _HUGE))] * 3,
                  *[_signed(st.one_of(_SMALL, _ANY_LENGTH, st.integers(0, 10**30).map(str)))] * 2).map(" ".join)
_TOKENS = st.lists(st.one_of(_JUNK, _signed(_SMALL), _signed(_ANY_LENGTH)), max_size=7).map(" \t".join)
_LINE = st.one_of(_CASE, _CASE, _TOKENS, st.just("# comment 2 2 0 1 0"), st.just("   "))


@settings(max_examples=60, deadline=None)
@given(st.lists(_LINE, min_size=1, max_size=6), st.booleans(), st.sampled_from(["\n", "\r\n"]))
def test_every_batch_line_gives_one_strict_record(lines, bom, newline):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cases.txt")
        with open(path, "w", encoding="utf-8-sig" if bom else "utf-8", newline="") as fh:
            fh.write(newline.join(lines) + newline)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["batch", path])
    expected = [line for line in lines if line.strip() and not line.strip().startswith("#")]
    records = [strict_json(line) for line in out.getvalue().splitlines()]
    assert len(records) == len(expected)
    assert {r["status"] for r in records} <= {"ok", "parse_error", "domain_error"}
    assert code == (0 if all(r["status"] == "ok" for r in records) else 3)
    assert err.getvalue() == ""


_A_B = st.integers(1, 30).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, a + 1)))


@settings(max_examples=80, deadline=None)
@given(_A_B, st.integers(0, 8), st.integers(-60, 60), st.integers(-60, 60),
       st.sampled_from(["eval", "verify"]), st.booleans())
def test_eval_and_verify_exit_with_one_clean_output(a_b, c, p, q, command, allow_b1):
    # Well-formed commands of small magnitude, both frequency signs: a value, a
    # domain error or an unverifiable report, never a disagreement (exit 4).
    a, b = a_b
    argv = [command, "-a", str(a), "-b", str(b), "-c", str(c), "-p", str(p), "-q", str(q)]
    argv += ["--allow-b1"] * allow_b1
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 5), argv
    assert err.getvalue().count("\n") == (code == 2)
    if code == 2:
        assert out.getvalue() == ""
        return
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    line = text[:-1]
    if command == "eval":
        exact, _, decimal = line.partition(" = ")
        assert str(parse_exact_value(exact)) == exact
        assert repr(float(decimal)) == decimal
    else:
        assert isinstance(strict_json(line), dict)


def test_integer_fields_are_ascii_digits_only(tmp_path, capsys):
    # int() alone reads "1_0" as 10 and the Arabic-Indic digit three as 3.
    path = tmp_path / "cases.txt"
    path.write_text("3 2 0 1_0 0\n3 2 0 \u0663 0\n3 2 0 +1 -0\n", encoding="utf-8")
    code, out, _ = run_cli(["batch", str(path)], capsys)
    assert code == 3
    first, second, third = (json.loads(line) for line in out.splitlines())
    assert first == {"status": "parse_error", "input": "3 2 0 1_0 0", "error": "fields must be integers"}
    assert second == {"status": "parse_error", "input": "3 2 0 \u0663 0", "error": "fields must be integers"}
    assert third["status"] == "ok" and (third["p"], third["q"]) == (1, 0)
    for value in ("1_0", "\u0663", " 1", "1.0", "", "1" * 4301):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", "-a", "3", "-b", "2", "-c", "0", "-p", value, "-q", "0"])
        assert excinfo.value.code == 1
        assert f"invalid integer value: {value!r}" in capsys.readouterr().err
    code, out, _ = run_cli(["eval", "-a", "+3", "-b", "2", "-c", "0", "-p", "-1", "-q", "0"], capsys)
    assert code == 0 and out.startswith("-3/4*ln(3) = ")


def test_batch_reads_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "cases.txt"
    path.write_bytes("\ufeff2 2 0 1 0\n3 2 0 1 0\n".encode("utf-8"))
    code, out, _ = run_cli(["batch", str(path)], capsys)
    assert code == 0
    assert strict_json(out.splitlines()[0]) == {"a": 2, "b": 2, "c": 0, "p": 1, "q": 0,
                                                "exact": "1/2*pi", "decimal": 1.5707963267948966, "status": "ok"}


def test_batch_parse_error_reported_inline(tmp_path, capsys):
    path = tmp_path / "cases.txt"
    path.write_text("2 2 0 1\n2 2 0 1 0\n1 2 x 4 5\n")
    code, out, _ = run_cli(["batch", str(path)], capsys)
    assert code == 3
    first, second, third = (json.loads(line) for line in out.splitlines())
    assert first["status"] == "parse_error"
    assert second["status"] == "ok"
    assert third == {"status": "parse_error", "input": "1 2 x 4 5", "error": "fields must be integers"}


def test_batch_unreadable_file(tmp_path, capsys):
    code, _, err = run_cli(["batch", "/nonexistent/input.txt"], capsys)
    assert code == 1
    assert "cannot read" in err
    not_utf8 = tmp_path / "bad.txt"
    not_utf8.write_bytes(b"\xff\xfe2 2 0 1 0\n")
    code, out, err = run_cli(["batch", str(not_utf8)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"cannot read {not_utf8}: ")


def test_batch_keeps_the_records_before_a_late_decode_error(tmp_path, capsys):
    # 4,000 lines of 10 bytes; the invalid byte at offset 20,000 starts line 2,001,
    # 3,616 bytes into the third 8 KiB chunk that text-mode decoding reads.
    data = bytearray(b"2 2 0 1 0\n" * 4000)
    data[20000] = 0xFF
    path = tmp_path / "late.txt"
    path.write_bytes(bytes(data))
    code, out, err = run_cli(["batch", str(path)], capsys)
    assert code == 1
    records = out.splitlines()
    assert len(records) == 2000
    assert all(strict_json(line) == {"a": 2, "b": 2, "c": 0, "p": 1, "q": 0, "exact": "1/2*pi",
                                     "decimal": 1.5707963267948966, "status": "ok"} for line in records)
    assert err == f"cannot read {path}: 'utf-8' codec can't decode byte 0xff on line 2001: invalid start byte\n"


def test_batch_decode_error_counts_lines_as_text_mode_does(tmp_path, capsys):
    # Lines end at CR, LF or CRLF, also where a CR ends one 8 KiB chunk and LF starts the next.
    path = tmp_path / "newlines.txt"
    path.write_bytes(b"2 2 0 1 0\r" * 2 + b"2 2 0 1 0\r\n" * 2 + b" " * (8192 - 43) + b"\r\n\xe2\x82\n")
    code, out, err = run_cli(["batch", str(path)], capsys)
    assert (code, len(out.splitlines())) == (1, 4)
    assert err == f"cannot read {path}: 'utf-8' codec can't decode byte 0xe2 on line 6: invalid continuation byte\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_batch_stops_at_a_decode_error_in_a_pipe_still_open():
    # The writer keeps the pipe open, so reading on past the bad line would never end.
    proc = subprocess.Popen([sys.executable, "-m", "sincint.cli", "batch", "/dev/stdin"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": SRC})
    try:
        proc.stdin.write(b"2 2 0 1 0\n" * 3 + b"\xff\n" + b"3 2 0 1 0\n")
        proc.stdin.flush()
        code = proc.wait(timeout=30)
    finally:
        proc.kill()
        out, err = proc.communicate()
    assert code == 1
    assert len(out.splitlines()) == 3
    assert err == b"cannot read /dev/stdin: 'utf-8' codec can't decode byte 0xff on line 4: invalid start byte\n"


def test_batch_into_a_closed_pipe_exits_141_without_a_traceback(tmp_path):
    # 20,000 records are about 2 MB, far past the pipe's and stdout's buffers.
    path = tmp_path / "cases.txt"
    path.write_text("2 2 0 1 0\n" * 20000)
    proc = subprocess.Popen([sys.executable, "-m", "sincint.cli", "batch", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert strict_json(proc.stdout.readline())["status"] == "ok"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert "Traceback" not in err
    assert proc.returncode == cli.EXIT_PIPE == 141


def test_short_output_into_a_closed_pipe_exits_141_without_an_error():
    # One line stays in stdout's buffer (PYTHONUNBUFFERED unset) until it is
    # flushed, so the closed pipe is met by that flush and not by print.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run([sys.executable, "-m", "sincint.cli", "eval", "-a", "3", "-b", "3", "-c", "0",
                               "-p", "1", "-q", "0"], stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 141


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
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert out == ("identity sweep: 44800 tuples, 0 failures\n"
                   "boundary identity for every p, q with a <= 20, c <= 6: 26600 tuples, 0 failures\n"
                   "oracle grid: 270 cases, 0 failures\n")


# 3000^3 * pi/3 needs relative precision 3.5e-17 to meet 1e-6: below double rounding.
UNVERIFIABLE_ARGS = ["-a", "4", "-b", "4", "-c", "0", "-p", "3000", "-q", "0"]


def _disagreeing(real_verify):
    """A verify whose exact side is off by 1.0: a disagreement, not a refusal."""
    def broken_verify(params, tol, **kwargs):
        report = real_verify(params, tol, **kwargs)
        return VerifyReport(
            params=report.params,
            exact=ExactValue(pi_coeff=1),
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


def test_selftest_names_a_failing_identity_tuple(capsys, monkeypatch):
    monkeypatch.setattr(identities, "_boundary_values", lambda weights, hs: [int(h == 1) for h in hs])
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 4
    assert "identity sweep: 44800 tuples, 4032 failures" in out
    assert "FIRST FAILURE: identity tuple a=3 c=0 p=0 q=0 h=1" in out


def test_selftest_names_a_failing_tuple_of_the_every_frequency_box(capsys, monkeypatch):
    real_sweep = cli.identity_sweep

    def sweep(*box):
        report = real_sweep(*box)
        return SweepReport(report.checked, (SweepRecord(4, 0, 18, 1, 2),)) if box[2] == 18 else report

    monkeypatch.setattr(cli, "identity_sweep", sweep)
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 4
    assert out == ("identity sweep: 44800 tuples, 0 failures\n"
                   "boundary identity for every p, q with a <= 20, c <= 6: 26600 tuples, 1 failures\n"
                   "FIRST FAILURE: identity tuple a=4 c=0 p=18 q=1 h=2\n")


def test_selftest_reports_injected_oracle_fault(capsys, monkeypatch):
    # Harness sanity: a corrupted evaluator must drive the selftest to exit 4.
    monkeypatch.setattr(cli, "verify", _disagreeing(cli.verify))
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 4
    assert "FIRST FAILURE (disagreement)" in out


def test_selftest_names_an_unverifiable_first_failure(capsys, monkeypatch):
    real_verify = cli.verify
    monkeypatch.setattr(
        cli, "verify", lambda params, tol, **kwargs: real_verify(IntegralParams(4, 4, 0, 3000, 0), tol)
    )
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 4
    assert "FIRST FAILURE (unverifiable)" in out


@pytest.mark.parametrize("code, loads_numpy", [
    ("import sincint, sincint.cli", False),
    ("assert cli.main(['eval', '-a', '3', '-b', '3', '-c', '0', '-p', '1', '-q', '0']) == 0", False),
    ("assert cli.main(['batch', sys.argv[1]]) == 3", False),
    ("assert cli.main(['verify', '-a', '2', '-b', '2', '-c', '0', '-p', '1', '-q', '0', '--tol', 'nan']) == 1", False),
    # The quadrature's module must not take the place of the function sincint.quadrature.
    ("import sincint, sincint.numeric\n"
     "sincint.quadrature(sincint.IntegralParams(3, 3, 0, 1, 0))\n"
     "assert sincint.quadrature is sincint.oracle.quadrature", True),
], ids=["import", "eval", "batch", "usage-error", "quadrature"])
def test_numpy_loads_with_the_first_quadrature_only(code, loads_numpy, tmp_path):
    # mpmath, a test dependency, is never loaded by the package.
    cases = tmp_path / "cases.txt"
    cases.write_text("3 2 0 1 0\n4 3 1 2 1\n3 1 0 1 0\n")
    script = f"import sys\nfrom sincint import cli\n{code}\nprint('numpy' in sys.modules, 'mpmath' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", script, str(cases)], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{loads_numpy} False"


@pytest.mark.parametrize("argv, expected_code", [
    (["eval", "-a", "6", "-b", "3", "-c", "1", "-p", "1", "-q", "2"], 0),
    (["batch", "CASES"], 3),  # the b = 1 line is a domain error
    (["verify", "-a", "4", "-b", "4", "-c", "0", "-p", "1", "-q", "0"], 0),
], ids=["eval", "batch", "verify"])
def test_commands_run_the_same_where_mpmath_cannot_be_imported(argv, expected_code, tmp_path):
    cases = tmp_path / "cases.txt"
    cases.write_text("3 2 0 1 0\n4 3 1 2 1\n6 3 1 1 2\n5 5 0 1 0\n3 1 0 1 0\n")
    argv = [str(cases) if arg == "CASES" else arg for arg in argv]
    runs = []
    for block in ("", "sys.modules['mpmath'] = None\n"):  # None makes import mpmath raise ImportError
        script = f"import sys\n{block}from sincint import cli\nsys.exit(cli.main(sys.argv[1:]))"
        result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": SRC})
        assert result.stderr == ""
        runs.append((result.returncode, result.stdout))
    assert runs[0] == runs[1]
    assert runs[0][0] == expected_code and runs[0][1]


def test_console_script_available():
    result = subprocess.run(
        [sys.executable, "-m", "sincint.cli", "eval", "-a", "2", "-b", "2", "-c", "0", "-p", "1", "-q", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "1/2*pi = 1.5707963267948966"
