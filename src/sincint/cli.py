"""Command-line interface: eval, verify, batch and selftest subcommands.

Exit codes discriminate failure classes so scripts can branch on them:
1 usage error, 2 domain error, 3 partial batch failure, 4 selftest failure or
a verify disagreement, 5 a verify the oracle could not certify (the report
carries a reason; this says nothing against the closed form), 141 (128 +
SIGPIPE, as a shell reports for cat) when the reader of stdout closed it early.
batch reads its input a line at a time; a read or decode error part-way
through keeps the records already printed, adds one "cannot read" line on
stderr and exits 1.  A decode error is met at the line of the undecodable
byte, after the records of every line before it, and the message names that line.
verify's --tol sets its tolerance (default DEFAULT_TOL); a value that is not
an ASCII decimal literal of a finite number no smaller than MIN_TOL exits 1.
b = 1 needs --allow-b1, which only eval and verify take.  eval prints
"exact = decimal" (inf outside double range); verify and batch print strict
RFC 8259 JSON, where a decimal outside double range is written as null.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterator

from .evaluator import evaluate
from .exact import _MAX_DIGITS, to_decimal
from .identities import identity_sweep
from .oracle import DEFAULT_TOL, MIN_TOL, _check_tol, _json_line, verify
from .params import FIELDS, DomainError, IntegralParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_BATCH = 3
EXIT_SELFTEST = 4
EXIT_UNVERIFIABLE = 5
EXIT_PIPE = 141
# int() and float() alone also read "1_0", blanks around the number and non-ASCII digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; usage errors are exit 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _integer(text: str) -> int:
    if _INTEGER.fullmatch(text) is None or len(text.lstrip("+-")) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sincint", description="Exact sin^a(px) cos^c(qx) / x^b integrals")
    sub = parser.add_subparsers(dest="command", required=True)

    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("-a", type=_integer, required=True, help="sine exponent (a >= b)")
    params.add_argument("-b", type=_integer, required=True, help="power of x (>= 2, or 1 with --allow-b1)")
    params.add_argument("-c", type=_integer, required=True, help="cosine exponent (>= 0)")
    params.add_argument("-p", type=_integer, required=True, help="sine frequency (any sign)")
    params.add_argument("-q", type=_integer, required=True, help="cosine frequency (any sign)")
    params.add_argument("--allow-b1", action="store_true", help="accept b = 1 (odd a only)")

    p_eval = sub.add_parser("eval", parents=[params], help="print the exact closed form and its decimal value")
    p_eval.set_defaults(run=cmd_eval)

    p_verify = sub.add_parser("verify", parents=[params], help="cross-check the closed form against quadrature")
    p_verify.add_argument("--tol", default=repr(DEFAULT_TOL), help=f"absolute tolerance (>= {MIN_TOL})")
    p_verify.set_defaults(run=cmd_verify)

    p_batch = sub.add_parser("batch", help="evaluate one 'a b c p q' line per input row")
    p_batch.add_argument("input", help="whitespace-separated integers; lines whose first non-blank is # are comments")
    p_batch.set_defaults(run=cmd_batch)

    p_self = sub.add_parser("selftest", help="run the identity sweep and an oracle grid")
    p_self.set_defaults(run=cmd_selftest)
    return parser


def _admit(params: IntegralParams, allow_b1: bool) -> IntegralParams:
    if params.b == 1 and not allow_b1:  # the CLI's one b = 1 gate
        raise DomainError("b >= 2", "b = 1 is only supported with the extension flag (allow_b1)")
    return params


def cmd_eval(args) -> int:
    value = evaluate(_admit(IntegralParams(args.a, args.b, args.c, args.p, args.q), args.allow_b1))
    print(f"{value} = {to_decimal(value)!r}")
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _admit(IntegralParams(args.a, args.b, args.c, args.p, args.q), args.allow_b1)
    report = verify(params, args.tol)
    print(report.to_json())
    if report.passed:
        return EXIT_OK
    return EXIT_UNVERIFIABLE if report.reason is not None else EXIT_SELFTEST


def cmd_batch(args) -> int:
    read_errors: list[str] = []
    any_failed = False
    for line in _read_lines(args.input, read_errors):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        record = _batch_line(stripped)
        if record.get("status") != "ok":
            any_failed = True
        print(_json_line(record))
    if read_errors:
        print(f"cannot read {args.input}: {read_errors[0]}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_BATCH if any_failed else EXIT_OK


def _read_lines(path: str, errors: list[str]) -> Iterator[str]:
    """The lines of path as they are consumed, so memory does not grow with the file.

    An error opening, reading or decoding it ends the lines and its message
    is appended to errors; a decoding error names the file's line.  Errors
    writing the output are raised where they happen, in the caller, and are
    never taken for it.
    """
    try:
        # surrogateescape defers a decoding error to its own line: an undecodable
        # byte becomes a lone surrogate, which valid UTF-8 never gives.
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
            for number, line in enumerate(fh, 1):
                if not line.isascii():
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        bad = exc.object[exc.start]
                        errors.append(f"'utf-8' codec can't decode byte 0x{bad:02x} on line {number}: {exc.reason}")
                        return
                yield line
    except OSError as exc:
        errors.append(str(exc))


def _batch_line(text: str) -> dict:
    fields = text.split()
    if len(fields) != 5:
        return {"status": "parse_error", "input": text,
                "error": f"expected 5 integers, got {len(fields)} fields"}
    if not all(map(_INTEGER.fullmatch, fields)):
        return {"status": "parse_error", "input": text, "error": "fields must be integers"}
    if any(len(field.lstrip("+-")) > _MAX_DIGITS for field in fields):  # int() would refuse them
        return {"status": "parse_error", "input": text, "error": f"fields must have at most {_MAX_DIGITS} digits"}
    values = list(map(int, fields))
    try:
        params = _admit(IntegralParams(*values), False)
        value = evaluate(params)
    except DomainError as exc:
        return dict(zip(FIELDS, values), status="domain_error", error=exc.constraint)
    return {**vars(params), "exact": str(value), "decimal": to_decimal(value), "status": "ok"}


def cmd_selftest(args) -> int:
    """Sweep the boundary identity over a <= 20, c <= 6, p, q <= 7 (44,800 tuples)
    and over p <= 18, q <= 1 (26,600), which proves it for every p and q (see
    identity_sweep), then verify every grid case with a <= 6 and c, p, q <= 2 (270)."""
    for label, box in (("identity sweep", (20, 6, 7, 7)),
                       ("boundary identity for every p, q with a <= 20, c <= 6", (20, 6, 18, 1))):
        sweep = identity_sweep(*box)
        print(f"{label}: {sweep.checked} tuples, {len(sweep.failures)} failures")
        if not sweep.all_zero:
            worst = sweep.failures[0]
            print(f"FIRST FAILURE: identity tuple a={worst.a} c={worst.c} p={worst.p} q={worst.q} h={worst.h}")
            return EXIT_SELFTEST

    checked = 0
    for a in range(2, 7):
        for b in range(2, a + 1):
            for c in range(3):
                for p in range(1, 3):
                    for q in range(3):
                        report = verify(IntegralParams(a, b, c, p, q), DEFAULT_TOL)
                        checked += 1
                        if not report.passed:
                            print(f"oracle grid: {checked} cases checked before failure")
                            kind = "unverifiable" if report.reason is not None else "disagreement"
                            print(f"FIRST FAILURE ({kind}): {report.to_json()}")
                            return EXIT_SELFTEST
    print(f"oracle grid: {checked} cases, 0 failures")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "tol" in args:
        text = args.tol
        try:
            if _DECIMAL.fullmatch(text) is None:
                raise ValueError(text)
            args.tol = _check_tol(float(text))
        except ValueError:
            print(f"usage error: --tol {text!r} is not a finite number >= {MIN_TOL}", file=sys.stderr)
            return EXIT_USAGE
    try:
        code = args.run(args)
        sys.stdout.flush()  # output still buffered meets a closed pipe here, not at exit
        return code
    except DomainError as exc:
        print(f"domain error: {exc} [{exc.constraint}]", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # The reader closed stdout (sincint batch F | head -1).  Pointing stdout
        # at devnull keeps the interpreter's final flush from raising again
        # (the Python docs' note on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
