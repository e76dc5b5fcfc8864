"""Command-line interface: eval, verify, batch and selftest subcommands.

Exit codes discriminate failure classes so scripts can branch on them:
1 usage error, 2 domain error, 3 partial batch failure, 4 selftest failure or
a verify disagreement, 5 a verify the oracle could not certify (the report
carries a reason; this says nothing against the closed form).
The default verification tolerance can be set with the SINCINT_TOL
environment variable; --tol overrides it.  Either value must be a finite
number no smaller than MIN_TOL, or the command exits 1.  JSON output is
strict RFC 8259: a decimal outside double range is written as null.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .evaluator import evaluate
from .identities import identity_sweep
from .oracle import DEFAULT_TOL, MIN_TOL, _finite_or_none, to_decimal, verify
from .params import DomainError, IntegralParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_BATCH = 3
EXIT_SELFTEST = 4
EXIT_UNVERIFIABLE = 5


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; usage errors are exit 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tolerance(flag: str | None) -> float:
    """The tolerance from --tol, else SINCINT_TOL, else DEFAULT_TOL.

    Raises ValueError, naming the source, for a value that is not a finite
    number of at least MIN_TOL.
    """
    source, text = ("--tol", flag) if flag is not None else ("SINCINT_TOL", os.environ.get("SINCINT_TOL"))
    if text is None:
        return DEFAULT_TOL
    try:
        tol = float(text)
    except ValueError:
        raise ValueError(f"{source} {text!r} is not a number") from None
    if not math.isfinite(tol):
        raise ValueError(f"{source} {text!r} is not finite")
    if tol < MIN_TOL:
        raise ValueError(f"{source} {text!r} is below the oracle's floor {MIN_TOL}")
    return tol


def _json(record: dict) -> str:
    """Strict JSON: a float outside double range becomes null."""
    return json.dumps({key: _finite_or_none(value) for key, value in record.items()}, allow_nan=False)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-a", type=int, required=True, help="sine exponent (a >= b)")
    parser.add_argument("-b", type=int, required=True, help="power of x (>= 2, or 1 with --allow-b1)")
    parser.add_argument("-c", type=int, required=True, help="cosine exponent (>= 0)")
    parser.add_argument("-p", type=int, required=True, help="sine frequency (any sign)")
    parser.add_argument("-q", type=int, required=True, help="cosine frequency (any sign)")
    parser.add_argument("--allow-b1", action="store_true", help="accept b = 1 (odd a only)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sincint", description="Exact sin^a(px) cos^c(qx) / x^b integrals")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print the exact closed form and its decimal value")
    _add_param_flags(p_eval)
    p_eval.add_argument("--format", choices=("plain", "json"), default="plain")

    p_verify = sub.add_parser("verify", help="cross-check the closed form against quadrature")
    _add_param_flags(p_verify)
    p_verify.add_argument("--tol", default=None, help=f"absolute tolerance (>= {MIN_TOL})")
    p_verify.add_argument("--format", choices=("plain", "json"), default="json")

    p_batch = sub.add_parser("batch", help="evaluate one 'a b c p q' line per input row")
    p_batch.add_argument("input", help="file of whitespace-separated integers, # comments allowed")
    p_batch.add_argument("--format", choices=("plain", "json"), default="json")
    p_batch.add_argument("--allow-b1", action="store_true")

    p_self = sub.add_parser("selftest", help="run the identity sweep and an oracle grid")
    p_self.add_argument("--max-a", type=int, default=20)
    p_self.add_argument("--max-c", type=int, default=6)
    p_self.add_argument("--max-p", type=int, default=7)
    p_self.add_argument("--max-q", type=int, default=7)
    p_self.add_argument("--grid-max-a", type=int, default=6)
    p_self.add_argument("--grid-max-c", type=int, default=2)
    p_self.add_argument("--grid-max-p", type=int, default=2)
    p_self.add_argument("--grid-max-q", type=int, default=2)
    p_self.add_argument("--tol", default=None, help=f"absolute tolerance (>= {MIN_TOL})")
    return parser


def _record(params: IntegralParams, *, allow_b1: bool) -> dict:
    value = evaluate(params, allow_b1=allow_b1)
    return {
        "a": params.a,
        "b": params.b,
        "c": params.c,
        "p": params.p,
        "q": params.q,
        "exact": str(value),
        "decimal": to_decimal(value),
    }


def cmd_eval(args) -> int:
    try:
        params = IntegralParams(args.a, args.b, args.c, args.p, args.q)
        record = _record(params, allow_b1=args.allow_b1)
    except DomainError as exc:
        print(f"domain error: {exc} [{exc.constraint}]", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "json":
        print(_json(record))
    else:
        print(f"{record['exact']} = {record['decimal']!r}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        tol = _tolerance(args.tol)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        params = IntegralParams(args.a, args.b, args.c, args.p, args.q)
        report = verify(params, tol, allow_b1=args.allow_b1)
    except DomainError as exc:
        print(f"domain error: {exc} [{exc.constraint}]", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "json":
        print(report.to_json())
    else:
        verdict = "PASS" if report.passed else "UNVERIFIABLE" if report.reason else "FAIL"
        line = (
            f"{report.exact} = {report.exact_decimal!r} vs oracle {report.oracle_estimate!r} "
            f"(diff {report.abs_diff!r}, tol {report.tolerance!r}): {verdict}"
        )
        if report.reason:
            line += f" ({report.reason})"
        print(line)
    if report.passed:
        return EXIT_OK
    return EXIT_UNVERIFIABLE if report.reason is not None else EXIT_SELFTEST


def cmd_batch(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    any_failed = False
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        record = _batch_line(stripped, allow_b1=args.allow_b1)
        if record.get("status") != "ok":
            any_failed = True
        if args.format == "json":
            print(_json(record))
        else:
            if record["status"] == "ok":
                print(f"{record['a']} {record['b']} {record['c']} {record['p']} {record['q']} "
                      f"-> {record['exact']} = {record['decimal']!r}")
            else:
                print(f"{record.get('input', stripped)} -> {record['status']}: {record['error']}")
    return EXIT_BATCH if any_failed else EXIT_OK


def _batch_line(text: str, *, allow_b1: bool) -> dict:
    fields = text.split()
    if len(fields) != 5:
        return {"status": "parse_error", "input": text,
                "error": f"expected 5 integers, got {len(fields)} fields"}
    try:
        a, b, c, p, q = (int(f) for f in fields)
    except ValueError:
        return {"status": "parse_error", "input": text, "error": "fields must be integers"}
    try:
        params = IntegralParams(a, b, c, p, q)
        record = _record(params, allow_b1=allow_b1)
    except DomainError as exc:
        return {"a": a, "b": b, "c": c, "p": p, "q": q,
                "status": "domain_error", "error": exc.constraint}
    record["status"] = "ok"
    return record


def cmd_selftest(args) -> int:
    try:
        tol = _tolerance(args.tol)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sweep = identity_sweep(args.max_a, args.max_c, args.max_p, args.max_q)
    print(f"identity sweep: {sweep.checked} tuples, {len(sweep.failures)} failures")
    if not sweep.all_zero:
        worst = sweep.failures[0]
        print(f"FIRST FAILURE: identity tuple a={worst.a} c={worst.c} p={worst.p} q={worst.q} h={worst.h}")
        return EXIT_SELFTEST

    checked = 0
    for a in range(2, args.grid_max_a + 1):
        for b in range(2, a + 1):
            for c in range(0, args.grid_max_c + 1):
                for p in range(1, args.grid_max_p + 1):
                    for q in range(0, args.grid_max_q + 1):
                        report = verify(IntegralParams(a, b, c, p, q), tol)
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
    handlers = {
        "eval": cmd_eval,
        "verify": cmd_verify,
        "batch": cmd_batch,
        "selftest": cmd_selftest,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
