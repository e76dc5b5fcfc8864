"""Run one benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE --workdir DIR [--setup-only] [--spans PATH]

``run.py`` starts this script; each workload runs in its own process so that
set-up time and peak memory belong to that workload alone.  DIR is a
directory the caller owns and removes; the batch input file is written there.  The script
imports ``sincint`` from the checkout's ``src`` directory, makes one warm-up
call and prints ``READY``.  It then drives the workload as a closed loop,
one operation after the previous one returned, until SECONDS of timed wall
time have passed and the workload's minimum of operations is done, checks every
output and prints the result as one JSON line.

With TRACE 1 every group of cases runs twice, once with the tracing wrappers
installed and once without, in alternating order; the per-layer metrics come
from the traced passes and ``trace.overhead_ratio`` from the pair.
"""

from __future__ import annotations

import argparse
import contextlib
from array import array
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics
from workloads import (
    WORKLOADS,
    VERIFY_TOL,
    Checker,
    case_stream,
    coeff_bits,
    spectrum_terms,
    sweep_tuple_count,
)

ROOT = Path(__file__).resolve().parent.parent


def import_package():
    """Import sincint from this checkout's src, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sincint
        import sincint.cli  # noqa: F401  (set-up covers the CLI import too)
    except ImportError as exc:
        raise SystemExit(f"cannot import sincint from {src}: {exc}")
    if Path(sincint.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"sincint was imported from {sincint.__file__}, not from {src}")
    return sincint


class StampingWriter(io.TextIOBase):
    """Stand-in for stdout that keeps each output line and when it completed."""

    def __init__(self):
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self._parts: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if "\n" not in text:
            self._parts.append(text)
            return len(text)
        now = perf_counter()
        *complete, rest = text.split("\n")
        for piece in complete:
            self._parts.append(piece)
            self.lines.append("".join(self._parts))
            self._parts = []
            self.stamps.append(now)
        if rest:
            self._parts.append(rest)
        return len(text)


@dataclass
class Chunk:
    """One timed call group: per-case outputs and operation boundaries."""

    outputs: list
    starts: list[float]
    ends: list[float]
    wall: float
    errors: list[str] = field(default_factory=list)


@dataclass
class Outcome:
    """What the checks learned from one case."""

    digest: str  # exact part of the output, hashed into output_sha256
    passed: bool
    error: str | None = None
    cases: int = 1  # boundary tuples for certify, else 1
    terms: int = 0
    log_terms: int = 0
    bits: int = 0
    omega: int = 0
    bound_to_tol: float | None = None
    unverifiable: bool = False


class BatchRunner:
    """`sincint batch FILE` through cli.main, one output line per case."""

    def __init__(self, sincint, workdir, checker):
        self.cli = sincint.cli
        self.path = os.path.join(workdir, "lines.txt")
        self.checker = checker

    def warm_up(self):
        self.call([("10 5 4 5 5", "ok")])

    def call(self, cases) -> Chunk:
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{line}\n" for line, _ in cases))
        writer = StampingWriter()
        t0 = perf_counter()
        with contextlib.redirect_stdout(writer):
            code = self.cli.main(["batch", self.path])
        t1 = perf_counter()
        chunk = Chunk(writer.lines, [t0] + writer.stamps[:-1], writer.stamps, t1 - t0)
        expected_code = 0 if all(status == "ok" for _, status in cases) else 3
        if code != expected_code:
            chunk.errors.append(f"batch exit code {code}, expected {expected_code}")
        if len(writer.lines) != len(cases):
            raise SystemExit(f"batch printed {len(writer.lines)} lines for {len(cases)} inputs")
        return chunk

    def inspect(self, case, line: str) -> Outcome:
        text, expected = case
        error, value = self.checker.batch_line(line, expected)
        outcome = Outcome(line, error is None, error)
        if value is not None:
            a, _, c, p, _ = (int(f) for f in text.split())
            outcome.terms = spectrum_terms(a, c, p)
            outcome.log_terms = len(value.log_coeffs)
            outcome.bits = coeff_bits(value)
        return outcome


class VerifyRunner:
    """Library calls to sincint.verify(params, tol)."""

    def __init__(self, sincint, workdir, checker):
        self.verify = sincint.verify
        self.params = sincint.IntegralParams
        self.checker = checker

    def warm_up(self):
        self.call([(4, 3, 2, 3, 1)])

    def call(self, cases) -> Chunk:
        params = [self.params(*case) for case in cases]
        reports, starts, ends = [], [], []
        t0 = perf_counter()
        for item in params:
            starts.append(perf_counter())
            reports.append(self.verify(item, VERIFY_TOL))
            ends.append(perf_counter())
        return Chunk(reports, starts, ends, perf_counter() - t0)

    def inspect(self, case, report) -> Outcome:
        a, b, c, p, q = case
        error = self.checker.verify_report(report)
        outcome = Outcome(
            f"{a} {b} {c} {p} {q} {report.exact} {report.exact_decimal!r}",
            report.passed,
            error,
            terms=spectrum_terms(a, c, abs(p)),
            log_terms=len(report.exact.log_coeffs),
            bits=coeff_bits(report.exact),
            omega=a * abs(p) + c * abs(q),
            unverifiable=report.reason is not None,
        )
        if report.oracle_error_bound is not None:
            outcome.bound_to_tol = report.oracle_error_bound / report.tolerance
        return outcome


class CertifyRunner:
    """sincint.identity_sweep over one box per case."""

    def __init__(self, sincint, workdir, checker):
        self.sweep = sincint.identity_sweep
        self.checker = checker

    def warm_up(self):
        self.call([(8, 2, 3, 3)])

    def call(self, cases) -> Chunk:
        reports, starts, ends = [], [], []
        t0 = perf_counter()
        for box in cases:
            starts.append(perf_counter())
            reports.append(self.sweep(*box))
            ends.append(perf_counter())
        return Chunk(reports, starts, ends, perf_counter() - t0)

    def inspect(self, box, report) -> Outcome:
        failures = [(r.a, r.c, r.p, r.q, r.h) for r in report.failures]
        digest = f"{box} {report.checked} {failures}"
        error = self.checker.sweep(box, report)
        if failures and error is None:
            error = f"sweep {box}: nonzero boundary sums at {failures[:5]}"
        return Outcome(digest, not failures, error, cases=sweep_tuple_count(box))


RUNNERS = {"batch": BatchRunner, "verify": VerifyRunner, "certify": CertifyRunner}


class Tally:
    """Outcomes of a run, with exact counts over its first min_ops operations."""

    def __init__(self, min_ops: int):
        self.min_ops = min_ops
        self.ops = self.cases = self.passed = self.failed = 0
        self.errors: list[str] = []
        self.sha = hashlib.sha256()
        self.prefix: list[Outcome] = []

    def add(self, outcome: Outcome) -> None:
        if self.ops < self.min_ops:
            self.sha.update(outcome.digest.encode() + b"\n")
            self.prefix.append(outcome)
        self.ops += 1
        self.cases += outcome.cases
        self.passed += outcome.passed
        if outcome.error is not None:
            self.failed += 1
            self.error(outcome.error)

    def error(self, message: str) -> None:
        if len(self.errors) < 10:
            self.errors.append(message)

    def prefix_counts(self, kind: str) -> dict:
        n = len(self.prefix)
        ratios = [o.bound_to_tol for o in self.prefix if o.bound_to_tol is not None]
        return {
            "evaluator.spectrum_terms_per_case": sum(o.terms for o in self.prefix) / n,
            "exact.log_terms_per_case": sum(o.log_terms for o in self.prefix) / n,
            "exact.coeff_bits_max": max(o.bits for o in self.prefix),
            "oracle.bound_to_tol": statistics.median(ratios) if ratios else 0.0,
            "oracle.unverifiable_ratio": sum(o.unverifiable for o in self.prefix) / n,
            "oracle.omega_per_case": sum(o.omega for o in self.prefix) / n,
            "identities.tuples_per_op": sum(o.cases for o in self.prefix) / n if kind == "certify" else 0.0,
        }


def tail_latency(latencies, min_ops: int) -> tuple[str, float, int]:
    """Nearest-rank tail: the highest of p90/p99/p99.9 with ten samples beyond it.

    The percentile is chosen for min_ops samples, which every run has, and
    returned with the number of samples beyond it in this run.
    """
    label, share = next(
        (label, share)
        for label, share in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9))
        if min_ops - math.ceil(share * min_ops) >= 10
    )
    ordered = sorted(latencies)
    rank = math.ceil(share * len(ordered))
    return label, ordered[rank - 1], len(ordered) - rank


def measure(workload, runner, stream, seconds: float) -> dict:
    tally = Tally(workload.min_ops)
    wall = 0.0
    latencies = array("d")  # unboxed, so the harness adds little to peak_rss_mb
    while wall < seconds or tally.ops < workload.min_ops:
        cases = [next(stream) for _ in range(workload.chunk)]
        chunk = runner.call(cases)
        wall += chunk.wall
        latencies.extend(e - s for s, e in zip(chunk.starts, chunk.ends))
        for message in chunk.errors:
            tally.error(message)
        for case, output in zip(cases, chunk.outputs):
            tally.add(runner.inspect(case, output))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the sorts below
    label, tail, beyond = tail_latency(latencies, workload.min_ops)
    metrics = {
        "throughput_cases_per_s": tally.cases / wall,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
        "pass_ratio": tally.passed / tally.ops,
        "peak_rss_mb": peak_kib / 1024,
    }
    detail = {
        "tail_percentile": label,
        "tail_samples_beyond": beyond,
        "latency_samples": len(latencies),
        "cases": tally.cases,
        "wall_s": wall,
        "fail_ratio": 1 - tally.passed / tally.ops,
    }
    return finish(tally, metrics, detail)


def measure_traced(workload, runner, stream, seconds: float, package, spans_path) -> dict:
    tally = Tally(workload.min_ops)
    tracer = Tracer(package)
    walls = {False: 0.0, True: 0.0}
    op_starts: list[float] = []
    op_ends: list[float] = []
    group = 0
    while walls[False] + walls[True] < seconds or tally.ops < workload.min_ops:
        cases = [next(stream) for _ in range(workload.chunk)]
        chunks = {}
        for traced in ((False, True) if group % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                chunks[traced] = runner.call(cases)
            finally:
                tracer.uninstall()
            walls[traced] += chunks[traced].wall
        group += 1
        chunk = chunks[True]
        op_starts += chunk.starts
        op_ends += chunk.ends
        for message in chunk.errors:
            tally.error(message)
        for case, plain, traced in zip(cases, chunks[False].outputs, chunk.outputs):
            if plain != traced:
                tally.error(f"traced output differs from untraced for case {case}")
            tally.add(runner.inspect(case, traced))
    metrics = layer_metrics(tracer, workload.kind, op_starts, op_ends, walls[True], workload.min_ops)
    metrics.update(tally.prefix_counts(workload.kind))
    metrics["trace.overhead_ratio"] = walls[True] / walls[False]
    if spans_path:
        tracer.write(spans_path, op_starts)
    detail = {"spans": len(tracer.start), "traced_wall_s": walls[True], "untraced_wall_s": walls[False]}
    return finish(tally, metrics, detail)


def finish(tally: Tally, metrics: dict, detail: dict) -> dict:
    detail = {"output_sha256": tally.sha.hexdigest(), "ops": tally.ops, **detail, "errors": tally.errors}
    return {
        "correct": not tally.errors,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("--workdir", required=True, help="directory for the batch input file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans to this file as JSON lines")
    args = parser.parse_args(argv)

    package = import_package()
    workload = WORKLOADS[args.workload]
    checker = Checker(package.parse_exact_value, package.oracle.to_decimal)
    runner = RUNNERS[workload.kind](package, args.workdir, checker)
    runner.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    stream = case_stream(workload, args.seed)
    if args.trace:
        result = measure_traced(workload, runner, stream, args.seconds, package, args.spans)
    else:
        result = measure(workload, runner, stream, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
