"""Small-size self-check of the benchmark itself; takes a few seconds.

    python3 perfbench/selfcheck.py

Checks that the generator is deterministic and keeps its fixed shares, that
the output checker rejects a corrupted line and a wrong status, and that a
short traced run is transparent and reports every per-layer metric.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
import types
from itertools import islice

import worker
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Checker, case_stream


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_generator() -> None:
    for workload in WORKLOADS.values():
        first = list(islice(case_stream(workload, DEFAULT_SEED), 400))
        again = list(islice(case_stream(workload, DEFAULT_SEED), 400))
        other = list(islice(case_stream(workload, DEFAULT_SEED + 1), 400))
        check(repr(first).encode() == repr(again).encode(), f"{workload.name}: same seed, other inputs")
        check(first != other, f"{workload.name}: another seed gave the same inputs")
    small = list(islice(case_stream(WORKLOADS["batch-small"], 7), 400))
    check(sum(status != "ok" for _, status in small) == 20, "batch-small invalid share is not 1 in 20")
    large = list(islice(case_stream(WORKLOADS["batch-large"], 7), 64))
    opposite = sum((int(a) - int(b)) % 2 for a, b, *_ in (line.split() for line, _ in large))
    check(opposite == 56, "batch-large opposite-parity share is not 28 in 32")
    mix = list(islice(case_stream(WORKLOADS["verify-mix"], 7), 101))[1:]
    check(all(sum(case[3] > 5 for case in mix[k:k + 10]) == 1 for k in range(0, 100, 10)),
          "verify-mix does not hold exactly one high-frequency case per ten")


def check_checker(package, runner: worker.BatchRunner) -> None:
    cases = list(islice(case_stream(WORKLOADS["batch-small"], DEFAULT_SEED), 40))
    lines = runner.call(cases).outputs
    checker = runner.checker
    for line, (_, status) in zip(lines, cases):
        check(checker.batch_line(line, status)[0] is None, f"good line rejected: {line}")
    ok = next(line for line, (_, status) in zip(lines, cases) if status == "ok" and '"exact": "0"' not in line)
    record = json.loads(ok)
    bad_exact = dict(record, exact=record["exact"].replace("*", "1*", 1))
    bad_decimal = dict(record, decimal=record["decimal"] * (1 + 1e-12) + 1e-300)
    for corrupted in (json.dumps(bad_exact), json.dumps(bad_decimal), ok[:-5]):
        check(checker.batch_line(corrupted, "ok")[0] is not None, f"corrupted line accepted: {corrupted}")
    check(checker.batch_line(ok, "domain_error")[0] is not None, "wrong status accepted")
    params = package.IntegralParams(3, 2, 0, 1, 0)
    exact = package.evaluate(params)
    disagreement = package.VerifyReport(params, exact, 1.0, 2.0, 1e-9, 1.0, 1e-6, False)
    check(checker.verify_report(disagreement) is not None, "oracle disagreement accepted")
    short = types.SimpleNamespace(checked=767, failures=())
    check(checker.sweep((8, 2, 3, 3), short) is not None, "wrong sweep count accepted")


def check_trace(package, runner: worker.BatchRunner) -> None:
    check_raises(lambda: Tracer(types.SimpleNamespace(__name__="fake")), "missing traced name accepted")
    workload = dataclasses.replace(WORKLOADS["batch-small"], chunk=50, min_ops=100)
    with open(worker.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        expected = {m["name"] for m in json.load(fh)["per_layer"]}
    result = worker.measure_traced(workload, runner, case_stream(workload, DEFAULT_SEED), 0.0, package, None)
    check(result["correct"], f"short traced run failed: {result['detail']['errors']}")
    check(expected <= result["metrics"].keys(), f"missing per-layer metrics {expected - result['metrics'].keys()}")
    check(getattr(package.cli, "evaluate") is package.evaluator.evaluate, "tracer left a wrapper installed")


def check_raises(fn, message: str) -> None:
    try:
        fn()
    except RuntimeError:
        return
    check(False, message)


def main() -> int:
    package = worker.import_package()
    check_generator()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=worker.ROOT) as workdir:
        checker = Checker(package.parse_exact_value, package.oracle.to_decimal)
        runner = worker.BatchRunner(package, workdir, checker)
        check_checker(package, runner)
        check_trace(package, runner)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
