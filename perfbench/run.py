"""sincint benchmark: four closed-loop workloads, checked outputs, one JSON result.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                             [--out FILE] [--spans FILE]

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (perfbench/worker.py), driven by one single-threaded process
that sends the next operation only after the previous one returned.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it gives details such as
output_sha256 and the tail percentile used.  The exit code is 1 when an
output check fails, including an output_sha256 that differs from the one
pinned in perfbench/pins.json for the default seed, and 2 when the
benchmark cannot run at all.

End-to-end metrics (``--trace 0``), for each workload:

* setup_s: median over SETUP_RUNS fresh interpreters of the time until
  sincint and sincint.cli are imported and one warm-up call has returned.
  Half of the set-up-only interpreters start before the timed run and half
  after it, so that the samples span the run as the other metrics do;
* throughput_cases_per_s: cases per second of timed wall time, where a case
  is a batch line, a verify call or a boundary tuple of a sweep;
* latency_p50_ms, latency_tail_ms: median and tail latency of one operation
  (a batch line, stamped as the CLI completes its output line; a verify
  call; a sweep).  The tail is the highest of p90/p99/p99.9 that has ten
  samples beyond it at the workload's minimum operation count;
* pass_ratio: operations with the intended outcome per operation attempted.
  Only verify-mix has cases that may legitimately fall short: reports the
  oracle could not certify.  Its complement is printed as fail_ratio;
* peak_rss_mb: ru_maxrss of the workload's own process.

``--trace 1`` prints the per-layer metrics of a traced run instead (see
perfbench/tracing.py); ``--spans FILE`` also writes its spans there.
``--out FILE`` appends one JSON line per workload run, and
perfbench/compare.py compares two such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9  # the timed worker's set-up and eight set-up-only workers
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def start_worker(workload: str, seed: int, seconds: float, trace: int, workdir: str, extra=()):
    """Start a worker and return it with its set-up time, read off its READY line."""
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), str(trace),
         "--workdir", workdir, *extra],
        stdout=subprocess.PIPE,
        text=True,
    )
    first = proc.stdout.readline()
    setup = perf_counter() - started
    if first.strip() != "READY":
        finish_worker(proc, timeout=10)
        raise BenchError(f"{workload} worker did not start (exit code {proc.returncode})")
    return proc, setup


def finish_worker(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout} s")
    return out


def setup_samples(args, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        proc, setup = start_worker(*args, ["--setup-only"])
        finish_worker(proc, timeout=60)
        samples.append(setup)
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: int, spans) -> dict:
    # The work directory is removed here, so a worker killed on timeout leaves nothing behind.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        args = (name, seed, seconds, trace, workdir)
        setups = [] if trace else setup_samples(args, SETUP_RUNS // 2)
        proc, setup = start_worker(*args, ["--spans", spans] if spans else [])
        out = finish_worker(proc, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"{name} worker failed with exit code {proc.returncode}")
        if not trace:
            setups += [setup, *setup_samples(args, SETUP_RUNS // 2)]
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["detail"]["setup_runs"] = len(setups)
    if seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "pins.json").read_text())["output_sha256"].get(name)
        if result["detail"]["output_sha256"] != pinned:
            result["correct"] = False
            result["detail"]["errors"].append(
                f"output_sha256 {result['detail']['output_sha256']} differs from pinned {pinned}"
            )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sincint benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each workload's result to this JSON-lines file")
    parser.add_argument("--spans", help="with --trace 1 and one workload, write its spans to this file")
    args = parser.parse_args(argv)
    if args.spans and not (args.trace and args.workload != "all"):
        parser.error("--spans needs --trace 1 and one workload")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, args.trace, args.spans)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
        if missing:
            print(f"perfbench: {name} did not report {missing}", file=sys.stderr)
            return 2
        metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
        for metric, entry in metrics.items():
            print(f"{name:12} {metric:34} {entry['value']:>16.6g} {entry['unit']}")
        print(f"{name:12} detail {json.dumps(result['detail'])}")
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                record = {"workload": name, "seed": args.seed, "trace": args.trace, "seconds": seconds}
                fh.write(json.dumps({**record, **result, "metrics": metrics}) + "\n")
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        if len(names) == 1:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update({f"{name}.{m}": v for m, v in metrics.items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
