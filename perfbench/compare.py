"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --out`` appends.  Runs of the two sides
are paired by seed when both sides ran the same seeds, else in file order.
Run the two sides alternately, seed by seed: the speed of a shared host can
drift by more than the bounds over minutes, and alternation puts that drift
on both sides alike.
For every (metric, workload) row the report gives each side's median and
quartiles, the share of pairs the change won (ties count for neither) and a
verdict:

* better: the change won at least nine tenths of the pairs, at least ten
  pairs were run, and the medians differ by more than the base's quartile
  distance;
* worse: for an end-to-end metric, the change's median is worse than the
  base's by more than the metric's bound; for a per-layer metric, the
  mirror image of "better";
* unresolved: an end-to-end metric within its bound whose run-to-run spread
  is wider than the bound, unless every change run reads better than every
  base run; for a per-layer metric, neither of the above holds;
* unchanged: an end-to-end metric within its bound, or a value that is
  the same in every run of both sides.

The exit code is 1 when some end-to-end metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict:
    """{(workload, metric): [(seed, value), ...]} in file order."""
    rows = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            for metric, entry in record["metrics"].items():
                rows[(record["workload"], metric)].append((record["seed"], entry["value"]))
    return rows


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def pairs(base, change) -> list[tuple[float, float]]:
    base_by_seed, change_by_seed = dict(base), dict(change)
    if len(base_by_seed) == len(base) and set(base_by_seed) == set(change_by_seed):
        return [(base_by_seed[s], change_by_seed[s]) for s in base_by_seed]
    return [(b, c) for (_, b), (_, c) in zip(base, change)]


def verdict(base_vals, change_vals, paired, lower_is_better: bool, bound) -> tuple[float, str]:
    def gain(old, new):  # positive when new is better than old
        return old - new if lower_is_better else new - old

    if len(set(base_vals) | set(change_vals)) == 1:
        return 0.0, "unchanged"  # a count that repeats exactly on both sides
    wins = sum(gain(b, c) > 0 for b, c in paired) / len(paired)
    losses = sum(gain(b, c) < 0 for b, c in paired) / len(paired)
    b1, b_med, b3 = quartiles(base_vals)
    c1, c_med, c3 = quartiles(change_vals)
    shift = gain(b_med, c_med)
    resolved = abs(shift) > b3 - b1 and len(paired) >= MIN_PAIRS
    if resolved and wins >= WIN_SHARE and shift > 0:
        return wins, "better"
    if bound is None:
        return wins, "worse" if resolved and losses >= WIN_SHARE and shift < 0 else "unresolved"
    spread = max((b3 - b1) / abs(b_med) if b_med else 0.0, (c3 - c1) / abs(c_med) if c_med else 0.0)
    all_better = min(gain(b, c) for b in base_vals for c in change_vals) > 0
    if b_med and -shift / abs(b_med) > bound:
        return wins, "worse"  # however noisy the runs: noise must not hide a regression
    if spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(argv[0]), load(argv[1])
    print(f"{'metric':34} {'workload':12} {'base median [q1, q3]':36} "
          f"{'change median [q1, q3]':36} {'won':>5}  verdict")
    worse = 0
    for key in sorted(base.keys() & change.keys(), key=lambda k: (k[1], k[0])):
        workload, name = key
        if name not in metrics:
            continue
        entry = metrics[name]
        base_vals = [v for _, v in base[key]]
        change_vals = [v for _, v in change[key]]
        won, word = verdict(base_vals, change_vals, pairs(base[key], change[key]),
                            entry["better"] == "lower", entry.get("bound"))
        worse += word == "worse" and "bound" in entry
        print(f"{name:34} {workload:12} {summary(base_vals):36} {summary(change_vals):36} "
              f"{won:5.2f}  {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
