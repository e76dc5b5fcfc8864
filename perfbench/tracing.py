"""In-memory span tracing of the package's layers for the traced benchmark run.

The tracer replaces public names in the module where the caller looks them
up (``sincint.cli.evaluate``, ``sincint.evaluator.prime_factorization`` ...)
with timing wrappers, and puts the originals back afterwards.  The program's
own code is unchanged.  A name that no longer exists raises at install time,
so a renamed layer can never go silently unmeasured.  Spans are kept in flat
arrays and turned into metrics, or written out, once at the end of the run.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from time import perf_counter

# (module, name looked up there, layer of the callee)
WRAPPED = (
    ("cli", "IntegralParams", "params"),
    ("cli", "evaluate", "evaluator"),
    ("cli", "to_decimal", "oracle"),
    ("oracle", "evaluate", "evaluator"),
    ("oracle", "to_decimal", "oracle"),
    ("oracle", "quadrature", "oracle"),
    ("evaluator", "validate_for_evaluation", "params"),
    ("evaluator", "prime_factorization", "exact"),
    ("evaluator", "ExactValue", "exact"),
    ("identities", "boundary_identity_sum", "identities"),
)
LAYERS = ("cli", "params", "evaluator", "exact", "oracle", "identities")
# The benchmark's own per-case call (a batch line, a verify, a sweep) is the
# parent span; its self time belongs to the layer that handles the case.
OP_LAYER = {"batch": "cli", "verify": "oracle", "certify": "identities"}


def _labels() -> list[tuple[str, str]]:
    labels = []
    for module, name, layer in WRAPPED:
        if name == "evaluate":
            labels += [(f"{module}.evaluate.same", layer), (f"{module}.evaluate.opposite", layer)]
        else:
            labels.append((f"{module}.{name}", layer))
    return labels


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self, package):
        self.labels = _labels()
        self._index = {label: i for i, (label, _) in enumerate(self.labels)}
        self._targets = []
        for module_name, name, _ in WRAPPED:
            module = getattr(package, module_name, None)
            if module is None or not hasattr(module, name):
                raise RuntimeError(
                    f"traced name {package.__name__}.{module_name}.{name} no longer exists"
                )
            self._targets.append((module, name, getattr(module, name)))
        self._stack: list[list[float]] = []
        self.label = array("B")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.parent = array("l")
        self.top = array("B")
        self._next_id = 0
        self.span_id = array("l")

    def install(self) -> None:
        for module, name, original in self._targets:
            setattr(module, name, self._wrap(module.__name__.rsplit(".", 1)[1], name, original))

    def uninstall(self) -> None:
        for module, name, original in self._targets:
            setattr(module, name, original)

    def _wrap(self, module_name: str, name: str, fn):
        stack = self._stack
        if name == "evaluate":
            same = self._index[f"{module_name}.evaluate.same"]
            opposite = self._index[f"{module_name}.evaluate.opposite"]

            def label_of(args):
                params = args[0]
                return same if (params.a - params.b) % 2 == 0 else opposite
        else:
            fixed = self._index[f"{module_name}.{name}"]

            def label_of(args):
                return fixed

        def wrapped(*args, **kwargs):
            label = label_of(args)
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id]  # child time, id
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.label.append(label)
                self.start.append(start)
                self.end.append(end)
                self.self_time.append(duration - frame[0])
                self.parent.append(parent)
                self.top.append(not stack)
                self.span_id.append(span_id)

        return wrapped

    def op_of_spans(self, op_starts) -> list[int]:
        """Index of the benchmark operation each span started in."""
        return [bisect_right(op_starts, s) - 1 for s in self.start]

    def write(self, path: str, op_starts) -> None:
        """Write every span as one JSON line; the parent of a top span is its op."""
        ops = self.op_of_spans(op_starts)
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(len(self.start)):
                fh.write(json.dumps({
                    "id": self.span_id[k],
                    "parent": self.parent[k],
                    "op": ops[k],
                    "name": self.labels[self.label[k]][0],
                    "start_s": self.start[k],
                    "end_s": self.end[k],
                    "self_s": self.self_time[k],
                }) + "\n")


def layer_metrics(tracer: Tracer, kind: str, op_starts, op_ends, wall: float, min_ops: int) -> dict:
    """Per-layer times, prefix call counts and layer shares from the spans.

    Times are mean self microseconds per call over the whole traced run;
    call counts per case cover the first min_ops operations only, so they
    repeat exactly for a given seed.
    """
    n_labels = len(tracer.labels)
    calls = [0] * n_labels
    prefix_calls = [0] * n_labels
    busy = [0.0] * n_labels
    op_child = [0.0] * len(op_starts)
    for k, op in enumerate(tracer.op_of_spans(op_starts)):
        label = tracer.label[k]
        calls[label] += 1
        busy[label] += tracer.self_time[k]
        if op < min_ops:
            prefix_calls[label] += 1
        if tracer.top[k] and op >= 0:
            op_child[op] += tracer.end[k] - tracer.start[k]
    op_self = sum(e - s for s, e in zip(op_starts, op_ends)) - sum(op_child)
    names = [label for label, _ in tracer.labels]

    def select(*suffixes):
        return [i for i, name in enumerate(names) if name.endswith(suffixes)]

    def mean_us(indices):
        n = sum(calls[i] for i in indices)
        return 1e6 * sum(busy[i] for i in indices) / n if n else 0.0

    def per_case(indices):
        return sum(prefix_calls[i] for i in indices) / min_ops

    validate = select(".IntegralParams", ".validate_for_evaluation")
    factorize = select(".prime_factorization")
    layer_busy = dict.fromkeys(LAYERS, 0.0)
    for i, (_, layer) in enumerate(tracer.labels):
        layer_busy[layer] += busy[i]
    layer_busy[OP_LAYER[kind]] += op_self
    n_ops = len(op_starts)
    metrics = {
        "cli.batch.self_us": 1e6 * op_self / n_ops if kind == "batch" else 0.0,
        "params.validate.us": mean_us(validate),
        "params.validate.calls_per_case": per_case(validate),
        "evaluator.evaluate.same.us": mean_us(select(".evaluate.same")),
        "evaluator.evaluate.opposite.us": mean_us(select(".evaluate.opposite")),
        "exact.factorize.us": mean_us(factorize),
        "exact.factorize.calls_per_case": per_case(factorize),
        "exact.canonicalize.us": mean_us(select(".ExactValue")),
        "oracle.to_decimal.us": mean_us(select(".to_decimal")),
        "oracle.quadrature.us": mean_us(select(".quadrature")),
        "oracle.verify.self_us": 1e6 * op_self / n_ops if kind == "verify" else 0.0,
        "identities.boundary_sum.us": mean_us(select(".boundary_identity_sum")),
        "identities.sweep.self_us": 1e6 * op_self / n_ops if kind == "certify" else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = layer_busy[layer] / wall
    return metrics
