"""Seeded inputs and output checks for the four benchmark workloads.

Every workload is an endless stream of cases drawn from one
``random.Random`` seeded by the workload name and the seed, so the same seed
always gives byte-identical inputs.  The program under test only ever sees
the generated inputs.  Streams are built in fixed-size blocks.  Each block
holds a fixed share of special cases (invalid lines, high-frequency
verifies); the shares are part of the workload definition, not settings.
Where case costs differ by orders of magnitude, a block draws its cases
stratified on an estimated cost, which keeps the cost mix of one run close
to that of any other, so that run-to-run spread measures the program and
not the draw.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

DEFAULT_SEED = 1
VERIFY_TOL = 1e-6

SMALL_BLOCK = 20  # one invalid line per block: a fixed 5 % share
INVALID_KINDS = ("a<b", "c<0", "b=1", "non-integer")
LARGE_BLOCK = 32
LARGE_SAME_PARITY = 4  # per block; the other 28 lines are opposite parity
VERIFY_BLOCK = 10  # exactly one high-frequency case per block
HIGH_FREQUENCY_GROUP = 20  # high-frequency cases stratified together
# Exhausts the oracle's node budget with the largest arrays found by a
# search of 7,500 high-frequency draws.
HEAVIEST_VERIFY = (10, 10, 2, 36, 18)
FULL_BOX = (20, 6, 7, 7)
CERTIFY_BLOCK = 20
STRATA_POOL = 16


def _stratified(rng, n: int, draw, cost) -> list:
    """n draws from draw(), stratified on an estimated cost.

    STRATA_POOL * n candidates are sorted by cost and cut into n groups of
    consecutive candidates; one random member of each group is kept.  Each
    kept case is still distributed like a plain draw, but every block holds
    the same spread of cheap and dear cases, so the cost of a run varies
    little with the seed.
    """
    pool = sorted((draw() for _ in range(n * STRATA_POOL)), key=cost)
    return [rng.choice(pool[k * STRATA_POOL:(k + 1) * STRATA_POOL]) for k in range(n)]


def _invalid_small_line(rng, kind: str) -> tuple[str, str]:
    a = rng.randint(2, 9)
    b = rng.randint(2, a)
    c, p, q = rng.randint(0, 4), rng.randint(-5, 5), rng.randint(-5, 5)
    if kind == "a<b":
        return f"{a} {rng.randint(a + 1, 10)} {c} {p} {q}", "domain_error"
    if kind == "c<0":
        return f"{a} {b} {rng.randint(-4, -1)} {p} {q}", "domain_error"
    if kind == "b=1":
        return f"{a} 1 {c} {p} {q}", "domain_error"
    fields = [str(a), str(b), str(c), str(p), str(q)]
    fields[rng.randrange(5)] = rng.choice(("2.5", "x", "1e3", "-0.5"))
    return " ".join(fields), "parse_error"


def batch_small_cases(rng) -> Iterator[tuple[str, str]]:
    """(line, expected status) over the acceptance-grid domain, both signs."""
    block = 0
    while True:
        bad = rng.randrange(SMALL_BLOCK)
        for i in range(SMALL_BLOCK):
            if i == bad:
                yield _invalid_small_line(rng, INVALID_KINDS[block % len(INVALID_KINDS)])
                continue
            a = rng.randint(2, 10)
            b = rng.randint(2, a)
            c, p, q = rng.randint(0, 4), rng.randint(-5, 5), rng.randint(-5, 5)
            yield f"{a} {b} {c} {p} {q}", "ok"
        block += 1


def _large_case(rng, opposite: bool) -> tuple[int, int, int, int, int]:
    a = rng.randint(40, 200)
    b = rng.randint(2, a)
    if ((a - b) % 2 == 1) != opposite:
        b += 1 if b < a else -1
    return a, b, rng.randint(0, 50), rng.randint(1, 13) * rng.choice((1, -1)), rng.randint(-13, 13)


def _large_cost(case) -> float:
    # Frequency terms times the square root of the bit size of L^(b-1).
    a, b, c, p, q = case
    bits = (b - 1) * math.log2(a * abs(p) + c * abs(q) + 1)
    return spectrum_terms(a, c, p) * math.sqrt(bits + 1)


def batch_large_cases(rng) -> Iterator[tuple[str, str]]:
    """(line, "ok") with a in [40, 200], c <= 50, |p|, |q| <= 13, mostly opposite parity."""
    while True:
        block = _stratified(rng, LARGE_BLOCK - LARGE_SAME_PARITY, lambda: _large_case(rng, True), _large_cost)
        block += _stratified(rng, LARGE_SAME_PARITY, lambda: _large_case(rng, False), _large_cost)
        rng.shuffle(block)
        for a, b, c, p, q in block:
            yield f"{a} {b} {c} {p} {q}", "ok"


def _grid_case(rng) -> tuple[int, int, int, int, int]:
    a = rng.randint(2, 10)
    return a, rng.randint(2, a), rng.randint(0, 4), rng.randint(1, 5), rng.randint(0, 5)


def _high_frequency_case(rng) -> tuple[int, int, int, int, int]:
    # p = g*p', q = g*q' in [6, 60]: most pairs share the factor g >= 2.
    a, b, c, _, _ = _grid_case(rng)
    g = rng.randint(1, 6)
    lo = -(-6 // g)
    return a, b, c, g * rng.randint(lo, 60 // g), g * rng.randint(lo, 60 // g)


def _high_frequency_cost(case) -> float:
    # The oracle's dearest cases run out of nodes: high oscillation rate,
    # with a close to b so that the integrand keeps its 1/x^b envelope.
    a, b, c, p, q = case
    return (a * p + c * q) * a / (a - b + 1)


def verify_cases(rng) -> Iterator[tuple[int, int, int, int, int]]:
    """(a, b, c, p, q): nine grid cases and one high-frequency case per block.

    The stream opens with HEAVIEST_VERIFY so that every run holds the
    oracle's largest arrays once and peak_rss_mb does not depend on the draw.
    """
    yield HEAVIEST_VERIFY
    while True:
        for hf_case in _stratified(rng, HIGH_FREQUENCY_GROUP, lambda: _high_frequency_case(rng),
                                   _high_frequency_cost):
            hf = rng.randrange(VERIFY_BLOCK)
            for i in range(VERIFY_BLOCK):
                yield hf_case if i == hf else _grid_case(rng)


def _box(rng) -> tuple[int, int, int, int]:
    return rng.randint(10, 16), rng.randint(2, 5), rng.randint(3, 6), rng.randint(3, 6)


def _box_cost(box) -> int:
    # Frequency terms summed over every tuple of the box.
    max_a, max_c, max_p, max_q = box
    per_pq = sum(
        len(range(a % 2, a - 1, 2)) * spectrum_terms(a, c, 1)
        for a in range(2, max_a + 1)
        for c in range(max_c + 1)
    )
    return per_pq * (max_p + 1) * (max_q + 1)


def certify_cases(rng) -> Iterator[tuple[int, int, int, int]]:
    """(max_a, max_c, max_p, max_q) sweep boxes.

    The stream opens with the full box so that every run holds the largest
    record set once and peak_rss_mb does not depend on the draw.
    """
    yield FULL_BOX
    while True:
        yield from _stratified(rng, CERTIFY_BLOCK, lambda: _box(rng), _box_cost)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch", "verify" or "certify"
    cases: Callable[[object], Iterator]
    chunk: int  # cases per timed call group (one batch file, or a verify group)
    # Operations every run completes.  output_sha256 and the exact counts
    # cover exactly these, and the tail percentile is chosen for this many
    # samples, so it stays the same however fast the program gets.
    min_ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("batch-small", "batch", batch_small_cases, chunk=2000, min_ops=2000),
        Workload("batch-large", "batch", batch_large_cases, chunk=8, min_ops=100),
        Workload("verify-mix", "verify", verify_cases, chunk=10, min_ops=1000),
        Workload("certify", "certify", certify_cases, chunk=1, min_ops=100),
    )
}


def case_stream(workload: Workload, seed: int) -> Iterator:
    return workload.cases(random.Random(f"{workload.name}:{seed}"))


def sweep_tuple_count(box: tuple[int, int, int, int]) -> int:
    """Number of (a, c, p, q, h) tuples identity_sweep checks for a box."""
    max_a, max_c, max_p, max_q = box
    hs = sum(len(range(a % 2, a - 1, 2)) for a in range(2, max_a + 1))
    return hs * (max_c + 1) * (max_p + 1) * (max_q + 1)


def spectrum_terms(a: int, c: int, p: int) -> int:
    """Terms of the binomial frequency sum the evaluator visits for one case."""
    if p == 0:
        return 0
    n_i, n_j = (a - 1) // 2 + 1, (c - 1) // 2 + 1
    return (n_i if c % 2 == 0 else 0) + 2 * n_i * n_j + (n_j if a % 2 == 0 else 0)


def coeff_bits(value) -> int:
    """Largest numerator or denominator bit length in an ExactValue."""
    coeffs = [value.pi_coeff, *value.log_coeffs.values()]
    return max(max(r.numerator.bit_length(), r.denominator.bit_length()) for r in coeffs)


class Checker:
    """Output checks run on every benchmark run.

    Holds references to the program's own parse_exact_value and to_decimal,
    taken before any tracing wrapper is installed, so that checking adds no
    spans.  Each check returns None or a message describing the defect.
    """

    def __init__(self, parse_exact_value, to_decimal):
        self.parse = parse_exact_value
        self.to_decimal = to_decimal

    def batch_line(self, text: str, expected: str):
        """Check one JSON output line; returns (error, exact value or None)."""
        try:
            record = json.loads(text)
        except ValueError:
            return f"output line is not JSON: {text[:80]!r}", None
        status = record.get("status") if isinstance(record, dict) else None
        if status != expected:
            return f"status {status!r}, expected {expected!r}: {text[:80]!r}", None
        if status != "ok":
            return None, None
        try:
            value = self.parse(record["exact"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return f"exact does not parse ({exc}): {text[:80]!r}", None
        if str(value) != record["exact"]:
            return f"exact does not round-trip: {record['exact']!r}", None
        decimal = record.get("decimal")
        if not isinstance(decimal, float) or not math.isfinite(decimal):
            return f"decimal is not a finite number: {text[:80]!r}", None
        if decimal != self.to_decimal(value):
            return f"decimal {decimal!r} differs from to_decimal(exact): {text[:80]!r}", None
        return None, value

    @staticmethod
    def verify_report(report):
        if report.reason is None and not report.passed:
            return f"oracle disagrees with the closed form: {report.to_json()}"
        return None

    @staticmethod
    def sweep(box, report):
        expected = sweep_tuple_count(box)
        if report.checked != expected:
            return f"sweep {box} checked {report.checked} tuples, expected {expected}"
        return None
