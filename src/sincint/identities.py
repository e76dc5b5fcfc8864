"""Exact combinatorial certificates that d^h/dx^h [sin^a(px) cos^c(qx)] = 0 at x = pi.

Because sin^(a-h)(px) survives h-fold differentiation, the h-th derivative
vanishes at pi whenever h <= a - 2.  With h and a of the same parity the
derivative is a cosine polynomial, so evaluating it at pi with
cos(L*pi) = (-1)^L turns that fact into a pure combinatorial zero-sum over
the integer spectrum of the product, which this module evaluates exactly in
big-integer arithmetic.  The certificate therefore checks the same spectrum
that the closed-form evaluator reduces; the spectrum itself is checked
against the independent TrigPoly product-to-sum route by the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .params import DomainError
from .trig import spectrum

__all__ = ["SweepRecord", "SweepReport", "boundary_identity_sum", "identity_sweep"]


def boundary_identity_sum(a: int, c: int, p: int, q: int, h: int) -> int:
    """Exact value of the vanishing boundary sum; 0 on every valid input.

    Valid inputs: a >= 2, c >= 0, p, q >= 0, 0 <= h <= a - 2 with h and a of
    the same parity.  The sum is sum of w * (-1)^L * L^h over the spectrum
    {L: w}, which is 2^(a+c-1) times +-(the h-th derivative at pi).  Integer
    powers use 0^0 = 1, matching cos(0*x) = 1, so at h = 0 the product's
    constant term (which differentiates away for h >= 1) is included.
    """
    if a < 2:
        raise DomainError("a >= 2")
    if c < 0:
        raise DomainError("c >= 0")
    if p < 0 or q < 0:
        raise DomainError("p >= 0 and q >= 0")
    if h < 0 or h > a - 2:
        raise DomainError("0 <= h <= a - 2")
    if (h - a) % 2 != 0:
        raise DomainError("h = a (mod 2)", "the boundary sum requires h and a of the same parity")
    return _boundary_value(spectrum(a, c, p, q), h)


def _boundary_value(weights: dict[int, int], h: int) -> int:
    return sum(-w * L**h if L % 2 else w * L**h for L, w in weights.items())


@dataclass(frozen=True)
class SweepRecord:
    """One swept tuple whose boundary sum is not zero."""

    a: int
    c: int
    p: int
    q: int
    h: int


@dataclass(frozen=True)
class SweepReport:
    """Outcome of an exhaustive boundary-identity sweep.

    Holds the sweep bounds, the number of tuples checked and the tuples
    whose sum is not zero; the per-tuple lines are regenerated on demand.
    """

    bounds: tuple[int, int, int, int]
    checked: int
    failures: tuple[SweepRecord, ...]

    @property
    def all_zero(self) -> bool:
        return not self.failures

    def to_json_lines(self) -> str:
        """One JSON object per checked tuple, newline separated."""
        failed = {(r.a, r.c, r.p, r.q, r.h) for r in self.failures}
        return "\n".join(
            json.dumps(
                {"a": a, "c": c, "p": p, "q": q, "h": h,
                 "value_is_zero": (a, c, p, q, h) not in failed}
            )
            for a, c, p, q, h in _sweep_tuples(*self.bounds)
        )


def _sweep_tuples(max_a: int, max_c: int, max_p: int, max_q: int) -> Iterator[tuple[int, int, int, int, int]]:
    for a in range(2, max_a + 1):
        for c in range(0, max_c + 1):
            for p in range(0, max_p + 1):
                for q in range(0, max_q + 1):
                    for h in range(a % 2, a - 1, 2):
                        yield a, c, p, q, h


def identity_sweep(max_a: int, max_c: int, max_p: int, max_q: int) -> SweepReport:
    """Check the boundary sum on every valid tuple within inclusive bounds.

    Ranges: 2 <= a <= max_a, 0 <= c <= max_c, 0 <= p <= max_p,
    0 <= q <= max_q, and h over {h : 0 <= h <= a - 2, h = a (mod 2)}.
    p = q = 0 tuples are included; they exercise the fully degenerate path.
    The spectrum is built once per (a, c, p, q) and reused for every h.
    """
    if max_a < 2 or max_c < 0 or max_p < 0 or max_q < 0:
        raise ValueError("sweep bounds must cover at least one valid tuple")
    bounds = (max_a, max_c, max_p, max_q)
    checked = 0
    failures = []
    built_for = None
    for a, c, p, q, h in _sweep_tuples(*bounds):
        if built_for != (a, c, p, q):
            built_for = (a, c, p, q)
            weights = spectrum(a, c, p, q)
        checked += 1
        if _boundary_value(weights, h):
            failures.append(SweepRecord(a, c, p, q, h))
    return SweepReport(bounds, checked, tuple(failures))
