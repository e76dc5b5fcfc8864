"""Exact combinatorial certificates that d^h/dx^h [sin^a(px) cos^c(qx)] = 0 at x = pi.

Because sin^(a-h)(px) survives h-fold differentiation, the h-th derivative
vanishes at pi whenever h <= a - 2.  With h and a of the same parity the
derivative is a cosine polynomial, so evaluating it at pi with
cos(L*pi) = (-1)^L turns that fact into a pure combinatorial zero-sum over
the integer spectrum of the product, which this module evaluates exactly in
big-integer arithmetic.  The certificate therefore checks the same spectrum
that the closed-form evaluator reduces; the test suite checks the spectrum
itself against a product-to-sum reference that shares no formula with it.

The sums for successive h of one spectrum come from a running product: the
terms (-1)^L * w * L^h are built once for the first h, with each key's sign
taken from its own parity, and each further h multiplies every term by L^2.
That is one big-integer multiply per key per h, and every sum is still
compared with 0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .params import DomainError
from .trig import spectrum

__all__ = ["SweepRecord", "SweepReport", "boundary_identity_sum", "identity_sweep"]


def boundary_identity_sum(a: int, c: int, p: int, q: int, h: int) -> int:
    """Exact value of the vanishing boundary sum; 0 on every valid input.

    Valid inputs: a >= 2, c >= 0, p and q of either sign, 0 <= h <= a - 2
    with h and a of the same parity.  The sum is sum of w * (-1)^L * L^h
    over the spectrum {L: w}, 2^(a+c-1) times +-(the h-th derivative at pi).
    Integer powers use 0^0 = 1, matching cos(0*x) = 1, so at h = 0 the
    product's constant term (which differentiates away for h >= 1) is included.
    """
    if a < 2:
        raise DomainError("a >= 2")
    if h < 0 or h > a - 2:
        raise DomainError("0 <= h <= a - 2")
    if (h - a) % 2 != 0:
        raise DomainError("h = a (mod 2)", "the boundary sum requires h and a of the same parity")
    return _boundary_values(spectrum(a, c, p, q), range(h, h + 1))[0]


def _boundary_values(weights: dict[int, int], hs: range) -> list[int]:
    """[sum of w * (-1)^L * L^h over {L: w} for h in hs], hs a step-2 range or one h."""
    if not hs:
        return []
    h0, terms, squares = hs.start, [], []
    for L, w in weights.items():
        terms.append(-w * L**h0 if L % 2 else w * L**h0)
        squares.append(L * L)
    sums = [sum(terms)]
    for _ in hs[1:]:  # from h to h + 2: one multiply per key, none after the last h
        terms = list(map(mul, terms, squares))
        sums.append(sum(terms))
    return sums


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
    """Outcome of an exhaustive boundary-identity sweep: the number of tuples
    checked and, in sweep order, the tuples whose sum is not zero."""

    checked: int
    failures: tuple[SweepRecord, ...]

    @property
    def all_zero(self) -> bool:
        return not self.failures


def identity_sweep(max_a: int, max_c: int, max_p: int, max_q: int) -> SweepReport:
    """Check the boundary sum on every valid tuple within inclusive bounds.

    Ranges: 2 <= a <= max_a, 0 <= c <= max_c, 0 <= p <= max_p,
    0 <= q <= max_q, and h over {h : 0 <= h <= a - 2, h = a (mod 2)}, in
    that nesting order with h innermost.  p = q = 0 tuples are included;
    they exercise the fully degenerate path.  The spectrum is built once per
    (a, c, p, q), and its sums for every h come from one running product:
    the terms for the smallest h, times L^2 per further h.  No key is
    assumed to share the parity of a p + c q, and each tuple's sum is
    compared with 0 exactly.

    A clean box with max_p >= max_a - 2 and max_q >= 1 proves the identity
    for every integer p and q with a <= max_a, c <= max_c.  Each spectrum
    term has L = (a-2i)p +- (c-2j)q and a weight free of p and q, and neither
    merging keys nor folding -L onto L (weight times (-1)^a = (-1)^h) changes
    the sum, so it is (-1)^(ap+cq) times a homogeneous polynomial of degree h
    in (p, q): its h + 1 zeros at q = 1, p = 0, ..., h make it zero.
    """
    if max_a < 2 or max_c < 0 or max_p < 0 or max_q < 0:
        raise ValueError("sweep bounds must cover at least one valid tuple")
    checked = 0
    failures = []
    for a in range(2, max_a + 1):
        hs = range(a % 2, a - 1, 2)
        for c in range(max_c + 1):
            for p in range(max_p + 1):
                for q in range(max_q + 1):
                    sums = _boundary_values(spectrum(a, c, p, q), hs)
                    checked += len(hs)
                    if any(sums):
                        failures += (SweepRecord(a, c, p, q, h) for h, s in zip(hs, sums) if s)
    return SweepReport(checked, tuple(failures))
