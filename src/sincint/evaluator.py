"""Closed-form evaluation of the half-line integrals of sin^a(px) cos^c(qx) / x^b.

The family splits on the parity of a and b.  Same parity yields a pure
rational multiple of pi; opposite parity (with a > b) yields a rational
combination of logarithms of integers, with the divergent parts of the
derivation cancelled by the boundary identity.  Both are reductions of one
integer frequency spectrum, computed in exact big-integer arithmetic; the
rational prefactor is applied last so each braced sum is an exact integer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import ExactValue, prime_factorization
from .params import IntegralParams, ParityCase, validate_for_evaluation
from .trig import spectrum

__all__ = [
    "evaluate",
    "evaluate_integral",
]


def evaluate(params: IntegralParams, *, allow_b1: bool = False) -> ExactValue:
    """Exact value of the integral for any representable parameters.

    Both cases reduce the spectrum {L: w} of sin^a(px) cos^c(qx) (see
    trig.spectrum), built from the signed p and q: a negative p negates
    every L of an odd-a spectrum, which gives the factor sign(p)^a, and the
    sign of q only swaps equal weights.  Same parity gives pi times the sum of
    w * sgn(L) * L^(b-1), in which sgn(0) = 0 keeps 0^0 out when b = 1.
    Opposite parity (a > b, so b >= 2) gives the sum of w * L^(b-1) * ln|L|:
    the weights are summed per |L| first, so each distinct |L| >= 2 is
    factored once and the rational prefactor is applied once per prime.
    p = 0 is the exact zero.
    """
    validate_for_evaluation(params, allow_b1=allow_b1)
    a, b, c, p, q = params.a, params.b, params.c, params.p, params.q
    if p == 0:
        return ExactValue()
    weights = spectrum(a, c, p, q)
    e = b - 1
    denominator = 2 ** (a + c - 1) * math.factorial(e)
    if params.parity_case is ParityCase.SAME:
        braced = sum(w * L**e if L > 0 else -w * L**e for L, w in weights.items() if L)
        sign = -1 if (b // 2) % 2 else 1
        return ExactValue(pi_coeff=Fraction(sign * braced, 2 * denominator))

    per_magnitude: dict[int, int] = {}
    for L, w in weights.items():
        if L:
            per_magnitude[abs(L)] = per_magnitude.get(abs(L), 0) + w * L**e
    logs: dict[int, int] = {}
    for magnitude, total in per_magnitude.items():
        if magnitude > 1 and total:
            for prime, exp in prime_factorization(magnitude).items():
                logs[prime] = logs.get(prime, 0) + exp * total
    sign = -1 if ((b + 1) // 2) % 2 else 1
    return ExactValue(
        log_coeffs={prime: Fraction(sign * n, denominator) for prime, n in logs.items()}
    )


def evaluate_integral(a: int, b: int, c: int, p: int, q: int, *, allow_b1: bool = False) -> ExactValue:
    """Convenience wrapper: build the parameter record and evaluate."""
    return evaluate(IntegralParams(a, b, c, p, q), allow_b1=allow_b1)
