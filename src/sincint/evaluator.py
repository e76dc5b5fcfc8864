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

from .exact import ExactValue, _count_text, prime_factorization
from .params import DomainError, IntegralParams, validate_for_evaluation
from .trig import spectrum

__all__ = ["evaluate"]

# Work limits of about a second each on a 2-vCPU host, estimated before the spectrum
# from its (a/2+1)(c/2+1) products and at most min(2 * products, max |L|) distinct |L|,
# where max |L| = a|p'| + c|q'|.  Trial divisions, log case only: distinct * sqrt(max |L|).
_MAX_TRIAL_DIVISIONS = 10**7
# Bit operations: products * (a + c) + distinct * the bits of the largest scaled summand
# g^(b-1) w * L^(b-1), plus in the log case a gcd of bits^2/512 per prime below max |L|.
_MAX_BIT_OPS = 10**9


def evaluate(params: IntegralParams) -> ExactValue:
    """Exact value of the integral for any representable parameters.

    The gcd g of the frequencies (g = |p| when c = 0) is divided out first:
    u = g x gives I(a, b, c, g p', g q') = g^(b-1) I(a, b, c, p', q'), so only
    the reduced frequencies are factored, whatever the size of g.  Both cases
    reduce the canonical spectrum {m: w} of sin^a(p'x) cos^c(q'x) (see
    trig.spectrum): its keys are |L| >= 0, and the sign of p' and of each
    negative L is already in w, so there is one power m^(b-1) per key.
    Same parity gives pi times the sum of w * m^(b-1): an odd-a spectrum has
    no m = 0 key, and for even a, b >= 2 makes 0^(b-1) = 0.  Opposite parity
    (a > b >= 2, as b = 1 needs odd a) gives the sum of w * m^(b-1) * ln m:
    each m >= 2 is factored once, and the ln g terms the reduction drops
    carry the sum of w * m^(b-1), which the boundary identity makes zero.
    g^(b-1) and the rational prefactor are applied once, to the pi sum or
    per prime.  p = 0 is the exact zero.  A case estimated to exceed
    _MAX_BIT_OPS or _MAX_TRIAL_DIVISIONS raises DomainError before the
    spectrum is built, and a value with a numerator or denominator of more
    than _MAX_DIGITS digits raises DomainError instead of being returned.
    """
    validate_for_evaluation(params)
    a, b, c, p, q = params.a, params.b, params.c, params.p, params.q
    if p == 0:
        return ExactValue()
    g = math.gcd(p, q) if c else abs(p)
    e = b - 1
    same = (a - b) % 2 == 0
    omega = a * abs(p // g) + c * abs(q // g)  # max |L|
    products = (a // 2 + 1) * (c // 2 + 1)
    distinct = min(2 * products, omega)
    bits = a + c + e * (omega.bit_length() + g.bit_length())
    work = products * (a + c) + distinct * bits
    if not same:  # 2x / x.bit_length() is within 30% of the number of primes below x
        work += min(distinct, 2 * omega // omega.bit_length()) * bits * bits >> 9
    if work > _MAX_BIT_OPS:
        raise DomainError(f"bit operations <= {_MAX_BIT_OPS}",
                          f"the closed form needs about {_count_text(work)} bit operations")
    cost = 0 if same else distinct * math.isqrt(omega)
    if cost > _MAX_TRIAL_DIVISIONS:
        raise DomainError(f"trial divisions <= {_MAX_TRIAL_DIVISIONS}",
                          f"factoring the log arguments needs about {_count_text(cost)} trial divisions")
    weights = spectrum(a, c, p // g, q // g)
    scale = g**e
    denominator = 2 ** (a + c - 1) * math.factorial(e)
    if same:
        braced = sum(w * m**e for m, w in weights.items())
        sign = -1 if (b // 2) % 2 else 1
        return ExactValue(pi_coeff=Fraction(sign * scale * braced, 2 * denominator))

    logs: dict[int, int] = {}
    for m, w in weights.items():
        if m > 1 and w:
            total = w * m**e
            for prime, exp in prime_factorization(m):
                logs[prime] = logs.get(prime, 0) + (total if exp == 1 else exp * total)
    sign = -1 if ((b + 1) // 2) % 2 else 1
    return ExactValue(
        log_coeffs={prime: Fraction(sign * scale * n, denominator) for prime, n in logs.items()}
    )

