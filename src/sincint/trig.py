"""The integer frequency spectrum of sin^a(px) cos^c(qx).

The power-reduction formulas for sin^a and cos^c, multiplied out, write
2^(a+c-1) sin^a(px) cos^c(qx) as a sum of w * trig(L x) over integer
frequencies L: the only binomial power reduction in the package.  The closed
forms, the boundary identity and the tests' derivative cross-checks all
reduce it; the tests compare it against a product-to-sum reference that
shares no formula with it.
"""

from __future__ import annotations

from .params import DomainError

__all__ = ["spectrum"]


def spectrum(a: int, c: int, p: int, q: int) -> dict[int, int]:
    """Integer frequency spectrum of 2^(a+c-1) sin^a(px) cos^c(qx).

    Returns {L: w} with 2^(a+c-1) sin^a(px) cos^c(qx) = sum of w * trig(L x),
    where trig is cos for even a and sin for odd a.  The frequencies are
    (a-2i)p +- (c-2j)q, signed, so p and q may have either sign; weights of
    equal L are summed.  The L = 0 key is kept: for even a and c it holds
    the product's constant term, and every closed-form consumer reads it
    through 0^0 = 1 or drops it through sgn(0) = 0.
    """
    if a < 1:
        raise DomainError("a >= 1", f"the spectrum needs a >= 1, got {a}")
    if c < 0:
        raise DomainError("c >= 0", f"the spectrum needs c >= 0, got {c}")
    # Binomials by C(n, i+1) = C(n, i)(n-i)/(i+1), not math.comb.  The loops end with
    # binom_a = C(a, a/2) for even a and binom_c = C(c, c/2) for even c: the constants.
    sign_a = -1 if (a // 2) % 2 else 1
    sines, binom_a = [], 1
    for i in range((a + 1) // 2):
        sines.append(((a - 2 * i) * p, sign_a * (-1 if i % 2 else 1) * binom_a))
        binom_a = binom_a * (a - i) // (i + 1)
    cosines, binom_c = [], 1
    for j in range((c + 1) // 2):
        cosines.append(((c - 2 * j) * q, binom_c))
        binom_c = binom_c * (c - j) // (j + 1)
    weights: dict[int, int] = {}
    if c % 2 == 0:  # sine terms times the constant of cos^c
        for f, u in sines:
            weights[f] = weights.get(f, 0) + u * binom_c
    if a % 2 == 0:  # the constant of sin^a times the cosine terms
        for g, v in cosines:
            weights[g] = weights.get(g, 0) + binom_a * v
        if c % 2 == 0:  # C(a, a/2) is even for a >= 2
            weights[0] = weights.get(0, 0) + binom_a * binom_c // 2
    for f, u in sines:
        for g, v in cosines:
            w = u * v
            weights[f + g] = weights.get(f + g, 0) + w
            weights[f - g] = weights.get(f - g, 0) + w
    return weights
