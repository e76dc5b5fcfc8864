"""The integer frequency spectrum of sin^a(px) cos^c(qx).

The power-reduction formulas for sin^a and cos^c, multiplied out, write
2^(a+c-1) sin^a(px) cos^c(qx) as a sum of w * trig(m x), m = |L| over the
frequencies L = (a-2i)p +- (c-2j)q: the package's only binomial power
reduction, and its only closed-form use of sin(-u) = -sin(u).  The closed
forms and the boundary identity reduce it; the tests compare it against a
product-to-sum reference that shares no formula with it.
"""

from __future__ import annotations

from .params import DomainError

__all__ = ["spectrum"]


def spectrum(a: int, c: int, p: int, q: int) -> dict[int, int]:
    """Canonical integer frequency spectrum of 2^(a+c-1) sin^a(px) cos^c(qx).

    Returns {m: w}, every m >= 0, with 2^(a+c-1) sin^a(px) cos^c(qx) = sum of
    w * trig(m x), where trig is cos for even a and sin for odd a.  p and q
    may have either sign: a negative p multiplies every weight by (-1)^a, q
    enters as |q|, and L = f - g < 0 is stored at g - f with weight (-1)^a w;
    weights of equal m are summed.  For even a and c the m = 0 key holds the
    constant term; an odd-a spectrum has no m = 0 key, as sin(0 x) = 0.
    """
    if a < 1:
        raise DomainError("a >= 1", f"the spectrum needs a >= 1, got {a}")
    if c < 0:
        raise DomainError("c >= 0", f"the spectrum needs c >= 0, got {c}")
    # Binomials by C(n, i+1) = C(n, i)(n-i)/(i+1), not math.comb.  The loops end with
    # binom_a = C(a, a/2) for even a and binom_c = C(c, c/2) for even c: the constants.
    # sin^a's constant C(a, a/2)/2, an integer for even a >= 2, is its f = 0 sine term.
    # Every odd-a term has one sine factor, so sign(p)^a rides on the sine weights.
    fold = -1 if a % 2 else 1
    sign_a = (-1 if (a // 2) % 2 else 1) * (fold if p < 0 else 1)
    p, q = abs(p), abs(q)
    sines, binom_a = [], 1
    for i in range((a + 1) // 2):
        sines.append(((a - 2 * i) * p, sign_a * (-1 if i % 2 else 1) * binom_a))
        binom_a = binom_a * (a - i) // (i + 1)
    if a % 2 == 0:
        sines.append((0, binom_a // 2))
    cosines, binom_c = [], 1
    for j in range((c + 1) // 2):
        cosines.append(((c - 2 * j) * q, binom_c))
        binom_c = binom_c * (c - j) // (j + 1)
    weights: dict[int, int] = {}
    if c % 2 == 0:  # sine terms times cos^c's constant, no cosine term: C(0, 0)/2 is not an integer
        for f, u in sines:
            weights[f] = weights.get(f, 0) + u * binom_c
    for f, u in sines:
        for g, v in cosines:
            w = u * v
            weights[f + g] = weights.get(f + g, 0) + w
            if f < g:
                weights[g - f] = weights.get(g - f, 0) + fold * w
            else:
                weights[f - g] = weights.get(f - g, 0) + w
    if a % 2:
        weights.pop(0, None)
    return weights
