"""Finite trigonometric polynomials with exact rational coefficients.

Powers and products of sin(px), cos(qx), for p and q of either sign, expand
into sums of sin(kx) and cos(kx) terms, a constant being cos(0x); this module
expands them by exact product-to-sum multiplication alone and differentiates
them term-wise.  It also holds the integer frequency spectrum of
sin^a(px) cos^c(qx), the only binomial power reduction in the package, that
the closed forms, the boundary identity and the direct n-th derivative all
reduce; the product-to-sum route shares no formula with it and is the
reference the tests compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .exact import RationalLike
from .params import DomainError

__all__ = [
    "TermKind",
    "TrigTerm",
    "TrigPoly",
    "sin_power_expand",
    "cos_power_expand",
    "trig_product",
    "product_expansion",
    "derivative_expansion",
    "spectrum",
]


class TermKind(Enum):
    SIN = 1
    COS = 2


@dataclass(frozen=True)
class TrigTerm:
    """One summand: coeff * {sin(frequency*x) | cos(frequency*x)}.

    Frequencies are >= 0; only the constant cos(0x) = 1 has frequency 0, and
    TrigPoly.terms lists it first.  Zero-frequency sines vanish.
    """

    kind: TermKind
    frequency: int
    coeff: Fraction


class TrigPoly:
    """Immutable finite sum of TrigTerms, at most one per (kind, frequency)."""

    __slots__ = ("_coeffs",)

    def __init__(self, terms: Iterable[tuple[TermKind, int, RationalLike]] = ()):
        coeffs: dict[tuple[TermKind, int], Fraction] = {}
        for kind, frequency, coeff in terms:
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if c == 0:
                continue
            if kind is TermKind.SIN:
                if frequency == 0:
                    continue
                if frequency < 0:
                    frequency, c = -frequency, -c
            elif frequency < 0:
                frequency = -frequency
            key = (kind, frequency)
            total = coeffs.get(key)
            total = c if total is None else total + c
            if total:
                coeffs[key] = total
            else:
                del coeffs[key]
        self._coeffs = coeffs

    @property
    def terms(self) -> tuple[TrigTerm, ...]:
        keys = sorted(self._coeffs, key=lambda k: (k[1] > 0, k[0].value, k[1]))
        return tuple(TrigTerm(kind, freq, self._coeffs[kind, freq]) for kind, freq in keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        body = ", ".join(f"{t.kind.name.lower()}({t.frequency})*{t.coeff}" for t in self.terms)
        return f"TrigPoly({body or '0'})"

    def derivative(self) -> "TrigPoly":
        """Exact d/dx: sin(fx) -> f cos(fx), cos(fx) -> -f sin(fx)."""
        items: list[tuple[TermKind, int, Fraction]] = []
        for (kind, freq), coeff in self._coeffs.items():
            if kind is TermKind.SIN:
                items.append((TermKind.COS, freq, coeff * freq))
            else:
                items.append((TermKind.SIN, freq, -coeff * freq))
        return TrigPoly(items)

    def evaluate(self, x: float) -> float:
        """Numeric value at x in double precision."""
        total = 0.0
        for (kind, freq), coeff in self._coeffs.items():
            w = float(coeff)
            if kind is TermKind.SIN:
                total += w * math.sin(freq * x)
            else:
                total += w * math.cos(freq * x)
        return total

    def value_at_pi(self) -> Fraction:
        """Exact value at x = pi, using cos(k*pi) = (-1)^k."""
        total = Fraction(0)
        for (kind, freq), coeff in self._coeffs.items():
            if kind is TermKind.COS:
                total += -coeff if freq % 2 else coeff
        return total


def sin_power_expand(a: int, p: int) -> TrigPoly:
    """Expand sin^a(px) into multiple-angle form; p = 0 gives the exact zero."""
    if a < 1:
        raise DomainError("a >= 1", f"sin power expansion needs a >= 1, got {a}")
    power = TrigPoly([(TermKind.COS, 0, 1)])
    for _ in range(a):
        power = trig_product(power, TrigPoly([(TermKind.SIN, p, 1)]))
    return power


def cos_power_expand(c: int, q: int) -> TrigPoly:
    """Expand cos^c(qx) into multiple-angle form; c = 0 is the constant 1."""
    if c < 0:
        raise DomainError("c >= 0", f"cos power expansion needs c >= 0, got {c}")
    power = TrigPoly([(TermKind.COS, 0, 1)])
    for _ in range(c):
        power = trig_product(power, TrigPoly([(TermKind.COS, q, 1)]))
    return power


def trig_product(u: TrigPoly, v: TrigPoly) -> TrigPoly:
    """Pointwise product, re-expressed in sum form.

    Uses the product-to-sum identities; negative intermediate frequencies
    are normalized by sin(-u) = -sin(u), cos(-u) = cos(u).
    """
    items: list[tuple[TermKind, int, Fraction]] = []
    for (k1, f1), c1 in u._coeffs.items():
        for (k2, f2), c2 in v._coeffs.items():
            half = c1 * c2 / 2
            if k1 is TermKind.SIN and k2 is TermKind.SIN:
                items.append((TermKind.COS, f1 - f2, half))
                items.append((TermKind.COS, f1 + f2, -half))
            elif k1 is TermKind.COS and k2 is TermKind.COS:
                items.append((TermKind.COS, f1 - f2, half))
                items.append((TermKind.COS, f1 + f2, half))
            elif k1 is TermKind.SIN:  # sin * cos
                items.append((TermKind.SIN, f1 + f2, half))
                items.append((TermKind.SIN, f1 - f2, half))
            else:  # cos * sin
                items.append((TermKind.SIN, f1 + f2, half))
                items.append((TermKind.SIN, f2 - f1, half))
    return TrigPoly(items)


def product_expansion(a: int, c: int, p: int, q: int) -> TrigPoly:
    """sin^a(px) cos^c(qx) as a single expanded trigonometric polynomial."""
    return trig_product(sin_power_expand(a, p), cos_power_expand(c, q))


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


def derivative_expansion(a: int, c: int, p: int, q: int, h: int) -> TrigPoly:
    """h-th derivative of sin^a(px) cos^c(qx), instantiated in closed form.

    When a and h have opposite parity the result is a pure sine polynomial;
    with same parity a cosine polynomial, cos(0x) included.  Each spectrum term
    w * trig(L x) differentiates to w * L^h times a sine or cosine, and the
    constant term sits at L = 0, where 0^h keeps it at h = 0 only.  Term-wise
    differentiation of the product expansion must agree with this function
    at every h, which the test suite checks coefficient-exactly.
    """
    if h < 0:
        raise DomainError("h >= 0")
    weights = spectrum(a, c, p, q)
    same_parity = (h % 2) == a % 2
    half_exp = h // 2 if same_parity else (h + 1) // 2
    prefactor = Fraction(-1 if half_exp % 2 else 1, 2 ** (a + c - 1))
    kind = TermKind.COS if same_parity else TermKind.SIN
    return TrigPoly((kind, freq, prefactor * (w * freq**h)) for freq, w in weights.items())
