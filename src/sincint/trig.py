"""Finite trigonometric polynomials with exact rational coefficients.

Powers and products of sin(px), cos(qx) expand into sums of const, sin(kx)
and cos(kx) terms with integer frequencies; this module implements those
power-reduction expansions, exact product-to-sum multiplication, and exact
term-wise differentiation.  It also holds the one integer frequency spectrum
of sin^a(px) cos^c(qx) that the closed forms, the boundary identity and the
direct n-th derivative are all reductions of; the product-to-sum route is
the independent reference the tests compare that spectrum against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator

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
    CONST = 0
    SIN = 1
    COS = 2


@dataclass(frozen=True)
class TrigTerm:
    """One summand: coeff * {1 | sin(frequency*x) | cos(frequency*x)}.

    CONST terms carry frequency 0; SIN and COS terms carry frequency >= 1
    (zero-frequency sines vanish, zero-frequency cosines fold into CONST).
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
            c = Fraction(coeff)
            if c == 0:
                continue
            if kind is TermKind.SIN:
                if frequency == 0:
                    continue
                if frequency < 0:
                    frequency, c = -frequency, -c
            elif kind is TermKind.COS:
                if frequency < 0:
                    frequency = -frequency
                if frequency == 0:
                    kind = TermKind.CONST
            elif frequency != 0:
                raise ValueError("CONST terms must have frequency 0")
            key = (kind, frequency)
            total = coeffs.get(key, Fraction(0)) + c
            if total == 0:
                coeffs.pop(key, None)
            else:
                coeffs[key] = total
        self._coeffs = coeffs

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls()

    @classmethod
    def constant(cls, coeff: RationalLike) -> "TrigPoly":
        return cls([(TermKind.CONST, 0, coeff)])

    @property
    def terms(self) -> tuple[TrigTerm, ...]:
        keys = sorted(self._coeffs, key=lambda k: (k[0].value, k[1]))
        return tuple(TrigTerm(kind, freq, self._coeffs[(kind, freq)]) for kind, freq in keys)

    def coeff(self, kind: TermKind, frequency: int = 0) -> Fraction:
        return self._coeffs.get((kind, frequency), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def kinds(self) -> set[TermKind]:
        return {kind for kind, _ in self._coeffs}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __iter__(self) -> Iterator[TrigTerm]:
        return iter(self.terms)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{t.kind.name.lower()}({t.frequency})*{t.coeff}" if t.kind is not TermKind.CONST
            else f"const*{t.coeff}"
            for t in self.terms
        )
        return f"TrigPoly({body or '0'})"

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        items = [(k, f, c) for (k, f), c in self._coeffs.items()]
        items += [(k, f, c) for (k, f), c in other._coeffs.items()]
        return TrigPoly(items)

    def scale(self, factor: RationalLike) -> "TrigPoly":
        r = Fraction(factor)
        return TrigPoly([(k, f, c * r) for (k, f), c in self._coeffs.items()])

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return trig_product(self, other)

    def derivative(self) -> "TrigPoly":
        """Exact d/dx: sin(fx) -> f cos(fx), cos(fx) -> -f sin(fx)."""
        items: list[tuple[TermKind, int, Fraction]] = []
        for (kind, freq), coeff in self._coeffs.items():
            if kind is TermKind.SIN:
                items.append((TermKind.COS, freq, coeff * freq))
            elif kind is TermKind.COS:
                items.append((TermKind.SIN, freq, -coeff * freq))
        return TrigPoly(items)

    def evaluate(self, x: float) -> float:
        """Numeric value at x in double precision."""
        total = 0.0
        for (kind, freq), coeff in self._coeffs.items():
            w = float(coeff)
            if kind is TermKind.CONST:
                total += w
            elif kind is TermKind.SIN:
                total += w * math.sin(freq * x)
            else:
                total += w * math.cos(freq * x)
        return total

    def value_at_pi(self) -> Fraction:
        """Exact value at x = pi, using cos(k*pi) = (-1)^k."""
        total = Fraction(0)
        for (kind, freq), coeff in self._coeffs.items():
            if kind is TermKind.CONST:
                total += coeff
            elif kind is TermKind.COS:
                total += -coeff if freq % 2 else coeff
        return total


def sin_power_expand(a: int, p: int) -> TrigPoly:
    """Expand sin^a(px) into multiple-angle form.

    Odd a gives pure sine terms, even a a constant plus cosines, with
    frequencies (a-2i)p.  p = 0 collapses every frequency to zero and the
    folded constant cancels to the exact value sin^a(0) = 0.
    """
    if a < 1:
        raise DomainError("a >= 1", f"sin power expansion needs a >= 1, got {a}")
    if p < 0:
        raise DomainError("p >= 0", "expansion frequencies must be non-negative")
    s = a % 2
    items: list[tuple[TermKind, int, Fraction]] = []
    if s == 0:
        items.append((TermKind.CONST, 0, Fraction(math.comb(a, a // 2), 2**a)))
    kind = TermKind.SIN if s else TermKind.COS
    half = (a // 2) % 2
    for i in range((a - 1) // 2 + 1):
        sign = -1 if (half + i) % 2 else 1  # (-1)^(floor(a/2) - i)
        coeff = Fraction(2 * sign * math.comb(a, i), 2**a)
        items.append((kind, (a - 2 * i) * p, coeff))
    return TrigPoly(items)


def cos_power_expand(c: int, q: int) -> TrigPoly:
    """Expand cos^c(qx) into multiple-angle form; c = 0 is the constant 1."""
    if c < 0:
        raise DomainError("c >= 0", f"cos power expansion needs c >= 0, got {c}")
    if q < 0:
        raise DomainError("q >= 0", "expansion frequencies must be non-negative")
    t = c % 2
    items: list[tuple[TermKind, int, Fraction]] = []
    if t == 0:
        items.append((TermKind.CONST, 0, Fraction(math.comb(c, c // 2), 2**c)))
    for i in range((c - 1) // 2 + 1):
        items.append((TermKind.COS, (c - 2 * i) * q, Fraction(2 * math.comb(c, i), 2**c)))
    return TrigPoly(items)


def trig_product(u: TrigPoly, v: TrigPoly) -> TrigPoly:
    """Pointwise product, re-expressed in sum form.

    Uses the product-to-sum identities; negative intermediate frequencies
    are normalized by sin(-u) = -sin(u), cos(-u) = cos(u).
    """
    items: list[tuple[TermKind, int, Fraction]] = []
    for (k1, f1), c1 in u._coeffs.items():
        for (k2, f2), c2 in v._coeffs.items():
            c = c1 * c2
            if k1 is TermKind.CONST:
                items.append((k2, f2, c))
            elif k2 is TermKind.CONST:
                items.append((k1, f1, c))
            elif k1 is TermKind.SIN and k2 is TermKind.SIN:
                half = c / 2
                items.append((TermKind.COS, f1 - f2, half))
                items.append((TermKind.COS, f1 + f2, -half))
            elif k1 is TermKind.COS and k2 is TermKind.COS:
                half = c / 2
                items.append((TermKind.COS, f1 - f2, half))
                items.append((TermKind.COS, f1 + f2, half))
            elif k1 is TermKind.SIN:  # sin * cos
                half = c / 2
                items.append((TermKind.SIN, f1 + f2, half))
                items.append((TermKind.SIN, f1 - f2, half))
            else:  # cos * sin
                half = c / 2
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
    sign_a = -1 if (a // 2) % 2 else 1
    sines = [((a - 2 * i) * p, sign_a * (-1 if i % 2 else 1) * math.comb(a, i))
             for i in range((a + 1) // 2)]
    cosines = [((c - 2 * j) * q, math.comb(c, j)) for j in range((c + 1) // 2)]
    weights: dict[int, int] = {}
    if c % 2 == 0:  # sine terms times the constant of cos^c
        middle = math.comb(c, c // 2)
        for f, u in sines:
            weights[f] = weights.get(f, 0) + u * middle
    if a % 2 == 0:  # the constant of sin^a times the cosine terms
        middle = math.comb(a, a // 2)
        for g, v in cosines:
            weights[g] = weights.get(g, 0) + middle * v
        if c % 2 == 0:  # C(a, a/2) is even for a >= 2
            weights[0] = weights.get(0, 0) + middle * math.comb(c, c // 2) // 2
    for f, u in sines:
        for g, v in cosines:
            w = u * v
            weights[f + g] = weights.get(f + g, 0) + w
            weights[f - g] = weights.get(f - g, 0) + w
    return weights


def derivative_expansion(a: int, c: int, p: int, q: int, h: int) -> TrigPoly:
    """h-th derivative of sin^a(px) cos^c(qx), instantiated in closed form.

    When a and h have opposite parity the result is a pure sine polynomial;
    with same parity it is constant plus cosines.  Each spectrum term
    w * trig(L x) differentiates to w * L^h times a sine or cosine, and the
    constant term sits at L = 0, where 0^h keeps it at h = 0 only.  Term-wise
    differentiation of the product expansion must agree with this function
    at every h, which the test suite checks coefficient-exactly.
    """
    if p < 0 or q < 0:
        raise DomainError("p >= 0 and q >= 0")
    if h < 0:
        raise DomainError("h >= 0")
    weights = spectrum(a, c, p, q)
    same_parity = (h % 2) == a % 2
    half_exp = h // 2 if same_parity else (h + 1) // 2
    prefactor = Fraction(-1 if half_exp % 2 else 1, 2 ** (a + c - 1))
    kind = TermKind.COS if same_parity else TermKind.SIN
    return TrigPoly((kind, freq, prefactor * (w * freq**h)) for freq, w in weights.items())
