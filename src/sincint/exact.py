"""Exact arithmetic for closed-form integral values.

All coefficients are arbitrary-precision rationals (``fractions.Fraction``),
and results are canonical combinations

    pi_coeff * pi  +  sum over primes rho of  log_coeffs[rho] * ln(rho).

pi and the ln(rho) are linearly independent over the rationals, so the
canonical form is unique: two values are equal exactly when their fields are.
Logs are stored over the prime basis rather than over raw arguments so that
algebraically equal results (e.g. 6*ln(6) - 6*ln(2) and 6*ln(3)) compare
equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

Rational = Fraction

RationalLike = Union[Fraction, int]

__all__ = [
    "ExactValue",
    "Rational",
    "is_prime",
    "parse_exact_value",
    "prime_factorization",
]


def is_prime(n: int) -> bool:
    """Trial-division primality test (basis primes here stay small)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factorization(m: int) -> dict[int, int]:
    """Factor m >= 1 into {prime: exponent} by trial division.

    Log arguments are bounded by a*|p| + c*|q|, so trial division is ample.
    """
    if m < 1:
        raise ValueError(f"factorization requires m >= 1, got {m}")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


@dataclass(frozen=True)
class ExactValue:
    """A number of the form  pi_coeff*pi + sum log_coeffs[rho]*ln(rho).

    Invariants (restored on construction): every log key is prime, no stored
    coefficient is zero, and the zero value has pi_coeff == 0 with an empty
    map.  Instances are immutable; all arithmetic returns new values.
    """

    pi_coeff: Fraction = Fraction(0)
    log_coeffs: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi_coeff", Fraction(self.pi_coeff))
        cleaned: dict[int, Fraction] = {}
        for prime in sorted(self.log_coeffs):
            coeff = Fraction(self.log_coeffs[prime])
            if coeff == 0:
                continue
            if not is_prime(prime):
                raise ValueError(f"log basis entries must be prime, got {prime}")
            cleaned[prime] = coeff
        object.__setattr__(self, "log_coeffs", cleaned)

    @classmethod
    def zero(cls) -> "ExactValue":
        return cls()

    @classmethod
    def pi_multiple(cls, coeff: RationalLike) -> "ExactValue":
        return cls(pi_coeff=Fraction(coeff))

    @property
    def is_zero(self) -> bool:
        return self.pi_coeff == 0 and not self.log_coeffs

    def __add__(self, other: "ExactValue") -> "ExactValue":
        if not isinstance(other, ExactValue):
            return NotImplemented
        merged = dict(self.log_coeffs)
        for prime, coeff in other.log_coeffs.items():
            merged[prime] = merged.get(prime, Fraction(0)) + coeff
        return ExactValue(self.pi_coeff + other.pi_coeff, merged)

    def __neg__(self) -> "ExactValue":
        return self.scale(-1)

    def __sub__(self, other: "ExactValue") -> "ExactValue":
        if not isinstance(other, ExactValue):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: RationalLike) -> "ExactValue":
        """Multiply every coefficient by an exact rational factor."""
        r = Fraction(factor)
        if r == 0:
            return ExactValue()
        return ExactValue(
            self.pi_coeff * r,
            {prime: coeff * r for prime, coeff in self.log_coeffs.items()},
        )

    def __str__(self) -> str:
        parts: list[tuple[Fraction, str]] = []
        if self.pi_coeff:
            parts.append((self.pi_coeff, "pi"))
        for prime, coeff in self.log_coeffs.items():
            parts.append((coeff, f"ln({prime})"))
        if not parts:
            return "0"
        pieces: list[str] = []
        for i, (coeff, unit) in enumerate(parts):
            magnitude = _format_rational(-coeff if coeff < 0 else coeff)
            if i == 0:
                sign = "-" if coeff < 0 else ""
            else:
                sign = " - " if coeff < 0 else " + "
            pieces.append(f"{sign}{magnitude}*{unit}")
        return "".join(pieces)


def _format_rational(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


_TERM_RE = re.compile(r"^(-?)(\d+)(?:/(\d+))?\*(pi|ln\((\d+)\))$")


def parse_exact_value(text: str) -> ExactValue:
    """Parse the canonical text form produced by str(ExactValue).

    Grammar: "0", or terms "<rational>*pi" and "<rational>*ln(<prime>)"
    joined by " + " / " - ", pi first and primes ascending.
    """
    s = text.strip()
    if s == "0":
        return ExactValue()
    if s.startswith("-"):
        s = "-" + s[1:].lstrip()
    tokens = s.replace(" - ", " + -").split(" + ")
    pi_coeff = Fraction(0)
    logs: dict[int, Fraction] = {}
    for token in tokens:
        m = _TERM_RE.match(token.strip())
        if m is None:
            raise ValueError(f"unparseable exact-value term: {token!r}")
        sign, num, den, unit, prime = m.groups()
        coeff = Fraction(int(num), int(den) if den else 1)
        if sign:
            coeff = -coeff
        if unit == "pi":
            pi_coeff += coeff
        else:
            rho = int(prime)
            logs[rho] = logs.get(rho, Fraction(0)) + coeff
    return ExactValue(pi_coeff, logs)
