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

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .params import DomainError

__all__ = [
    "ExactValue",
    "parse_exact_value",
    "prime_factorization",
]


# Digits of an integer in text: CPython's default int/str limit, fixed here whatever
# sys.set_int_max_str_digits says, so that parse_exact_value reads back every value
# evaluate emits (it refuses larger ones) and every message can be printed.
_MAX_DIGITS = 4300
_DIGIT_BOUND = 10**_MAX_DIGITS


def _count_text(n: int) -> str:
    """n >= 0 in decimal, or as about 10^k past the digit limit."""
    return str(n) if n < _DIGIT_BOUND else f"10^{int(n.bit_length() * math.log10(2))}"


# Distinct arguments kept by the factorization memo.  An entry is a key int,
# a tuple of a few (prime, exponent) pairs and the cache's own link, about
# 300 bytes, so a full memo holds about 1.2 MB.
_FACTOR_CACHE_SIZE = 4096


@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def prime_factorization(m: int) -> tuple[tuple[int, int], ...]:
    """Factor m >= 1 into (prime, exponent) pairs, primes ascending.

    Trial division, memoized for the last _FACTOR_CACHE_SIZE distinct m as
    immutable tuples.  Its cost grows like the square root of a prime m, so
    large frequencies are not factored: the evaluator divides the gcd of p
    and q out first and factors only the reduced |L|.
    """
    if m < 1:
        raise ValueError(f"factorization requires m >= 1, got {m}")
    factors: list[tuple[int, int]] = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            exp = 0
            while m % d == 0:
                exp += 1
                m //= d
            factors.append((d, exp))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


# Miller-Rabin strong-probable-prime tests to the first k prime bases decide
# every n below psi_k, the least strong pseudoprime to all k of them (OEIS
# A014233; Sorenson and Webster, Math. Comp. 86 (2017) for k = 12, 13).
_MR_LADDER = (
    (2, 2047), (3, 1373653), (5, 25326001), (7, 3215031751),
    (11, 2152302898747), (13, 3474749660383), (17, 341550071728321),
    (19, 341550071728321), (23, 3825123056546413051), (29, 3825123056546413051),
    (31, 3825123056546413051), (37, 318665857834031151167461),
    (41, 3317044064679887385961981),
)
_PRIME_LIMIT = _MR_LADDER[-1][1]
_SMALL_PRIMES = tuple(base for base, _ in _MR_LADDER)
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _is_prime(n: int) -> bool:
    """Primality of n < _PRIME_LIMIT in one gcd and at most 13 modular powers.

    A factor up to 41 is found by the gcd, which decides every n < 43^2;
    above that the Miller-Rabin ladder runs until n < psi_k, which proves
    the answer.  ExactValue refuses a key of _PRIME_LIMIT or more before it asks.
    """
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    if n < 43 * 43:
        return n > 1
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for base, psi in _MR_LADDER:
        x = pow(base, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def _rational(x: int) -> Fraction:
    """An int as a Fraction; a float, str or bool is no exact coefficient."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"exact coefficients are int or Fraction, got {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class ExactValue:
    """A number of the form  pi_coeff*pi + sum log_coeffs[rho]*ln(rho).

    Coefficients are int or Fraction; a float, str or bool raises
    TypeError.  Invariants (restored on construction): every log key is
    prime, zero coefficient or not, no stored coefficient is zero, and the
    zero value has pi_coeff == 0 with an empty map.  A numerator or
    denominator of more than _MAX_DIGITS digits raises DomainError, so every
    value prints and parses back.  Instances are immutable, log_coeffs a
    read-only view, and hashable: new values come from the constructor.
    """

    pi_coeff: Fraction = Fraction(0)
    log_coeffs: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.pi_coeff, Fraction):
            object.__setattr__(self, "pi_coeff", _rational(self.pi_coeff))
        cleaned: dict[int, Fraction] = {}
        for prime in sorted(self.log_coeffs):
            coeff = self.log_coeffs[prime]
            if not isinstance(coeff, Fraction):
                coeff = _rational(coeff)
            if prime >= _PRIME_LIMIT:
                raise ValueError(f"log basis entries must be below {_PRIME_LIMIT}, got {prime}")
            if not _is_prime(prime):
                raise ValueError(f"log basis entries must be prime, got {prime}")
            if coeff:
                cleaned[prime] = coeff
        for coeff in (self.pi_coeff, *cleaned.values()):
            if max(abs(coeff.numerator), coeff.denominator) >= _DIGIT_BOUND:
                raise DomainError(f"exact value digits <= {_MAX_DIGITS}",
                                  f"the closed form has a coefficient of more than {_MAX_DIGITS} digits")
        object.__setattr__(self, "log_coeffs", MappingProxyType(cleaned))

    def __hash__(self) -> int:
        return hash((self.pi_coeff, tuple(self.log_coeffs.items())))

    def __reduce__(self):
        # A mapping proxy does not pickle; the constructor rebuilds it.
        return ExactValue, (self.pi_coeff, dict(self.log_coeffs))

    def __str__(self) -> str:
        parts: list[tuple[Fraction, str]] = []
        if self.pi_coeff:
            parts.append((self.pi_coeff, "pi"))
        for prime, coeff in self.log_coeffs.items():
            parts.append((coeff, f"ln({prime})"))
        if not parts:
            return "0"
        pieces: list[str] = []
        for coeff, unit in parts:
            num, den = coeff.numerator, coeff.denominator
            if pieces:
                sign = " - " if num < 0 else " + "
            else:
                sign = "-" if num < 0 else ""
            magnitude = abs(num) if den == 1 else f"{abs(num)}/{den}"
            pieces.append(f"{sign}{magnitude}*{unit}")
        return "".join(pieces)


_TERM_RE = re.compile(r"^(-?)([0-9]+)(?:/(0*[1-9][0-9]*))?\*(pi|ln\(([0-9]+)\))$")  # no zero denominator


def parse_exact_value(text: str) -> ExactValue:
    """Parse the canonical text form produced by str(ExactValue).

    Grammar: "0", or terms "<rational>*pi" and "<rational>*ln(<prime>)"
    joined by " + " / " - ", pi first and primes ascending.  A number of more
    than _MAX_DIGITS digits raises DomainError before it is converted, so the
    error and its cost do not depend on sys.set_int_max_str_digits.
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
        if max(len(num), len(den or ""), len(prime or "")) > _MAX_DIGITS:
            raise DomainError(f"exact value digits <= {_MAX_DIGITS}",
                              f"the exact-value text has a number of more than {_MAX_DIGITS} digits")
        coeff = Fraction(int(num), int(den) if den else 1)
        if sign:
            coeff = -coeff
        if unit == "pi":
            pi_coeff += coeff
        else:
            rho = int(prime)
            logs[rho] = logs.get(rho, Fraction(0)) + coeff
    return ExactValue(pi_coeff, logs)
