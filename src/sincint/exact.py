"""Exact arithmetic for closed-form integral values.

All coefficients are arbitrary-precision rationals (``fractions.Fraction``),
and results are canonical combinations

    pi_coeff * pi  +  sum over primes rho of  log_coeffs[rho] * ln(rho).

pi and the ln(rho) are linearly independent over the rationals, so the
canonical form is unique: two values are equal exactly when their fields are.
Logs are stored over the prime basis rather than over raw arguments so that
algebraically equal results (e.g. 6*ln(6) - 6*ln(2) and 6*ln(3)) compare
equal.

to_decimal renders a value to a double at 169 bits (50 digits) on Python
integers, rounding as mpmath's mpf arithmetic does, with no error control
over the cancellation of its terms (ROADMAP item 2).
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
    "to_decimal",
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


# The working precision of rendering: 169 bits, the binary precision of 50 digits.
_PREC = 169
# pi rounded to nearest at _PREC bits, as man * 2**exp.
_PI = (0x1921FB54442D18469898CC51701B839A252049C1115, -167)
# Guard bits of _ln's first try; each retry doubles them.
_GUARD = 32
# Distinct primes kept by the logarithm memo, every prime up to 8,161.  An entry is
# the cache's link and a (man, exp) pair of a 169-bit int and an int: about 220
# bytes by tracemalloc, 0.23 MB full.
_LN_CACHE_SIZE = 1024


def to_decimal(value: ExactValue) -> float:
    """Render an ExactValue to a double through 169-bit (50-digit) binary floats.

    Each term coeff * pi or coeff * ln(rho) is computed and summed at _PREC
    bits on Python integers, with no error control: a value whose terms
    cancel beyond 50 digits, as large-a log values do, is rendered wrong
    (ROADMAP item 2).  Every step rounds to nearest, ties to even: the
    numerator, its quotient by the denominator, the product with the
    correctly rounded constant and the running sum, which adds pi first and
    then the primes ascending.  math.ldexp converts the total's integer to a
    double, a round to 53 bits, then scales it, which rounds a subnormal once
    more and overflows to an infinity.  These are the roundings of mpmath's
    mpf arithmetic at 50 digits, in its order, bit for bit.
    """
    total = 0, 0
    if value.pi_coeff:
        total = _add(total, _term(value.pi_coeff, _PI))
    for prime, coeff in value.log_coeffs.items():
        total = _add(total, _term(coeff, _ln(prime)))
    try:
        return math.ldexp(*total)
    except OverflowError:
        return math.copysign(math.inf, total[0])


def _round(man: int, exp: int, sticky: bool = False) -> tuple[int, int]:
    """man * 2**exp rounded to nearest at _PREC bits, ties to even, as (man, exp).

    sticky marks a nonzero tail below man's last bit, so that a seeming tie
    rounds away from zero.
    """
    mag = -man if man < 0 else man
    cut = mag.bit_length() - _PREC
    if cut <= 0:
        return man, exp
    low = mag & ((1 << cut) - 1)
    mag >>= cut
    half = 1 << (cut - 1)
    if low > half or (low == half and (sticky or mag & 1)):
        mag += 1
    return (-mag if man < 0 else mag), exp + cut


def _term(coeff: Fraction, constant: tuple[int, int]) -> tuple[int, int]:
    """coeff * constant: the numerator, the quotient and the product each rounded."""
    man, exp = _round(coeff.numerator, 0)
    den = coeff.denominator
    # The denominator's trailing zero bits go to the exponent exactly; the
    # quotient by its odd part keeps two bits past _PREC and a sticky remainder.
    tz = (den & -den).bit_length() - 1
    den >>= tz
    exp -= tz
    if den != 1:
        mag = -man if man < 0 else man
        shift = _PREC + 2 + den.bit_length() - mag.bit_length()
        quot, rem = divmod(mag << shift, den)
        man, exp = _round(-quot if man < 0 else quot, exp - shift, rem != 0)
    return _round(man * constant[0], exp + constant[1])


def _add(total: tuple[int, int], term: tuple[int, int]) -> tuple[int, int]:
    """total + term, summed exactly at the smaller exponent and rounded to _PREC bits:
    to_decimal adds pi first, then the primes ascending, as mpmath's chain does."""
    sman, sexp = total
    if not sman:  # to_decimal's first term: returning it is cheaper than a sum with 0
        return term
    tman, texp = term
    exp = sexp if sexp < texp else texp  # not min(), whose call is a measurable share of a small sum
    return _round((sman << (sexp - exp)) + (tman << (texp - exp)), exp)


def _atanh_fixed(num: int, den: int, wp: int) -> tuple[int, int]:
    """atanh(num/den) * 2**wp for 0 <= num/den <= 1/3, rounded down, and an error bound.

    The series x + x^3/3 + x^5/5 + ... runs in wp-bit fixed point until a
    term vanishes, each power of x the last times num^2 / den^2.  Every
    truncation is downward, each computed power of x is less than 2 ulps
    low and each term adds less than 2 ulps, so the result is low by less
    than the bound returned, the next odd divisor plus one.
    """
    v = (num << wp) // den
    num2, den2 = num * num, den * den
    total, k = v, 3
    v = v * num2 // den2
    while v:
        total += v // k
        v = v * num2 // den2
        k += 2
    return total, k + 1


@lru_cache(maxsize=None)  # one entry per precision _ln tries: _PREC + _GUARD, then a doubling at a time
def _ln2_fixed(wp: int) -> int:
    """ln 2 * 2**wp = 2 atanh(1/3) * 2**wp, within 2 ulps: 16 extra bits absorb the series' error."""
    return 2 * _atanh_fixed(1, 3, wp + 16)[0] >> 16


@lru_cache(maxsize=_LN_CACHE_SIZE)
def _ln(n: int) -> tuple[int, int]:
    """ln(n), n >= 2, correctly rounded to _PREC bits; memoized for the last _LN_CACHE_SIZE n.

    n = 2^k * r with r in [3/4, 3/2) gives ln n = k ln 2 + 2 atanh((n - 2^k)/(n + 2^k)),
    |atanh's argument| <= 1/5.  The sum is made in fixed point with guard bits;
    when the two ends of its error interval round apart, the guard bits double.
    """
    k = n.bit_length()
    if n >> (k - 2) < 3:  # n < 3 * 2^(k-2), so r = n / 2^(k-1) < 3/2
        k -= 1
    num, den = n - (1 << k), n + (1 << k)
    guard = _GUARD
    while True:
        wp = _PREC + guard
        atanh, err = _atanh_fixed(abs(num), den, wp)
        fixed = k * _ln2_fixed(wp) + (2 * atanh if num >= 0 else -2 * atanh)
        err = 2 * err + 2 * k  # ln 2 is within 2 ulps, k times over
        low = _round(fixed - err, -wp)
        if low == _round(fixed + err, -wp):
            return low
        guard *= 2
