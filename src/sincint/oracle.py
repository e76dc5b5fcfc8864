"""Independent floating-point verification of the exact evaluator.

Two pieces: rendering an ExactValue to a double, and estimating the
integral directly from the raw integrand.  Rendering works on Python
integers: pi and ln(prime) are correctly rounded 169-bit (50-digit) binary
floats, and every product and sum of the terms is rounded to nearest at 169
bits, as mpmath's mpf arithmetic rounds them, with no error control over
their cancellation (ROADMAP item 2).  The quadrature never touches the
closed forms or the trigonometric expansions.  With
g = gcd(p, q) (g = p when c = 0), u = g*x gives I(a, b, c, g*p', g*q') =
g^(b-1) * I(a, b, c, p', q'); sincint.numeric integrates the reduced
integral with a certified error bound, and quadrature rescales it and adds
the rounding of the rescaling to the bound.  sincint.numeric, and numpy
with it, is imported by the first quadrature, so rendering and the exact
evaluator never load numpy.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .evaluator import evaluate
from .exact import ExactValue
from .params import IntegralParams, validate_for_evaluation

__all__ = [
    "DEFAULT_TOL",
    "MIN_TOL",
    "QuadratureError",
    "VerifyReport",
    "quadrature",
    "to_decimal",
    "verify",
]

DEFAULT_TOL = 1e-6
MIN_TOL = 1e-8

_EPS = sys.float_info.epsilon
# Strict RFC 8259 output for _json_line: NaN and infinities raise.
_STRICT_JSON = json.JSONEncoder(allow_nan=False)
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


class QuadratureError(RuntimeError):
    """The requested tolerance could not be certified within the budget."""


def to_decimal(value: ExactValue) -> float:
    """Render an ExactValue to a double through 169-bit (50-digit) binary floats.

    Each term coeff * pi or coeff * ln(rho) is computed and summed at _PREC
    bits on Python integers, with no error control: a value whose terms
    cancel beyond 50 digits, as large-a log values do, is rendered wrong
    (ROADMAP item 2).  Every step rounds to nearest, ties to even: the
    numerator, its quotient by the denominator, the product with the
    correctly rounded constant and the running sum; the total is then
    rounded to 53 bits and scaled by math.ldexp, which rounds a subnormal
    once more and overflows to an infinity.  These are the roundings of
    mpmath's mpf arithmetic at 50 digits, bit for bit.
    """
    total = 0, 0
    if value.pi_coeff:
        total = _add(total, _term(value.pi_coeff, _PI))
    for prime, coeff in value.log_coeffs.items():
        total = _add(total, _term(coeff, _ln(prime)))
    man, exp = _round(*total, prec=53)
    try:
        return math.ldexp(man, exp)
    except OverflowError:
        return math.copysign(math.inf, man)


def _round(man: int, exp: int, sticky: bool = False, prec: int = _PREC) -> tuple[int, int]:
    """man * 2**exp rounded to nearest at prec bits, ties to even, as (man, exp).

    sticky marks a nonzero tail below man's last bit, so that a seeming tie
    rounds away from zero.
    """
    mag = -man if man < 0 else man
    cut = mag.bit_length() - prec
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
    """total + term rounded to _PREC bits."""
    sman, sexp = total
    if not sman:
        return term
    tman, texp = term
    if sexp < texp:
        sman, sexp, tman, texp = tman, texp, sman, sexp
    return _round((sman << (sexp - texp)) + tman, texp)


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


_ln2_fixed(_PREC + _GUARD)  # ln 2 at the first try's precision, once, at import


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


def _check_tol(tol: float) -> float:
    """tol as a float; ValueError unless it is a real number, not a bool, finite and >= MIN_TOL."""
    try:
        value = float(tol) if isinstance(tol, numbers.Real) and not isinstance(tol, bool) else math.nan
    except OverflowError:  # an int or Fraction past double range
        value = math.inf
    if not MIN_TOL <= value < math.inf:  # also rejects NaN
        raise ValueError(f"tolerance {tol!r} is not a finite number >= {MIN_TOL}, the double-precision oracle's floor")
    return value


def quadrature(params: IntegralParams, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Estimate the integral directly; returns (estimate, error_bound).

    The estimate carries the sign(p)^a factor, matching the exact evaluator,
    and the bound satisfies |true - estimate| <= error_bound <= tol, any real
    number but a bool, read as a float (ValueError outside [MIN_TOL, inf)).
    Raises QuadratureError when the tolerance cannot be certified.
    """
    tol = _check_tol(tol)
    validate_for_evaluation(params)
    a, b, c = params.a, params.b, params.c
    # The integrand depends on q only through |q| (not at all when c = 0),
    # and on the sign of p only through the factor sign(p)^a.
    p, q = abs(params.p), (abs(params.q) if c else 0)
    if p == 0:
        return 0.0, 0.0
    sign = -1 if params.p < 0 and a % 2 else 1

    # u = g*x gives I(a, b, c, g*p, g*q) = g^(b-1) * I(a, b, c, p, q); with
    # q = 0, g = p.  g^(b-1) >= 2^((b-1)(bits(g)-1)) overflows a double
    # once that exponent reaches 1024, checked before the power is built.
    g = math.gcd(p, q)
    try:
        if (b - 1) * (g.bit_length() - 1) >= 1024:
            raise OverflowError
        scale = float(g ** (b - 1))
    except OverflowError:
        raise QuadratureError(f"frequency scale {g}^{b - 1} exceeds double range") from None
    from .numeric import _reduced_quadrature  # here, so numpy loads with the first quadrature

    estimate, bound = _reduced_quadrature(a, b, c, p // g, q // g, tol / scale)
    estimate *= scale
    # Half an ulp each for the sum head + tail, for rounding g^(b-1) to a
    # double and for the product.
    error_bound = scale * bound + 1.5 * _EPS * abs(estimate)
    if error_bound > tol:
        raise QuadratureError(
            f"certified error {error_bound:.3e} exceeds requested tolerance {tol:.3e}"
        )
    return sign * estimate, error_bound


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one exact-vs-oracle comparison."""

    params: IntegralParams
    exact: ExactValue
    exact_decimal: float
    oracle_estimate: Optional[float]
    oracle_error_bound: Optional[float]
    abs_diff: Optional[float]
    tolerance: float
    passed: bool
    reason: Optional[str] = None

    def to_json(self) -> str:
        record = {
            **vars(self.params),
            "exact": str(self.exact),
            "exact_decimal": self.exact_decimal,
            "oracle": self.oracle_estimate,
            "error_bound": self.oracle_error_bound,
            "abs_diff": self.abs_diff,
            "tol": self.tolerance,
            "pass": self.passed,
        }
        if self.reason is not None:
            record["reason"] = self.reason
        return _json_line(record)


def _json_line(record: dict) -> str:
    """Strict RFC 8259 JSON: a float outside double range is written as null."""
    return _STRICT_JSON.encode(
        {key: None if isinstance(value, float) and not math.isfinite(value) else value for key, value in record.items()}
    )


def verify(params: IntegralParams, tol: float = DEFAULT_TOL) -> VerifyReport:
    """Evaluate exactly, render to decimal, quadrate, and compare.

    The verdict is pass when |exact - oracle| <= tol + oracle error bound.
    A quadrature failure yields a failing report with the reason attached
    rather than an exception.  A tolerance quadrature would refuse raises
    ValueError before any evaluation; the report holds it as a float.
    """
    tol = _check_tol(tol)
    exact = evaluate(params)
    exact_decimal = to_decimal(exact)
    estimate = bound = abs_diff = reason = None
    try:
        estimate, bound = quadrature(params, tol)
    except QuadratureError as exc:
        reason = str(exc)
    else:
        abs_diff = abs(exact_decimal - estimate)
    return VerifyReport(
        params=params,
        exact=exact,
        exact_decimal=exact_decimal,
        oracle_estimate=estimate,
        oracle_error_bound=bound,
        abs_diff=abs_diff,
        tolerance=tol,
        passed=reason is None and abs_diff <= tol + bound,
        reason=reason,
    )
