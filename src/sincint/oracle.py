"""Independent floating-point verification of the exact evaluator.

quadrature estimates the integral directly from the raw integrand and never
touches the closed forms or the trigonometric expansions.  With
g = gcd(p, q) (g = p when c = 0), u = g*x gives I(a, b, c, g*p', g*q') =
g^(b-1) * I(a, b, c, p', q'); sincint.numeric integrates the reduced
integral with a certified error bound, and quadrature rescales it and adds
the rounding of the rescaling to the bound.  verify compares the estimate
with the exact value's decimal, sincint.exact.to_decimal.  sincint.numeric,
and numpy with it, is imported by the first quadrature, so the exact
evaluator and its rendering never load numpy.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional

from .evaluator import evaluate
from .exact import ExactValue, to_decimal
from .params import IntegralParams, QuadratureError, validate_for_evaluation

__all__ = [
    "DEFAULT_TOL",
    "MIN_TOL",
    "QuadratureError",
    "VerifyReport",
    "quadrature",
    "verify",
]

DEFAULT_TOL = 1e-6
MIN_TOL = 1e-8

# Strict RFC 8259 output for _json_line: NaN and infinities raise.
_STRICT_JSON = json.JSONEncoder(allow_nan=False)


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
    from .numeric import _EPS, _reduced_quadrature  # here, so numpy loads with the first quadrature

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
