"""Exact evaluation of the half-line integrals of sin^a(px) cos^c(qx) / x^b.

For integers a >= b >= 2, c >= 0 and any integer frequencies p, q, the
integral has a closed form: a rational multiple of pi when a and b share
parity, and a rational combination of logarithms of primes otherwise.
b = 1 with odd a is a rational multiple of pi too (the Sinc integral, a = 1,
is pi/2); b = 1 with even a diverges and is refused.  This package computes
those closed forms in exact arithmetic, certifies the combinatorial
cancellation they rely on, and cross-checks every value against an
independent fixed-pass quadrature of the raw integrand.
"""

from .evaluator import evaluate
from .exact import ExactValue, parse_exact_value, to_decimal
from .identities import SweepRecord, SweepReport, boundary_identity_sum, identity_sweep
from .oracle import (
    DEFAULT_TOL,
    MIN_TOL,
    QuadratureError,
    VerifyReport,
    quadrature,
    verify,
)
from .params import DomainError, IntegralParams
from .trig import spectrum

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "DomainError",
    "ExactValue",
    "IntegralParams",
    "MIN_TOL",
    "QuadratureError",
    "SweepRecord",
    "SweepReport",
    "VerifyReport",
    "boundary_identity_sum",
    "evaluate",
    "identity_sweep",
    "parse_exact_value",
    "quadrature",
    "spectrum",
    "to_decimal",
    "verify",
]
