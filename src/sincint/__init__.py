"""Exact evaluation of the half-line integrals of sin^a(px) cos^c(qx) / x^b.

For integers a >= b >= 2, c >= 0 and any integer frequencies p, q, the
integral has a closed form: a rational multiple of pi when a and b share
parity, and a rational combination of logarithms of primes otherwise.  This
package computes those closed forms in exact arithmetic, certifies the
combinatorial cancellation they rely on, and cross-checks every value
against an independent adaptive quadrature of the raw integrand.
"""

from .evaluator import (
    evaluate,
    evaluate_integral,
    normalize_signs,
)
from .exact import (
    ExactValue,
    Rational,
    is_prime,
    parse_exact_value,
    prime_factorization,
)
from .identities import SweepRecord, SweepReport, boundary_identity_sum, identity_sweep
from .oracle import (
    DEFAULT_TOL,
    MIN_TOL,
    QuadratureError,
    VerifyReport,
    quadrature,
    to_decimal,
    verify,
)
from .params import DomainError, IntegralParams, ParityCase, validate_for_evaluation
from .trig import (
    TermKind,
    TrigPoly,
    TrigTerm,
    cos_power_expand,
    derivative_expansion,
    product_expansion,
    sin_power_expand,
    spectrum,
    trig_product,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "DomainError",
    "ExactValue",
    "IntegralParams",
    "MIN_TOL",
    "ParityCase",
    "QuadratureError",
    "Rational",
    "SweepRecord",
    "SweepReport",
    "TermKind",
    "TrigPoly",
    "TrigTerm",
    "VerifyReport",
    "boundary_identity_sum",
    "cos_power_expand",
    "derivative_expansion",
    "evaluate",
    "evaluate_integral",
    "identity_sweep",
    "is_prime",
    "normalize_signs",
    "parse_exact_value",
    "prime_factorization",
    "product_expansion",
    "quadrature",
    "sin_power_expand",
    "spectrum",
    "to_decimal",
    "trig_product",
    "validate_for_evaluation",
    "verify",
]
