"""Exact scaling of a closed form, for the tests of the scaling laws.

ExactValue has no arithmetic of its own: the expected side of a law such as
I(a, b, c, g p, g q) = g^(b-1) I(a, b, c, p, q) is built here.
"""

from sincint import ExactValue


def rescaled(value: ExactValue, factor) -> ExactValue:
    """value with every coefficient multiplied by the int or Fraction factor."""
    return ExactValue(value.pi_coeff * factor, {prime: coeff * factor for prime, coeff in value.log_coeffs.items()})
