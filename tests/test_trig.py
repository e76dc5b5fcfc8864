"""Trigonometric expansion tests: shapes, pointwise agreement, derivatives."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sincint import (
    DomainError,
    TermKind,
    TrigPoly,
    cos_power_expand,
    derivative_expansion,
    product_expansion,
    sin_power_expand,
    spectrum,
    trig_product,
)

_RNG = np.random.default_rng(20260810)


def direct_value(a, c, p, q, x):
    return math.sin(p * x) ** a * math.cos(q * x) ** c


# ---------------------------------------------------------------------------
# power-reduction examples


def test_sin_identity_expansion():
    assert sin_power_expand(1, 3) == TrigPoly([(TermKind.SIN, 3, 1)])


def test_sin_squared():
    assert sin_power_expand(2, 1) == TrigPoly(
        [(TermKind.CONST, 0, Fraction(1, 2)), (TermKind.COS, 2, Fraction(-1, 2))]
    )


def test_sin_cubed_scaled_frequency():
    assert sin_power_expand(3, 2) == TrigPoly(
        [(TermKind.SIN, 2, Fraction(3, 4)), (TermKind.SIN, 6, Fraction(-1, 4))]
    )


def test_cos_power_zero_is_one():
    assert cos_power_expand(0, 7) == TrigPoly.constant(1)


def test_cos_identity():
    assert cos_power_expand(1, 4) == TrigPoly([(TermKind.COS, 4, 1)])


def test_cos_squared():
    assert cos_power_expand(2, 1) == TrigPoly(
        [(TermKind.CONST, 0, Fraction(1, 2)), (TermKind.COS, 2, Fraction(1, 2))]
    )


def test_sin_power_requires_positive_exponent():
    with pytest.raises(DomainError):
        sin_power_expand(0, 1)
    with pytest.raises(DomainError):
        sin_power_expand(-2, 1)


def test_zero_frequency_expansions_fold_to_exact_zero_or_one():
    # sin^a(0 * x) is identically 0; cos^c(0 * x) is identically 1.
    for a in range(1, 9):
        assert sin_power_expand(a, 0).is_zero
    for c in range(0, 9):
        assert cos_power_expand(c, 0) == TrigPoly.constant(1)


# ---------------------------------------------------------------------------
# product-to-sum


def test_product_sin_cos():
    u = TrigPoly([(TermKind.SIN, 1, 1)])
    v = TrigPoly([(TermKind.COS, 1, 1)])
    assert trig_product(u, v) == TrigPoly([(TermKind.SIN, 2, Fraction(1, 2))])


def test_product_sin_sin_matches_power_expansion():
    u = TrigPoly([(TermKind.SIN, 1, 1)])
    assert trig_product(u, u) == sin_power_expand(2, 1)


def test_constant_absorption():
    three = TrigPoly.constant(3)
    poly = TrigPoly([(TermKind.SIN, 2, Fraction(5, 7)), (TermKind.COS, 4, -2)])
    assert trig_product(three, poly) == poly.scale(3)


def test_negative_frequency_normalization():
    assert TrigPoly([(TermKind.SIN, -3, 1)]) == TrigPoly([(TermKind.SIN, 3, -1)])
    assert TrigPoly([(TermKind.COS, -3, Fraction(2, 5))]) == TrigPoly(
        [(TermKind.COS, 3, Fraction(2, 5))]
    )
    assert TrigPoly([(TermKind.SIN, 0, 7)]).is_zero
    assert TrigPoly([(TermKind.COS, 0, 7)]) == TrigPoly.constant(7)


# ---------------------------------------------------------------------------
# pointwise agreement


def test_sin_power_pointwise_agreement():
    xs = _RNG.uniform(0.0, 2.0 * math.pi, 20)
    for a in range(1, 13):
        for p in range(0, 10):
            poly = sin_power_expand(a, p)
            for x in xs:
                assert abs(poly.evaluate(x) - math.sin(p * x) ** a) < 1e-10


def test_cos_power_pointwise_agreement():
    xs = _RNG.uniform(0.0, 2.0 * math.pi, 20)
    for c in range(0, 13):
        for q in range(0, 10):
            poly = cos_power_expand(c, q)
            for x in xs:
                assert abs(poly.evaluate(x) - math.cos(q * x) ** c) < 1e-10


def test_product_pointwise_agreement():
    xs = _RNG.uniform(0.0, 2.0 * math.pi, 10)
    for a in range(1, 7):
        for c in range(0, 5):
            for p, q in [(1, 1), (2, 3), (5, 2), (4, 0)]:
                poly = product_expansion(a, c, p, q)
                for x in xs:
                    assert abs(poly.evaluate(x) - direct_value(a, c, p, q, x)) < 1e-10


# ---------------------------------------------------------------------------
# parity shape


def test_sin_power_parity_shape():
    for a in range(1, 13):
        kinds = sin_power_expand(a, 3).kinds()
        if a % 2:
            assert kinds <= {TermKind.SIN}
        else:
            assert kinds <= {TermKind.CONST, TermKind.COS}


def test_derivative_expansion_parity_shape():
    for a in range(1, 7):
        for h in range(0, 6):
            kinds = derivative_expansion(a, 2, 2, 1, h).kinds()
            if (a - h) % 2:
                assert kinds <= {TermKind.SIN}
            else:
                assert kinds <= {TermKind.CONST, TermKind.COS}


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_expansion_examples():
    assert derivative_expansion(2, 0, 1, 0, 0) == TrigPoly(
        [(TermKind.CONST, 0, Fraction(1, 2)), (TermKind.COS, 2, Fraction(-1, 2))]
    )
    assert derivative_expansion(2, 0, 1, 0, 1) == TrigPoly([(TermKind.SIN, 2, 1)])
    assert derivative_expansion(2, 0, 1, 0, 2) == TrigPoly([(TermKind.COS, 2, 2)])


def test_derivative_expansion_rejects_bad_domain():
    with pytest.raises(DomainError):
        derivative_expansion(0, 0, 1, 0, 1)
    with pytest.raises(DomainError):
        derivative_expansion(2, -1, 1, 0, 1)
    with pytest.raises(DomainError):
        derivative_expansion(2, 0, 1, 0, -1)


def test_order_zero_equals_product_expansion():
    for a in range(1, 7):
        for c in range(0, 5):
            for p in range(0, 4):
                for q in range(0, 4):
                    assert derivative_expansion(a, c, p, q, 0) == product_expansion(a, c, p, q)


def test_closed_form_matches_stepwise_differentiation():
    for a in range(1, 7):
        for c in range(0, 4):
            for p, q in [(1, 1), (3, 2), (2, 0), (0, 2)]:
                stepwise = product_expansion(a, c, p, q)
                for h in range(1, 7):
                    stepwise = stepwise.derivative()
                    assert derivative_expansion(a, c, p, q, h) == stepwise


def test_successive_orders_are_termwise_derivatives():
    for a, c, p, q in [(2, 0, 1, 0), (3, 2, 2, 1), (5, 3, 3, 2), (4, 4, 1, 3)]:
        for h in range(0, 6):
            assert (
                derivative_expansion(a, c, p, q, h).derivative()
                == derivative_expansion(a, c, p, q, h + 1)
            )


def test_value_at_zero_reproduces_integrand_at_origin():
    # sin^a(0) cos^c(0) is 0 for a >= 1; the pure cosine expansion gives 1.
    # The coefficients are dyadic, so the double sums are exact.
    for a in range(1, 9):
        assert sin_power_expand(a, 2).evaluate(0.0) == 0.0
        assert product_expansion(a, 3, 2, 1).evaluate(0.0) == 0.0
    for c in range(0, 9):
        assert cos_power_expand(c, 3).evaluate(0.0) == 1.0


def test_spectrum_matches_product_expansion():
    # The product-to-sum route is the independent reference for the one
    # spectrum every closed form reduces; this box reaches past criterion 6.
    for a in range(1, 15):
        kind = TermKind.COS if a % 2 == 0 else TermKind.SIN
        for c in range(0, 7):
            for p in range(0, 7):
                for q in range(0, 7):
                    from_spectrum = TrigPoly((kind, L, w) for L, w in spectrum(a, c, p, q).items())
                    reference = product_expansion(a, c, p, q).scale(2 ** (a + c - 1))
                    assert from_spectrum == reference, (a, c, p, q)


def test_value_at_pi_matches_float_evaluation():
    for a, c, p, q in [(2, 1, 1, 2), (3, 0, 2, 0), (4, 2, 3, 1)]:
        poly = product_expansion(a, c, p, q)
        exact = float(poly.value_at_pi())
        assert abs(exact - poly.evaluate(math.pi)) < 1e-9


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
)
def test_product_expansion_pointwise_property(a, c, p, q, x):
    poly = product_expansion(a, c, p, q)
    assert abs(poly.evaluate(x) - direct_value(a, c, p, q, x)) < 1e-10
