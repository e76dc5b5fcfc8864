"""Closed-form evaluator tests: anchors, scaling, shape and domain errors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincint import (
    DomainError,
    ExactValue,
    IntegralParams,
    ParityCase,
    evaluate,
    evaluate_integral,
    normalize_signs,
    quadrature,
    to_decimal,
)


def test_normalize_signs_examples():
    sign, norm = normalize_signs(IntegralParams(3, 2, 0, -1, 2))
    assert (sign, norm.p, norm.q) == (-1, 1, 2)
    sign, norm = normalize_signs(IntegralParams(4, 2, 0, -2, -3))
    assert (sign, norm.p, norm.q) == (1, 2, 3)
    sign, norm = normalize_signs(IntegralParams(3, 2, 0, 0, 1))
    assert (sign, norm.p, norm.q) == (1, 0, 1)


def test_classical_anchors_exact():
    assert evaluate_integral(2, 2, 0, 1, 0) == ExactValue.pi_multiple(Fraction(1, 2))
    assert evaluate_integral(4, 4, 0, 1, 0) == ExactValue.pi_multiple(Fraction(1, 3))
    assert evaluate_integral(3, 3, 0, 1, 0) == ExactValue.pi_multiple(Fraction(3, 8))


def test_log_case_base_value():
    assert evaluate_integral(3, 2, 0, 1, 0) == ExactValue(log_coeffs={3: Fraction(3, 4)})


def test_log_case_frequency_scaling():
    assert evaluate_integral(3, 2, 0, 2, 0) == ExactValue(log_coeffs={3: Fraction(3, 2)})


def test_log_case_zero_frequency_shortcircuit():
    assert evaluate_integral(3, 2, 0, 0, 5).is_zero


def test_mixed_product_pi_value():
    # sin^2 x cos^2 x = sin^2(2x)/4, so the integral is a quarter of 2 * pi/2.
    assert evaluate_integral(2, 2, 2, 1, 1) == ExactValue.pi_multiple(Fraction(1, 4))


def test_mixed_product_log_value():
    # sin^3 x cos x = sin(2x)/4 - sin(4x)/8; the divergences cancel to ln(2)/2.
    assert evaluate_integral(3, 2, 1, 1, 1) == ExactValue(log_coeffs={2: Fraction(1, 2)})


def test_even_a_over_x_squared_pinned_by_oracle():
    # Brute instantiation of the same-parity sum gives pi/4 here, and the
    # independent quadrature agrees; pinned as a regression value.
    value = evaluate_integral(4, 2, 0, 1, 0)
    assert value == ExactValue.pi_multiple(Fraction(1, 4))
    estimate, bound = quadrature(IntegralParams(4, 2, 0, 1, 0), 1e-6)
    assert abs(to_decimal(value) - estimate) <= 1e-6 + bound


def test_sign_flip_of_p_with_odd_a():
    assert evaluate_integral(3, 2, 0, -1, 0) == ExactValue(log_coeffs={3: Fraction(-3, 4)})


def test_case_shape_on_small_grid():
    for a in range(2, 9):
        for b in range(2, a + 1):
            for c in range(0, 3):
                for p in range(1, 4):
                    for q in range(0, 3):
                        value = evaluate_integral(a, b, c, p, q)
                        if (a - b) % 2 == 0:
                            assert value.log_coeffs == {}
                        else:
                            assert value.pi_coeff == 0


def test_exact_scaling_law_for_pure_sine():
    for a in range(2, 11):
        for b in range(2, a + 1):
            base = evaluate_integral(a, b, 0, 1, 0)
            for p in range(1, 10):
                scaled = evaluate_integral(a, b, 0, p, 0)
                assert scaled == base.scale(Fraction(p) ** (b - 1))


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
)
def test_sign_symmetry_property(a, b, c, p, q):
    if a < b:
        a, b = b, a
    flipped = evaluate_integral(a, b, c, -p, q)
    direct = evaluate_integral(a, b, c, p, q)
    assert flipped == (direct.scale(-1) if a % 2 else direct)


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-5, max_value=5),
)
def test_zero_p_always_zero(a, b, c, q):
    if a < b:
        a, b = b, a
    assert evaluate_integral(a, b, c, 0, q).is_zero


def test_magnitude_bounded_by_pure_sine_value():
    # |I(a,b,c,p,q)| <= |I(a,b,0,p,0)| within rendering noise.
    for a, b, c, p, q in [
        (2, 2, 1, 1, 1), (3, 2, 2, 1, 3), (5, 3, 4, 2, 1),
        (6, 4, 3, 3, 2), (7, 5, 2, 1, 5), (4, 2, 4, 2, 4),
    ]:
        full = abs(to_decimal(evaluate_integral(a, b, c, p, q)))
        pure = abs(to_decimal(evaluate_integral(a, b, 0, p, 0)))
        assert full <= pure + 1e-9


def test_domain_error_names_constraint():
    with pytest.raises(DomainError) as excinfo:
        evaluate_integral(2, 3, 0, 1, 0)
    assert excinfo.value.constraint == "a >= b"


def test_b_below_two_requires_flag():
    with pytest.raises(DomainError) as excinfo:
        evaluate_integral(3, 1, 0, 1, 0)
    assert excinfo.value.constraint == "b >= 2"


def test_b_one_with_even_a_rejected_even_with_flag():
    with pytest.raises(DomainError):
        evaluate_integral(4, 1, 0, 1, 0, allow_b1=True)


def test_negative_c_rejected():
    with pytest.raises(DomainError):
        IntegralParams(3, 2, -1, 1, 0)


def test_non_integer_rejected():
    with pytest.raises(DomainError):
        IntegralParams(3, 2.0, 0, 1, 0)


def test_b_one_extension_values():
    assert evaluate_integral(1, 1, 0, 1, 0, allow_b1=True) == ExactValue.pi_multiple(Fraction(1, 2))
    assert evaluate_integral(3, 1, 0, 1, 0, allow_b1=True) == ExactValue.pi_multiple(Fraction(1, 4))
    assert evaluate_integral(5, 1, 0, 1, 0, allow_b1=True) == ExactValue.pi_multiple(Fraction(3, 16))


def test_evaluate_normalizes_frequency_signs():
    # evaluate accepts either sign of p and q: q enters only through |q|,
    # p through the factor sign(p)^a.
    assert evaluate(IntegralParams(2, 2, 0, -1, 0)) == evaluate(IntegralParams(2, 2, 0, 1, 0))
    assert evaluate(IntegralParams(3, 2, 0, 1, -2)) == evaluate(IntegralParams(3, 2, 0, 1, 2))


def test_case_evaluators_enforce_parity():
    # Same parity yields only pi, opposite parity only logarithms.
    same = evaluate(IntegralParams(2, 2, 0, 1, 0))
    assert same.log_coeffs == {} and same.pi_coeff != 0
    opposite = evaluate(IntegralParams(3, 2, 0, 1, 0))
    assert opposite.pi_coeff == 0 and opposite.log_coeffs != {}


def test_case_evaluator_shortcircuits_zero_p():
    assert evaluate(IntegralParams(2, 2, 0, 0, 0)).is_zero
    assert evaluate(IntegralParams(3, 2, 1, 0, 2)).is_zero


def test_parity_classification():
    assert IntegralParams(4, 2, 0, 1, 0).parity_case is ParityCase.SAME
    assert IntegralParams(5, 2, 0, 1, 0).parity_case is ParityCase.OPPOSITE
    params = IntegralParams(5, 2, 3, 1, 0)
    assert (params.s, params.t) == (1, 1)


def test_desk_scale_powers_stay_exact():
    # Frequencies reach 180 and powers reach 18 here, far beyond int64; the
    # prime-basis scaling law must still hold with exact equality.
    base = evaluate_integral(20, 19, 0, 1, 0)
    scaled = evaluate_integral(20, 19, 0, 9, 0)
    assert scaled == base.scale(Fraction(9) ** 18)
    assert scaled.pi_coeff == 0
    assert any(coeff.numerator > 10**18 for coeff in scaled.log_coeffs.values())


# ---------------------------------------------------------------------------
# exact metamorphic relations: integrand identities, not the closed form


def exact(a, b, c, p, q):
    return evaluate(IntegralParams(a, b, c, p, q))


_a_and_b = st.integers(min_value=2, max_value=10).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(min_value=2, max_value=a))
)


@settings(max_examples=300)
@given(_a_and_b, st.integers(min_value=-6, max_value=6))
def test_double_angle_relation(ab, p):
    # sin^a(px) cos^a(px) = 2^-a sin^a(2px)
    a, b = ab
    assert exact(a, b, a, p, p) == exact(a, b, 0, 2 * p, 0).scale(Fraction(1, 2**a))


@settings(max_examples=300)
@given(_a_and_b, st.integers(min_value=2, max_value=7), st.integers(min_value=-6, max_value=6))
def test_pythagorean_relation(ab, c, p):
    # cos^c(px) = cos^(c-2)(px) (1 - sin^2(px))
    a, b = ab
    assert exact(a, b, c, p, p) == exact(a, b, c - 2, p, p) - exact(a + 2, b, c - 2, p, p)


@settings(max_examples=300)
@given(
    _a_and_b,
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4).filter(bool),
    st.integers(min_value=2, max_value=6),
)
def test_gcd_scaling_law_with_cosine_factor(ab, c, p, q, g):
    # u = g x: I(a,b,c,gp,gq) = g^(b-1) I(a,b,c,p,q); criterion 4 covers c = 0 only.
    a, b = ab
    assert exact(a, b, c, g * p, g * q) == exact(a, b, c, p, q).scale(Fraction(g) ** (b - 1))
