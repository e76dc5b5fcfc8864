"""Spectrum tests against the product-to-sum reference: shapes, pointwise agreement, derivatives."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_trig
from reference_trig import derivative, evaluate, poly, product, product_expansion, spectrum_derivative, value_at_pi
from sincint import DomainError, boundary_identity_sum, spectrum

_RNG = np.random.default_rng(20260810)
ONE = {("cos", 0): Fraction(1)}


def direct_value(a, c, p, q, x):
    return math.sin(p * x) ** a * math.cos(q * x) ** c


def closed_derivative(a, c, p, q, h):
    return spectrum_derivative(spectrum(a, c, p, q), a, c, h)


# ---------------------------------------------------------------------------
# power-reduction examples of the reference


def test_sin_identity_expansion():
    assert product_expansion(1, 0, 3, 0) == poly([("sin", 3, 1)])


def test_sin_squared():
    assert product_expansion(2, 0, 1, 0) == poly([("cos", 0, Fraction(1, 2)), ("cos", 2, Fraction(-1, 2))])


def test_sin_cubed_scaled_frequency():
    assert product_expansion(3, 0, 2, 0) == poly([("sin", 2, Fraction(3, 4)), ("sin", 6, Fraction(-1, 4))])


def test_cos_power_zero_is_one():
    assert product_expansion(0, 0, 0, 7) == ONE


def test_cos_identity():
    assert product_expansion(0, 1, 0, 4) == poly([("cos", 4, 1)])


def test_cos_squared():
    assert product_expansion(0, 2, 0, 1) == poly([("cos", 0, Fraction(1, 2)), ("cos", 2, Fraction(1, 2))])


def test_sin_power_requires_positive_exponent():
    with pytest.raises(DomainError):
        spectrum(0, 1, 1, 1)
    with pytest.raises(DomainError):
        spectrum(-2, 0, 1, 0)


def test_expansions_take_either_frequency_sign_and_reject_negative_cos_exponent():
    # sin(-u) = -sin(u) and cos(-u) = cos(u): a negative frequency negates odd sine powers only,
    # in the reference and in the spectrum's weights, whose keys stay m = |L|.
    for e in range(0, 7):
        for f in range(0, 5):
            assert product_expansion(0, e, 0, -f) == product_expansion(0, e, 0, f)
            sign = -1 if e % 2 else 1
            flipped = {key: sign * k for key, k in product_expansion(e, 0, f, 0).items()}
            assert product_expansion(e, 0, -f, 0) == flipped
            if e:
                assert spectrum(e, 0, -f, 0) == {m: sign * w for m, w in spectrum(e, 0, f, 0).items()}
    with pytest.raises(DomainError):
        spectrum(1, -1, 1, 1)


def test_zero_frequency_expansions_fold_to_exact_zero_or_one():
    # sin^a(0 * x) is identically 0; cos^c(0 * x) is identically 1.
    for a in range(1, 9):
        assert product_expansion(a, 0, 0, 0) == {}
    for c in range(0, 9):
        assert product_expansion(0, c, 0, 0) == ONE


# ---------------------------------------------------------------------------
# product-to-sum


def test_product_sin_cos():
    assert product(poly([("sin", 1, 1)]), poly([("cos", 1, 1)])) == poly([("sin", 2, Fraction(1, 2))])


def test_product_sin_sin_matches_power_expansion():
    u = poly([("sin", 1, 1)])
    assert product(u, u) == product_expansion(2, 0, 1, 0)


def test_constant_absorption():
    three = poly([("cos", 0, 3)])
    u = poly([("sin", 2, Fraction(5, 7)), ("cos", 4, -2)])
    tripled = poly([("sin", 2, Fraction(15, 7)), ("cos", 4, -6)])
    assert product(three, u) == tripled
    assert product(u, three) == tripled
    assert derivative(three) == {}
    assert value_at_pi(three) == 3


def test_negative_frequency_normalization():
    assert poly([("sin", -3, 1)]) == poly([("sin", 3, -1)])
    assert poly([("cos", -3, Fraction(2, 5))]) == poly([("cos", 3, Fraction(2, 5))])
    assert poly([("sin", 0, 7)]) == {}
    assert poly([("cos", 0, 7)]) == {("cos", 0): Fraction(7)}
    assert poly([("cos", -2, 7), ("cos", 2, -7)]) == {}


# ---------------------------------------------------------------------------
# pointwise agreement


def test_sin_power_pointwise_agreement():
    xs = _RNG.uniform(0.0, 2.0 * math.pi, 20)
    for a in range(1, 13):
        for p in range(0, 10):
            u = product_expansion(a, 0, p, 0)
            for x in xs:
                assert abs(evaluate(u, x) - math.sin(p * x) ** a) < 1e-10


def test_cos_power_pointwise_agreement():
    xs = _RNG.uniform(0.0, 2.0 * math.pi, 20)
    for c in range(0, 13):
        for q in range(0, 10):
            u = product_expansion(0, c, 0, q)
            for x in xs:
                assert abs(evaluate(u, x) - math.cos(q * x) ** c) < 1e-10


def test_product_pointwise_agreement():
    xs = _RNG.uniform(0.0, 2.0 * math.pi, 10)
    for a in range(1, 7):
        for c in range(0, 5):
            for p, q in [(1, 1), (2, 3), (5, 2), (4, 0)]:
                u = product_expansion(a, c, p, q)
                for x in xs:
                    assert abs(evaluate(u, x) - direct_value(a, c, p, q, x)) < 1e-10


# ---------------------------------------------------------------------------
# parity shape


def test_sin_power_parity_shape():
    for a in range(1, 13):
        kinds = {kind for kind, _ in product_expansion(a, 0, 3, 0)}
        assert kinds <= ({"sin"} if a % 2 else {"cos"})


def test_derivative_expansion_parity_shape():
    for a in range(1, 7):
        for h in range(0, 6):
            kinds = {kind for kind, _ in closed_derivative(a, 2, 2, 1, h)}
            assert kinds <= ({"sin"} if (a - h) % 2 else {"cos"})


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_expansion_examples():
    assert closed_derivative(2, 0, 1, 0, 0) == poly([("cos", 0, Fraction(1, 2)), ("cos", 2, Fraction(-1, 2))])
    assert closed_derivative(2, 0, 1, 0, 1) == poly([("sin", 2, 1)])
    assert closed_derivative(2, 0, 1, 0, 2) == poly([("cos", 2, 2)])


def test_order_zero_equals_product_expansion():
    for a in range(1, 7):
        for c in range(0, 5):
            for p in range(-3, 4):
                for q in range(-3, 4):
                    assert closed_derivative(a, c, p, q, 0) == product_expansion(a, c, p, q)


def test_closed_form_matches_stepwise_differentiation():
    for a in range(1, 7):
        for c in range(0, 4):
            for p, q in [(1, 1), (3, 2), (2, 0), (0, 2), (-1, 1), (3, -2), (-2, -3), (0, -2)]:
                stepwise = product_expansion(a, c, p, q)
                for h in range(1, 7):
                    stepwise = derivative(stepwise)
                    assert closed_derivative(a, c, p, q, h) == stepwise


def test_successive_orders_are_termwise_derivatives():
    for a, c, p, q in [(2, 0, 1, 0), (3, 2, 2, 1), (5, 3, 3, 2), (4, 4, 1, 3), (3, 2, -2, 1), (5, 3, 3, -2)]:
        for h in range(0, 6):
            assert derivative(closed_derivative(a, c, p, q, h)) == closed_derivative(a, c, p, q, h + 1)


def test_value_at_zero_reproduces_integrand_at_origin():
    # sin^a(0) cos^c(0) is 0 for a >= 1; the pure cosine expansion gives 1.
    # The coefficients are dyadic, so the double sums are exact.
    for a in range(1, 9):
        assert evaluate(product_expansion(a, 0, 2, 0), 0.0) == 0.0
        assert evaluate(product_expansion(a, 3, 2, 1), 0.0) == 0.0
    for c in range(0, 9):
        assert evaluate(product_expansion(0, c, 0, 3), 0.0) == 1.0


def test_spectrum_matches_product_expansion():
    # The product-to-sum route is the independent reference for the one
    # spectrum every closed form reduces; this box reaches past criterion 6.
    # The signs of p and q cycle through all four patterns across the box.
    signs = ((1, 1), (-1, 1), (1, -1), (-1, -1))
    for a in range(1, 15):
        kind = "cos" if a % 2 == 0 else "sin"
        for c in range(0, 7):
            for p in range(0, 7):
                for q in range(0, 7):
                    sp, sq = signs[(a + c + p + q) % 4]
                    args = (a, c, sp * p, sq * q)
                    scale = 2 ** (a + c - 1)
                    from_spectrum = poly((kind, L, Fraction(w, scale)) for L, w in spectrum(*args).items())
                    assert from_spectrum == product_expansion(*args), args


@given(st.integers(1, 20), st.integers(0, 6), st.integers(-40, 40), st.integers(-40, 40))
def test_spectrum_is_canonical_and_obeys_the_sign_law(a, c, p, q):
    weights = spectrum(a, c, p, q)
    assert all(m >= 0 for m in weights)
    if a % 2:
        assert 0 not in weights  # sin(0x) = 0
    assert spectrum(a, c, -p, q) == {m: (-1) ** a * w for m, w in weights.items()}
    assert spectrum(a, c, p, -q) == weights
    kind = "cos" if a % 2 == 0 else "sin"
    scale = 2 ** (a + c - 1)
    assert poly((kind, m, Fraction(w, scale)) for m, w in weights.items()) == product_expansion(a, c, p, q)


def test_spectrum_matches_the_reference_at_multiples_of_the_hash_modulus():
    # CPython hashes an int as n mod 2^61 - 1, so when p or q is a multiple of it the
    # keys fall on a few hashes, one per term of the other factor.  The weights must
    # not depend on it, and the boundary sums stay zero.
    modulus = 2**61 - 1
    for a in range(1, 9):
        kind = "cos" if a % 2 == 0 else "sin"
        for c in range(0, 13, 3):
            for k in (1, 2):
                for sign in (1, -1):
                    for p, q in ((sign * k * modulus, 1), (sign * k * modulus, -3), (1, sign * k * modulus),
                                 (-3, sign * k * modulus)):
                        weights = spectrum(a, c, p, q)
                        scale = 2 ** (a + c - 1)
                        from_spectrum = poly((kind, m, Fraction(w, scale)) for m, w in weights.items())
                        assert from_spectrum == product_expansion(a, c, p, q), (a, c, p, q)
                        for h in range(a % 2, a - 1, 2):
                            assert boundary_identity_sum(a, c, p, q, h) == 0, (a, c, p, q, h)


def test_spectrum_binomials_at_large_exponents():
    # The weights are built by C(n, i+1) = C(n, i)(n-i)/(i+1); math.comb is the reference.
    for n in (200, 201, 1001, 2000):
        sign = -1 if (n // 2) % 2 else 1
        sines = spectrum(n, 0, 1, 0)
        for i in range((n + 1) // 2):
            assert sines[n - 2 * i] == sign * (-1) ** i * math.comb(n, i), (n, i)
        assert sines.get(0, 0) == (0 if n % 2 else math.comb(n, n // 2) // 2)
        cosines = spectrum(1, n, 1, 10**6)  # L = 1 +- (n - 2j) 10^6 never collide
        for j in range((n + 1) // 2):
            assert cosines[1 + (n - 2 * j) * 10**6] == math.comb(n, j), (n, j)
        assert cosines.get(1, 0) == (0 if n % 2 else math.comb(n, n // 2))


def test_value_at_pi_matches_float_evaluation():
    for a, c, p, q in [(2, 1, 1, 2), (3, 0, 2, 0), (4, 2, 3, 1)]:
        u = product_expansion(a, c, p, q)
        assert abs(float(value_at_pi(u)) - evaluate(u, math.pi)) < 1e-9


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
)
def test_product_expansion_pointwise_property(a, c, p, q, x):
    assert abs(evaluate(product_expansion(a, c, p, q), x) - direct_value(a, c, p, q, x)) < 1e-10


def test_reference_imports_nothing_from_the_package():
    tree = ast.parse(Path(reference_trig.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"math", "fractions"}
