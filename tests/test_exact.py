"""Exact-core tests: binomial weights, factorization, and canonical value algebra."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sincint import (
    ExactValue,
    evaluate_integral,
    is_prime,
    parse_exact_value,
    prime_factorization,
    spectrum,
)

# ---------------------------------------------------------------------------
# independent oracles


def pascal_binomial(n: int, k: int) -> int:
    """Binomial oracle: build Pascal's triangle row by row, integers only."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def brute_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=48)

_exact_values = st.builds(
    ExactValue,
    pi_coeff=_rationals,
    log_coeffs=st.dictionaries(st.sampled_from(_SMALL_PRIMES), _rationals, max_size=4),
)


# ---------------------------------------------------------------------------
# binomial weights of the frequency spectrum


def test_binomial_standard_example():
    # 2^3 sin^4(x) = 3 - 4 cos(2x) + cos(4x); the constant is C(4, 2) / 2.
    assert spectrum(4, 0, 1, 0) == {4: 1, 2: -4, 0: 3}


def test_binomial_out_of_range_is_zero():
    # Only frequencies inside the band |L| <= a|p| + c|q| with the parity
    # of ap + cq carry weight; the sums need no clamped binomials.
    for a, c, p, q in [(5, 3, 2, 1), (4, 2, 3, -2), (6, 0, -1, 4), (3, 4, 0, 3)]:
        band = a * abs(p) + c * abs(q)
        for frequency in spectrum(a, c, p, q):
            assert abs(frequency) <= band
            assert (frequency - a * p - c * q) % 2 == 0


def test_binomial_large_value_against_pascal_oracle():
    expected = pascal_binomial(40, 20)
    assert expected == 137846528820
    weights = spectrum(40, 0, 1, 0)
    assert weights.pop(0) == expected // 2
    assert weights == {40 - 2 * i: (-1) ** i * pascal_binomial(40, i) for i in range(20)}


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        spectrum(3, -1, 1, 1)
    with pytest.raises(ValueError):
        spectrum(0, 2, 1, 1)


def test_binomial_is_exact_rational_type():
    weights = spectrum(60, 6, 3, 2)
    assert all(type(w) is int for w in weights.values())
    assert max(abs(w) for w in weights.values()) > 2**53


# ---------------------------------------------------------------------------
# factorization and logs


@given(st.integers(min_value=1, max_value=20000))
def test_factorization_recomposes_and_uses_primes(m):
    factors = prime_factorization(m)
    product = 1
    for prime, exponent in factors.items():
        assert brute_is_prime(prime)
        assert exponent >= 1
        product *= prime**exponent
    assert product == m


def test_factorization_rejects_nonpositive():
    with pytest.raises(ValueError):
        prime_factorization(0)


@given(st.integers(min_value=-3, max_value=10000))
def test_is_prime_matches_brute_force(n):
    assert is_prime(n) == brute_is_prime(n)


def test_log_of_one_is_zero():
    # ln(1) has no prime terms.
    assert prime_factorization(1) == {}


def test_log_of_twelve():
    # ln(12) = 2 ln(2) + ln(3)
    assert prime_factorization(12) == {2: 2, 3: 1}


def test_log_of_nine_with_rational_weight():
    # sin^3(3x) has frequencies 3 and 9; ln(9) = 2 ln(3), so
    # I(3,2,0,3,0) = 3 * I(3,2,0,1,0) = 3 * 3/4 ln(3).
    assert prime_factorization(9) == {3: 2}
    assert evaluate_integral(3, 2, 0, 3, 0) == ExactValue(log_coeffs={3: Fraction(9, 4)})


def test_log_rejects_nonpositive_argument():
    for m in (0, -5):
        with pytest.raises(ValueError):
            prime_factorization(m)
        with pytest.raises(ValueError):
            ExactValue(log_coeffs={m: Fraction(1)})


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
def test_log_homomorphism(m, n):
    # ln(mn) = ln(m) + ln(n): exponents add prime by prime.
    assert Counter(prime_factorization(m * n)) == (
        Counter(prime_factorization(m)) + Counter(prime_factorization(n))
    )


# ---------------------------------------------------------------------------
# ExactValue algebra


def test_add_collects_pi():
    half = ExactValue.pi_multiple(Fraction(1, 2))
    assert half + half == ExactValue.pi_multiple(1)


def test_scale_example():
    value = ExactValue(log_coeffs={3: Fraction(3, 4)})
    assert value.scale(-4) == ExactValue(log_coeffs={3: Fraction(-3)})


def test_cancellation_removes_key():
    u = ExactValue(log_coeffs={3: Fraction(3, 4)})
    v = ExactValue(log_coeffs={3: Fraction(-3, 4)})
    total = u + v
    assert total.is_zero
    assert total.log_coeffs == {}


def test_zero_coefficients_are_dropped_on_construction():
    assert ExactValue(0, {2: Fraction(0)}) == ExactValue.zero()


def test_nonprime_log_key_rejected():
    with pytest.raises(ValueError):
        ExactValue(log_coeffs={6: Fraction(1)})
    with pytest.raises(ValueError):
        ExactValue(log_coeffs={1: Fraction(1)})


@given(_exact_values, _exact_values)
def test_add_commutative(u, v):
    assert u + v == v + u


@given(_exact_values, _exact_values, _exact_values)
def test_add_associative(u, v, w):
    assert (u + v) + w == u + (v + w)


@given(_exact_values, _exact_values, _rationals)
def test_scale_distributes_over_add(u, v, r):
    assert (u + v).scale(r) == u.scale(r) + v.scale(r)


@given(_exact_values)
def test_subtraction_gives_zero(u):
    assert (u - u).is_zero


# ---------------------------------------------------------------------------
# canonical text form


@pytest.mark.parametrize(
    "value,text",
    [
        (ExactValue.zero(), "0"),
        (ExactValue.pi_multiple(Fraction(1, 2)), "1/2*pi"),
        (ExactValue(log_coeffs={3: Fraction(3, 4)}), "3/4*ln(3)"),
        (ExactValue(log_coeffs={3: Fraction(-3, 4)}), "-3/4*ln(3)"),
        (
            ExactValue(Fraction(1, 3), {2: Fraction(-5, 8)}),
            "1/3*pi - 5/8*ln(2)",
        ),
        (
            ExactValue(Fraction(-2), {2: Fraction(1), 5: Fraction(7, 3)}),
            "-2*pi + 1*ln(2) + 7/3*ln(5)",
        ),
    ],
)
def test_canonical_rendering(value, text):
    assert str(value) == text
    assert parse_exact_value(text) == value


@given(_exact_values)
def test_text_round_trip(value):
    assert parse_exact_value(str(value)) == value


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_exact_value("pi + 3")
    with pytest.raises(ValueError):
        parse_exact_value("1/2*log(3)")
