"""Closed-form evaluator tests: anchors, scaling, shape and domain errors."""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sincint.evaluator as evaluator_module
import sincint.identities as identities_module
from reference_trig import derivative, product_expansion
from scaling import rescaled
from sincint import (
    DomainError,
    ExactValue,
    IntegralParams,
    evaluate,
    identity_sweep,
    quadrature,
    spectrum,
    to_decimal,
    verify,
)


def test_classical_anchors_exact():
    assert evaluate(IntegralParams(2, 2, 0, 1, 0)) == ExactValue(pi_coeff=Fraction(1, 2))
    assert evaluate(IntegralParams(4, 4, 0, 1, 0)) == ExactValue(pi_coeff=Fraction(1, 3))
    assert evaluate(IntegralParams(3, 3, 0, 1, 0)) == ExactValue(pi_coeff=Fraction(3, 8))


def test_log_case_base_value():
    assert evaluate(IntegralParams(3, 2, 0, 1, 0)) == ExactValue(log_coeffs={3: Fraction(3, 4)})


def test_log_case_frequency_scaling():
    assert evaluate(IntegralParams(3, 2, 0, 2, 0)) == ExactValue(log_coeffs={3: Fraction(3, 2)})


def test_log_case_zero_frequency_shortcircuit():
    assert evaluate(IntegralParams(3, 2, 0, 0, 5)) == ExactValue()


def test_mixed_product_pi_value():
    # sin^2 x cos^2 x = sin^2(2x)/4, so the integral is a quarter of 2 * pi/2.
    assert evaluate(IntegralParams(2, 2, 2, 1, 1)) == ExactValue(pi_coeff=Fraction(1, 4))


def test_mixed_product_log_value():
    # sin^3 x cos x = sin(2x)/4 - sin(4x)/8; the divergences cancel to ln(2)/2.
    assert evaluate(IntegralParams(3, 2, 1, 1, 1)) == ExactValue(log_coeffs={2: Fraction(1, 2)})


def test_even_a_over_x_squared_pinned_by_oracle():
    # Brute instantiation of the same-parity sum gives pi/4 here, and the
    # independent quadrature agrees; pinned as a regression value.
    value = evaluate(IntegralParams(4, 2, 0, 1, 0))
    assert value == ExactValue(pi_coeff=Fraction(1, 4))
    estimate, bound = quadrature(IntegralParams(4, 2, 0, 1, 0), 1e-6)
    assert abs(to_decimal(value) - estimate) <= 1e-6 + bound


def test_sign_flip_of_p_with_odd_a():
    assert evaluate(IntegralParams(3, 2, 0, -1, 0)) == ExactValue(log_coeffs={3: Fraction(-3, 4)})


def test_case_shape_on_small_grid():
    for a in range(2, 9):
        for b in range(2, a + 1):
            for c in range(0, 3):
                for p in range(1, 4):
                    for q in range(0, 3):
                        value = evaluate(IntegralParams(a, b, c, p, q))
                        if (a - b) % 2 == 0:
                            assert value.log_coeffs == {}
                        else:
                            assert value.pi_coeff == 0


def test_exact_scaling_law_for_pure_sine():
    for a in range(2, 11):
        for b in range(2, a + 1):
            base = evaluate(IntegralParams(a, b, 0, 1, 0))
            for p in range(1, 10):
                scaled = evaluate(IntegralParams(a, b, 0, p, 0))
                assert scaled == rescaled(base, Fraction(p) ** (b - 1))


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
    flipped = evaluate(IntegralParams(a, b, c, -p, q))
    direct = evaluate(IntegralParams(a, b, c, p, q))
    assert flipped == (rescaled(direct, -1) if a % 2 else direct)


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-5, max_value=5),
)
def test_zero_p_always_zero(a, b, c, q):
    if a < b:
        a, b = b, a
    assert evaluate(IntegralParams(a, b, c, 0, q)) == ExactValue()


def test_magnitude_bounded_by_pure_sine_value():
    # |I(a,b,c,p,q)| <= |I(a,b,0,p,0)| within rendering noise.
    for a, b, c, p, q in [
        (2, 2, 1, 1, 1), (3, 2, 2, 1, 3), (5, 3, 4, 2, 1),
        (6, 4, 3, 3, 2), (7, 5, 2, 1, 5), (4, 2, 4, 2, 4),
    ]:
        full = abs(to_decimal(evaluate(IntegralParams(a, b, c, p, q))))
        pure = abs(to_decimal(evaluate(IntegralParams(a, b, 0, p, 0))))
        assert full <= pure + 1e-9


def test_domain_error_names_constraint():
    with pytest.raises(DomainError) as excinfo:
        evaluate(IntegralParams(2, 3, 0, 1, 0))
    assert excinfo.value.constraint == "a >= b"
    with pytest.raises(DomainError) as excinfo:
        IntegralParams(3, 0, 0, 1, 0)
    assert excinfo.value.constraint == "b >= 1"


def test_b_one_with_odd_a_needs_no_flag():
    # The library takes b = 1 with odd a as it is; only the CLI asks for --allow-b1.
    params = IntegralParams(3, 1, 0, 1, 0)
    assert evaluate(params) == ExactValue(pi_coeff=Fraction(1, 4))
    estimate, bound = quadrature(params, 1e-6)
    assert abs(estimate - math.pi / 4) <= bound
    assert verify(params, 1e-6).passed
    for call in (evaluate, quadrature, verify):
        with pytest.raises(DomainError) as excinfo:
            call(IntegralParams(4, 1, 0, 1, 0))
        assert excinfo.value.constraint == "odd a when b = 1"


def test_b_one_with_even_a_rejected_even_with_flag():
    # The integral diverges: the library refuses it, and so does the CLI under --allow-b1.
    with pytest.raises(DomainError) as excinfo:
        evaluate(IntegralParams(4, 1, 0, 1, 0))
    assert str(excinfo.value) == "b = 1 requires odd a (the even-a integral diverges)"


def test_negative_c_rejected():
    with pytest.raises(DomainError):
        IntegralParams(3, 2, -1, 1, 0)


def test_non_integer_rejected():
    with pytest.raises(DomainError):
        IntegralParams(3, 2.0, 0, 1, 0)


def test_b_one_extension_values():
    assert evaluate(IntegralParams(1, 1, 0, 1, 0)) == ExactValue(pi_coeff=Fraction(1, 2))
    assert evaluate(IntegralParams(3, 1, 0, 1, 0)) == ExactValue(pi_coeff=Fraction(1, 4))
    assert evaluate(IntegralParams(5, 1, 0, 1, 0)) == ExactValue(pi_coeff=Fraction(3, 16))


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
    assert evaluate(IntegralParams(2, 2, 0, 0, 0)) == ExactValue()
    assert evaluate(IntegralParams(3, 2, 1, 0, 2)) == ExactValue()


def test_parity_classification():
    # (a - b) % 2 alone picks the case: 0 gives a multiple of pi, 1 a log combination.
    for a in range(2, 9):
        for b in range(2, a + 1):
            value = evaluate(IntegralParams(a, b, 0, 1, 0))
            if (a - b) % 2 == 0:
                assert value.log_coeffs == {} and value.pi_coeff != 0, (a, b)
            else:
                assert value.pi_coeff == 0 and value.log_coeffs != {}, (a, b)


def test_desk_scale_powers_stay_exact():
    # Frequencies reach 180 and powers reach 18 here, far beyond int64; the
    # prime-basis scaling law must still hold with exact equality.
    base = evaluate(IntegralParams(20, 19, 0, 1, 0))
    scaled = evaluate(IntegralParams(20, 19, 0, 9, 0))
    assert scaled == rescaled(base, Fraction(9) ** 18)
    assert scaled.pi_coeff == 0
    assert any(coeff.numerator > 10**18 for coeff in scaled.log_coeffs.values())


def test_large_prime_frequency_is_reduced_by_the_gcd():
    # Only the reduced frequencies are factored: trial division of 2^61 - 1
    # would not finish.  verify evaluates first, and its oracle then refuses
    # the case at once on its node budget.
    big = 2**61 - 1
    assert evaluate(IntegralParams(3, 2, 0, big, 0)) == rescaled(evaluate(IntegralParams(3, 2, 0, 1, 0)), big)
    report = verify(IntegralParams(3, 2, 0, big, 0))
    assert not report.passed and report.reason is not None


def test_factoring_work_is_bounded_before_it_starts():
    # c > 0 with coprime frequencies leaves |L| = p + q prime.  2*10^11 + 41
    # is still factored; 2*10^13 + 21 is over the trial-division limit and is
    # refused at once, by evaluate and by verify, which evaluates first.
    assert str(evaluate(IntegralParams(3, 2, 1, 10**11, 10**11 + 41))) == (
        "1000000000041/8*ln(3) + 123/8*ln(41) + 400000000041/8*ln(197) + 199999999959/8*ln(1109)"
        " + 199999999959/8*ln(3463) + 199999999959/8*ln(17359) + 400000000041/8*ln(225606317)"
        " - 600000000123/8*ln(200000000041)"
    )
    params = IntegralParams(3, 2, 1, 10**13, 10**13 + 21)
    for call in (evaluate, verify):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="trial divisions"):
            call(params)
        assert time.perf_counter() - start < 0.1
    # Same parity factors nothing and is never refused.
    assert evaluate(IntegralParams(3, 3, 1, 10**13, 10**13 + 21)).log_coeffs == {}


def test_big_integer_work_is_bounded_before_it_starts():
    # (100001, 2, 0, 1, 0) needs a gcd of two 100,000-bit integers for each of
    # 9,592 primes and does not finish in 10 s; it is refused before the
    # spectrum, by evaluate and by verify, which evaluates first.
    params = IntegralParams(100001, 2, 0, 1, 0)
    for call in (evaluate, verify):
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(DomainError, match="bit operations") as excinfo:
                call(params)
            elapsed.append(time.perf_counter() - start)
            assert excinfo.value.constraint == "bit operations <= 1000000000"
        assert min(elapsed) < 1e-3
    # The estimate by hand for (100001, 2, 1, 3, 1), where |p'| = 3 > 1: max |L| =
    # 3a + c = 300,004 (19 bits), 50,001 products and 100,002 distinct |L| of
    # a + c + 19 + 1 = 100,022 bits; 50,001 * 100,002 + 100,002 * 100,022, plus
    # 2 * 300,004 // 19 = 31,579 primes times 100,022^2 >> 9 for the log case:
    # 5,000,200,002 + 10,002,400,044 + 617,048,755,633.
    with pytest.raises(DomainError) as excinfo:
        evaluate(IntegralParams(100001, 2, 1, 3, 1))
    assert str(excinfo.value) == "the closed form needs about 632051355679 bit operations"
    # Below the limit the value is unchanged: its text is 2,146,086 characters.
    text = str(evaluate(IntegralParams(800, 401, 200, 13, 11)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3caa72151568972ec25039449fd0f988b491fba182958119c0e6198b832edf66"
    )


# ---------------------------------------------------------------------------
# an exact second route: the paper's integration by parts


def _trial_factor(m):
    factors, d = {}, 2
    while m > 1:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    return factors


def by_parts(a, b, c, p, q):
    """I(a, b, c, p, q) from the expanded integrand, without the spectrum.

    sin^a has a zero of order a >= b at 0, so integrating by parts b-1 times
    leaves no boundary terms: I = integral of f^(b-1)(x)/x dx / (b-1)!, with
    f = sin^a(|p|x) cos^c(|q|x) and the factor sign(p)^a.  Same parity makes
    f^(b-1) a sine polynomial (Dirichlet: each sin(Lx)/x gives pi/2);
    opposite parity a cosine polynomial whose coefficients sum to
    f^(b-1)(0) = 0 (Frullani: the sum of c_L cos(Lx)/x gives -sum c_L ln L).
    """
    f = product_expansion(a, c, abs(p), abs(q))
    for _ in range(b - 1):
        f = derivative(f)
    scale = Fraction(-1 if p < 0 and a % 2 else 1, math.factorial(b - 1))
    if (a - b) % 2 == 0:
        assert all(kind == "sin" for kind, _ in f)
        return ExactValue(pi_coeff=scale * sum(f.values()) / 2)
    assert all(kind == "cos" and L > 0 for kind, L in f)
    assert sum(f.values()) == 0
    logs = {}
    for (_, L), coeff in f.items():
        for prime, exp in _trial_factor(L).items():
            logs[prime] = logs.get(prime, 0) - scale * exp * coeff
    return ExactValue(log_coeffs=logs)


def test_closed_forms_match_integration_by_parts():
    rng = random.Random(12)
    cases = [(200, 101, 50, 13, 11), (40, 21, 10, 7, 3), (7, 4, 3, 6, -4), (9, 2, 2, -10, 15)]
    for _ in range(2000):
        a = rng.randint(2, 12)
        cases.append((a, rng.randint(2, a), rng.randint(0, 3), rng.randint(-6, 6), rng.randint(-6, 6)))
    for case in cases:
        assert evaluate(IntegralParams(*case)) == by_parts(*case), case


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
    assert exact(a, b, a, p, p) == rescaled(exact(a, b, 0, 2 * p, 0), Fraction(1, 2**a))


@settings(max_examples=300)
@given(_a_and_b, st.integers(min_value=2, max_value=7), st.integers(min_value=-6, max_value=6))
def test_pythagorean_relation(ab, c, p):
    # cos^c(px) = cos^(c-2)(px) (1 - sin^2(px))
    a, b = ab
    whole, lower, raised = exact(a, b, c, p, p), exact(a, b, c - 2, p, p), exact(a + 2, b, c - 2, p, p)
    assert whole.pi_coeff == lower.pi_coeff - raised.pi_coeff
    for rho in {*whole.log_coeffs, *lower.log_coeffs, *raised.log_coeffs}:
        assert whole.log_coeffs.get(rho, 0) == lower.log_coeffs.get(rho, 0) - raised.log_coeffs.get(rho, 0)


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
    assert exact(a, b, c, g * p, g * q) == rescaled(exact(a, b, c, p, q), Fraction(g) ** (b - 1))


def test_no_consumer_reads_the_spectrum_key_order(monkeypatch):
    # The spectrum is a sum: evaluate, to_decimal and the sweep give the same
    # results when its keys come in reversed order.
    rng = random.Random(20261021)
    cases = [(2 * rng.randint(1, 7), 2 * rng.randint(0, 3)) for _ in range(100)]  # even a, even c
    cases += [(rng.randint(2, 14), rng.randint(0, 6)) for _ in range(200)]
    cases = [(a, rng.randint(2, a), c, rng.randint(-7, 7), rng.randint(-7, 7)) for a, c in cases]

    def outputs():
        values = [evaluate(IntegralParams(*case)) for case in cases]
        return [str(v) for v in values], [repr(to_decimal(v)) for v in values], identity_sweep(8, 4, 3, 3)

    before = outputs()

    def reversed_spectrum(a, c, p, q):
        return dict(reversed(spectrum(a, c, p, q).items()))

    monkeypatch.setattr(evaluator_module, "spectrum", reversed_spectrum)
    monkeypatch.setattr(identities_module, "spectrum", reversed_spectrum)
    assert list(reversed_spectrum(4, 2, 1, 2)) != list(spectrum(4, 2, 1, 2))
    assert outputs() == before
