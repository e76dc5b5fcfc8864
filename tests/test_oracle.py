"""Oracle tests: decimal rendering (sincint.exact.to_decimal) and direct quadrature of the integrand."""

import itertools
import json
import math
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import libmp

import sincint.exact as exact_module
import sincint.numeric as numeric_module
import sincint.oracle as oracle_module
from reference_trig import product_expansion
from scaling import rescaled
from sincint import (
    DomainError,
    ExactValue,
    IntegralParams,
    QuadratureError,
    evaluate,
    quadrature,
    to_decimal,
    verify,
)
from sincint.exact import _is_prime

PI_HALF = 1.5707963267948966
PI_THIRD = 1.0471975511965976
THREE_QUARTER_LN3 = 0.8239592165010823  # (3/4) ln 3 at 50-digit working precision


def test_to_decimal_pi_half():
    assert to_decimal(ExactValue(pi_coeff=Fraction(1, 2))) == PI_HALF


def test_to_decimal_log_value():
    value = ExactValue(log_coeffs={3: Fraction(3, 4)})
    assert abs(to_decimal(value) - THREE_QUARTER_LN3) < 1e-15


def test_to_decimal_zero():
    assert to_decimal(ExactValue()) == 0.0


def test_to_decimal_scaling_stays_within_ulps():
    value = ExactValue(Fraction(1, 3), {2: Fraction(-5, 8), 5: Fraction(7, 3)})
    for factor in (Fraction(2), Fraction(3, 7), Fraction(11, 4)):
        scaled = to_decimal(rescaled(value, factor))
        direct = float(factor) * to_decimal(value)
        assert abs(scaled - direct) <= 4 * math.ulp(max(abs(scaled), abs(direct)))


def _mpf_route(value: ExactValue) -> float:
    """to_decimal as written with mpmath's mpf objects at 50 digits."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        if value.pi_coeff:
            total += mpmath.mpf(value.pi_coeff.numerator) / value.pi_coeff.denominator * mpmath.pi
        for prime, coeff in value.log_coeffs.items():
            total += mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.log(prime)
        return float(total)


def _seeded_values(seed, count, draw):
    rng = random.Random(seed)
    values = []
    while len(values) < count:
        try:
            values.append(evaluate(IntegralParams(*draw(rng))))
        except DomainError:
            continue
    return values


def _small_case(rng):
    a = rng.randint(2, 10)
    return a, rng.randint(2, a), rng.randint(0, 4), rng.randint(-5, 5), rng.randint(-5, 5)


def _large_log_case(rng):
    a = rng.randint(40, 200)
    b = rng.randrange(3 - a % 2, a, 2)  # a - b odd: a log value
    return a, b, rng.randint(0, 50), rng.randint(-13, 13), rng.randint(-13, 13)


def test_to_decimal_is_bit_identical_to_the_mpf_route():
    big = 10**400
    values = [
        *_seeded_values(3, 300, _small_case),
        *_seeded_values(5, 12, _large_log_case),
        evaluate(IntegralParams(200, 101, 50, 13, 11)),
        ExactValue(),
        *(ExactValue(pi_coeff=Fraction(n, d)) for n, d in ((1, 2), (-3, 8), (5, 1), (1, 10**30))),
        ExactValue(pi_coeff=Fraction(big)),
        ExactValue(pi_coeff=Fraction(-big)),
        ExactValue(log_coeffs={2: Fraction(big), 3: Fraction(-big)}),
    ]
    mismatches = [v for v in values if repr(to_decimal(v)) != repr(_mpf_route(v))]
    assert not mismatches
    assert [to_decimal(v) for v in values[-3:]] == [math.inf, -math.inf, -math.inf]


def test_to_decimal_is_unchanged_after_the_log_memo_evicts_its_primes():
    value = ExactValue(Fraction(1, 3), {2: Fraction(-5, 8), 7919: Fraction(7, 3)})
    first = to_decimal(value)
    for n in range(10**6, 10**6 + exact_module._LN_CACHE_SIZE):  # any integer has a logarithm
        exact_module._ln(n)
    misses = exact_module._ln.cache_info().misses
    assert to_decimal(value) == first
    assert exact_module._ln.cache_info().misses == misses + 2  # both primes were evicted


def test_pi_is_mpmath_pi_at_the_working_precision():
    assert exact_module._PREC == libmp.dps_to_prec(50)
    assert libmp.from_man_exp(*exact_module._PI) == libmp.mpf_pi(exact_module._PREC, libmp.round_nearest)


def test_ln_is_mpmath_log_at_the_working_precision():
    # 2^k and 3 * 2^(k-1) are where the reduction n = 2^k * r, r in [3/4, 3/2), changes k.
    rng = random.Random(28)
    edges = [n + d for k in range(1, 81) for n in (2**k, 3 * 2 ** (k - 1)) for d in (-1, 0, 1)]
    seeded = [rng.randrange(2, 10 ** rng.randint(2, 24)) for _ in range(500)]
    for n in [*filter(_is_prime, range(10**4)), *(n for n in edges if n >= 2), *seeded]:
        expected = libmp.mpf_log(libmp.from_int(n), exact_module._PREC, libmp.round_nearest)
        assert libmp.from_man_exp(*exact_module._ln(n)) == expected, n


def test_to_decimal_matches_the_mpf_route_where_far_apart_terms_take_the_shortcut():
    # pi * 10^60 and ln 2 / 10^60 are about 400 bits apart; a term more than 173 bits
    # (the precision and 4) below the other cannot change its rounding.  The
    # ln 2 / 2^j terms cross that threshold at j = 172.
    values = [
        *(ExactValue(Fraction(s * 10**60), {2: Fraction(1, 10**60)}) for s in (1, -1)),
        *(ExactValue(Fraction(1, 10**60), {2: Fraction(s * 10**60)}) for s in (1, -1)),
        *(ExactValue(Fraction(1), {2: Fraction(s, 2**j)}) for j in range(150, 200) for s in (1, -1)),
        *(ExactValue(Fraction(s, 2**j), {2: Fraction(1)}) for j in range(150, 200) for s in (1, -1)),
    ]
    assert [v for v in values if repr(to_decimal(v)) != repr(_mpf_route(v))] == []


def _value_summing_to_a_double_tie():
    """ln 3 + c * ln(q) whose 169-bit sum lies exactly half-way between two doubles."""
    with mpmath.workdps(50):
        big = mpmath.log(3)
        cut = int(big.bc) - 53  # the top 53 bits of ln 3 and a last, 54th bit set
        tie = mpmath.mpf(((int(big.man) >> cut << 1) | 1, int(big.exp) + cut - 1))
        for q in (2, 5, 7, 11, 13):
            frac, exp = mpmath.frexp((tie - big) / mpmath.log(q))  # 1/2 <= |frac| < 1
            for d in range(-2, 3):  # steps of one 169-bit ulp
                coeff = Fraction(int(mpmath.ldexp(frac, 169)) + d, 2 ** (169 - int(exp)))
                if big + mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.log(q) == tie:
                    return ExactValue(log_coeffs={3: Fraction(1), q: coeff})
    raise AssertionError("no coefficient found")


def test_to_decimal_matches_the_mpf_route_on_a_tie_and_on_subnormals():
    tie = _value_summing_to_a_double_tie()
    subnormals = [ExactValue(pi_coeff=Fraction(n, 2**e)) for n in (1, -3, 7) for e in (1022, 1050, 1070, 1074, 1076)]
    for value in [tie, *subnormals]:
        assert repr(to_decimal(value)) == repr(_mpf_route(value)), value
    assert 0 < abs(to_decimal(ExactValue(pi_coeff=Fraction(1, 2**1070)))) < sys.float_info.min


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_to_decimal_large_a_cancellation():
    # The log coefficients reach 4.7e147 and cancel far beyond 50 digits.  A
    # 1,200-digit mpmath sum of the same terms gives this double, and a
    # 1,500-digit sum agrees.
    assert to_decimal(evaluate(IntegralParams(200, 101, 50, 13, 11))) == 1.0004139670736968e87


def test_quadrature_classic_anchors():
    est, bound = quadrature(IntegralParams(2, 2, 0, 1, 0), 1e-6)
    assert bound <= 1e-6
    assert abs(est - PI_HALF) <= bound

    est, bound = quadrature(IntegralParams(3, 2, 0, 1, 0), 1e-6)
    assert abs(est - THREE_QUARTER_LN3) <= bound

    est, bound = quadrature(IntegralParams(4, 4, 0, 1, 0), 1e-6)
    assert abs(est - PI_THIRD) <= bound


def test_quadrature_zero_p_shortcircuits():
    assert quadrature(IntegralParams(3, 2, 0, 0, 4), 1e-6) == (0.0, 0.0)


def test_quadrature_signed_estimate():
    est, bound = quadrature(IntegralParams(3, 2, 0, -1, 0), 1e-6)
    assert abs(est + THREE_QUARTER_LN3) <= bound


def test_quadrature_rejects_tolerance_below_floor():
    # A bool is an int to Python but no tolerance, a str or Decimal is no real
    # number, and 10^400 is past double range.
    for tol in (1e-9, math.nan, math.inf, True, "1e-6", Decimal("1e-6"), 10**400):
        with pytest.raises(ValueError):
            quadrature(IntegralParams(2, 2, 0, 1, 0), tol)
        with pytest.raises(ValueError):
            verify(IntegralParams(3, 2, 0, 1, 0), tol)


def test_verify_checks_its_tolerance_before_evaluating(monkeypatch):
    # The closed form of (100001, 2, 0, 1, 0) is over a work limit: a DomainError if evaluated.
    def no_evaluation(*args, **kwargs):
        raise AssertionError("verify evaluated before checking its tolerance")

    monkeypatch.setattr(oracle_module, "evaluate", no_evaluation)
    for tol in (1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"is not a finite number >= 1e-08, the double-precision oracle's floor"):
            verify(IntegralParams(100001, 2, 0, 1, 0), tol)


@pytest.mark.parametrize("tol", [1, np.float64(1e-6), np.float32(1e-6), Fraction(1, 10**6)])
def test_any_real_tolerance_is_read_as_a_float(tol):
    # A numpy tolerance made pass a numpy bool, which json refuses.
    report = verify(IntegralParams(2, 2, 0, 1, 0), tol)
    assert type(report.tolerance) is float and report.tolerance == float(tol)
    record = json.loads(report.to_json())
    assert type(record["tol"]) is float and record["tol"] == float(tol)
    assert record["pass"] is True


def test_quadrature_fails_loudly_on_tiny_budget(monkeypatch):
    monkeypatch.setattr(numeric_module, "_MAX_NODES", 40)
    with pytest.raises(QuadratureError):
        quadrature(IntegralParams(6, 2, 4, 5, 5), 1e-6)


def test_gcd_reduction_verifies_high_frequency():
    # gcd(p, q) = p when c = 0, so the oracle integrates I(2, 2, 0, 1, 0) and scales by 9000.
    params = IntegralParams(2, 2, 0, 9000, 0)
    est, bound = quadrature(params, 1e-6)
    assert bound <= 1e-6
    assert abs(est - to_decimal(evaluate(params))) <= bound
    # cos^0 ignores q, so a coprime q must not stop the reduction.
    assert quadrature(IntegralParams(2, 2, 0, 9000, 7), 1e-6) == (est, bound)


def _counting_sampler(monkeypatch):
    """Record the node count of every evaluation pass over the head's periods."""
    calls = []
    sample = numeric_module._sample_period

    def counting(*args):
        half, values = sample(*args)

        def counted(k0, k1):
            fx = values(k0, k1)
            calls.append(fx.size)
            return fx

        return half, counted

    monkeypatch.setattr(numeric_module, "_sample_period", counting)
    return calls


def test_rounding_floor_refuses_after_first_panelization(monkeypatch):
    # 3000^3 * pi/3 to 1e-6 needs relative precision 3.5e-17, below double rounding.
    calls = _counting_sampler(monkeypatch)
    with pytest.raises(QuadratureError, match="rounding floor"):
        quadrature(IntegralParams(4, 4, 0, 3000, 0), 1e-6)
    assert len(calls) == 1  # the first panelization, no refinement round


def test_node_budget_refuses_before_the_fft(monkeypatch):
    def no_profile(*args):
        raise AssertionError("the period profile ran")

    monkeypatch.setattr(numeric_module, "_period_profile", no_profile)
    calls = _counting_sampler(monkeypatch)
    # Coprime frequencies: omega = 299971, one period is 18M evaluations.
    with pytest.raises(QuadratureError, match="budget"):
        quadrature(IntegralParams(2, 2, 1, 99991, 99989), 1e-6)
    assert calls == []


def test_node_budget_refuses_a_long_tail_before_head_sampling(monkeypatch):
    # I(2, 2, 0, 1, 0) has 120 nodes a period and its tail, within a quarter of
    # 1e-6, needs 4 periods (8 within an eighth): the head is one pass of 480
    # nodes.  A budget of two periods refuses the doubling to 4 before the head
    # is sampled at all.
    calls = _counting_sampler(monkeypatch)
    quadrature(IntegralParams(2, 2, 0, 1, 0), 1e-6)
    assert calls == [480]

    def no_sampling(*args):
        raise AssertionError("the head was sampled")

    monkeypatch.setattr(numeric_module, "_MAX_NODES", 240)
    monkeypatch.setattr(numeric_module, "_sample_period", no_sampling)
    with pytest.raises(QuadratureError, match="the head needs 480 evaluations, budget is 240"):
        quadrature(IntegralParams(2, 2, 0, 1, 0), 1e-6)


def test_certified_error_over_tolerance_is_refused(monkeypatch):
    # A reduced bound that uses the whole reduced tolerance leaves no room for
    # the rescaling's rounding, so the final check must refuse.
    monkeypatch.setattr(numeric_module, "_reduced_quadrature", lambda a, b, c, p, q, tol: (1.0, tol))
    with pytest.raises(QuadratureError, match="certified error .* exceeds requested tolerance"):
        quadrature(IntegralParams(5, 3, 0, 2, 0), 1e-6)


def test_certified_bound_covers_the_three_final_roundings(monkeypatch):
    # Even an exact reduced integral leaves half an ulp each for the sum head +
    # tail, for g^(b-1) and for the product: an absolute 1e-12 in place of the
    # first would not cover it above about 9,000.
    monkeypatch.setattr(numeric_module, "_reduced_quadrature", lambda a, b, c, p, q, tol: (16384.5, 0.0))
    est, bound = quadrature(IntegralParams(5, 3, 0, 3, 0), 1e-6)  # g^(b-1) = 9
    assert est == 147460.5 and bound == 1.5 * math.ulp(1.0) * est  # 1.5 eps |est| >= 1.5 ulp(est)


def test_a_gauss_bound_past_double_range_is_refused(monkeypatch):
    # p'^b past double range makes the head's bound inf, not an OverflowError,
    # and the final check refuses it.
    monkeypatch.setattr(numeric_module, "_GL15_PERIOD_ERROR", math.inf)
    with pytest.raises(QuadratureError, match="certified error inf exceeds requested tolerance"):
        quadrature(IntegralParams(2, 2, 0, 1, 0), 1e-6)


def test_quadrature_refuses_values_beyond_double_range():
    # (sin(100x)/x)^300 reaches 100^300 near 0; 1000^299 is the gcd scale factor.
    for params in (IntegralParams(300, 300, 1, 100, 99), IntegralParams(300, 300, 0, 1000, 0)):
        with pytest.raises(QuadratureError, match="double range"):
            quadrature(params, 1e-6)
    # (10^40)^999998 has 4e7 digits: the scale is refused before it is built.
    params = IntegralParams(10**6, 10**6 - 1, 0, 10**40, 0)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match=r"frequency scale 10{40}\^999998 exceeds double range"):
            quadrature(params, 1e-6)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 1e-3


def test_node_budget_covers_the_head_extension(monkeypatch):
    # The head of I(9, 6, 0, 51, 24) is extended over [X, 2X]; with a budget of
    # exactly its first pass the extension must be refused, not run afresh.
    params = IntegralParams(9, 6, 0, 51, 24)
    calls = _counting_sampler(monkeypatch)
    quadrature(params, 1e-6)
    assert len(calls) == 2
    monkeypatch.setattr(numeric_module, "_MAX_NODES", calls[0])
    with pytest.raises(QuadratureError, match="budget"):
        quadrature(params, 1e-6)


def _oracle_head_pass(a, b, c, p, q, k0, k1):
    """The oracle's head pass over periods k0 <= k < k1 on its own 4 omega panels."""
    half, values = numeric_module._sample_period(a, b, c, p, q, 4 * (a * p + c * q))
    return numeric_module._head_pass(half, values, k0, k1, 1e-6, numeric_module._GL15_PERIOD_ERROR * p**b)


def _direct_head(a, b, c, p, q, k0, k1, dtype, panels_per_omega=4):
    """The head's Gauss-Legendre sum over periods k0 <= k < k1 in dtype arithmetic.

    The raw integrand (sin(px)/x)^b sin^(a-b)(px) cos^c(qx) is evaluated at
    every node x = 2pi k + t itself, on panels_per_omega * omega panels a
    period and the oracle's nodes and weights.
    """
    edges = np.linspace(0.0, 2.0 * math.pi, panels_per_omega * (a * p + c * q) + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    t = 0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * numeric_module._NODES
    two_pi = 8 * np.arctan(dtype(1))
    x = two_pi * np.arange(k0, k1, dtype=dtype)[:, None, None] + t.astype(dtype)
    f = (np.sin(p * x) / x) ** b * np.sin(p * x) ** (a - b) * np.cos(q * x) ** c
    return (half.astype(dtype) * (f @ numeric_module._WEIGHTS.astype(dtype))).sum()


def test_head_passes_match_the_raw_integrand_period_by_period():
    # Period 0 alone, periods past it, and an [X, 2X] extension pass: an
    # off-by-one in k, or a skipped or doubled period, moves the sum far
    # beyond the claimed bound.
    for a, b, c, p, q in [(9, 6, 0, 17, 8), (7, 6, 3, 23, 11), (5, 3, 2, 2, 3)]:
        for k0, k1 in [(0, 1), (0, 4), (1, 4), (4, 8)]:
            head, bound = _oracle_head_pass(a, b, c, p, q, k0, k1)
            direct = _direct_head(a, b, c, p, q, k0, k1, np.float64)
            assert abs(head - direct) <= bound, (a, b, c, p, q, k0, k1)


def _parity_cases():
    """Every parity of p, q, a - b and c, and c = 0 with q = 0, at grid and high frequencies.

    The sampler needs only integer p and q, so p and q may share a factor here.
    """
    cases = []
    for (p_even, p_odd), (q_even, q_odd) in [((2, 3), (4, 1)), ((98, 101), (76, 75))]:
        for p, (a, b) in itertools.product((p_even, p_odd), ((5, 3), (5, 2))):
            cases += [(a, b, c, p, q) for c in (2, 3) for q in (q_even, q_odd)]
            cases.append((a, b, 0, p, 0))
    return cases


def test_unfolded_period_matches_the_raw_integrand_node_by_node():
    # The sampler takes its sines and cosines on a quarter period and unfolds
    # them by sign flips; a wrong sign moves a value by twice its size.
    cases = _parity_cases()
    assert {(p % 2, q % 2, (a - b) % 2, c % 2) for a, b, c, p, q in cases if c} == set(
        itertools.product((0, 1), repeat=4)
    )
    for a, b, c, p, q in cases:
        panels = 4 * (a * p + c * q)
        half, values = numeric_module._sample_period(a, b, c, p, q, panels)
        assert half == math.pi / panels
        edges = np.linspace(0.0, 2.0 * math.pi, panels + 1)
        t = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * numeric_module._NODES
        for k0, k1 in [(0, 1), (3, 5)]:
            x = 2.0 * math.pi * np.arange(k0, k1)[:, None, None] + t
            direct = (np.sin(p * x) / x) ** b * np.sin(p * x) ** (a - b) * np.cos(q * x) ** c
            # Rounding p*x moves a value by about omega ulps of x * max |(sin(px)/x)^b|.
            tol = 4 * (a * p + c * q) * np.spacing(x * np.minimum(p, 1.0 / x) ** b)
            assert np.all(np.abs(values(k0, k1) - direct) <= tol), (a, b, c, p, q, k0, k1)


def test_sampler_takes_sines_and_cosines_on_a_quarter_period(monkeypatch):
    counts = {"sin": 0, "cos": 0}
    for name in counts:

        def counting(x, *args, _name=name, _ufunc=getattr(np, name), **kwargs):
            counts[_name] += np.size(x)
            return _ufunc(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    panels = 4 * (10 * 5 + 4 * 3)
    half, values = numeric_module._sample_period(10, 2, 4, 5, 3, panels)
    values(0, 4)
    assert counts == {"sin": 15 * panels // 4, "cos": 15 * panels // 4}


_LONG_DOUBLE_CASES = [(9, 6, 0, 17, 8), (7, 6, 3, 23, 11), (4, 4, 2, 9, 7), (10, 10, 2, 2, 1)]
_no_wider_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= 52, reason="long double is no wider than double"
)


@_no_wider_long_double
def test_head_bound_covers_rounding_against_long_double():
    for a, b, c, p, q in _LONG_DOUBLE_CASES:
        for periods in (4, 16):
            head, bound = _oracle_head_pass(a, b, c, p, q, 0, periods)
            reference = _direct_head(a, b, c, p, q, 0, periods, np.longdouble)
            assert abs(np.longdouble(head) - reference) <= bound, (a, b, c, p, q, periods)


@_no_wider_long_double
def test_head_bound_covers_the_gauss_error_against_finer_panels():
    # Four times narrower panels shrink the Gauss error bound by 4^30, so in
    # long double the 16 omega sum stands for the exact integral over the head.
    for a, b, c, p, q in _LONG_DOUBLE_CASES:
        for periods in (4, 16):
            head, bound = _oracle_head_pass(a, b, c, p, q, 0, periods)
            coarse = _direct_head(a, b, c, p, q, 0, periods, np.longdouble)
            fine = _direct_head(a, b, c, p, q, 0, periods, np.longdouble, panels_per_omega=16)
            assert abs(coarse - fine) <= bound, (a, b, c, p, q, periods)


def test_gauss_legendre_15_table_and_error_constant():
    with mpmath.workdps(40):

        def legendre(x):
            return mpmath.legendre(15, x)

        # Newton from cos(pi (i - 1/4) / 15.5) reaches the i-th largest root; P_15 is odd.
        positive = [mpmath.findroot(legendre, mpmath.cos(mpmath.pi * (i - 0.25) / 15.5)) for i in range(1, 8)]
        assert all(x > y > 0 for x, y in zip(positive, positive[1:]))  # 7 distinct: with 0 and -x, all 15
        roots = [-x for x in positive] + [mpmath.mpf(0)] + positive[::-1]
        for node, weight, x in zip(numeric_module._NODES, numeric_module._WEIGHTS, roots):
            slope = 15 * (x * legendre(x) - mpmath.legendre(14, x)) / (x * x - 1)
            assert abs(node - x) <= math.ulp(node) / 2, x
            assert abs(weight - 2 / ((1 - x * x) * slope**2)) <= math.ulp(weight) / 2, x
        c15 = (mpmath.pi / 2) ** 30 * mpmath.factorial(15) ** 4 / (31 * mpmath.factorial(30) ** 3)
        assert abs(numeric_module._GL15_PERIOD_ERROR / (2 * mpmath.pi * c15) - 1) <= 1e-14
    assert math.fsum(numeric_module._WEIGHTS) == 2.0


def _profile_from_expansion(a, c, p, q):
    """mu_1..mu_5 and the Fourier terms of W_4 from the exact product-to-sum expansion.

    W_0 = g - mu_1; G_j is the antiderivative of W_(j-1) vanishing at 0,
    mu_(j+1) its mean and W_j = G_j - mu_(j+1).  From 0, cos(Lx) integrates to
    sin(Lx)/L and sin(Lx) to (1 - cos(Lx))/L.
    """
    f = product_expansion(a, c, p, q)
    cos = {L: k for (kind, L), k in f.items() if kind == "cos"}
    mus = [cos.pop(0, Fraction(0))]  # the constant cos(0x)
    sin = {L: s for (kind, L), s in f.items() if kind == "sin"}
    for _ in range(4):
        mus.append(sum((s / L for L, s in sin.items()), Fraction(0)))
        cos, sin = {L: -s / L for L, s in sin.items()}, {L: k / L for L, k in cos.items()}
    return mus, cos, sin


def test_period_profile_matches_product_expansion():
    xs = np.linspace(0.0, 2.0 * math.pi, 4097)
    for a in range(1, 9):
        for c in range(0, 5):
            for p in range(1, 5):
                for q in range(0, 5):
                    mus, max_last, _ = numeric_module._period_profile(a, c, p, q)
                    exact_mus, cos, sin = _profile_from_expansion(a, c, p, q)
                    for got, want in zip(mus, exact_mus[:4]):
                        assert abs(got - float(want)) <= 1e-12, (a, c, p, q)
                    # G_4 = W_4 + mu_5 is the antiderivative the remainder bound covers.
                    last = np.full(xs.shape, float(exact_mus[4]))
                    for L, k in cos.items():
                        last += float(k) * np.cos(L * xs)
                    for L, s in sin.items():
                        last += float(s) * np.sin(L * xs)
                    assert np.abs(last).max() <= max_last, (a, c, p, q)


def test_period_profile_is_computed_once_per_reduced_key():
    # b, the common factor g and the signs leave the reduced (a, c, p', q') =
    # (6, 2, 1, 2) of every case here, so the profile is computed once.
    cases = [(6, b, 2, 2, 4) for b in range(2, 7)] + [(6, 3, 2, 1, 2), (6, 3, 2, -3, -6)]
    numeric_module._period_profile.cache_clear()
    for case in cases:
        assert verify(IntegralParams(*case), 1e-6).passed, case
    info = numeric_module._period_profile.cache_info()
    assert (info.misses, info.hits) == (1, len(cases) - 1)
    assert info.maxsize == numeric_module._PROFILE_CACHE_SIZE
    mus, max_last, mu_err = numeric_module._period_profile(6, 2, 1, 2)
    assert isinstance(mus, tuple) and len(mus) == numeric_module._LEVELS


def test_memoized_profile_leaves_reports_bit_identical():
    # Cold, every report computes its own profile; then the set runs twice
    # without clearing, sharing profiles across b, g and signs, and the
    # second pass takes every profile from the memo.
    rng = random.Random(15)
    cases = []
    for _ in range(80):
        a = rng.randint(2, 8)
        g, sp, sq = rng.randint(1, 4), rng.choice((-1, 1)), rng.choice((-1, 1))
        cases.append((a, rng.randint(2, a), rng.randint(0, 3), sp * g * rng.randint(1, 3), sq * g * rng.randint(0, 3)))
    cold = []
    for case in cases:
        numeric_module._period_profile.cache_clear()
        cold.append(repr(verify(IntegralParams(*case), 1e-6)))
    numeric_module._period_profile.cache_clear()
    shared = [repr(verify(IntegralParams(*case), 1e-6)) for case in cases]
    misses = numeric_module._period_profile.cache_info().misses
    warm = [repr(verify(IntegralParams(*case), 1e-6)) for case in cases]
    assert shared == warm == cold
    assert misses < len(cases) and numeric_module._period_profile.cache_info().misses == misses


def _tail_reference(b, mus, max_last, mu_err, periods):
    """The tail's value, bound and sum of |value terms| at 50 digits from the same float inputs."""
    with mpmath.workdps(50):
        x = mpmath.mpf(numeric_module._PERIOD) * periods
        weights = [1 / mpmath.mpf(b - 1) if b >= 2 else 0] + [mpmath.rf(b, i - 1) for i in range(1, 5)]
        terms = [w * mu * x ** -(b - 1 + i) for i, (w, mu) in enumerate(zip(weights, mus))]
        bound = sum(w * mu_err * x ** -(b - 1 + i) for i, w in enumerate(weights[:4]))
        bound += weights[4] * max_last * x ** -(b + 3)
        return sum(terms), bound, sum(abs(term) for term in terms)


def test_tail_matches_the_series_at_50_digits():
    # Odd a, so b = 1 is in the family; the profile's mu_1 is then rounding only.
    mus, max_last, mu_err = numeric_module._period_profile(7, 1, 2, 1)
    for b, periods in itertools.product((1, 2, 3, 7), (1, 4, 64)):
        value, bound = numeric_module._tail(b, mus, max_last, mu_err, periods)
        ref_value, ref_bound, magnitude = _tail_reference(b, mus, max_last, mu_err, periods)
        assert abs(value - ref_value) <= 4 * numeric_module._EPS * magnitude, (b, periods)
        assert abs(bound - ref_bound) <= 4 * numeric_module._EPS * ref_bound, (b, periods)


def test_tail_bound_falls_with_the_periods_and_b_one_has_no_mean_term():
    mus, max_last, mu_err = numeric_module._period_profile(5, 2, 1, 3)
    for b in (1, 2, 3, 7):
        bounds = [numeric_module._tail(b, mus, max_last, mu_err, 2**j)[1] for j in range(17)]
        assert all(later <= earlier for earlier, later in zip(bounds, bounds[1:])), b
    shifted = (1e300,) + mus[1:]
    for periods in (1, 4, 64):
        tail = numeric_module._tail(1, mus, max_last, mu_err, periods)
        assert numeric_module._tail(1, shifted, max_last, mu_err, periods) == tail
        assert numeric_module._tail(2, shifted, max_last, mu_err, periods)[0] != tail[0]


def test_error_bound_covers_true_error_on_sample():
    cases = [
        (2, 2, 0, 1, 0), (3, 2, 0, 1, 0), (4, 3, 2, 2, 3), (9, 9, 4, 5, 5),
        (10, 2, 4, 5, 5), (5, 3, 2, 2, 3), (6, 4, 1, 3, 2),
        # reduced by gcd(p, q) before integrating
        (4, 3, 2, 6, 9), (6, 4, 0, 12, 5), (2, 2, 0, 9000, 0),
        # sin^150 underflows at the first nodes, where (sin(x)/x)^150 is near 1
        (150, 150, 0, 1, 0),
    ]
    for a, b, c, p, q in cases:
        params = IntegralParams(a, b, c, p, q)
        est, bound = quadrature(params, 1e-6)
        exact = to_decimal(evaluate(params))
        assert abs(est - exact) <= bound


def test_halving_tolerance_does_not_worsen_agreement():
    cases = [(2, 2, 0, 1, 0), (5, 2, 1, 2, 1), (4, 4, 2, 3, 2), (7, 3, 0, 1, 0)]
    for a, b, c, p, q in cases:
        params = IntegralParams(a, b, c, p, q)
        exact = to_decimal(evaluate(params))
        d1 = abs(quadrature(params, 1e-6)[0] - exact)
        d2 = abs(quadrature(params, 5e-7)[0] - exact)
        assert d2 <= d1 + 1e-12


def test_frequency_scaling_echo():
    # I(a, b, c, g*p, g*q) = g^(b-1) I(a, b, c, p, q) within the combined bounds.
    for a, b, c, q in [(2, 2, 0, 0), (5, 3, 0, 0), (6, 4, 0, 0), (5, 3, 2, 2)]:
        base, base_bound = quadrature(IntegralParams(a, b, c, 1, q), 1e-6)
        for g in (2, 3):
            est, bound = quadrature(IntegralParams(a, b, c, g, g * q), 1e-6)
            factor = float(g ** (b - 1))
            assert abs(est - factor * base) <= bound + factor * base_bound + 1e-12


def test_b_one_extension_quadrature():
    est, bound = quadrature(IntegralParams(1, 1, 0, 1, 0), 1e-6)
    assert abs(est - PI_HALF) <= bound
    est, bound = quadrature(IntegralParams(3, 1, 0, 1, 0), 1e-6)
    assert abs(est - math.pi / 4) <= bound


def test_verify_pass_case():
    report = verify(IntegralParams(5, 3, 2, 2, 3), 1e-6)
    assert report.passed
    assert report.abs_diff <= report.tolerance + report.oracle_error_bound


def test_verify_trivial_zero_case():
    report = verify(IntegralParams(3, 2, 0, 0, 1), 1e-6)
    assert report.passed
    assert report.exact_decimal == 0.0
    assert report.oracle_estimate == 0.0


def test_verify_anchor_diff_small():
    report = verify(IntegralParams(2, 2, 0, 1, 0), 1e-6)
    assert report.passed
    assert report.abs_diff < 2e-6


def test_verify_report_json_schema():
    report = verify(IntegralParams(2, 2, 0, 1, 0), 1e-6)
    record = json.loads(report.to_json())
    assert set(record) == {
        "a", "b", "c", "p", "q", "exact", "exact_decimal", "oracle",
        "error_bound", "abs_diff", "tol", "pass",
    }
    assert record["exact"] == "1/2*pi"
    assert record["pass"] is True


def test_verify_wraps_quadrature_failure(monkeypatch):
    def boom(*args, **kwargs):
        raise QuadratureError("synthetic failure")

    monkeypatch.setattr(oracle_module, "quadrature", boom)
    report = oracle_module.verify(IntegralParams(2, 2, 0, 1, 0), 1e-6)
    assert not report.passed
    assert report.reason == "synthetic failure"
    assert report.oracle_estimate is None
    assert json.loads(report.to_json())["reason"] == "synthetic failure"
