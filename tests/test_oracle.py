"""Oracle tests: decimal rendering and direct quadrature of the integrand."""

import math
from fractions import Fraction

import numpy as np
import pytest

import sincint.oracle as oracle_module
from sincint import (
    ExactValue,
    IntegralParams,
    QuadratureError,
    TermKind,
    evaluate,
    product_expansion,
    quadrature,
    to_decimal,
    verify,
)

PI_HALF = 1.5707963267948966
PI_THIRD = 1.0471975511965976
THREE_QUARTER_LN3 = 0.8239592165010823  # (3/4) ln 3 at 50-digit working precision


def test_to_decimal_pi_half():
    assert to_decimal(ExactValue.pi_multiple(Fraction(1, 2))) == PI_HALF


def test_to_decimal_log_value():
    value = ExactValue(log_coeffs={3: Fraction(3, 4)})
    assert abs(to_decimal(value) - THREE_QUARTER_LN3) < 1e-15


def test_to_decimal_zero():
    assert to_decimal(ExactValue.zero()) == 0.0


def test_to_decimal_scaling_stays_within_ulps():
    value = ExactValue(Fraction(1, 3), {2: Fraction(-5, 8), 5: Fraction(7, 3)})
    for factor in (Fraction(2), Fraction(3, 7), Fraction(11, 4)):
        scaled = to_decimal(value.scale(factor))
        direct = float(factor) * to_decimal(value)
        assert abs(scaled - direct) <= 4 * math.ulp(max(abs(scaled), abs(direct)))


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
    for tol in (1e-9, math.nan):
        with pytest.raises(ValueError):
            quadrature(IntegralParams(2, 2, 0, 1, 0), tol)


def test_quadrature_fails_loudly_on_tiny_budget(monkeypatch):
    monkeypatch.setattr(oracle_module, "_MAX_NODES", 40)
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


def _counting_integrand(monkeypatch):
    calls = []
    make = oracle_module._make_integrand

    def counting(*args):
        f = make(*args)

        def counted(x):
            calls.append(len(x))
            return f(x)

        return counted

    monkeypatch.setattr(oracle_module, "_make_integrand", counting)
    return calls


def test_rounding_floor_refuses_after_first_panelization(monkeypatch):
    # 3000^3 * pi/3 to 1e-6 needs relative precision 3.5e-17, below double rounding.
    calls = _counting_integrand(monkeypatch)
    with pytest.raises(QuadratureError, match="rounding floor"):
        quadrature(IntegralParams(4, 4, 0, 3000, 0), 1e-6)
    assert len(calls) == 1  # the first panelization, no refinement round


def test_node_budget_refuses_before_the_fft(monkeypatch):
    def no_profile(*args):
        raise AssertionError("the period profile ran")

    monkeypatch.setattr(oracle_module, "_period_profile", no_profile)
    calls = _counting_integrand(monkeypatch)
    # Coprime frequencies: omega = 299971, one period is 18M evaluations.
    with pytest.raises(QuadratureError, match="budget"):
        quadrature(IntegralParams(2, 2, 1, 99991, 99989), 1e-6)
    assert calls == []


def test_quadrature_refuses_values_beyond_double_range():
    # (sin(100x)/x)^300 reaches 100^300 near 0; 1000^299 is the gcd scale factor.
    for params in (IntegralParams(300, 300, 1, 100, 99), IntegralParams(300, 300, 0, 1000, 0)):
        with pytest.raises(QuadratureError, match="double range"):
            quadrature(params, 1e-6)


def test_head_refuses_instead_of_refining(monkeypatch):
    # A discontinuous stand-in: its Kronrod error estimate cannot meet tol / 2
    # on the first panels, and the head refuses rather than splitting them.
    calls = []

    def square_wave(*args):
        def f(x):
            calls.append(len(x))
            return np.where(np.sin(7.3 * x) > 0, 1.0, -1.0) / (1 + x) ** 2

        return f

    monkeypatch.setattr(oracle_module, "_make_integrand", square_wave)
    with pytest.raises(QuadratureError, match="error estimate"):
        quadrature(IntegralParams(2, 2, 0, 1, 0), 1e-6)
    assert len(calls) == 1


def test_node_budget_covers_the_head_extension(monkeypatch):
    # The head of I(9, 6, 0, 51, 24) is extended over [X, 2X]; with a budget of
    # exactly its first pass the extension must be refused, not run afresh.
    params = IntegralParams(9, 6, 0, 51, 24)
    calls = _counting_integrand(monkeypatch)
    quadrature(params, 1e-6)
    assert len(calls) == 2
    monkeypatch.setattr(oracle_module, "_MAX_NODES", calls[0])
    with pytest.raises(QuadratureError, match="budget"):
        quadrature(params, 1e-6)


def _profile_from_expansion(a, c, p, q):
    """mu_1..mu_5 and the Fourier terms of W_4 from the exact product-to-sum expansion.

    W_0 = g - mu_1; G_j is the antiderivative of W_(j-1) vanishing at 0,
    mu_(j+1) its mean and W_j = G_j - mu_(j+1).  From 0, cos(Lx) integrates to
    sin(Lx)/L and sin(Lx) to (1 - cos(Lx))/L.
    """
    poly = product_expansion(a, c, p, q)
    mus = [poly.coeff(TermKind.CONST)]
    cos = {t.frequency: t.coeff for t in poly if t.kind is TermKind.COS}
    sin = {t.frequency: t.coeff for t in poly if t.kind is TermKind.SIN}
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
                    mus, max_last, _ = oracle_module._period_profile(a, c, p, q)
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


def test_error_bound_covers_true_error_on_sample():
    cases = [
        (2, 2, 0, 1, 0), (3, 2, 0, 1, 0), (4, 3, 2, 2, 3), (9, 9, 4, 5, 5),
        (10, 2, 4, 5, 5), (5, 3, 2, 2, 3), (6, 4, 1, 3, 2),
        # reduced by gcd(p, q) before integrating
        (4, 3, 2, 6, 9), (6, 4, 0, 12, 5), (2, 2, 0, 9000, 0),
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
    est, bound = quadrature(IntegralParams(1, 1, 0, 1, 0), 1e-6, allow_b1=True)
    assert abs(est - PI_HALF) <= bound
    est, bound = quadrature(IntegralParams(3, 1, 0, 1, 0), 1e-6, allow_b1=True)
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
    record = report.to_json_dict()
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
    assert report.to_json_dict()["reason"] == "synthetic failure"
