"""Oracle tests: decimal rendering and direct quadrature of the integrand."""

import math
from fractions import Fraction

import pytest

import sincint.oracle as oracle_module
from sincint import (
    ExactValue,
    IntegralParams,
    QuadratureError,
    evaluate,
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


def test_to_decimal_rejects_low_precision():
    with pytest.raises(ValueError):
        to_decimal(ExactValue.pi_multiple(1), digits=10)


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


def test_quadrature_fails_loudly_on_tiny_budget():
    with pytest.raises(QuadratureError):
        quadrature(IntegralParams(6, 2, 4, 5, 5), 1e-6, max_nodes=40)


def test_quadrature_rejects_extreme_oscillation():
    with pytest.raises(QuadratureError):
        quadrature(IntegralParams(2, 2, 0, 9000, 0), 1e-6)


def test_error_bound_covers_true_error_on_sample():
    cases = [
        (2, 2, 0, 1, 0), (3, 2, 0, 1, 0), (4, 3, 2, 2, 3), (9, 9, 4, 5, 5),
        (10, 2, 4, 5, 5), (5, 3, 2, 2, 3), (6, 4, 1, 3, 2),
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
    # c = 0 estimates scale like p^(b-1) within the combined bounds.
    for a, b in [(2, 2), (5, 3), (6, 4)]:
        base, base_bound = quadrature(IntegralParams(a, b, 0, 1, 0), 1e-6)
        for p in (2, 3):
            est, bound = quadrature(IntegralParams(a, b, 0, p, 0), 1e-6)
            factor = float(p ** (b - 1))
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
