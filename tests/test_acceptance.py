"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass line on success (visible with pytest -s);
the per-criterion verdicts also appear as the test outcomes themselves.
"""

import math
import time
from fractions import Fraction

import numpy as np

from reference_trig import derivative, evaluate as evaluate_poly, product_expansion, spectrum_derivative
from scaling import rescaled
from sincint import (
    ExactValue,
    IntegralParams,
    evaluate,
    identity_sweep,
    quadrature,
    spectrum,
    to_decimal,
)

GRID_TOL = 1e-6
GRID_AGREEMENT = 2e-6


def _report(number: int, name: str) -> None:
    print(f"acceptance criterion {number} ({name}): PASS")


def _grid_params():
    for a in range(2, 11):
        for b in range(2, a + 1):
            for c in range(0, 5):
                for p in range(1, 6):
                    for q in range(0, 6):
                        yield IntegralParams(a, b, c, p, q)


def test_criterion_1_classical_anchors():
    assert evaluate(IntegralParams(2, 2, 0, 1, 0)) == ExactValue(pi_coeff=Fraction(1, 2))
    assert evaluate(IntegralParams(4, 4, 0, 1, 0)) == ExactValue(pi_coeff=Fraction(1, 3))
    assert evaluate(IntegralParams(3, 3, 0, 1, 0)) == ExactValue(pi_coeff=Fraction(3, 8))
    _report(1, "classical anchors, exact equality")


def test_criterion_2_identity_certification():
    report = identity_sweep(20, 6, 7, 7)
    assert report.checked == 44800
    assert report.all_zero, f"nonzero identity tuples: {report.failures[:3]}"
    _report(2, "boundary identity sweep a<=20 c<=6 p<=7 q<=7")


def test_criterion_3_oracle_agreement_grid():
    checked = 0
    worst = 0.0
    worst_margin = (0.0, None)  # |diff| / (GRID_TOL + bound): 1 would use the whole allowance
    slowest = (0.0, None)
    for params in _grid_params():
        exact_decimal = to_decimal(evaluate(params))
        start = time.perf_counter()
        estimate, bound = quadrature(params, GRID_TOL)
        slowest = max(slowest, (time.perf_counter() - start, params), key=lambda t: t[0])
        diff = abs(exact_decimal - estimate)
        worst = max(worst, diff)
        worst_margin = max(worst_margin, (diff / (GRID_TOL + bound), params), key=lambda t: t[0])
        assert diff <= GRID_AGREEMENT, f"oracle disagreement at {params}: {diff:.3e}"
        checked += 1
    assert checked == 6750
    print(f"oracle grid: {checked} cases, worst |exact - oracle| = {worst:.3e}")
    print(f"oracle grid: worst margin {worst_margin[0]:.3e} at {worst_margin[1]}, "
          f"slowest case {1e3 * slowest[0]:.2f} ms at {slowest[1]}")
    _report(3, "oracle agreement on the full (a,b,c,p,q) grid")


def test_criterion_4_exact_scaling_law():
    for a in range(2, 11):
        for b in range(2, a + 1):
            base = evaluate(IntegralParams(a, b, 0, 1, 0))
            for p in range(1, 10):
                assert evaluate(IntegralParams(a, b, 0, p, 0)) == rescaled(base, Fraction(p) ** (b - 1))
    _report(4, "exact p^(b-1) scaling for c = 0")


def test_criterion_5_case_shape_invariants():
    for params in _grid_params():
        value = evaluate(params)
        if (params.a - params.b) % 2 == 0:
            assert value.log_coeffs == {}, f"unexpected logs at {params}"
        else:
            assert value.pi_coeff == 0, f"unexpected pi term at {params}"
        # p = 0 collapses to the exact zero value.
        zero_p = IntegralParams(params.a, params.b, params.c, 0, params.q)
        assert evaluate(zero_p) == ExactValue()
        # p -> -p multiplies by (-1)^a exactly.
        flipped = evaluate(
            IntegralParams(params.a, params.b, params.c, -params.p, params.q)
        )
        expected = rescaled(value, -1) if params.a % 2 else value
        assert flipped == expected
    _report(5, "case shapes, zero cases and sign symmetry on the grid")


def test_criterion_6_expansion_equivalence():
    rng = np.random.default_rng(20260810)
    points = rng.uniform(0.0, 2.0 * math.pi, 100)
    for a in range(1, 9):
        for c in range(0, 5):
            for p in range(0, 5):
                for q in range(0, 5):
                    stepwise = product_expansion(a, c, p, q)
                    # pointwise agreement of the expansion with the integrand
                    for x in points:
                        direct = math.sin(p * x) ** a * math.cos(q * x) ** c
                        assert abs(evaluate_poly(stepwise, x) - direct) < 1e-10
                    weights = spectrum(a, c, p, q)
                    for h in range(0, 7):
                        closed = spectrum_derivative(weights, a, c, h)
                        assert closed == stepwise, (
                            f"closed-form vs stepwise mismatch at a={a} c={c} p={p} q={q} h={h}"
                        )
                        stepwise = derivative(stepwise)
    _report(6, "closed-form derivatives equal term-wise differentiation")


def test_criterion_7_b1_extension():
    assert evaluate(IntegralParams(1, 1, 0, 1, 0)) == ExactValue(pi_coeff=Fraction(1, 2))
    value = evaluate(IntegralParams(3, 1, 0, 1, 0))
    assert value == ExactValue(pi_coeff=Fraction(1, 4))
    estimate, bound = quadrature(IntegralParams(3, 1, 0, 1, 0), GRID_TOL)
    assert abs(to_decimal(value) - estimate) <= 1e-5
    _report(7, "b = 1 with odd a matches the oracle")
