"""Boundary-identity tests: exact zero sums and their cross-checks."""

import json

import pytest

from sincint import (
    DomainError,
    boundary_identity_sum,
    derivative_expansion,
    identity_sweep,
    spectrum,
)


def test_simplest_tuple_is_zero():
    assert boundary_identity_sum(2, 0, 1, 0, 0) == 0


def test_big_integer_cancellation():
    assert boundary_identity_sum(5, 3, 2, 3, 3) == 0


def test_heavy_tuple_with_derivative_cross_check():
    # Independent route: differentiate the product expansion term-wise ten
    # times and evaluate exactly at pi via cos(k*pi) = (-1)^k.
    assert boundary_identity_sum(12, 6, 7, 5, 10) == 0
    poly = derivative_expansion(12, 6, 7, 5, 0)
    for _ in range(10):
        poly = poly.derivative()
    assert poly.value_at_pi() == 0


def test_rejects_out_of_range_h():
    with pytest.raises(DomainError):
        boundary_identity_sum(4, 0, 1, 0, 4)  # h > a - 2
    with pytest.raises(DomainError):
        boundary_identity_sum(4, 0, 1, 0, -1)


def test_rejects_parity_mismatch():
    with pytest.raises(DomainError):
        boundary_identity_sum(4, 0, 1, 0, 1)
    with pytest.raises(DomainError):
        boundary_identity_sum(5, 0, 1, 0, 2)


def test_rejects_small_a():
    with pytest.raises(DomainError):
        boundary_identity_sum(1, 0, 1, 0, 0)


def test_sweep_small_bounds_all_pass():
    report = identity_sweep(4, 2, 2, 2)
    assert report.checked > 0
    assert report.all_zero


def swept_tuples(report):
    records = [json.loads(line) for line in report.to_json_lines().splitlines()]
    return {(r["a"], r["c"], r["p"], r["q"], r["h"]) for r in records}


def test_sweep_enumeration_contract():
    report = identity_sweep(2, 0, 1, 0)
    assert swept_tuples(report) == {(2, 0, 0, 0, 0), (2, 0, 1, 0, 0)}
    assert report.checked == 2
    assert report.all_zero


def test_sweep_covers_all_four_parity_cases():
    report = identity_sweep(5, 1, 1, 1)
    combos = {(a % 2, c % 2) for a, c, _, _, _ in swept_tuples(report)}
    assert combos == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_sweep_rejects_degenerate_bounds():
    with pytest.raises(ValueError):
        identity_sweep(1, 0, 0, 0)


def test_sweep_json_lines_schema():
    report = identity_sweep(3, 1, 1, 1)
    lines = report.to_json_lines().splitlines()
    assert len(lines) == report.checked
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"a", "c", "p", "q", "h", "value_is_zero"}
        assert record["value_is_zero"] is True


def test_consistency_with_derivative_expansion_at_pi():
    # The same vanishing statement proved by the expansion route, in all
    # four parity cases of (a, c).
    cases = [
        (2, 0, 1, 0, 0),
        (4, 2, 3, 1, 2),
        (6, 3, 2, 5, 4),
        (7, 4, 1, 2, 5),
        (9, 1, 3, 3, 7),
        (4, 3, 2, 3, 2), (6, 1, 3, 5, 0), (4, 5, 1, 1, 2),
        (5, 2, 3, 2, 3), (3, 0, 1, 0, 1), (7, 4, 2, 3, 5),
        (5, 3, 2, 3, 3), (3, 1, 1, 1, 1), (7, 5, 3, 2, 5),
    ]
    for a, c, p, q, h in cases:
        assert boundary_identity_sum(a, c, p, q, h) == 0
        assert derivative_expansion(a, c, p, q, h).value_at_pi() == 0


def test_sign_factor_invariance_in_declared_cases():
    # Every spectrum frequency L = (a-2i)p +- (c-2j)q has the parity of
    # a p + c q, so (-1)^L is the product (-1)^(a p) (-1)^(c q) on every
    # term.  Flipping either sign factor therefore turns the boundary sum
    # into +-sum w L^h (the h-th derivative at 0), which must vanish too.
    cases = [
        # a even, c odd: independent of the (-1)^(c q) factor.
        (4, 3, 2, 3, 2), (6, 1, 3, 5, 0), (4, 5, 1, 1, 2),
        # a odd, c even: independent of the (-1)^(a p) factor.
        (5, 2, 3, 2, 3), (3, 0, 1, 0, 1), (7, 4, 2, 3, 5),
        # a odd, c odd: independent of both factors jointly.
        (5, 3, 2, 3, 3), (3, 1, 1, 1, 1), (7, 5, 3, 2, 5),
    ]
    for a, c, p, q, h in cases:
        weights = spectrum(a, c, p, q)
        assert all((L - a * p - c * q) % 2 == 0 for L in weights)
        assert boundary_identity_sum(a, c, p, q, h) == 0
        assert sum(w * L**h for L, w in weights.items()) == 0


def test_degenerate_frequencies_included():
    # p = 0 and/or q = 0 tuples stay exactly zero.
    for a, c, p, q, h in [(2, 0, 0, 0, 0), (4, 2, 0, 3, 2), (6, 2, 2, 0, 2), (5, 1, 0, 0, 3)]:
        assert boundary_identity_sum(a, c, p, q, h) == 0
