"""Boundary-identity tests: exact zero sums and their cross-checks."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import sincint.identities as identities_module
from reference_trig import derivative, product_expansion, spectrum_derivative, value_at_pi
from sincint import (
    DomainError,
    SweepRecord,
    boundary_identity_sum,
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
    poly = product_expansion(12, 6, 7, 5)
    for _ in range(10):
        poly = derivative(poly)
    assert value_at_pi(poly) == 0


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


def test_rejects_negative_c():
    with pytest.raises(DomainError):
        boundary_identity_sum(4, -1, 1, 0, 0)


def test_negative_frequencies_sum_to_zero():
    # The spectrum of sin^a(-px) cos^c(qx) is that of sin^a(px) cos^c(qx) times
    # (-1)^a, and a negative q enters as |q|: every sum is 0.
    for a in range(2, 9):
        for c in range(0, 4):
            for p, q in [(-1, 0), (0, -2), (-1, 1), (2, -3), (-3, -5), (-7, 4)]:
                for h in range(a % 2, a - 1, 2):
                    assert boundary_identity_sum(a, c, p, q, h) == 0, (a, c, p, q, h)


def test_sweep_reports_a_failing_tuple(monkeypatch):
    # A stand-in kernel whose sum is nonzero at h = 1: only the a = 3 tuples fail.
    monkeypatch.setattr(identities_module, "_boundary_values", lambda weights, hs: [int(h == 1) for h in hs])
    report = identity_sweep(3, 0, 1, 0)
    assert report.checked == 4
    assert not report.all_zero
    assert report.failures == (SweepRecord(3, 0, 0, 0, 1), SweepRecord(3, 0, 1, 0, 1))


def per_h_sum(weights, h):
    # (-1)^|L| keeps the sign an integer for negative L; Python's 0**0 is 1.
    return sum((-1) ** abs(L) * w * L**h for L, w in weights.items())


@given(
    st.dictionaries(st.integers(-40, 40), st.integers(-10**30, 10**30), max_size=12),
    st.integers(0, 1),
    st.integers(0, 14),
)
@example({}, 0, 6)
@example({0: 3, 1: -2, -2: 5, -7: 1}, 0, 8)
@example({0: 3, 1: -2, -2: 5, -7: 1}, 1, 9)
@example({0: 1}, 0, 0)
def test_running_product_kernel_matches_per_h_sums(weights, h0, hmax):
    # Keys of mixed parity and sign, the L = 0 key (0^0 = 1 at h = 0), the
    # empty dict and empty ranges, starting at both h0 = 0 and h0 = 1.
    hs = range(h0, hmax, 2)
    assert identities_module._boundary_values(weights, hs) == [per_h_sum(weights, h) for h in hs]


def test_sweep_failures_match_a_per_h_reference_on_perturbed_spectra(monkeypatch):
    # For p >= 5 one weight is off by one, at the key L = p - 5: at p = 5 the L = 0
    # weight, which only h = 0 sees; at p = 6 the odd key 1, whatever the parity of
    # a p + c q.  The sweep must flag exactly the tuples a per-h sum flags.
    def perturbed(a, c, p, q):
        weights = spectrum(a, c, p, q)
        if p >= 5:
            weights[p - 5] = weights.get(p - 5, 0) + 1
        return weights

    monkeypatch.setattr(identities_module, "spectrum", perturbed)
    expected = [
        SweepRecord(a, c, p, q, h)
        for a in range(2, 11)
        for c in range(4)
        for p in range(7)
        for q in range(7)
        for h in range(a % 2, a - 1, 2)
        if per_h_sum(perturbed(a, c, p, q), h)
    ]
    report = identity_sweep(10, 3, 6, 6)
    assert report.checked == 25 * 4 * 7 * 7
    assert report.failures == tuple(expected)
    assert {r.p for r in expected} == {5, 6}
    assert {r.h for r in expected if r.p == 5} == {0}


def test_sweep_small_bounds_all_pass():
    report = identity_sweep(4, 2, 2, 2)
    assert report.checked > 0
    assert report.all_zero
    # max_p = 0 is a box of its own: p = 0 only, 1 + 1 + 2 values of h for
    # a = 2, 3, 4, times 3 values of c and 3 of q.
    report = identity_sweep(4, 2, 0, 2)
    assert (report.checked, report.failures) == (36, ())


def swept_tuples(monkeypatch, *bounds):
    """Every tuple the sweep checks, in order: a kernel whose sums never
    vanish makes each one a failure."""
    monkeypatch.setattr(identities_module, "_boundary_values", lambda weights, hs: [1 for h in hs])
    report = identity_sweep(*bounds)
    tuples = [(r.a, r.c, r.p, r.q, r.h) for r in report.failures]
    assert len(tuples) == report.checked
    return tuples


def test_sweep_enumeration_contract(monkeypatch):
    report = identity_sweep(2, 0, 1, 0)
    assert report.checked == 2
    assert report.all_zero
    assert swept_tuples(monkeypatch, 4, 1, 1, 1) == [
        (2, 0, 0, 0, 0), (2, 0, 0, 1, 0), (2, 0, 1, 0, 0), (2, 0, 1, 1, 0),
        (2, 1, 0, 0, 0), (2, 1, 0, 1, 0), (2, 1, 1, 0, 0), (2, 1, 1, 1, 0),
        (3, 0, 0, 0, 1), (3, 0, 0, 1, 1), (3, 0, 1, 0, 1), (3, 0, 1, 1, 1),
        (3, 1, 0, 0, 1), (3, 1, 0, 1, 1), (3, 1, 1, 0, 1), (3, 1, 1, 1, 1),
        (4, 0, 0, 0, 0), (4, 0, 0, 0, 2), (4, 0, 0, 1, 0), (4, 0, 0, 1, 2),
        (4, 0, 1, 0, 0), (4, 0, 1, 0, 2), (4, 0, 1, 1, 0), (4, 0, 1, 1, 2),
        (4, 1, 0, 0, 0), (4, 1, 0, 0, 2), (4, 1, 0, 1, 0), (4, 1, 0, 1, 2),
        (4, 1, 1, 0, 0), (4, 1, 1, 0, 2), (4, 1, 1, 1, 0), (4, 1, 1, 1, 2),
    ]


def test_sweep_covers_all_four_parity_cases(monkeypatch):
    combos = {(a % 2, c % 2) for a, c, _, _, _ in swept_tuples(monkeypatch, 5, 1, 1, 1)}
    assert combos == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_sweep_rejects_degenerate_bounds():
    with pytest.raises(ValueError):
        identity_sweep(1, 0, 0, 0)


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
        assert value_at_pi(spectrum_derivative(spectrum(a, c, p, q), a, c, h)) == 0


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


def test_identity_holds_for_every_frequency():
    # Every term is L = (a-2i)p +- (c-2j)q with a weight that does not depend on p
    # and q (next test), and every L has the parity of a p + c q.  A key m = -L
    # carries w (-1)^a and (-1)^a m^h = L^h, as h = a (mod 2).  So the boundary
    # sum is (-1)^(a p + c q) P(p, q), P = sum of w L^h homogeneous of degree h in
    # (p, q).  P(t, 1) = 0 at the h + 1 points t = 0..h makes every coefficient of P
    # zero: the identity then holds for every integer p and q, not only in the swept
    # box.  It is the finite-difference fact sum (-1)^i C(a, i) i^k = 0 for k < a
    # (Graham, Knuth and Patashnik, Concrete Mathematics, eq. 5.42).
    checks = 0
    for a in range(2, 21):
        for c in range(0, 7):
            spectra = [spectrum(a, c, t, 1) for t in range(a - 1)]
            for h in range(a % 2, a - 1, 2):
                for t in range(h + 1):
                    assert sum(w * L**h for L, w in spectra[t].items()) == 0, (a, c, t, h)
                    checks += 1
    assert checks == 5005


def test_spectrum_weights_do_not_depend_on_the_frequencies():
    # The premise above: decode each key as m = s p + t q at two positive (p, q) pairs
    # where |s p| < q / 2, so no two (s, t) share an m, and compare the weights per
    # (s, t).  Every term has s = a - 2i >= 0, so a key that decodes to s < 0 is a
    # folded L = -m < 0: it is the term (-s, -t), with its weight times (-1)^a.
    def decoded(a, c, p, q):
        weights = {}
        for m, w in spectrum(a, c, p, q).items():
            t = (m + q // 2) // q
            s, rest = divmod(m - t * q, p)
            assert rest == 0
            if s < 0:
                s, t, w = -s, -t, (-1) ** a * w
            assert (s, t) not in weights
            weights[s, t] = w
        return weights

    for a in range(1, 21):
        for c in range(0, 7):
            assert decoded(a, c, 1, 10**4) == decoded(a, c, 7, 10**6 + 1), (a, c)
