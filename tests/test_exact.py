"""Exact-core tests: binomial weights, factorization, canonical value algebra and rendering."""

import ast
import copy
import math
import pickle
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import libmp

from scaling import rescaled
from sincint import (
    DomainError,
    ExactValue,
    IntegralParams,
    evaluate,
    parse_exact_value,
    spectrum,
)
from sincint import exact
from sincint.exact import prime_factorization

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
    assert [prime for prime, _ in factors] == sorted({prime for prime, _ in factors})
    product = 1
    for prime, exponent in factors:
        assert brute_is_prime(prime)
        assert exponent >= 1
        product *= prime**exponent
    assert product == m


def test_factorization_rejects_nonpositive():
    with pytest.raises(ValueError):
        prime_factorization(0)


@given(st.integers(min_value=-3, max_value=10000))
def test_log_basis_accepts_exactly_the_primes(n):
    if brute_is_prime(n):
        assert ExactValue(log_coeffs={n: 1}).log_coeffs == {n: 1}
    else:
        with pytest.raises(ValueError, match=f"log basis entries must be prime, got {n}$"):
            ExactValue(log_coeffs={n: 1})


def test_factorization_memo_is_safe():
    # The memo hands out one immutable tuple per m, so no caller can corrupt it.
    assert prime_factorization(12) is prime_factorization(12) == ((2, 2), (3, 1))
    with pytest.raises(TypeError):
        prime_factorization(12)[0] = (2, 7)
    assert prime_factorization(4) == ((2, 2),) and prime_factorization(9) == ((3, 2),)
    for square in (4, 9):
        with pytest.raises(ValueError, match=f"got {square}$"):
            ExactValue(log_coeffs={square: 1})
    assert exact.prime_factorization.cache_info().maxsize == exact._FACTOR_CACHE_SIZE


def test_log_of_one_is_zero():
    # ln(1) has no prime terms.
    assert prime_factorization(1) == ()


def test_log_of_twelve():
    # ln(12) = 2 ln(2) + ln(3)
    assert prime_factorization(12) == ((2, 2), (3, 1))


def test_log_of_nine_with_rational_weight():
    # sin^3(3x) has frequencies 3 and 9; ln(9) = 2 ln(3), so
    # I(3,2,0,3,0) = 3 * I(3,2,0,1,0) = 3 * 3/4 ln(3).
    assert prime_factorization(9) == ((3, 2),)
    assert evaluate(IntegralParams(3, 2, 0, 3, 0)) == ExactValue(log_coeffs={3: Fraction(9, 4)})


def test_log_rejects_nonpositive_argument():
    for m in (0, -5):
        with pytest.raises(ValueError):
            prime_factorization(m)
        with pytest.raises(ValueError):
            ExactValue(log_coeffs={m: Fraction(1)})


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
def test_log_homomorphism(m, n):
    # ln(mn) = ln(m) + ln(n): exponents add prime by prime.
    assert Counter(dict(prime_factorization(m * n))) == (
        Counter(dict(prime_factorization(m))) + Counter(dict(prime_factorization(n)))
    )


# ---------------------------------------------------------------------------
# ExactValue algebra


def test_zero_coefficients_are_dropped_on_construction():
    assert ExactValue(0, {2: Fraction(0)}) == ExactValue()


def test_coefficients_are_int_or_fraction():
    # A float would be kept as its binary fraction: 0.1 as 3602879701896397/2^55.
    for bad in (0.1, "1/3", True):
        with pytest.raises(TypeError):
            ExactValue(pi_coeff=bad)
        with pytest.raises(TypeError):
            ExactValue(log_coeffs={3: bad})
    assert ExactValue(1, {3: -2}) == ExactValue(Fraction(1), {3: Fraction(-2)})


def test_log_keys_are_checked_before_zero_coefficients_are_dropped():
    for text in ("1*ln(4)", "1*pi + 0*ln(4)", "0*ln(1)"):
        with pytest.raises(ValueError, match="log basis entries must be prime"):
            parse_exact_value(text)
    with pytest.raises(ValueError, match="log basis entries must be below"):
        ExactValue(log_coeffs={exact._PRIME_LIMIT: Fraction(0)})


def test_nonprime_log_key_rejected():
    with pytest.raises(ValueError):
        ExactValue(log_coeffs={6: Fraction(1)})
    with pytest.raises(ValueError):
        ExactValue(log_coeffs={1: Fraction(1)})


def test_log_key_primality_agrees_with_a_sieve():
    # The gcd with 2*3*...*41 and the first two rungs of the ladder decide every key here.
    n = 200_000
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, n, d)))
    assert [k for k in range(-3, n) if exact._is_prime(k) != (k >= 0 and sieve[k] == 1)] == []


def test_log_key_check_is_bounded():
    # Each psi_k passes the first k Miller-Rabin bases and must be refused by a later one.
    for _, psi in exact._MR_LADDER[:-1]:
        with pytest.raises(ValueError, match=f"log basis entries must be prime, got {psi}$"):
            ExactValue(log_coeffs={psi: 1})
    # Trial division took 0.9 s on 10^14 + 31 and grows like the square root of
    # the key; the ladder takes at most 13 modular powers, up to the largest
    # prime below its limit.
    for prime in (10**14 + 31, 2**61 - 1, 2**64 - 59, 3317044064679887385961813):
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            value = parse_exact_value(f"1*ln({prime})")
            elapsed.append(time.perf_counter() - start)
        assert value.log_coeffs == {prime: 1}
        assert min(elapsed) < 1e-3
    for key in (exact._PRIME_LIMIT, 2**127 - 1):
        with pytest.raises(ValueError, match=f"log basis entries must be below 3317044064679887385961981, got {key}$"):
            ExactValue(log_coeffs={key: 1})


# ---------------------------------------------------------------------------
# canonical text form


@pytest.mark.parametrize(
    "value,text",
    [
        (ExactValue(), "0"),
        (ExactValue(pi_coeff=Fraction(1, 2)), "1/2*pi"),
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


def test_log_coeffs_are_read_only():
    value = evaluate(IntegralParams(3, 2, 0, 1, 0))
    with pytest.raises(TypeError):
        value.log_coeffs[5] = Fraction(1)
    with pytest.raises(TypeError):
        del value.log_coeffs[3]
    assert str(value) == "3/4*ln(3)"
    # The constructor keeps its own copy of the map it is given.
    logs = {3: Fraction(3, 4)}
    built = ExactValue(log_coeffs=logs)
    logs[5] = Fraction(1)
    assert built == value


@given(_exact_values)
def test_hash_agrees_with_equality(value):
    # The same value built from its terms in reverse order is equal and hashes equal.
    rebuilt = ExactValue(value.pi_coeff, dict(reversed(value.log_coeffs.items())))
    assert rebuilt == value and hash(rebuilt) == hash(value)
    assert len({value, rebuilt, rescaled(value, 2)}) == 1 + (value != rescaled(value, 2))


@given(_exact_values)
def test_values_survive_pickle_and_deepcopy(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value and hash(copied) == hash(value) and str(copied) == str(value)
        with pytest.raises(TypeError):
            copied.log_coeffs[2] = Fraction(1)


def test_log_coeffs_read_as_a_mapping():
    assert ExactValue().log_coeffs == {} and len(ExactValue().log_coeffs) == 0
    value = ExactValue(Fraction(1, 2), {5: Fraction(-1, 3), 2: Fraction(7)})
    assert value.log_coeffs != {} and len(value.log_coeffs) == 2
    assert list(value.log_coeffs.items()) == [(2, Fraction(7)), (5, Fraction(-1, 3))]
    assert list(value.log_coeffs.values()) == [Fraction(7), Fraction(-1, 3)]


def test_values_past_the_digit_limit_are_refused():
    # CPython's int/str conversion refuses more than 4,300 digits, so a value
    # past the limit could neither print nor parse back: it is never built.
    value = evaluate(IntegralParams(3, 3, 0, 1, 0))  # 3/8*pi
    for factor in (10**4400, Fraction(1, 10**4400)):
        with pytest.raises(DomainError, match="the closed form has a coefficient of more than 4300 digits") as info:
            rescaled(value, factor)
        assert info.value.constraint == "exact value digits <= 4300"
    limit = 10**4300
    for pi_coeff, logs in ((Fraction(limit), {}), (0, {2: Fraction(1, limit)}), (0, {3: Fraction(-limit, 7)})):
        with pytest.raises(DomainError):
            ExactValue(pi_coeff, logs)
    # Just under the limit: 4,300-digit numerators and denominators round-trip.
    under = ExactValue(Fraction(limit - 1, limit - 3), {2: Fraction(-(limit - 1)), 7: Fraction(1, limit - 1)})
    assert parse_exact_value(str(under)) == under
    assert parse_exact_value(str(rescaled(value, Fraction(limit - 1, 3)))) == rescaled(value, Fraction(limit - 1, 3))


def test_parse_refuses_long_numbers_whatever_the_interpreter_limit():
    # Under CPython's default limit int() would raise its own ValueError on 4,301
    # digits; with the limit off it would convert the number first.
    long = "1" * 4301
    saved = sys.get_int_max_str_digits()
    for text in (f"{long}*pi", f"-1/{long}*pi", f"1*ln({long})"):
        outcomes = []
        for limit in (4300, 0):
            sys.set_int_max_str_digits(limit)
            try:
                with pytest.raises(ValueError) as info:
                    parse_exact_value(text)
            finally:
                sys.set_int_max_str_digits(saved)
            outcomes.append((type(info.value), str(info.value), info.value.constraint))
        assert outcomes[0] == outcomes[1] == (
            DomainError, "the exact-value text has a number of more than 4300 digits", "exact value digits <= 4300")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_exact_value("pi + 3")
    with pytest.raises(ValueError):
        parse_exact_value("1/2*log(3)")


def test_parse_rejects_non_ascii_digits():
    # int() reads any Unicode decimal digit; the grammar is ASCII only.
    for digit in ("\u0663", "\uff13"):  # ARABIC-INDIC DIGIT THREE, FULLWIDTH DIGIT THREE
        for text in (f"{digit}*pi", f"1/{digit}*pi", f"1*ln({digit})"):
            with pytest.raises(ValueError):
                parse_exact_value(text)


# Text in and near parse_exact_value's grammar: signed integers, "/", "*pi", "*ln(n)", " + " and " - "
# joins, and junk terms, a 4,400-digit numerator among them.
_SIGNED = st.builds(str.__add__, st.sampled_from(["", "+", "-"]), st.integers(0, 12).map(str))
_RATIONAL = st.one_of(_SIGNED, st.builds("{}/{}".format, _SIGNED, _SIGNED))
_JUNK_TERM = st.sampled_from(["", "-", "pi", "ln(2)", "x", "*", "1/*pi", "1e3*pi", "1//2*pi", "1*ln()",
                              "9" * 4400 + "*pi"])
_TERM = st.one_of(st.builds("{}*pi".format, _RATIONAL), st.builds("{}*ln({})".format, _RATIONAL, _SIGNED), _JUNK_TERM)
_TEXT = st.builds(str.__add__, _TERM, st.lists(st.builds(str.__add__, st.sampled_from([" + ", " - "]), _TERM),
                                               max_size=4).map("".join))


@given(_TEXT)
def test_parse_reads_back_or_raises_value_error(text):
    try:
        value = parse_exact_value(text)
    except ValueError:
        return
    assert parse_exact_value(str(value)) == value


# ---------------------------------------------------------------------------
# decimal rendering and the module graph


def test_ln_retries_with_more_guard_bits_until_it_rounds_correctly(monkeypatch):
    # One guard bit leaves the error interval straddling a rounding boundary, so
    # _ln must double the guard bits, and still return mpmath's correctly
    # rounded logarithm.
    passes = []
    atanh_fixed = exact._atanh_fixed

    def counted(num, den, wp):
        passes[-1] += 1
        return atanh_fixed(num, den, wp)

    monkeypatch.setattr(exact, "_GUARD", 1)
    monkeypatch.setattr(exact, "_atanh_fixed", counted)
    exact._ln.cache_clear()
    try:
        for n in (3, 5, 7, 7919, 2**61 - 1, *(2**k + d for k in (10, 31, 64, 89) for d in (-1, 1))):
            passes.append(0)
            expected = libmp.mpf_log(libmp.from_int(n), exact._PREC, libmp.round_nearest)
            assert libmp.from_man_exp(*exact._ln(n)) == expected, n
            assert passes[-1] > 1, n
    finally:
        exact._ln.cache_clear()


def _package_imports() -> dict[str, set[str]]:
    """Each sincint module's imports of sibling modules, at module level and inside functions."""
    package = Path(exact.__file__).parent
    graph = {}
    for path in package.glob("*.py"):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                targets.update([node.module] if node.module else [alias.name for alias in node.names])
            elif (node.module or "").startswith("sincint."):
                targets.add(node.module.split(".")[1])
        graph[path.stem] = targets
    return graph


def _reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, stack = set(), list(graph[start])
    while stack:
        module = stack.pop()
        if module not in seen:
            seen.add(module)
            stack.extend(graph[module])
    return seen


def test_module_graph_has_no_cycle_and_the_exact_side_never_reaches_the_oracle():
    graph = _package_imports()
    assert {"exact", "oracle", "numeric", "params"} <= graph.keys()
    assert [module for module in graph if module in _reachable(graph, module)] == []
    for module in ("params", "trig", "exact", "evaluator", "identities"):
        assert not _reachable(graph, module) & {"oracle", "numeric"}, module
