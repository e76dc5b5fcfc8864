"""Independent floating-point verification of the exact evaluator.

Two pieces: rendering an ExactValue to a double via high-precision constants,
and estimating the integral directly from the raw integrand.  The quadrature
never touches the closed forms or the trigonometric expansions.  With
g = gcd(p, q) (g = p when c = 0), u = g*x gives I(a, b, c, g*p', g*q') =
g^(b-1) * I(a, b, c, p', q'); the reduced integral is split at X = N * 2pi:

* head [0, X]: one Gauss-Kronrod 15(7) pass over equal panels no wider than
  a quarter oscillation, whose nodes never touch the removable point x = 0.
  The integrand is entire of exponential type omega = a*p + c*q and the
  panels are no wider than pi/(2 omega), so the Gauss error sits far below
  double rounding: the pass is not refined, and a head whose error estimate
  exceeds its share of tol is refused;
* tail [X, inf): one FFT of raw samples of the periodic part
  sin^a(px) cos^c(qx), a trigonometric polynomial, gives its Fourier
  coefficients, and from them in closed form the means mu_k of its iterated
  antiderivatives and a bound on the last one.  Integration by parts gives
      integral = mu_1 * X^(1-b)/(b-1) + mu_2 * X^-b + b*mu_3*X^(-b-1) + ...
  with a remainder that falls like X^-(b+3).  For b = 1 (odd a) mu_1 = 0.

The error bound covers the panel estimates, the rounding across panels, the
tail remainder and the rounding of the Fourier coefficients and the rescaling.
A request that cannot be certified fails loudly, early where that is certain:
when one period exceeds the node budget (before any FFT), or once the panels'
rounding alone exceeds the tolerance.  The node budget covers the whole head,
its extension over [X, 2X] included.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath
import numpy as np

from .evaluator import evaluate, normalize_signs
from .exact import ExactValue
from .params import IntegralParams, validate_for_evaluation

__all__ = [
    "DEFAULT_TOL",
    "MIN_TOL",
    "QuadratureError",
    "VerifyReport",
    "quadrature",
    "to_decimal",
    "verify",
]

DEFAULT_TOL = 1e-6
MIN_TOL = 1e-8
WORKING_DIGITS = 50

_PERIOD = 2.0 * math.pi
_LEVELS = 4  # antiderivative depth of the tail telescope
_MAX_PERIODS = 1 << 14
_MAX_NODES = 6_000_000  # integrand evaluations for the whole head
_EPS = float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """The requested tolerance could not be certified within the budget."""


def to_decimal(value: ExactValue) -> float:
    """Render an ExactValue to a double using WORKING_DIGITS-precision constants.

    pi and the ln(rho) are evaluated at the working precision (50 digits), so
    the returned double is within 1 ulp of the true value.
    """
    with mpmath.workdps(WORKING_DIGITS):
        total = mpmath.mpf(0)
        if value.pi_coeff:
            total += _to_mpf(value.pi_coeff) * mpmath.pi
        for prime, coeff in value.log_coeffs.items():
            total += _to_mpf(coeff) * mpmath.log(prime)
        return float(total)


def _to_mpf(r: Fraction) -> mpmath.mpf:
    return mpmath.mpf(r.numerator) / r.denominator


# Gauss-Kronrod 15(7) abscissae and weights (positive half, descending).
_GK_POS = np.array([
    0.9914553711208126392068546975263285,
    0.9491079123427585245261896840478513,
    0.8648644233597690727897127886409262,
    0.7415311855993944398638647732807884,
    0.5860872354676911302941448382587296,
    0.4058451513773971669066064120769615,
    0.2077849550078984676006894037732449,
])
_GK_WPOS = np.array([
    0.0229353220105292249637320080589695,
    0.0630920926299785532907006631892042,
    0.1047900103222501838398763225415180,
    0.1406532597155259187451895905102379,
    0.1690047266392679028265834265985503,
    0.1903505780647854099132564024210137,
    0.2044329400752988924141619992346491,
])
_GK_WZERO = 0.2094821410847278280129991748917143
_G7_WPOS = np.array([
    0.1294849661688696932706114326790820,
    0.2797053914892766679014677714237796,
    0.3818300505051189449503697754889751,
])
_G7_WZERO = 0.4179591836734693877551020408163265

_NODES = np.concatenate([-_GK_POS, [0.0], _GK_POS[::-1]])
_WK = np.concatenate([_GK_WPOS, [_GK_WZERO], _GK_WPOS[::-1]])
_WG = np.zeros(15)
_WG[[1, 3, 5]] = _G7_WPOS
_WG[7] = _G7_WZERO
_WG[[9, 11, 13]] = _G7_WPOS[::-1]


def _gk_pass(
    f: Callable[[np.ndarray], np.ndarray],
    x0: float,
    x1: float,
    panels: int,
    tol: float,
    nodes_before: int = 0,
) -> tuple[float, float]:
    """One Gauss-Kronrod 15(7) pass over equal panels of [x0, x1]: (estimate, bound).

    The Kronrod error estimates |K15 - G7| must sum to at most tol / 2; the
    returned bound adds the rounding accumulated across panels, 64 eps
    sum |values|.  The head's nodes so far plus this pass's must fit the
    node budget.  Overflow, a rounding floor above tol and an error estimate
    over its budget are refused, not refined.
    """
    nodes = nodes_before + 15 * panels
    if nodes > _MAX_NODES:
        raise QuadratureError(f"the head needs {nodes} evaluations, budget is {_MAX_NODES}")
    edges = np.linspace(x0, x1, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = mid[:, None] + half[:, None] * _NODES[None, :]
    # An overflow shows up as a non-finite error estimate, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        fx = f(xs.ravel()).reshape(xs.shape)
        vals = half * (fx * _WK).sum(axis=1)
        errs = np.abs(vals - half * (fx * _WG).sum(axis=1))
    magnitude = float(np.abs(vals).sum())
    total_err = float(errs.sum())
    if not math.isfinite(total_err):
        raise QuadratureError("the integrand overflows double range")
    if 64.0 * _EPS * (magnitude - total_err) > tol:
        raise QuadratureError(f"the tolerance needs relative precision {tol / magnitude:.1e}, "
                              f"below the rounding floor {64.0 * _EPS:.1e}")
    if total_err > tol / 2.0:
        raise QuadratureError(f"the head's error estimate {total_err:.3e} exceeds its budget {tol / 2.0:.3e}")
    return float(vals.sum()), total_err + 64.0 * _EPS * magnitude


def _make_integrand(a: int, b: int, c: int, p: int, q: int):
    """Raw integrand as (sin(px)/x)^b * sin(px)^(a-b) * cos(qx)^c.

    Every factor stays bounded, so nothing underflows for small x.  Gauss-
    Kronrod nodes lie inside their panels, so x = 0 is never sampled.
    """

    def f(x: np.ndarray) -> np.ndarray:
        sp = np.sin(p * x)
        vals = (sp / x) ** b
        if a > b:
            vals = vals * sp ** (a - b)
        if c:
            vals = vals * np.cos(q * x) ** c
        return vals

    return f


def _period_profile(a: int, c: int, p: int, q: int):
    """Means of the iterated antiderivatives of g = sin^a(px) cos^c(qx) over a period.

    g has degree a*p + c*q < m/2, and the trapezoid rule on m points is exact
    for g(x)e^(-ikx) with |k| < m/2, so rfft(samples)/m gives the Fourier
    coefficients c_k of g up to rounding.  With G_0 = g, mu_j the mean of
    G_(j-1) and G_j the antiderivative of G_(j-1) - mu_j vanishing at 0:
        mu_1 = c_0,   mu_(j+1) = -2 Re sum_(k>=1) c_k / (ik)^j,
        G_K(x) = sum_(k!=0) c_k (e^(ikx) - 1) / (ik)^K,  |G_K| <= 4 sum_(k>=1) |c_k| / k^K.

    Returns (mus, max_last, mu_err): mu_1..mu_K, the bound on |G_K| (rounding
    included) and a bound on the rounding error of each mu_j.
    """
    m = max(32, 1 << (2 * (a * p + c * q)).bit_length())
    x = np.arange(m) * (_PERIOD / m)
    samples = np.sin(p * x) ** a
    if c:
        samples = samples * np.cos(q * x) ** c
    fourier = np.fft.rfft(samples) / m
    coeffs = fourier[1 : m // 2]  # the Nyquist bin of a degree < m/2 polynomial is 0
    inv_k = 1.0 / np.arange(1, m // 2)
    mus = [float(fourier[0].real)]
    term = coeffs
    for _ in range(_LEVELS - 1):
        term = term * (inv_k / 1j)
        mus.append(-2.0 * float(term.real.sum()))
    # |g| <= 1.  Rounding p*x and q*x moves a sample by less than 13*omega*eps
    # < 7*m*eps, and the FFT adds O(log2(m)*eps) to each coefficient.
    coeff_err = 16.0 * m * _EPS
    mu_err = 2.0 * coeff_err * float(inv_k.sum())
    max_last = 4.0 * float(((np.abs(coeffs) + coeff_err) * inv_k**_LEVELS).sum())
    return mus, max_last, mu_err


def _tail_value(b: int, mus: list[float], x: float) -> float:
    total = 0.0
    if b >= 2:
        total += mus[0] * x ** (1 - b) / (b - 1)
    coeff = 1.0
    for k in range(2, _LEVELS + 1):
        coeff *= b + k - 2
        total += coeff * mus[k - 1] * x ** (2 - b - k) / (b + k - 2)
    return total


def _tail_error(b: int, max_last: float, mu_err: float, periods: int) -> float:
    """The tail's remainder bound plus the rounding of its mus, at X = periods * 2pi."""
    x = periods * _PERIOD
    remainder = math.prod(range(b, b + _LEVELS)) * max_last / (b + _LEVELS - 1)
    remainder *= x ** (1 - b - _LEVELS)
    # The tail value is linear in the mus with positive weights.
    return remainder + _tail_value(b, [mu_err] * _LEVELS, x)


def _reduced_quadrature(a: int, b: int, c: int, p: int, q: int, tol: float) -> tuple[float, float]:
    """(estimate, error bound) of the integral for p > 0 and q >= 0.

    The tail takes at most tol / 4 and the head's Kronrod estimates tol / 2;
    the caller checks the total against tol.
    """
    panels = 4 * (a * p + c * q)  # per period: none wider than a quarter oscillation
    if 15 * panels > _MAX_NODES:
        raise QuadratureError(f"one period needs {15 * panels} evaluations, budget is {_MAX_NODES}")
    mus, max_last, mu_err = _period_profile(a, c, p, q)

    periods = 1
    while (tail_err := _tail_error(b, max_last, mu_err, periods)) > tol / 4.0:
        periods *= 2
        if periods > _MAX_PERIODS:
            raise QuadratureError("tail bound cannot reach the requested tolerance")

    f = _make_integrand(a, b, c, p, q)
    x_end = periods * _PERIOD
    head, head_err = _gk_pass(f, 0.0, x_end, periods * panels, tol)
    # The head's rounding can leave the tail less than its quarter of tol.
    # The tail bound falls like X^-(b+3), so extending the head over [X, 2X]
    # restores the room unless the rounding alone is too large.
    while head_err < tol < head_err + tail_err and periods < _MAX_PERIODS:
        more, more_err = _gk_pass(f, x_end, 2 * x_end, periods * panels, tol - head_err,
                                  nodes_before=15 * periods * panels)
        head, head_err = head + more, head_err + more_err
        periods *= 2
        x_end = periods * _PERIOD
        tail_err = _tail_error(b, max_last, mu_err, periods)
    return head + _tail_value(b, mus, x_end), head_err + tail_err


def quadrature(
    params: IntegralParams,
    tol: float = DEFAULT_TOL,
    *,
    allow_b1: bool = False,
) -> tuple[float, float]:
    """Estimate the integral directly; returns (estimate, error_bound).

    The estimate carries the sign(p)^a factor, matching the exact evaluator,
    and the bound satisfies |true - estimate| <= error_bound <= tol.  Raises
    QuadratureError when the tolerance cannot be certified.
    """
    if not tol >= MIN_TOL:  # also rejects NaN
        raise ValueError(f"tolerance {tol!r} is not a number >= {MIN_TOL}, the double-precision oracle's floor")
    validate_for_evaluation(params, allow_b1=allow_b1)
    sign, norm = normalize_signs(params)
    a, b, c, p, q = norm.a, norm.b, norm.c, norm.p, norm.q
    if p == 0:
        return 0.0, 0.0

    # u = g*x gives I(a, b, c, g*p, g*q) = g^(b-1) * I(a, b, c, p, q).  With
    # c = 0 the integrand does not depend on q, so g = p.
    if c == 0:
        q = 0
    g = math.gcd(p, q)
    try:
        scale = float(g ** (b - 1))
    except OverflowError:
        raise QuadratureError(f"frequency scale {g}^{b - 1} exceeds double range") from None
    estimate, bound = _reduced_quadrature(a, b, c, p // g, q // g, tol / scale)
    estimate *= scale
    # Half an ulp each for rounding g^(b-1) to a double and for the product.
    error_bound = scale * bound + _EPS * abs(estimate) + 1e-12
    if error_bound > tol:
        raise QuadratureError(
            f"certified error {error_bound:.3e} exceeds requested tolerance {tol:.3e}"
        )
    return sign * estimate, error_bound


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one exact-vs-oracle comparison."""

    params: IntegralParams
    exact: ExactValue
    exact_decimal: float
    oracle_estimate: Optional[float]
    oracle_error_bound: Optional[float]
    abs_diff: Optional[float]
    tolerance: float
    passed: bool
    reason: Optional[str] = None

    def to_json_dict(self) -> dict:
        record = {
            "a": self.params.a,
            "b": self.params.b,
            "c": self.params.c,
            "p": self.params.p,
            "q": self.params.q,
            "exact": str(self.exact),
            "exact_decimal": _finite_or_none(self.exact_decimal),
            "oracle": _finite_or_none(self.oracle_estimate),
            "error_bound": _finite_or_none(self.oracle_error_bound),
            "abs_diff": _finite_or_none(self.abs_diff),
            "tol": self.tolerance,
            "pass": self.passed,
        }
        if self.reason is not None:
            record["reason"] = self.reason
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), allow_nan=False)


def _finite_or_none(x: object) -> object:
    """JSON has no Infinity or NaN; a float outside double range is null."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def verify(
    params: IntegralParams,
    tol: float = DEFAULT_TOL,
    *,
    allow_b1: bool = False,
) -> VerifyReport:
    """Evaluate exactly, render to decimal, quadrate, and compare.

    The verdict is pass when |exact - oracle| <= tol + oracle error bound.
    A quadrature failure yields a failing report with the reason attached
    rather than an exception.
    """
    exact = evaluate(params, allow_b1=allow_b1)
    exact_decimal = to_decimal(exact)
    try:
        estimate, bound = quadrature(params, tol, allow_b1=allow_b1)
    except QuadratureError as exc:
        return VerifyReport(
            params=params,
            exact=exact,
            exact_decimal=exact_decimal,
            oracle_estimate=None,
            oracle_error_bound=None,
            abs_diff=None,
            tolerance=tol,
            passed=False,
            reason=str(exc),
        )
    abs_diff = abs(exact_decimal - estimate)
    return VerifyReport(
        params=params,
        exact=exact,
        exact_decimal=exact_decimal,
        oracle_estimate=estimate,
        oracle_error_bound=bound,
        abs_diff=abs_diff,
        tolerance=tol,
        passed=abs_diff <= tol + bound,
    )
