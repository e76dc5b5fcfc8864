"""Independent floating-point verification of the exact evaluator.

Two pieces: rendering an ExactValue to a double via high-precision constants,
and estimating the integral directly from the raw integrand.  The quadrature
never touches the closed forms or the trigonometric expansions.  It splits
the half line at a whole number of periods X = N * 2pi:

* head [0, X]: adaptive Gauss-Kronrod 15(7) panels no wider than a quarter
  oscillation, with the removable point x = 0 handled by the analytic limit
  (p^b when a = b, else 0);
* tail [X, inf): the integrand is a 2pi-periodic function over x^b, so
  repeated integration by parts against iterated antiderivatives of the
  periodic part (computed numerically on one period) gives
      integral = mu_1 * X^(1-b)/(b-1) + mu_2 * X^-b + b*mu_3*X^(-b-1) + ...
  with a remainder bounded by the last antiderivative's maximum.  Each level
  gains a factor ~1/X, so X stays below ~100 periods even at b = 2 where the
  naive absolute tail bound would demand X ~ 10^6.  For b = 1 (odd a) the
  periodic mean mu_1 vanishes identically and the same telescope applies.

Every returned error bound covers panel estimates, the tail remainder and
the dense-grid discretization slop; if the bound cannot be brought under the
requested tolerance the call fails loudly instead of returning a bad number.
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
_MAX_PERIOD_DOUBLINGS = 14
_MAX_GRID = 1 << 18


class QuadratureError(RuntimeError):
    """The requested tolerance could not be certified within the budget."""


def to_decimal(value: ExactValue, digits: int = WORKING_DIGITS) -> float:
    """Render an ExactValue to a double using digits-precision constants.

    pi and the ln(rho) are evaluated at the working precision (>= 15
    digits), so the returned double is within 1 ulp of the true value.
    """
    if digits < 15:
        raise ValueError(f"working precision must be at least 15 digits, got {digits}")
    with mpmath.workdps(digits):
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


def _batch_gk(f: Callable[[np.ndarray], np.ndarray], lows: np.ndarray, highs: np.ndarray):
    """Kronrod estimates and |K15 - G7| error estimates for many panels."""
    mid = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows)
    xs = mid[:, None] + half[:, None] * _NODES[None, :]
    fx = f(xs.ravel()).reshape(xs.shape)
    kron = half * (fx * _WK).sum(axis=1)
    gauss = half * (fx * _WG).sum(axis=1)
    return kron, np.abs(kron - gauss)


def _integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    x0: float,
    x1: float,
    max_width: float,
    budget: float,
    max_nodes: int,
) -> tuple[float, float]:
    """Adaptive panel integration of f over [x0, x1] to an absolute budget."""
    n0 = max(1, math.ceil((x1 - x0) / max_width))
    if 15 * n0 > max_nodes:
        raise QuadratureError(
            f"initial panelization needs {15 * n0} evaluations, budget is {max_nodes}"
        )
    edges = np.linspace(x0, x1, n0 + 1)
    lows, highs = edges[:-1], edges[1:]
    vals, errs = _batch_gk(f, lows, highs)
    nodes_used = 15 * n0
    for _ in range(48):
        total_err = float(errs.sum())
        if total_err <= budget:
            # Account for rounding accumulation across panels; for large
            # integrals it can exceed the Kronrod truncation estimates.
            rounding = float(64.0 * np.finfo(float).eps * np.abs(vals).sum())
            return float(vals.sum()), total_err + rounding
        # If every panel met its share the total would meet the budget, so
        # the mask below is never empty.
        mask = errs > budget / len(lows)
        keep = ~mask
        split_lo, split_hi = lows[mask], highs[mask]
        mid = 0.5 * (split_lo + split_hi)
        new_lo = np.concatenate([split_lo, mid])
        new_hi = np.concatenate([mid, split_hi])
        nodes_used += 15 * len(new_lo)
        if nodes_used > max_nodes:
            raise QuadratureError(
                f"panel budget exhausted at error {total_err:.3e} (target {budget:.3e})"
            )
        new_vals, new_errs = _batch_gk(f, new_lo, new_hi)
        lows = np.concatenate([lows[keep], new_lo])
        highs = np.concatenate([highs[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
    raise QuadratureError("refinement stalled before reaching the error budget")


def _make_integrand(a: int, b: int, c: int, p: int, q: int):
    """Raw integrand with the x = 0 limit built in, safe near zero.

    (sin(px)/x)^b * sin(px)^(a-b) * cos(qx)^c keeps every factor bounded, so
    no underflow occurs for small x; the limit at 0 is p^b when a = b (the
    sinc factor tends to p) and 0 otherwise.
    """
    limit0 = float(p**b) if a == b else 0.0

    def f(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, limit0)
        nz = x != 0.0
        xs = x[nz]
        sp = np.sin(p * xs)
        vals = (sp / xs) ** b
        if a > b:
            vals = vals * sp ** (a - b)
        if c:
            vals = vals * np.cos(q * xs) ** c
        out[nz] = vals
        return out

    return f


def _make_periodic_part(a: int, c: int, p: int, q: int):
    def g(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals = np.sin(p * x) ** a
        if c:
            vals = vals * np.cos(q * x) ** c
        return vals

    return g


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled y (even interval count)."""
    n = len(y) - 1
    inc = (h / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    s_even = np.concatenate([[0.0], np.cumsum(inc)])
    s_odd = s_even[:-1] + (h / 12.0) * (5.0 * y[0:-2:2] + 8.0 * y[1:-1:2] - y[2::2])
    out = np.empty(n + 1)
    out[0::2] = s_even
    out[1::2] = s_odd
    return out


def _simpson_mean(y: np.ndarray, h: float, span: float) -> float:
    total = (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())
    return float(total / span)


def _period_profile(g, omega: int, max_nodes: int):
    """Means of the iterated antiderivatives of g over one period.

    Returns (mus, max_last, cum_slop, mu1_err): the level means mu_1..mu_K,
    the maximum magnitude of the K-th antiderivative (drives the tail
    remainder bound), the dense-grid discretization error scale, and the
    panel error of the mu_1 integral.
    """
    if omega > 8192:
        raise QuadratureError(f"combined oscillation rate {omega} exceeds the oracle grid")
    m = 1 << max(12, (128 * max(omega, 1) - 1).bit_length())
    m = min(m, _MAX_GRID)
    h = _PERIOD / m
    xs = np.linspace(0.0, _PERIOD, m + 1)
    samples = g(xs)

    mu1_integral, mu1_err = _integrate_adaptive(
        g, 0.0, _PERIOD, _PERIOD / (4 * max(omega, 1)), 1e-11, max_nodes
    )
    mus = [mu1_integral / _PERIOD]
    work = samples - mus[0]
    for _ in range(_LEVELS - 1):
        level = _cumulative_simpson(work, h)
        mu = _simpson_mean(level, h, _PERIOD)
        mus.append(mu)
        work = level - mu
    last = _cumulative_simpson(work, h)
    max_last = float(np.abs(last).max()) * 1.25 + 1e-15
    # Composite-Simpson error scale for the cumulative antiderivatives.
    cum_slop = 0.06 * (h * max(omega, 1)) ** 4
    return mus, max_last, cum_slop, mu1_err


def _tail_value(b: int, mus: list[float], x: float) -> float:
    total = 0.0
    if b >= 2:
        total += mus[0] * x ** (1 - b) / (b - 1)
    coeff = 1.0
    for k in range(2, _LEVELS + 1):
        coeff *= b + k - 2
        total += coeff * mus[k - 1] * x ** (2 - b - k) / (b + k - 2)
    return total


def _tail_remainder_bound(b: int, max_last: float, x: float) -> float:
    coeff = 1.0
    for j in range(_LEVELS):
        coeff *= b + j
    return coeff * max_last * x ** (1 - b - _LEVELS) / (b + _LEVELS - 1)


def quadrature(
    params: IntegralParams,
    tol: float = DEFAULT_TOL,
    *,
    allow_b1: bool = False,
    max_nodes: int = 6_000_000,
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

    omega = a * p + c * q
    f = _make_integrand(a, b, c, p, q)
    g = _make_periodic_part(a, c, p, q)
    mus, max_last, cum_slop, mu1_err = _period_profile(g, omega, max_nodes=max_nodes)

    if b == 1 and abs(mus[0]) > 1e-8:
        raise QuadratureError(
            f"b = 1 tail requires a zero-mean integrand, got period mean {mus[0]:.3e}"
        )

    tail_budget = tol / 4.0
    periods = 1
    while True:
        x_end = periods * _PERIOD
        remainder = _tail_remainder_bound(b, max_last, x_end)
        slop = 3.0 * cum_slop * x_end ** (-b)
        if b >= 2:
            slop += mu1_err * x_end ** (1 - b) / (b - 1)
        if remainder + slop <= tail_budget:
            break
        periods *= 2
        if periods > (1 << _MAX_PERIOD_DOUBLINGS):
            raise QuadratureError("tail bound cannot reach the requested tolerance")

    head, head_err = _integrate_adaptive(
        f, 0.0, x_end, _PERIOD / (4 * max(omega, 1)), tol / 2.0, max_nodes
    )
    tail = _tail_value(b, mus, x_end)
    estimate = sign * (head + tail)
    error_bound = head_err + remainder + slop + 1e-12
    if error_bound > tol:
        raise QuadratureError(
            f"certified error {error_bound:.3e} exceeds requested tolerance {tol:.3e}"
        )
    return float(estimate), float(error_bound)


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


def _finite_or_none(x: Optional[float]) -> Optional[float]:
    """JSON has no Infinity or NaN; a value outside double range is null."""
    return x if x is None or math.isfinite(x) else None


def verify(
    params: IntegralParams,
    tol: float = DEFAULT_TOL,
    *,
    allow_b1: bool = False,
    digits: int = WORKING_DIGITS,
) -> VerifyReport:
    """Evaluate exactly, render to decimal, quadrate, and compare.

    The verdict is pass when |exact - oracle| <= tol + oracle error bound.
    A quadrature failure yields a failing report with the reason attached
    rather than an exception.
    """
    exact = evaluate(params, allow_b1=allow_b1)
    exact_decimal = to_decimal(exact, digits)
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
