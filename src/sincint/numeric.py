"""The oracle's quadrature of the raw integrand, the only module that uses numpy.

sincint.oracle.quadrature reduces I(a, b, c, p, q) by g = gcd(p, q) to
coprime p' and q' and calls _reduced_quadrature, which never touches the
closed forms or the trigonometric expansions.  The reduced integral is split
at X = N * 2pi:

* head [0, X]: one Gauss-Legendre 15 pass over equal panels no wider than
  a quarter oscillation, whose nodes never touch the removable point x = 0.
  The integrand is entire of exponential type omega = a*p + c*q and bounded
  by p^b on the real line, so the Gauss error has an a-priori bound (see
  _GL15_PERIOD_ERROR) far below double rounding: the pass is never refined.
  After the gcd reduction p' and q' are coprime, so sin^a(p'x) cos^c(q'x)
  has period 2pi and the panels start and end on period boundaries: every
  node is x = 2pi k + t for a node t of the first period, and every period,
  the first included, takes the one formula
      (sin(p't) / x)^b * sin^(a-b)(p't) * cos^c(q't).
  Its sines and cosines are sampled on the first quarter period t <= pi/2
  only: the panels are symmetric about pi/2 and pi, and sin(p't) and
  sin^(a-b)(p't) cos^c(q't) at pi - t and 2pi - t are the quarter's values
  times a sign fixed by the parities of p', q', a - b and c.  The oracle
  still samples only the raw integrand, and a trigonometric argument stays
  below pi*omega/2, so its rounding does not grow with X;
* tail [X, inf): one FFT of raw samples of the periodic part
  sin^a(px) cos^c(qx), a trigonometric polynomial, gives its Fourier
  coefficients, and from them in closed form the means mu_k of its iterated
  antiderivatives and a bound on the last one.  Integration by parts gives
      integral = mu_1 * X^(1-b)/(b-1) + mu_2 * X^-b + b*mu_3*X^(-b-1) + ...
  with a remainder that falls like X^-(b+3).  For b = 1 (odd a) mu_1 = 0.
  The value and its bound are evaluated at the current X, for each doubling
  of the periods that sizes the tail or extends the head.
  The mus and the bound depend on the reduced (a, c, p', q') only, not on b,
  g or the signs, so this profile is memoized for the last 1,024 of them.

The error bound covers the Gauss error, the rounding across panels, the
tail remainder and the rounding of the Fourier coefficients.
A request that cannot be certified fails loudly, early where that is certain.
One node budget bounds the whole head: a period that alone exceeds it is
refused before the FFT, and every doubling of the periods, for the tail or
for the head's extension over [X, 2X], is refused once it would exceed it,
before the head is sampled for those periods.  A head whose panels' rounding
alone exceeds the tolerance is refused too.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable

import numpy as np

from .exact import _count_text
from .params import QuadratureError

_EPS = sys.float_info.epsilon
_PERIOD = 2.0 * math.pi
_LEVELS = 4  # antiderivative depth of the tail telescope
_MAX_NODES = 6_000_000  # integrand evaluations for the whole head
# Distinct reduced (a, c, p, q) kept by the period-profile memo.  An entry is
# the key tuple, nested tuples of six floats and the cache's own link, about
# 400 bytes, so a full memo holds about 0.4 MB.
_PROFILE_CACHE_SIZE = 1024
_HEAD_ROUNDING = 64.0 * _EPS  # the head's rounding bound per unit of sum |values|


# Gauss-Legendre 15 abscissae and weights (positive half, descending), the
# roots x of P_15 and 2 / ((1 - x^2) P_15'(x)^2).
_GL_POS = np.array([
    0.9879925180204854284895657185866126,
    0.9372733924007059043077589477102095,
    0.8482065834104272162006483207742169,
    0.7244177313601700474161860546139380,
    0.5709721726085388475372267372539106,
    0.3941513470775633698972073709810455,
    0.2011940939974345223006283033945962,
])
_GL_WPOS = np.array([
    0.0307532419961172683546283935772044,
    0.0703660474881081247092674164506673,
    0.1071592204671719350118695466858693,
    0.1395706779261543144478047945110283,
    0.1662692058169939335532008604812088,
    0.1861610000155622110268005618664228,
    0.1984314853271115764561183264438393,
])
_GL_WZERO = 0.2025782419255612728806201999675193

_NODES = np.concatenate([-_GL_POS, [0.0], _GL_POS[::-1]])
_WEIGHTS = np.concatenate([_GL_WPOS, [_GL_WZERO], _GL_WPOS[::-1]])

# The 15-point Gauss error on a panel of width h is h^31 (15!)^4 / (31 (30!)^3)
# times f^(30) somewhere in the panel (Abramowitz & Stegun 25.4.30).  The head
# integrand (sin(p'x)/x)^b sin^(a-b)(p'x) cos^c(q'x) is entire of exponential
# type omega = a*p' + c*q' and bounded by p'^b on the real line, so Bernstein's
# inequality gives |f^(30)| <= omega^30 p'^b (Boas, Entire Functions, 1954,
# ch. 11).  A period has 4 omega panels of width pi/(2 omega), so its Gauss
# error is at most this constant times p'^b: 2pi C15, with
# C15 = (pi/2)^30 (15!)^4 / (31 (30!)^3) ~ 3.87e-45.
_GL15_PERIOD_ERROR = _PERIOD * (math.pi / 2.0) ** 30 * (math.factorial(15) ** 4 / (31 * math.factorial(30) ** 3))


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x^n for an integer n >= 0 by repeated squaring: log2(n) multiplies, not pow."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if n:
            x = x * x
    return np.ones_like(x) if result is None else result


def _sign(n: int) -> float:
    """(-1)^n."""
    return -1.0 if n % 2 else 1.0


def _sample_period(a: int, b: int, c: int, p: int, q: int, panels: int):
    """The raw integrand on the Gauss-Legendre nodes of `panels` equal panels per period.

    For integers p and q (q = 0 when c = 0), sin^a(px) cos^c(qx) has period
    2pi and the panels start and end on period boundaries, so every node is
    x = 2pi k + t_j for the nodes t_j of the first period, and every period
    k >= 0 takes the one formula (sin(pt_j) / x)^b sin^(a-b)(pt_j) cos^c(qt_j):
    nothing underflows near x = 0, which no node touches.

    The sines and cosines are computed on the first quarter t <= pi/2 only,
    which ends on a panel boundary since 4 divides `panels`.  The panels and
    the Gauss-Legendre nodes are symmetric, so the nodes of (pi/2, pi] are
    pi - t and those of (pi, 2pi) are 2pi - t, in reverse order, and
        sin(p(pi - t)) = (-1)^(p+1) sin(pt),   cos(q(pi - t)) = (-1)^q cos(qt),
        sin(p(2pi - t)) = -sin(pt),            cos(q(2pi - t)) = cos(qt)
    unfold sin(pt) and sin^(a-b)(pt) cos^c(qt) from the quarter by exact sign
    flips.

    Returns (half, values): the panels' common half-width pi / panels and
    values(k0, k1), the integrand on the nodes of periods k0 <= k < k1, shaped
    (k1 - k0, panels, 15).
    """
    half = math.pi / panels
    edges = np.linspace(0.0, _PERIOD, panels + 1)
    t = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * _NODES
    n = t.size // 4
    # Row 0 holds sin(pt), row 1 sin^(a-b)(pt) cos^c(qt), on every node of the period.
    rows = np.empty((2, t.size))
    quarter = t.ravel()[:n]
    np.sin(p * quarter, out=rows[0, :n])
    rows[1, :n] = _power(rows[0, :n], a - b)
    if c:
        rows[1, :n] *= _power(np.cos(q * quarter), c)
    # Column 0 flips the rows about pi/2, column 1 about pi.
    signs = np.array([[_sign(p + 1), -1.0], [_sign((p + 1) * (a - b) + q * c), _sign(a - b)]])
    np.multiply(rows[:, n - 1 :: -1], signs[:, :1], out=rows[:, n : 2 * n])
    np.multiply(rows[:, 2 * n - 1 :: -1], signs[:, 1:], out=rows[:, 2 * n :])
    sp, rest = rows.reshape(2, panels, 15)

    def values(k0: int, k1: int) -> np.ndarray:
        x = np.add(_PERIOD * np.arange(k0, k1)[:, None, None], t)
        np.divide(sp, x, out=x)  # in place: the head's largest arrays
        fx = _power(x, b)
        return np.multiply(fx, rest, out=fx)

    return half, values


def _head_pass(half: float, values: Callable[[int, int], np.ndarray], k0: int, k1: int,
               tol: float, period_error: float) -> tuple[float, float]:
    """One Gauss-Legendre 15 pass over periods k0 <= k < k1: (estimate, bound).

    One product with the weights gives each panel's sum.  The bound adds the
    Gauss error, period_error per period, to the rounding accumulated across
    panels, _HEAD_ROUNDING * sum |panel sums|.  Overflow and a rounding floor
    above tol are refused.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = values(k0, k1).reshape(-1, 15) @ _WEIGHTS
        estimate = half * float(sums.sum())
        magnitude = half * float(np.abs(sums).sum())
    if not math.isfinite(magnitude):
        raise QuadratureError("the integrand overflows double range")
    if _HEAD_ROUNDING * magnitude > tol:
        raise QuadratureError(f"the tolerance needs relative precision {tol / magnitude:.1e}, "
                              f"below the rounding floor {_HEAD_ROUNDING:.1e}")
    return estimate, _HEAD_ROUNDING * magnitude + period_error * (k1 - k0)


@lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _period_profile(a: int, c: int, p: int, q: int) -> tuple[tuple[float, ...], float, float]:
    """Means of the iterated antiderivatives of g = sin^a(px) cos^c(qx) over a period.

    g has degree a*p + c*q < m/2, and the trapezoid rule on m points is exact
    for g(x)e^(-ikx) with |k| < m/2, so rfft(samples)/m gives the Fourier
    coefficients c_k of g up to rounding.  With G_0 = g, mu_j the mean of
    G_(j-1) and G_j the antiderivative of G_(j-1) - mu_j vanishing at 0:
        mu_1 = c_0,   mu_(j+1) = -2 Re sum_(k>=1) c_k / (ik)^j,
        G_K(x) = sum_(k!=0) c_k (e^(ikx) - 1) / (ik)^K,  |G_K| <= 4 sum_(k>=1) |c_k| / k^K.

    Returns (mus, max_last, mu_err): mu_1..mu_K, the bound on |G_K| (rounding
    included) and a bound on the rounding error of each mu_j.  The profile
    depends on the reduced (a, c, p, q) alone, with q = 0 when c = 0, so it is
    memoized for the last _PROFILE_CACHE_SIZE of them and shared by every b,
    common factor and sign; the result is immutable.
    """
    m = max(32, 1 << (2 * (a * p + c * q)).bit_length())
    x = np.arange(m) * (_PERIOD / m)
    samples = _power(np.sin(p * x), a)
    if c:
        samples = samples * _power(np.cos(q * x), c)
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
    max_last = 4.0 * float(((np.abs(coeffs) + coeff_err) * _power(inv_k, _LEVELS)).sum())
    return tuple(mus), max_last, mu_err


def _tail(b: int, mus: tuple[float, ...], max_last: float, mu_err: float, periods: int) -> tuple[float, float]:
    """The tail over [X, inf) at X = 2pi * periods: (value, error bound).

    Integration by parts gives the value as sum_i w_i mu_(i+1) X^-k_i, k_i = b - 1 + i,
    with w_0 = 1/(b-1) (no term for b = 1, where mu_1 = 0) and w_i = b(b+1)...(b+i-2)
    for i >= 1, and bounds the remainder by w_K max_last X^-k_K.  The value is
    linear in the mus with positive weights, so their rounding adds w_i mu_err X^-k_i
    to the bound.  X^-k is (2pi)^-k times periods^-k, exact for a power of two.
    """
    weights = [1.0 / (b - 1) if b >= 2 else 0.0, 1.0]
    for i in range(2, _LEVELS + 1):
        weights.append(weights[-1] * (b + i - 2))
    powers = [_PERIOD**-k * periods**-k for k in range(b - 1, b + _LEVELS)]
    bound = [w * mu_err * x for w, x in zip(weights, powers)]
    bound[-1] = weights[-1] * max_last * powers[-1]
    return sum(w * mu * x for w, mu, x in zip(weights, mus, powers)), sum(bound)


def _reduced_quadrature(a: int, b: int, c: int, p: int, q: int, tol: float) -> tuple[float, float]:
    """(estimate, error bound) of the integral for p > 0 and q >= 0.

    The tail, read at the final X = 2pi * periods, takes at most tol / 4; the
    caller checks the total against tol.
    """
    panels = 4 * (a * p + c * q)  # per period: none wider than a quarter oscillation
    max_periods = _MAX_NODES // (15 * panels)
    if not max_periods:
        raise QuadratureError(f"one period needs {_count_text(15 * panels)} evaluations, budget is {_MAX_NODES}")

    def doubled(periods: int) -> int:
        if 2 * periods > max_periods:
            raise QuadratureError(f"the head needs {15 * panels * 2 * periods} evaluations, budget is {_MAX_NODES}")
        return 2 * periods

    profile = _period_profile(a, c, p, q)
    periods = 1
    while (tail := _tail(b, *profile, periods))[1] > tol / 4.0:
        periods = doubled(periods)

    half, values = _sample_period(a, b, c, p, q, panels)
    with np.errstate(over="ignore"):  # past double range the bound is inf, and refused
        period_error = _GL15_PERIOD_ERROR * float(np.float64(p) ** b)
    head, head_err = _head_pass(half, values, 0, periods, tol, period_error)
    # The head's rounding can leave the tail less than its quarter of tol.
    # The tail bound falls like X^-(b+3), so extending the head over [X, 2X]
    # restores the room unless the rounding alone is too large.
    while head_err < tol < head_err + tail[1]:
        k0, periods = periods, doubled(periods)
        more, more_err = _head_pass(half, values, k0, periods, tol - head_err, period_error)
        head, head_err = head + more, head_err + more_err
        tail = _tail(b, *profile, periods)
    return head + tail[0], head_err + tail[1]
