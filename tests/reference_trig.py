"""Product-to-sum reference for sincint.trig.spectrum; it imports nothing from sincint.

A trigonometric polynomial is a dict {(kind, f): Fraction}, kind "sin" or "cos",
f >= 0, the constant at ("cos", 0), no zero coefficient.  Powers are multiplied
out one factor at a time, so no binomial appears: no formula is shared with spectrum.
"""

import math
from fractions import Fraction


def poly(terms):
    """Normalise (kind, f, coeff) triples, f of either sign, by sin(-u) = -sin(u) and cos(-u) = cos(u)."""
    out = {}
    for kind, f, coeff in terms:
        if kind == "sin" and f < 0:
            f, coeff = -f, -coeff
        if kind == "cos" or f:
            out[kind, abs(f)] = out.get((kind, abs(f)), 0) + Fraction(coeff)
    return {key: coeff for key, coeff in out.items() if coeff}


def product(u, v):
    """u * v re-expanded, e.g. sin A cos B = (sin(A + B) + sin(A - B)) / 2."""
    terms = []
    for (k1, f1), c1 in u.items():
        for (k2, f2), c2 in v.items():
            half = c1 * c2 / 2
            if k1 == k2:  # sin sin = (cos(A-B) - cos(A+B))/2, cos cos = (cos(A-B) + cos(A+B))/2
                terms += [("cos", f1 - f2, half), ("cos", f1 + f2, half if k1 == "cos" else -half)]
            else:
                f_sin, f_cos = (f1, f2) if k1 == "sin" else (f2, f1)
                terms += [("sin", f_sin + f_cos, half), ("sin", f_sin - f_cos, half)]
    return poly(terms)


def product_expansion(a, c, p, q):
    """sin^a(px) cos^c(qx), multiplied out from the constant 1 one factor at a time."""
    result = {("cos", 0): Fraction(1)}
    for factor in [("sin", p, 1)] * a + [("cos", q, 1)] * c:
        result = product(result, poly([factor]))
    return result


def derivative(u):
    """Exact d/dx: sin(fx) -> f cos(fx), cos(fx) -> -f sin(fx)."""
    return poly(("cos", f, f * k) if kind == "sin" else ("sin", f, -f * k) for (kind, f), k in u.items())


def value_at_pi(u):
    """Exact value at x = pi, by cos(f pi) = (-1)^f and sin(f pi) = 0."""
    return sum((-k if f % 2 else k for (kind, f), k in u.items() if kind == "cos"), Fraction(0))


def evaluate(u, x):
    """Value at x in double precision."""
    return sum(float(k) * (math.sin(f * x) if kind == "sin" else math.cos(f * x)) for (kind, f), k in u.items())


def spectrum_derivative(weights, a, c, h):
    """h-th derivative of sin^a(px) cos^c(qx) read off its spectrum {L: w}.

    The function is the sum of w * trig(Lx) / 2^(a+c-1), trig = cos for even a
    and sin for odd a; d^h trig(Lx) = L^h trig(Lx + h pi/2), which is a cosine
    when a + h is even and carries the sign (-1)^((h + 1 - a mod 2) // 2).
    0^0 = 1 keeps the constant at h = 0 only.
    """
    kind = "cos" if (a + h) % 2 == 0 else "sin"
    scale = Fraction(-1 if (h + 1 - a % 2) // 2 % 2 else 1, 2 ** (a + c - 1))
    return poly((kind, L, scale * w * L**h) for L, w in weights.items())
