"""Power reduction, products, and exact derivatives of sin^a(px) cos^c(qx).

Everything here is exact: coefficients are rationals and frequencies are
integers.  The n-th derivative is computed twice, once by instantiating the
closed-form coefficient sums and once by differentiating term by term, and
the two must agree coefficient for coefficient.
"""

import math

from sincint import (
    derivative_expansion,
    product_expansion,
    sin_power_expand,
    trig_product,
)


def describe(poly):
    return " + ".join(
        (f"{t.coeff}" if t.frequency == 0 else f"{t.coeff}*{t.kind.name.lower()}({t.frequency}x)")
        for t in poly.terms
    ) or "0"


def main():
    print("Power reduction of sin^a(2x):")
    for a in (1, 2, 3, 4, 5):
        print(f"  sin^{a}(2x) = {describe(sin_power_expand(a, 2))}")

    print("\nProduct re-expansion (product-to-sum identities):")
    u = sin_power_expand(2, 1)
    v = sin_power_expand(1, 3)
    print(f"  sin^2(x) * sin(3x) = {describe(trig_product(u, v))}")

    a, c, p, q = 3, 2, 2, 1
    poly = product_expansion(a, c, p, q)
    print(f"\nExpansion of sin^{a}({p}x) cos^{c}({q}x):")
    print(f"  {describe(poly)}")

    print("\nDerivatives via the closed form, checked against term-wise differentiation:")
    stepwise = poly
    for h in range(0, 5):
        closed = derivative_expansion(a, c, p, q, h)
        status = "agree" if closed == stepwise else "DISAGREE"
        print(f"  d^{h}: {describe(closed)}   [{status}]")
        stepwise = stepwise.derivative()

    x = 0.7
    drv = derivative_expansion(a, c, p, q, 1).evaluate(x)
    eps = 1e-6
    fd = (
        math.sin(p * (x + eps)) ** a * math.cos(q * (x + eps)) ** c
        - math.sin(p * (x - eps)) ** a * math.cos(q * (x - eps)) ** c
    ) / (2 * eps)
    print(f"\nSpot check of d^1 at x = {x}: expansion {drv:.9f}, finite difference {fd:.9f}")


if __name__ == "__main__":
    main()
