"""Power reduction and exact derivatives of sin^a(px) cos^c(qx), read off its spectrum.

The power-reduction formulas write 2^(a+c-1) sin^a(px) cos^c(qx) as a sum of
w * trig(mx) over integer frequencies m >= 0, with trig = cos for even a and
sin for odd a; the constant is the cos(0x) term, and an odd-a spectrum has
no m = 0 key.  Everything is exact: the weights w are integers.
Differentiating h times multiplies each term by m^h and turns trig(mx) into
+-sin or +-cos, so the h-th derivative is the sum of w * m^h times a sine or
cosine.
"""

import math

from sincint import spectrum


def describe(weights, kind):
    return " + ".join(f"{w}*{kind}({m}x)" for m, w in sorted(weights.items()) if w) or "0"


def main():
    print("Power reduction of 2^(a-1) sin^a(2x):")
    for a in (1, 2, 3, 4, 5):
        print(f"  2^{a - 1} sin^{a}(2x) = {describe(spectrum(a, 0, 2, 0), 'sin' if a % 2 else 'cos')}")

    a, c, p, q = 3, 2, 2, 1
    weights = spectrum(a, c, p, q)
    print(f"\nSpectrum of sin^{a}({p}x) cos^{c}({q}x): 2^{a + c - 1} times it is")
    print(f"  {describe(weights, 'sin')}")

    print("\nIts h-th derivative, times 2^(a+c-1), has the weights w * m^h:")
    for h in range(0, 5):
        kind = "cos" if (a + h) % 2 == 0 else "sin"
        sign = "-" if (h + 1 - a % 2) // 2 % 2 else "+"
        derived = {m: w * m**h for m, w in weights.items()}
        print(f"  d^{h}: {sign}({describe(derived, kind)})")

    x = 0.7
    drv = sum(w * m * math.cos(m * x) for m, w in weights.items()) / 2 ** (a + c - 1)
    eps = 1e-6
    fd = (
        math.sin(p * (x + eps)) ** a * math.cos(q * (x + eps)) ** c
        - math.sin(p * (x - eps)) ** a * math.cos(q * (x - eps)) ** c
    ) / (2 * eps)
    print(f"\nSpot check of d^1 at x = {x}: spectrum {drv:.9f}, finite difference {fd:.9f}")


if __name__ == "__main__":
    main()
