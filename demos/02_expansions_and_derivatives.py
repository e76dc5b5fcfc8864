"""Power reduction and exact derivatives of sin^a(px) cos^c(qx), read off its spectrum.

The power-reduction formulas write 2^(a+c-1) sin^a(px) cos^c(qx) as a sum of
w * trig(Lx) over integer frequencies L, with trig = cos for even a and sin
for odd a; the constant is the cos(0x) term.  Everything is exact: the
weights w are integers.  Differentiating h times multiplies each term by L^h
and turns trig(Lx) into +-sin or +-cos, so the h-th derivative is the sum of
w * L^h times a sine or cosine.
"""

import math

from sincint import spectrum


def describe(weights, kind):
    # sin(0x) = 0: an odd-a spectrum's L = 0 key contributes nothing.
    return " + ".join(f"{w}*{kind}({L}x)" for L, w in sorted(weights.items()) if w and (L or kind == "cos")) or "0"


def main():
    print("Power reduction of 2^(a-1) sin^a(2x):")
    for a in (1, 2, 3, 4, 5):
        print(f"  2^{a - 1} sin^{a}(2x) = {describe(spectrum(a, 0, 2, 0), 'sin' if a % 2 else 'cos')}")

    a, c, p, q = 3, 2, 2, 1
    weights = spectrum(a, c, p, q)
    print(f"\nSpectrum of sin^{a}({p}x) cos^{c}({q}x): 2^{a + c - 1} times it is")
    print(f"  {describe(weights, 'sin')}")

    print("\nIts h-th derivative, times 2^(a+c-1), has the weights w * L^h:")
    for h in range(0, 5):
        kind = "cos" if (a + h) % 2 == 0 else "sin"
        sign = "-" if (h + 1 - a % 2) // 2 % 2 else "+"
        derived = {L: w * L**h for L, w in weights.items()}
        print(f"  d^{h}: {sign}({describe(derived, kind)})")

    x = 0.7
    drv = sum(w * L * math.cos(L * x) for L, w in weights.items()) / 2 ** (a + c - 1)
    eps = 1e-6
    fd = (
        math.sin(p * (x + eps)) ** a * math.cos(q * (x + eps)) ** c
        - math.sin(p * (x - eps)) ** a * math.cos(q * (x - eps)) ** c
    ) / (2 * eps)
    print(f"\nSpot check of d^1 at x = {x}: spectrum {drv:.9f}, finite difference {fd:.9f}")


if __name__ == "__main__":
    main()
