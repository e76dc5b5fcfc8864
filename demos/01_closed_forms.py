"""Exact closed forms across the family.

The integral of sin^a(px) cos^c(qx) / x^b over (0, inf) is a rational
multiple of pi when a and b share parity, and a rational combination of
logarithms of primes when they do not.  b = 1 belongs to the family for
odd a (the Sinc integral, a = 1, is pi/2) and diverges for even a.  This
script evaluates a spread of members and shows both the exact value and its
decimal rendering.
"""

from sincint import IntegralParams, evaluate, to_decimal

CLASSICS = [
    (2, 2, 0, 1, 0, "squared sinc"),
    (3, 3, 0, 1, 0, "cubed sinc"),
    (4, 4, 0, 1, 0, "fourth-power sinc"),
    (4, 2, 0, 1, 0, "sin^4 x / x^2"),
    (3, 2, 0, 1, 0, "first log-valued member"),
]

MIXED = [
    (2, 2, 2, 1, 1),
    (3, 2, 1, 1, 1),
    (6, 3, 1, 1, 2),
    (5, 3, 2, 2, 3),
    (7, 4, 3, 2, 1),
    (3, 2, 0, -2, 0),
]


def show(a, b, c, p, q, note=""):
    value = evaluate(IntegralParams(a, b, c, p, q))
    tag = f"  ({note})" if note else ""
    print(f"  I(a={a}, b={b}, c={c}, p={p:2d}, q={q}) = {str(value):>28s}"
          f"  = {to_decimal(value): .12f}{tag}")


def main():
    print("Classical members (pi-valued unless parities differ):")
    for a, b, c, p, q, note in CLASSICS:
        show(a, b, c, p, q, note)

    print("\nMixed sine/cosine members:")
    for a, b, c, p, q in MIXED:
        show(a, b, c, p, q)

    print("\nFrequency scaling for c = 0: I(p) = p^(b-1) I(1), exactly:")
    for p in (1, 2, 3, 4, 5):
        show(3, 2, 0, p, 0)

    print("\nb = 1 with odd a recovers the sinc line (even a diverges):")
    for a in (1, 3, 5):
        value = evaluate(IntegralParams(a, 1, 0, 1, 0))
        print(f"  I(a={a}, b=1) = {str(value):>12s} = {to_decimal(value):.12f}")


if __name__ == "__main__":
    main()
