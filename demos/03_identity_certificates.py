"""Exact certificates that the h-th derivative of sin^a(px) cos^c(qx) vanishes at pi.

The log-valued closed form is only finite because a combinatorial sum over
binomials and integer powers cancels to exactly zero: the sum of
w * (-1)^m * m^h over the canonical spectrum {m: w} of the product, whose
keys are m = |L| >= 0.  This script prints the terms of one such sum, evaluates
others directly in big-integer arithmetic, and sweeps the sum over a
parameter box.
"""

from sincint import boundary_identity_sum, identity_sweep, spectrum


def main():
    a, c, p, q, h = 4, 2, 3, 1, 2
    print(f"Terms w * (-1)^m * m^{h} over the spectrum of sin^{a}({p}x) cos^{c}({q}x):")
    for m, w in sorted(spectrum(a, c, p, q).items()):
        print(f"  m={m:3d}  w={w:3d}  w*(-1)^m*m^{h} = {(-w if m % 2 else w) * m**h}")
    print(f"  sum = {boundary_identity_sum(a, c, p, q, h)}")

    print("\nSingle certificates (each sum is exactly 0):")
    for a, c, p, q, h in [(2, 0, 1, 0, 0), (5, 3, 2, 3, 3), (12, 6, 7, 5, 10), (20, 6, 7, 7, 18)]:
        terms = [(-w if m % 2 else w) * m**h for m, w in spectrum(a, c, p, q).items()]
        print(f"  a={a:2d} c={c} p={p} q={q} h={h:2d} -> {boundary_identity_sum(a, c, p, q, h)}"
              f"  ({len(terms)} terms, the positive ones summing to {sum(t for t in terms if t > 0)})")

    print("\nExhaustive sweep over a <= 8, c <= 3, p <= 3, q <= 3:")
    report = identity_sweep(8, 3, 3, 3)
    print(f"  {report.checked} tuples checked, {len(report.failures)} failures")


if __name__ == "__main__":
    main()
