"""Exact certificates that the h-th derivative of sin^a(px) cos^c(qx) vanishes at pi.

The log-valued closed form is only finite because a combinatorial sum over
binomials and integer powers cancels to exactly zero; this script evaluates
that sum directly in big-integer arithmetic, sweeps it over a parameter box,
and cross-checks one heavy tuple through the independent expansion route.
"""

from sincint import boundary_identity_sum, derivative_expansion, identity_sweep


def main():
    print("Single certificates (each sum is exactly 0):")
    for a, c, p, q, h in [(2, 0, 1, 0, 0), (5, 3, 2, 3, 3), (12, 6, 7, 5, 10), (20, 6, 7, 7, 18)]:
        value = boundary_identity_sum(a, c, p, q, h)
        print(f"  a={a:2d} c={c} p={p} q={q} h={h:2d} -> {value}")

    print("\nCross-check of (12, 6, 7, 5, h=10) by term-wise differentiation:")
    poly = derivative_expansion(12, 6, 7, 5, 0)
    for _ in range(10):
        poly = poly.derivative()
    print(f"  expansion value at pi = {poly.value_at_pi()}  ({len(poly.terms)} terms cancel)")

    print("\nExhaustive sweep over a <= 8, c <= 3, p <= 3, q <= 3:")
    report = identity_sweep(8, 3, 3, 3)
    print(f"  {report.checked} tuples checked, {len(report.failures)} failures")


if __name__ == "__main__":
    main()
