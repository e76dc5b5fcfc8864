"""Cross-validation of the closed forms against direct numerical quadrature.

The oracle never sees the expansions: it integrates the raw integrand with
one fixed Gauss-Legendre pass, whose error has a proven bound, plus a
periodic-mean tail correction, and returns a certified error bound alongside
the estimate.  Agreement within
tolerance on both parity cases is the end-to-end check of the evaluator.
"""

from sincint import IntegralParams, quadrature, verify

CASES = [
    (2, 2, 0, 1, 0),
    (4, 4, 0, 1, 0),
    (3, 2, 0, 1, 0),
    (5, 3, 2, 2, 3),
    (10, 2, 4, 5, 5),
    (9, 9, 4, 5, 5),
]


def main():
    print("Exact value vs quadrature oracle (tol = 1e-6):")
    for a, b, c, p, q in CASES:
        report = verify(IntegralParams(a, b, c, p, q), 1e-6)
        verdict = "pass" if report.passed else "FAIL"
        print(
            f"  ({a},{b},{c},{p},{q}): exact {str(report.exact):>30s} = {report.exact_decimal: .10f}"
            f"  oracle { report.oracle_estimate: .10f}  (diff {report.abs_diff:.2e})  {verdict}"
        )

    print("\nA full report serializes to JSON:")
    print(" ", verify(IntegralParams(5, 3, 2, 2, 3), 1e-6).to_json())

    print("\nError bounds are certified; tightening the tolerance tightens the tail:")
    params = IntegralParams(2, 2, 0, 1, 0)
    for tol in (1e-4, 1e-5, 1e-6, 1e-7):
        estimate, bound = quadrature(params, tol)
        print(f"  tol {tol:.0e}: estimate {estimate:.12f}, certified bound {bound:.2e}")


if __name__ == "__main__":
    main()
