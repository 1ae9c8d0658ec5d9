#!/usr/bin/env python3
"""Bracketing complete-monotonicity degrees.

The degree of h (every family here tends to 0 at infinity) is the
largest r such that t^alpha h stays completely monotonic for every alpha
up to r.  The estimator checks the sign pattern of the first J
derivatives on a log grid and bisects alpha between a passing and a
failing endpoint.  Everything here is a finite
certificate, not a proof: a pass means "no violation on this grid at
this tolerance".

Run:  python3 demos/demo_degree_estimation.py   (under 10 s)
"""

from cmlab import (
    GridSpec,
    PrecisionContext,
    builtin_families,
    cm_check,
    conjecture_probe,
    degree_estimate,
    first_deriv_bound,
)

GRID = GridSpec(1e-8, 1e3, 150)


def main():
    ctx = PrecisionContext(25)
    fams = builtin_families()

    print("known degrees, re-derived by bisection")
    print("-" * 64)
    for name, lo, hi, known in (
        ("lnminuspsi", "0.5", "1.5", 1),
        ("phi", "1.5", "2.5", 2),
        ("R:1", "0.5", "1.5", 1),
    ):
        bracket = degree_estimate(
            ctx, fams[name], lo, hi, resolution=0.05, order=6, grid=GRID
        )
        print(
            "%-12s bracket [%.5f, %.5f]  width %.5f  contains %d: %s"
            % (
                name,
                float(bracket.passed_alpha),
                float(bracket.failed_alpha),
                float(bracket.width),
                known,
                known in bracket,
            )
        )
    print()

    print("anatomy of one check: phi with alpha on both sides of 2")
    print("-" * 64)
    fam = fams["phi"]
    for alpha in ("1.9", "2.0", "2.1"):
        res = cm_check(ctx, fam, alpha, order=6, grid=GRID)
        if res.passed:
            print("alpha=%s  passes all orders" % alpha)
        else:
            print(
                "alpha=%s  fails at derivative order %d near t=%.3e (value %.2e)"
                % (alpha, res.order, float(res.t), float(res.value))
            )
    print()

    print("first-derivative cap: inf of -t h'/h over the grid")
    print("-" * 64)
    for name in ("lnminuspsi", "phi", "negRprime:2"):
        cap = first_deriv_bound(ctx, fams[name], grid=GRID)
        print("%-14s %.8f" % (name, float(cap)))
    print()
    print("No alpha above the cap can pass: the j=1 test already breaks at")
    print("the minimizing grid point.  The caps sit just above the degrees.")
    print()

    print("exploratory probes for the open cases (grid evidence, NOT proofs)")
    print("-" * 64)
    for n, m in ((0, 2), (1, 2), (2, 0)):
        bracket = conjecture_probe(ctx, n, m, grid=GRID)
        print(
            "(-1)^%d R_%d^(%d):  bracket [%.4f, %.4f]"
            % (m, n, m, float(bracket.passed_alpha), float(bracket.failed_alpha))
        )
    print()
    print("Each probe bisects from alpha = 0 up to the first integer above")
    print("its cap plus the resolution, which fails by construction.  The")
    print("first two straddle their proved values (2 and 3).  The last is")
    print("open territory; the bracket records what this grid supports.")


if __name__ == "__main__":
    main()
