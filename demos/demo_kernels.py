#!/usr/bin/env python3
"""The exponential kernels behind the remainder derivatives.

-R_n'(t) is the Laplace transform of f_n(v), so positivity questions about
remainders become sign questions about kernels.  This script walks the
kernel family: f_n on both sides of its branch point, the derivative ladder
of the Bose factor 1/(e^v - 1), the K_m family with its odd/even split,
and the five-expression derivative chain that settles K_2 > 0.

Run:  python3 demos/demo_kernels.py
"""

from cmlab import (
    GridSpec,
    K_kernel,
    PrecisionContext,
    bose_derivative,
    f_kernel,
    remark1_chain,
    sign_scan,
)


def main():
    ctx = PrecisionContext(30)

    print("f_n(v): series branch below v=1/2, closed form above")
    print("-" * 68)
    print("%-8s %-20s %-20s %-20s" % ("v", "f_0", "f_1", "f_2"))
    for v in ("0.05", "0.5", "3", "20"):
        vals = [float(f_kernel(ctx, n, v)) for n in (0, 1, 2)]
        print("%-8s %-20.10e %-20.10e %-20.10e" % ((v,) + tuple(vals)))
    print()
    print("every f_n starts negative: f_n(0.01) = %s ..." % ", ".join(
        "%.1e" % float(f_kernel(ctx, n, "0.01")) for n in (0, 1, 2)
    ))
    print()

    print("derivative ladder of the Bose factor u = 1/(e^v - 1) at v = 1")
    print("-" * 68)
    for k in range(0, 6):
        print("  d^%d/dv^%d: %+.12e" % (k, k, float(bose_derivative(ctx, k, 1))))
    print("Signs alternate: the Bose factor is completely monotonic itself.")
    print()

    print("K_m on a log grid: odd orders are signed moments, even are open")
    print("-" * 68)
    grid = GridSpec(1e-2, 1e2, 200)
    for m in (1, 2, 3, 4):
        rep = sign_scan(ctx, m, grid)
        tag = "multiplied by %+d" % rep.multiplier if rep.multiplier != 1 else "as is"
        if rep.sign_changes:
            lo, hi = rep.sign_changes[0]
            extra = "sign change inside [%.3f, %.3f]" % (float(lo), float(hi))
        else:
            extra = "no sign change on the grid"
        print(
            "K_%d (%s): min %+.3e at v=%.3f; %s"
            % (m, tag, float(rep.min_value), float(rep.argmin), extra)
        )
    print()
    print("K_1 and -K_3 stay nonnegative (cosine-moment structure), K_2 is")
    print("strictly positive, and K_4 genuinely changes sign near v ~ 4.8.")
    print()

    print("the chain that proves K_2 > 0")
    print("-" * 68)
    print("%-8s %-14s %-14s %-14s %-14s %-14s" % ("v", "expr1", "expr2", "expr3", "expr4", "expr5"))
    for v in ("1e-6", "0.5", "2", "8"):
        ch = remark1_chain(ctx, v)
        print(
            "%-8s %-14.3e %-14.3e %-14.3e %-14.3e %-14.3e"
            % (
                v,
                float(ch.expr1),
                float(ch.expr2),
                float(ch.expr3),
                float(ch.expr4),
                float(ch.expr5),
            )
        )
    print()
    print("The first four expressions vanish at v=0+ and the fifth stays")
    print("positive, so each integrates up to a positive predecessor; the")
    print("chain terminates at (e^v-1)^3 v^3 K_2(v) > 0.")


if __name__ == "__main__":
    main()
