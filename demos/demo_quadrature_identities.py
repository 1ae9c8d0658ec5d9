#!/usr/bin/env python3
"""Cross-checks between the quadrature engine and closed forms.

Every integral the package uses has at least one independent anchor:
elementary Laplace transforms, Bernoulli-number moments of the Bose
factor, and Fourier-type integrals that reproduce the K_m kernels.
This script evaluates each anchor and prints the residuals.

Run:  python3 demos/demo_quadrature_identities.py
"""

from fractions import Fraction

from cmlab import (
    GridSpec,
    K_kernel,
    PrecisionContext,
    bernoulli,
    bose_moment,
    cos_kernel_integral,
    f_kernel,
    laplace,
    polygamma,
    remark3_inequalities,
    sin_kernel_integral,
)


def main():
    ctx = PrecisionContext(30)
    tol = ctx.mpf("1e-25")

    print("elementary Laplace transforms")
    print("-" * 68)
    # (label, kernel, t, exact, a bound on |kernel|): v^4 e^-v peaks at v = 4
    cases = [
        ("1/2          ", lambda v: ctx.mpf("0.5"), "1", ctx.mpf("0.5"), ctx.mpf("0.5")),
        (
            "v^4 e^-v -> 24/(t+1)^5",
            lambda v: v ** 4 * ctx.exp(-v),
            "2",
            ctx.mpf(24) / ctx.mpf(243),
            256 * ctx.exp(-4),
        ),
        ("e^-v -> 1/(t+1)", lambda v: ctx.exp(-v), "1", ctx.mpf("0.5"), 1),
    ]
    for label, fn, t, exact, bound in cases:
        res = laplace(ctx, fn, t, tol, kernel_bound=bound)
        print(
            "  %s at t=%s: residual %.2e  (%d evaluations)"
            % (label, t, float(abs(res.value - exact)), res.evaluations)
        )
    res = laplace(ctx, lambda v: f_kernel(ctx, 0, v), "1", tol, kernel_bound=ctx.mpf("0.5"))
    # psi(1) = -gamma, so the target 1/2 - gamma comes from the package itself
    exact = ctx.mpf("0.5") + polygamma(ctx, 0, 1).value
    print("  f_0 at t=1 -> 1/2 - gamma: residual %.2e" % float(abs(res.value - exact)))
    print()

    print("Bose-factor moments: odd powers hit Bernoulli numbers exactly")
    print("-" * 68)
    for n in (1, 2, 3):
        s = 2 * n - 1
        exact_q = Fraction((-1) ** (n - 1)) * bernoulli(2 * n) / (4 * n)
        got = bose_moment(ctx, s, tol)
        print(
            "  s=%d: integral = %.15e, exact %s, residual %.2e"
            % (s, float(got.value), exact_q, float(abs(got.value - ctx.mpf(exact_q))))
        )
    print()

    print("cosine integrals reproduce the odd K kernels")
    print("-" * 68)
    for n, v in ((1, "0.5"), (2, "2"), (3, "10")):
        got = cos_kernel_integral(ctx, n, v, tol)
        want = ctx.mpf((-1) ** (n - 1)) * K_kernel(ctx, 2 * n - 1, v) / 2
        print(
            "  n=%d, v=%s: residual vs (-1)^(n-1) K_%d/2 = %.2e"
            % (n, v, 2 * n - 1, float(abs(got.value - want)))
        )
    print()

    print("sine moments: p=2 stays positive, p=4 dips negative")
    print("-" * 68)
    for p, s in ((2, "1"), (2, "5"), (4, "1"), (4, "5")):
        got = sin_kernel_integral(ctx, p, s, tol)
        print("  p=%d, s=%s: %+.6e" % (p, s, float(got.value)))
    print()
    print("The p=4 sign flip is why the even-order analogue of the")
    print("cosine-moment argument fails and K_4 can change sign.")
    print()

    print("two-sided cosine-moment bound (Remark 3, n=1)")
    print("-" * 68)
    rep = remark3_inequalities(ctx, 1, GridSpec(1e-2, 1e2, 60))
    print("  exact bound: %s (= %.10f)" % (rep.bound_exact, float(rep.bound)))
    for i in range(2):
        print(
            "  route %d: max |lhs| %.10f, min two-sided margin %.3e at v=%.3f"
            % (i + 1, float(rep.max_abs_lhs[i]), float(rep.min_margin[i]), float(rep.argmin[i]))
        )
    print("  all hold: %s" % rep.all_hold)
    print("Route 1 is K_1 (its Taylor series below v = 1/2), route 2 its")
    print("closed form at every v; each is checked on both sides.")


if __name__ == "__main__":
    main()
