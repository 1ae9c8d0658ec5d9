"""Identity checks of the series evaluators against independent routes
(quadrature, exact Bernoulli closed forms, second closed forms), and the
table of named suites that turn them into pass/fail records.

Lower layers are called through their modules (``quadrature.laplace``, not
an imported ``laplace``), so whatever rebinds a layer module's functions,
such as a tracer, also sees the calls made from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from . import combinatorics, gammakit, kernels, quadrature, remainders
from .errors import IntegrationError, check_int
from .precision import GridSpec, PrecisionContext

__all__ = [
    "binet_check",
    "psi_integral_check",
    "verify_degree_representation",
    "Remark3Report",
    "remark3_inequalities",
    "SUITES",
    "run_suite",
]


# -- integral representations of ln Gamma and psi -----------------------


def _integral_tol(ctx: PrecisionContext):
    """Quadrature request of the ln Gamma and psi checks, and the tolerance
    their suites judge against: 10^-(digits-12), but never looser than
    half the working digits."""
    return ctx.mpf(10) ** (-max(ctx.digits - 12, ctx.digits // 2))


def binet_check(ctx: PrecisionContext, t):
    """Deviation of ln Gamma(t) from its exponential-kernel integral form

        (t - 1/2) ln t - t + ln(2 pi)/2 + int_0^inf g(u) e^{-tu} du,

    where g(u) = (1/(e^u - 1) - 1/u + 1/2)/u is positive, decreasing and
    bounded by g(0+) = 1/12.  Series evaluator on one side, quadrature on
    the other; returns |difference|.
    """
    t0 = ctx.positive(t, "binet_check")
    lhs = gammakit.ln_gamma(ctx, t0).value

    def g(u):
        return -kernels.f_kernel(ctx, 0, u) / u

    quad = quadrature.laplace(ctx, g, t0, _integral_tol(ctx), kernel_bound=ctx.mpf(1) / 12)
    rhs = (t0 - ctx.mpf(1) / 2) * ctx.ln(t0) - t0 + ctx.ln(2 * ctx.pi) / 2 + quad.value
    return abs(lhs - rhs)


def psi_integral_check(ctx: PrecisionContext, t):
    """Deviation of psi(t) from its exponential-kernel integral form

        ln t - int_0^inf h(v) e^{-tv} dv,

    where h(v) = 1/(1 - e^{-v}) - 1/v rises from 1/2 to 1.  Returns the
    absolute difference between the series evaluator and the quadrature.
    """
    t0 = ctx.positive(t, "psi_integral_check")
    lhs = gammakit.polygamma(ctx, 0, t0).value

    def h(v):
        return ctx.mpf(1) / 2 - kernels.f_kernel(ctx, 0, v)

    quad = quadrature.laplace(ctx, h, t0, _integral_tol(ctx), kernel_bound=ctx.mpf(1))
    rhs = ctx.ln(t0) - quad.value
    return abs(lhs - rhs)


# -- the Laplace form of -R_n' --------------------------------------------


def verify_degree_representation(ctx: PrecisionContext, n: int, t, tol):
    """Check t^{2n-1} [-R_n'(t)] against its double-integral representation

        2 int_0^inf ( int_0^inf w^{2n-1}[1-cos(wv)]/(e^{2 pi w}-1) dw ) e^{-tv} dv

    The left side comes from the shift+series evaluator, the right side
    entirely from quadrature, so agreement is a genuine cross-check.
    Returns the absolute deviation (caller compares against ``tol``).

    The tolerance is split so the inner integrals cannot pollute the outer
    one.  The inner tolerance is tol*t/12 scaled up by e^{3tv/4}: the
    total inner contribution is then bounded by (tol*t/12) int e^{-tv/4}
    dv = tol/3, while the integrals under the flat part of the weight stay
    tight and the (expensive, high-frequency) ones at large v relax where
    the weight has already collapsed.  The outer quadrature itself gets
    tol/8.

    The inner integrals at v <= pi run on the unit panels that every such
    v shares, so their node tables and panel-start factors, which do not
    depend on v, come from quadrature's module caches; above pi the panels
    change with v and each inner integral builds its own.
    """
    n = check_int(n, "verify_degree_representation n", 1)
    t = ctx.positive(t, "verify_degree_representation")
    tol = ctx.positive(tol, "verify_degree_representation", "tol")

    lhs = ctx.power(t, 2 * n - 1) * remainders.remainder_d1(ctx, n, t)

    tol_inner = tol * t / 12
    # since 1 - cos <= 2, the inner integral is at most twice the Bose
    # moment |B_2n|/(4n); this, with margin, bounds the outer kernel
    moment_bound = 3 * abs(ctx.mpf(combinatorics.bernoulli(2 * n))) / (4 * n) + 1

    def inner(v):
        relax = ctx.exp(3 * t * v / 4)
        return quadrature.cos_kernel_integral(ctx, n, v, tol_inner * relax).value

    outer = quadrature.laplace(ctx, inner, t, tol / 8, kernel_bound=moment_bound)
    rhs = 2 * outer.value
    return abs(lhs - rhs)


# -- the cosine-moment bounds (Remark 3) ----------------------------------


@dataclass
class Remark3Report:
    """Grid scan of the cosine-moment bound for one n, by two routes, each
    checked on both sides, -bound < lhs < bound.

    ``max_abs_lhs``, ``min_margin`` (the grid minimum of bound - |lhs|) and
    ``argmin`` hold one entry per route.  A margin within the rounding
    noise 10^(3-digits) bound is undecided, and one below it a violation;
    each is listed as (route, v, lhs).  ``all_hold`` reads the violations
    alone.
    """

    n: int
    bound_exact: Fraction
    bound: object
    max_abs_lhs: list
    min_margin: list
    argmin: list
    violations: list = field(default_factory=list)
    undecided: list = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return not self.violations


def remark3_inequalities(ctx: PrecisionContext, n: int, grid: GridSpec) -> Remark3Report:
    """Check, at every grid point, that the oscillatory cosine moment
    lhs = (-1)^n (K_{2n-1}(v) - B_{2n}/(2n))/2 stays strictly inside
    (-bound, bound), with the rational bound (2n-1)! zeta(2n) / (2 pi)^{2n}.

    Routes to K_{2n-1}: (1) ``kernels.K_kernel``, which takes its Taylor
    series below v = 1/2; (2) the closed form it takes above, here at every
    v.  Violations are report entries, not exceptions.  As v -> 0+ |lhs|
    rises to the bound, so a margin bound - |lhs| within 10^(3-digits)
    bound, which each route's lhs is good to, is undecided: at v = 1e-30
    and 30 digits both routes meet the bound exactly.
    """
    n = check_int(n, "remark3_inequalities n", 1)

    q, _power = combinatorics.zeta_even(n)
    bound_exact = Fraction(math.factorial(2 * n - 1)) * q / Fraction(2) ** (2 * n)
    bound = ctx.mpf(bound_exact)

    sign = -1 if n % 2 else 1
    b2n = ctx.mpf(combinatorics.bernoulli(2 * n))
    m = 2 * n - 1

    max_abs_lhs = [None, None]
    min_margin = [None, None]
    argmin = [None, None]
    violations = []
    undecided = []
    noise = ctx.mpf(10) ** (3 - ctx.digits) * bound

    for v in grid.points(ctx):
        # K_m = (-1)^n f_n^(m), as in K_kernel
        routes = (kernels.K_kernel(ctx, m, v), sign * kernels._f_closed(ctx, n, v, m))
        for i, k in enumerate(routes):
            lhs = ctx.mpf(sign) / 2 * (k - b2n / (2 * n))
            size = abs(lhs)
            margin = bound - size
            if max_abs_lhs[i] is None or size > max_abs_lhs[i]:
                max_abs_lhs[i] = size
            if min_margin[i] is None or margin < min_margin[i]:
                min_margin[i] = margin
                argmin[i] = v
            if margin < -noise:
                violations.append((i + 1, v, lhs))
            elif not margin > noise:
                undecided.append((i + 1, v, lhs))

    return Remark3Report(
        n, bound_exact, bound, max_abs_lhs, min_margin, argmin, violations, undecided
    )


# -- suites -----------------------------------------------------------------
#
# A suite takes (ctx, quick, find_negative) and returns its records; quick
# selects the reduced case lists.


def _record(name, max_dev, tol, passed, **extra):
    rec = {"name": name, "max_deviation": max_dev, "tolerance": tol, "pass": bool(passed)}
    rec.update(extra)
    return rec


def _suite_integral(name, check, ctx, quick, find_negative):
    ts = ("1", "10") if quick else ("0.5", "1", "2", "10", "100")
    dev = max(check(ctx, ctx.mpf(t)) for t in ts)
    tol = _integral_tol(ctx)
    return [_record(name, dev, tol, dev <= tol, points=len(ts))]


def _suite_bose(ctx, quick, find_negative):
    ks = (1, 2, 3) if quick else (1, 2, 3, 4, 5, 6)
    tol = ctx.mpf(10) ** (-max(ctx.digits - 15, ctx.digits // 2))
    dev = ctx.mpf(0)
    for k in ks:
        # int_0^inf w^{2k-1}/(e^{2 pi w} - 1) dw = (-1)^{k+1} B_{2k}/(4k)
        exact = (-1) ** (k + 1) * Fraction(combinatorics.bernoulli(2 * k), 4 * k)
        moment = quadrature.bose_moment(ctx, 2 * k - 1, tol)
        dev = max(dev, abs(moment.value - ctx.mpf(exact)))
    return [_record("bose", dev, tol, dev <= tol, moments=len(ks))]


def _suite_laplace_rep(ctx, quick, find_negative):
    combos = ((1, "10"),) if quick else ((1, "1"), (1, "10"), (2, "10"))
    tol = ctx.mpf(10) ** (-15)
    dev = max(verify_degree_representation(ctx, n, ctx.mpf(t), tol) for n, t in combos)
    return [_record("laplace-rep", dev, tol, dev <= tol, cases=len(combos))]


def _suite_remark1(ctx, quick, find_negative):
    chain = kernels.remark1_chain(ctx, ctx.mpf("1e-6"))
    dev = max(abs(e) for e in chain.vanishing)
    tol = ctx.mpf(10) ** (-15)
    count = 40 if quick else 100
    low = min(
        kernels.remark1_chain(ctx, v).expr5 for v in GridSpec(1e-3, 30.0, count).points(ctx)
    )
    shortfall = -low if low < 0 else ctx.mpf(0)
    return [
        _record("remark1-vanishing", dev, tol, dev <= tol),
        _record("remark1-positivity", shortfall, 0, low > 0, points=count),
    ]


def _suite_remark2(ctx, quick, find_negative):
    ss = ("1", "5") if quick else ("0.5", "1", "5", "20")
    tol_q = ctx.mpf(10) ** (-25)
    low = min(quadrature.sin_kernel_integral(ctx, 2, ctx.mpf(s), tol_q).value for s in ss)
    shortfall = -low if low < 0 else ctx.mpf(0)
    tol = ctx.mpf(10) ** (-20)
    recs = [_record("remark2-nonnegative", shortfall, tol, shortfall <= tol, points=len(ss))]
    if find_negative:
        tol_scan = ctx.mpf(10) ** (-15)
        for s in range(1, 31):
            val = quadrature.sin_kernel_integral(ctx, 4, ctx.mpf(s), tol_scan).value
            if val < -ctx.mpf(10) ** (-8):
                recs.append(_record("remark2-negative-case", 0, 0, True, s=str(s), value=val))
                break
        else:
            note = "no negative fourth-power moment located for s in 1..30"
            recs.append(_record("remark2-negative-case", 0, 0, False, note=note))
    return recs


def _suite_remark3(ctx, quick, find_negative):
    ns = (1, 2) if quick else (1, 2, 3, 4)
    grid = GridSpec(1e-2, 1e2, 50 if quick else 200)
    recs = []
    for n in ns:
        rep = remark3_inequalities(ctx, n, grid)
        # the deepest decided violation; an undecided margin is no shortfall
        shortfall = max((abs(lhs) - rep.bound for _, _, lhs in rep.violations), default=ctx.mpf(0))
        recs.append(
            _record(
                "remark3-n%d" % n,
                shortfall,
                0,
                rep.all_hold,
                violations=len(rep.violations),
                undecided=len(rep.undecided),
            )
        )
        if n == 1:
            ok = rep.bound_exact == Fraction(1, 24)
            bound = str(rep.bound_exact)
            recs.append(_record("remark3-exact-bound", 0 if ok else 1, 0, ok, bound=bound))
    return recs


def _suite_remark4(ctx, quick, find_negative):
    ns = (1,) if quick else (1, 2, 3)
    tol = ctx.mpf(10) ** (-6)
    recs = []
    for n in ns:
        limits = remainders.tail_limits(ctx, n)
        dev = max(e.deviation / (1 + abs(e.target_value)) for e in limits.entries)
        recs.append(_record("remark4-n%d" % n, dev, tol, dev <= tol))
    return recs


#: suite name -> (paper anchor, suite function), in run order
SUITES = {
    "binet": ("binet-integral", partial(_suite_integral, "binet", binet_check)),
    "psi-integral": (
        "psi-log-integral",
        partial(_suite_integral, "psi-integral", psi_integral_check),
    ),
    "bose": ("bose-moment-closed-form", _suite_bose),
    "laplace-rep": ("laplace-representation", _suite_laplace_rep),
    "remark1": ("kernel-chain-derivatives", _suite_remark1),
    "remark2": ("sin-moment-positivity", _suite_remark2),
    "remark3": ("cos-moment-bound", _suite_remark3),
    "remark4": ("tail-limit-powers", _suite_remark4),
}


def run_suite(ctx: PrecisionContext, name: str, quick: bool, find_negative: bool) -> list:
    """Records of one named suite, each tagged with the suite's paper
    anchor.  ``max_deviation`` and ``tolerance`` (and a ``value``, where
    present) are numbers, except in the single failed record that stands
    for a suite whose integration budget ran out."""
    anchor, suite = SUITES[name]
    try:
        recs = suite(ctx, quick, find_negative)
    except IntegrationError as exc:
        recs = [_record(name, "", "", False, note="integration budget exhausted: %s" % exc)]
    for rec in recs:
        rec["paper_anchor"] = anchor
    return recs
