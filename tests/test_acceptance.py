"""Acceptance gate: the eleven headline checks, one test and one printed
pass/fail line per criterion.

Criterion 2 drives a double-integral representation at nine (n, t)
combinations and dominates the runtime (a few minutes); every other
criterion finishes in seconds.
"""

import random
from fractions import Fraction

from cmlab import (
    DEFAULT_GRID,
    GridSpec,
    PrecisionContext,
    bernoulli,
    binet_check,
    bose_derivative,
    bose_moment,
    builtin_families,
    cm_check,
    degree_estimate,
    first_deriv_bound,
    psi_integral_check,
    remainder_jet,
    remark1_chain,
    remark3_inequalities,
    sign_scan,
    sin_kernel_integral,
    tail_limits,
    verify_degree_representation,
)
from cmlab import kernels
from cmlab.cmdegree import _JetTable


def _report(name, ok, detail):
    print("%s: %s (%s)" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s (%s)" % (name, detail)


def _e(x):
    return "%.3g" % float(x)


def test_criterion_01_bose_moment_identity():
    ctx = PrecisionContext(50)
    tol_q = ctx.mpf(10) ** (-32)
    worst = ctx.mpf(0)
    for k in range(1, 7):
        exact = Fraction((-1) ** (k - 1)) * bernoulli(2 * k) / (4 * k)
        dev = abs(bose_moment(ctx, 2 * k - 1, tol_q).value - ctx.mpf(exact))
        worst = max(worst, dev)
    _report(
        "criterion 01 bose moments k=1..6",
        worst < ctx.mpf(10) ** (-30),
        "max deviation %s, tolerance 1e-30" % _e(worst),
    )


def test_criterion_02_laplace_representation():
    ctx = PrecisionContext(25)
    tol = ctx.mpf(10) ** (-15)
    worst = ctx.mpf(0)
    for n in (1, 2, 3):
        for t in ("0.5", "1", "10"):
            dev = verify_degree_representation(ctx, n, ctx.mpf(t), tol)
            worst = max(worst, dev)
    _report(
        "criterion 02 degree representation n=1..3, t in {0.5,1,10}",
        worst < tol,
        "max deviation %s, tolerance 1e-15" % _e(worst),
    )


def test_criterion_03_known_degrees():
    ctx = PrecisionContext(30)
    fams = builtin_families()
    cases = (
        ("lnminuspsi", "0.5", "1.5", 1),
        ("phi", "1.5", "2.5", 2),
        ("R:0", "0", "0.8", 0),
        ("R:1", "0.5", "1.5", 1),
    )
    resolution = ctx.mpf("0.05")
    details = []
    ok = True
    for name, lo, hi, target in cases:
        bracket = degree_estimate(
            ctx, fams[name], lo, hi, resolution=resolution, order=8, grid=DEFAULT_GRID
        )
        good = (
            bracket.width <= resolution + ctx.mpf(10) ** (-12)
            and target in bracket
            and bracket.passed_alpha <= bracket.first_deriv_bound + resolution
        )
        ok = ok and good
        details.append(
            "%s->[%.4f,%.4f]" % (name, float(bracket.passed_alpha), float(bracket.failed_alpha))
        )
    _report(
        "criterion 03 known degrees 1/2/0/1 in width-0.05 brackets",
        ok,
        "; ".join(details),
    )


def test_criterion_04_double_inequality():
    ctx = PrecisionContext(30)
    fams = builtin_families()
    extended = GridSpec(1e-4, 1e3, 400)
    details = []
    ok = True
    for n in (2, 3):
        fam = fams["negRprime:%d" % n]
        lower = cm_check(ctx, fam, 2 * n - 1, order=8, grid=DEFAULT_GRID)
        bound = first_deriv_bound(ctx, fam, grid=extended)
        t = ctx.mpf(10) ** (-4)
        d1, d2 = remainder_jet(ctx, n, 1, 2, t)
        ratio = -t * d2 / d1
        good = (
            lower.passed
            and bound <= 2 * n + ctx.mpf(10) ** (-2)
            and abs(ratio - 2 * n) < ctx.mpf(10) ** (-3)
        )
        ok = ok and good
        details.append(
            "n=%d: alpha=%d passes, bound-2n=%s, ratio-2n=%s"
            % (n, 2 * n - 1, _e(bound - 2 * n), _e(ratio - 2 * n))
        )
    _report("criterion 04 double inequality n=2,3", ok, "; ".join(details))


def test_criterion_05_kernel_positivity():
    ctx = PrecisionContext(30)
    grid = GridSpec(1e-2, 1e2, 400)
    even = sign_scan(ctx, 2, grid)
    ok = even.min_value > 0
    floor = -ctx.mpf(10) ** (-25)
    worst = even.min_value
    for n in (1, 2, 3, 4):
        rep = sign_scan(ctx, 2 * n - 1, grid)
        ok = ok and rep.min_value >= floor
        worst = min(worst, rep.min_value)
    _report(
        "criterion 05 kernel positivity on 400 points",
        ok,
        "K_2 min %s; worst signed odd-order min %s" % (_e(even.min_value), _e(worst)),
    )


def test_criterion_06_chain_expressions():
    ctx = PrecisionContext(40)
    chain = remark1_chain(ctx, ctx.mpf(10) ** (-6))
    vanish = max(abs(e) for e in chain.vanishing)
    ok = vanish < ctx.mpf(10) ** (-15)
    low = None
    for v in GridSpec(1e-3, 30.0, 100).points(ctx):
        e5 = remark1_chain(ctx, v).expr5
        low = e5 if low is None else min(low, e5)
    ok = ok and low > 0
    _report(
        "criterion 06 chain vanishing + positivity",
        ok,
        "max |expr1..4|(1e-6) = %s; min expr5 on 100 points = %s" % (_e(vanish), _e(low)),
    )


def test_criterion_07_sin_moments():
    ctx = PrecisionContext(35)
    tol_q = ctx.mpf(10) ** (-25)
    low = min(sin_kernel_integral(ctx, 2, ctx.mpf(s), tol_q).value for s in ("0.5", "1", "5", "20"))
    ok = low >= -ctx.mpf(10) ** (-20)
    found = None
    for s in range(1, 31):
        val = sin_kernel_integral(ctx, 4, s, ctx.mpf(10) ** (-15)).value
        if val < -ctx.mpf(10) ** (-8):
            found = (s, val)
            break
    ok = ok and found is not None
    _report(
        "criterion 07 sin moments: p=2 nonnegative, p=4 negative found",
        ok,
        "min p=2 value %s; p=4 negative at s=%s (%s)"
        % (_e(low), found and found[0], found and _e(found[1])),
    )


def test_criterion_08_cos_moment_bounds():
    ctx = PrecisionContext(30)
    grid = GridSpec(1e-2, 1e2, 200)
    ok = True
    worst = None
    for n in (1, 2, 3, 4):
        rep = remark3_inequalities(ctx, n, grid)
        margin = min(rep.min_margin)
        worst = margin if worst is None else min(worst, margin)
        ok = ok and rep.all_hold and margin > 0
        if n == 1:
            ok = ok and rep.bound_exact == Fraction(1, 24)
    _report(
        "criterion 08 cos-moment bound n=1..4 on 200 points",
        ok,
        "min margin %s; n=1 bound exactly 1/24" % _e(worst),
    )


def test_criterion_09_tail_limits():
    ctx = PrecisionContext(40)
    ok = True
    worst = ctx.mpf(0)
    for n in (1, 2, 3):
        limits = tail_limits(ctx, n)
        for entry in limits.entries:
            rel = entry.deviation / (1 + abs(entry.target_value))
            worst = max(worst, rel)
    ok = worst <= ctx.mpf(10) ** (-6)
    _report(
        "criterion 09 tail limits n=1..3",
        ok,
        "max normalized deviation %s, tolerance 1e-6" % _e(worst),
    )


def test_criterion_10_identity_suites():
    ctx = PrecisionContext(50)
    # derivative ladder of the Bose factor vs five-point differences
    h = ctx.mpf(10) ** (-5)
    v0 = ctx.mpf(1)
    fd_ok = True
    worst_ratio = ctx.mpf(0)
    for k in range(1, 9):

        def g(x, _k=k):
            return bose_derivative(ctx, _k - 1, x)

        fd = (-g(v0 + 2 * h) + 8 * g(v0 + h) - 8 * g(v0 - h) + g(v0 - 2 * h)) / (12 * h)
        scale = h**4 * (1 + abs(bose_derivative(ctx, k + 4, v0)))
        dev = abs(bose_derivative(ctx, k, v0) - fd)
        worst_ratio = max(worst_ratio, dev / scale)
        fd_ok = fd_ok and dev <= scale

    # series/closed crossover of the f_n kernels
    v = ctx.mpf("0.4")
    cross = ctx.mpf(0)
    for n in range(0, 5):
        s = kernels._f_series(ctx, n, v, 0)
        c = kernels._f_closed(ctx, n, v, 0)
        cross = max(cross, abs(s - c))
    cross_ok = cross < ctx.mpf(10) ** (-40)

    # integral representations on 20 grid points
    dev_int = ctx.mpf(0)
    for t in GridSpec(0.5, 100, 20).points(ctx):
        dev_int = max(dev_int, binet_check(ctx, t), psi_integral_check(ctx, t))
    int_ok = dev_int < ctx.mpf(10) ** (-30)

    _report(
        "criterion 10 identity suites",
        fd_ok and cross_ok and int_ok,
        "FD dev/scale %s; series-closed %s; integrals %s"
        % (_e(worst_ratio), _e(cross), _e(dev_int)),
    )


def test_criterion_11_estimator_soundness():
    ctx = PrecisionContext(25)
    fams = builtin_families()
    grid = GridSpec(1e-6, 1e2, 60)
    picks = (
        ("lnminuspsi", 3.0),
        ("phi", 4.0),
        ("R:1", 3.0),
        ("R:2", 4.0),
        ("negRprime:2", 6.0),
    )
    rng = random.Random(1105)
    tables = {name: _JetTable(ctx, fams[name], grid) for name, _cap in picks}
    checked = 0
    implied = 0
    mono_ok = True
    for _ in range(50):
        name, cap = picks[rng.randrange(len(picks))]
        fam = fams[name]
        alpha_hi = rng.uniform(0, cap)
        alpha_lo = rng.uniform(0, alpha_hi)
        j_hi = rng.randint(1, 5)
        j_lo = rng.randint(0, j_hi)
        strong = cm_check(ctx, fam, alpha_hi, order=j_hi, grid=grid, _cache=tables[name])
        checked += 1
        if strong.passed:
            weak = cm_check(ctx, fam, alpha_lo, order=j_lo, grid=grid, _cache=tables[name])
            implied += 1
            mono_ok = mono_ok and weak.passed

    bracket_ok = True
    for name, lo, hi in (("lnminuspsi", 0.5, 1.5), ("phi", 1.5, 2.5), ("negRprime:2", 3.0, 4.5)):
        bracket = degree_estimate(ctx, fams[name], lo, hi, resolution=0.1, order=5, grid=grid)
        bracket_ok = bracket_ok and bracket.passed_alpha <= bracket.first_deriv_bound + ctx.mpf(
            "0.1"
        )
    _report(
        "criterion 11 estimator soundness",
        mono_ok and bracket_ok,
        "%d randomized cases, %d implications checked, brackets below first-derivative cap"
        % (checked, implied),
    )
