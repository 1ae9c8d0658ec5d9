"""Semi-infinite quadrature: analytic Laplace transforms, Bose moments,
and oscillatory kernel integrals against their closed forms.
"""

from fractions import Fraction

import mpmath
import pytest
from mpmath.calculus.quadrature import GaussLegendre
from mpmath.ctx_mp import MPContext

from cmlab import (
    DomainError,
    IntegrationError,
    K_kernel,
    PrecisionContext,
    bose_derivative,
    bose_moment,
    cos_kernel_integral,
    f_kernel,
    laplace,
    nodes,
    precision,
    quadrature,
    sin_kernel_integral,
    verify_degree_representation,
)

EULER_GAMMA = "0.5772156649015328606065120900824024310421593359399235988057672348848677267776646709"


# -- Laplace transforms ------------------------------------------------


def test_laplace_constant_kernel():
    ctx = PrecisionContext(40)
    tol = ctx.mpf(10) ** (-30)
    res = laplace(ctx, lambda v: ctx.mpf(1), 2, tol, kernel_bound=1)
    assert abs(res.value - ctx.mpf(1) / 2) < tol
    assert res.est_error < tol
    assert res.evaluations > 0


def test_laplace_quartic_kernel():
    # v^4 e^{-v} peaks at v = 4 with 256 e^{-4}; its transform at t = 2 is 24/3^5
    ctx = PrecisionContext(40)
    tol = ctx.mpf(10) ** (-30)
    res = laplace(ctx, lambda v: v**4 * ctx.exp(-v), 2, tol, kernel_bound=256 * ctx.exp(-4))
    exact = ctx.mpf(24) / 243
    assert abs(res.value - exact) < tol


def test_laplace_exponential_kernel():
    ctx = PrecisionContext(40)
    tol = ctx.mpf(10) ** (-30)
    res = laplace(ctx, lambda v: ctx.exp(-v), 1, tol, kernel_bound=1)
    assert abs(res.value - ctx.mpf(1) / 2) < tol


def test_laplace_of_f0_gives_half_minus_gamma():
    # int_0^inf f_0(v) e^{-v} dv = 1/2 - gamma
    ctx = PrecisionContext(50)
    tol = ctx.mpf(10) ** (-40)
    res = laplace(ctx, lambda v: f_kernel(ctx, 0, v), 1, tol, kernel_bound=ctx.mpf(1) / 2)
    expected = ctx.mpf(1) / 2 - ctx.mpf(EULER_GAMMA)
    assert abs(res.value - expected) < ctx.mpf(10) ** (-39)


def test_laplace_kernel_beyond_the_float_range():
    # the kernel's values span far more than a float's range;
    # int_0^inf 1e30 e^{-(v-50)^2} e^{-v} dv
    # = 1e30 e^{-49.75} (sqrt(pi)/2) erfc(-49.5)
    ctx = PrecisionContext(30)
    big = ctx.mpf("1e30")
    res = laplace(
        ctx, lambda v: big * ctx.exp(-((v - 50) ** 2)), 1, ctx.mpf("1e-20"), kernel_bound=big
    )
    with mpmath.workdps(50):
        half = mpmath.mpf(1) / 2
        exact = mpmath.mpf(10) ** 30 * mpmath.exp(half / 2 - 50) * mpmath.sqrt(mpmath.pi) * half
        exact *= mpmath.erfc(-mpmath.mpf("49.5"))
    assert res.est_error < ctx.mpf("1e-20")
    assert abs(res.value - exact) <= res.est_error


def test_laplace_domain_and_budget():
    ctx = PrecisionContext(40)
    tol = ctx.mpf(10) ** (-30)
    with pytest.raises(DomainError):
        laplace(ctx, lambda v: v, 0, tol, kernel_bound=1)
    with pytest.raises(IntegrationError):
        laplace(ctx, lambda v: ctx.mpf(1), 1, tol, budget=50, kernel_bound=1)


@pytest.mark.parametrize(
    "integral",
    [
        lambda ctx, tol, budget: bose_moment(ctx, 3, tol, budget=budget),
        lambda ctx, tol, budget: bose_moment(ctx, "2.5", tol, budget=budget),
        lambda ctx, tol, budget: cos_kernel_integral(ctx, 2, 3, tol, budget=budget),
        lambda ctx, tol, budget: sin_kernel_integral(ctx, 2, 3, tol, budget=budget),
    ],
    ids=["bose-integer", "bose-corner-series", "cos", "sin"],
)
def test_integrals_raise_on_exhausted_budget(integral):
    # each shape stops with IntegrationError, not a silently short sum
    ctx = PrecisionContext(40)
    with pytest.raises(IntegrationError) as info:
        integral(ctx, ctx.mpf(10) ** (-30), 50)
    assert info.value.evaluations > 50


@pytest.mark.parametrize(
    "integral,budget,finite",
    [
        (lambda ctx, tol, budget: bose_moment(ctx, 3, tol, budget=budget), 50, True),
        # the first panel [1/8, 1/4] ends before the tail bound engages at
        # 2.5/(2 pi), and its 25 evaluations leave too few for the next
        (lambda ctx, tol, budget: bose_moment(ctx, "2.5", tol, budget=budget), 30, False),
        (lambda ctx, tol, budget: cos_kernel_integral(ctx, 2, 3, tol, budget=budget), 50, True),
        (lambda ctx, tol, budget: sin_kernel_integral(ctx, 2, 3, tol, budget=budget), 50, False),
    ],
    ids=["bose-integer", "bose-corner-series", "cos", "sin"],
)
def test_exhausted_budget_error_carries_bound(integral, budget, finite):
    # the error of the finished panels plus the tail bound at the last
    # one's end; infinite while no tail bound has held
    ctx = PrecisionContext(20)
    with pytest.raises(IntegrationError) as info:
        integral(ctx, ctx.mpf("1e-12"), budget)
    est = info.value.est_error
    assert est is not None
    assert est > 0
    assert ctx.isfinite(est) == finite


# -- Bose moments -------------------------------------------------------


@pytest.mark.parametrize(
    "s,exact",
    [
        (1, Fraction(1, 24)),
        (3, Fraction(1, 240)),
        (5, Fraction(1, 504)),
    ],
)
def test_bose_moment_odd_integers(s, exact):
    ctx = PrecisionContext(40)
    tol = ctx.mpf(10) ** (-32)
    res = bose_moment(ctx, s, tol)
    assert abs(res.value - ctx.mpf(exact)) < tol
    assert res.est_error < tol


@pytest.mark.parametrize(
    "s,digits",
    [
        pytest.param("2", 40, id="2"),
        pytest.param("2.5", 40, id="2.5"),
        pytest.param("0.5", 40, id="0.5"),
        pytest.param("7.5", 40, id="7.5"),
        pytest.param("2.5", 100, id="2.5-digits100"),
    ],
)
def test_bose_moment_general_s_vs_zeta(s, digits):
    # int w^s/(e^{2 pi w}-1) dw = Gamma(s+1) zeta(s+1) / (2 pi)^{s+1}
    ctx = PrecisionContext(digits)
    tol = ctx.mpf(10) ** (10 - digits)
    res = bose_moment(ctx, s, tol)
    with mpmath.workdps(digits + 15):
        sv = mpmath.mpf(s)
        oracle = mpmath.gamma(sv + 1) * mpmath.zeta(sv + 1) / (2 * mpmath.pi) ** (sv + 1)
    assert abs(res.value - ctx.mpf(oracle)) < 2 * tol
    assert res.est_error < tol


# (shape, digits, t or s, exact): laplace of e^{-v} is 1/(t+1), and the
# Bose moment at s = 2k-1 is (-1)^(k-1) B_2k/(4k)
POINTWISE_CASES = [
    ("laplace", 45, "1", Fraction(1, 2)),
    ("laplace", 60, "0.75", Fraction(4, 7)),
    ("laplace", 60, "1", Fraction(1, 2)),
] + [
    ("bose", digits, s, exact)
    for digits in (30, 60)
    for s, exact in (
        (1, Fraction(1, 24)),
        (3, Fraction(1, 240)),
        (5, Fraction(1, 504)),
        (7, Fraction(1, 480)),
        (9, Fraction(1, 264)),
    )
] + [
    # where the bound is tightest: the tail bound at the cutoff exceeds
    # the true error by 0.4%, 0.03% and 0.02%, and the panels add little
    ("bose", 20, 7, Fraction(1, 480)),
    ("bose", 45, 3, Fraction(1, 240)),
    ("bose", 80, 7, Fraction(1, 480)),
]


@pytest.mark.parametrize(
    "shape,digits,x,exact", POINTWISE_CASES, ids=["%s-%s-%s" % c[:3] for c in POINTWISE_CASES]
)
def test_pointwise_error_bounds_hold(shape, digits, x, exact):
    # est_error bounds the true error, rounding included, and stays below tol
    ctx = PrecisionContext(digits)
    tol = ctx.mpf(10) ** (5 - digits)
    if shape == "laplace":
        res = laplace(ctx, lambda v: ctx.exp(-v), x, tol, kernel_bound=1)
    else:
        res = bose_moment(ctx, x, tol)
    with mpmath.workdps(2 * digits):
        error = abs(mpmath.mpf(res.value) - mpmath.mpf(exact.numerator) / exact.denominator)
    assert error <= res.est_error < tol


def test_bose_moment_domain():
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        bose_moment(ctx, 0, ctx.mpf(10) ** (-20))
    with pytest.raises(DomainError):
        bose_moment(ctx, -2, ctx.mpf(10) ** (-20))


# -- oscillatory kernel integrals ---------------------------------------


def test_cos_kernel_integral_vanishes_at_zero():
    ctx = PrecisionContext(35)
    res = cos_kernel_integral(ctx, 1, 0, ctx.mpf(10) ** (-25))
    assert abs(res.value) < ctx.mpf(10) ** (-25)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("v", ["0.5", "2", "10"])
def test_cos_kernel_integral_matches_K(n, v):
    # int w^{2n-1} (1 - cos(wv))/(e^{2 pi w}-1) dw = (-1)^{n-1} K_{2n-1}(v)/2
    ctx = PrecisionContext(35)
    tol = ctx.mpf(10) ** (-25)
    res = cos_kernel_integral(ctx, n, v, tol)
    sign = 1 if n % 2 == 1 else -1
    expected = sign * K_kernel(ctx, 2 * n - 1, v) / 2
    assert abs(res.value - expected) < ctx.mpf(10) ** (-20)


def _fresh_frame_caches(monkeypatch):
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    monkeypatch.setattr(quadrature, "_OFFSET_CACHE", {})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cos_kernel_integral_cold_and_warm_tables_are_bit_identical(n, monkeypatch):
    # v below and above pi, repeated v and mixed tolerances: each result
    # from tables that earlier calls left in the module caches equals the
    # one from empty caches
    ctx = PrecisionContext(25)
    cases = [("0.5", -15), ("4", -15), ("2", -20), ("0.5", -12), ("3.1", -15), ("7.5", -12)]
    cases += [("2", -15), ("4", -20), ("0.25", -20)]
    _fresh_frame_caches(monkeypatch)
    warm = [cos_kernel_integral(ctx, n, v, ctx.mpf(10) ** exp) for v, exp in cases]
    assert quadrature._NODE_CACHE and quadrature._OFFSET_CACHE
    for (v, exp), shared in zip(cases, warm):
        _fresh_frame_caches(monkeypatch)
        cold = cos_kernel_integral(ctx, n, v, ctx.mpf(10) ** exp)
        assert shared.value == cold.value
        assert shared.est_error == cold.est_error
        assert shared.evaluations == cold.evaluations


def test_frame_caches_stay_bounded(monkeypatch):
    # their keys hold no v: after the first integral at v <= pi and the
    # first above, 78 more at other v add no entry
    ctx = PrecisionContext(25)
    tol = ctx.mpf(10) ** (-15)
    below = [ctx.pi * k / 40 for k in range(40, 0, -1)]
    above = [ctx.pi * (1 + ctx.mpf(k) / 4) for k in range(1, 41)]
    _fresh_frame_caches(monkeypatch)
    cos_kernel_integral(ctx, 2, below[0], tol)
    cos_kernel_integral(ctx, 2, above[0], tol)
    sizes = len(quadrature._NODE_CACHE), len(quadrature._OFFSET_CACHE)
    assert min(sizes) > 0
    for v in below[1:] + above[1:]:
        cos_kernel_integral(ctx, 2, v, tol)
    assert (len(quadrature._NODE_CACHE), len(quadrature._OFFSET_CACHE)) == sizes


def test_frame_caches_hold_no_tables_above_pi(monkeypatch):
    # above pi the panels are pi/v wide and every table is the call's own
    ctx = PrecisionContext(25)
    _fresh_frame_caches(monkeypatch)
    for v in ("4", "10", ctx.pi * (1 + ctx.mpf(10) ** (-20))):
        cos_kernel_integral(ctx, 2, v, ctx.mpf(10) ** (-15))
    sin_kernel_integral(ctx, 2, 5, ctx.mpf(10) ** (-15))
    assert quadrature._NODE_CACHE == {} and quadrature._OFFSET_CACHE == {}
    cos_kernel_integral(ctx, 2, ctx.pi, ctx.mpf(10) ** (-15))
    assert quadrature._NODE_CACHE and quadrature._OFFSET_CACHE


def test_degree_representation_inner_integral_counts(monkeypatch):
    # the counts do not depend on the machine, nor on how the panels are summed
    calls = []
    inner = quadrature.cos_kernel_integral

    def recording(ctx, n, v, tol, budget=quadrature.DEFAULT_BUDGET):
        res = inner(ctx, n, v, tol, budget)
        calls.append(res.evaluations)
        return res

    monkeypatch.setattr(quadrature, "cos_kernel_integral", recording)
    verify_degree_representation(PrecisionContext(30), 1, 10, 1e-15)
    assert len(calls) == 75
    assert sum(calls) == 7449


def test_cos_kernel_integral_domain():
    ctx = PrecisionContext(30)
    tol = ctx.mpf(10) ** (-20)
    with pytest.raises(DomainError):
        cos_kernel_integral(ctx, 0, 1, tol)
    with pytest.raises(DomainError):
        cos_kernel_integral(ctx, 1, -1, tol)


def sin_moment_oracle(ctx, p, s):
    """(-1)^{p/2} [pi (2 pi)^p B^{(p)}(2 pi s) - p!/(2 s^{p+1})] where B is
    the Bose factor 1/(e^v - 1); independent of the quadrature path."""
    s = ctx.mpf(s)
    sign = -1 if (p // 2) % 2 == 1 else 1
    two_pi = 2 * ctx.pi
    fact = 1
    for d in range(2, p + 1):
        fact *= d
    inner = ctx.pi * two_pi**p * bose_derivative(ctx, p, two_pi * s)
    return sign * (inner - ctx.mpf(fact) / (2 * s ** (p + 1)))


@pytest.mark.parametrize("p,s", [(2, "0.5"), (2, "1"), (2, "5"), (4, "1"), (4, "5")])
def test_sin_kernel_integral_matches_closed_form(p, s):
    ctx = PrecisionContext(40)
    tol = ctx.mpf(10) ** (-30)
    res = sin_kernel_integral(ctx, p, s, tol)
    assert abs(res.value - sin_moment_oracle(ctx, p, s)) < ctx.mpf(10) ** (-25)


def test_sin_kernel_integral_signs():
    # p=2 moments stay positive; the p=4 moment is already negative at s=5
    ctx = PrecisionContext(35)
    tol = ctx.mpf(10) ** (-22)
    assert sin_kernel_integral(ctx, 2, 5, tol).value > 0
    neg = sin_kernel_integral(ctx, 4, 5, tol).value
    assert neg < 0
    assert abs(neg + ctx.mpf("0.00384")) < ctx.mpf("2e-4")


def hurwitz_cos_oracle(n, v, digits):
    """int w^{2n-1} [1 - cos(wv)]/(e^{2 pi w}-1) dw
    = (2n-1)!/(2 pi)^{2n} [zeta(2n) - Re zeta(2n, 1 - i v/(2 pi))]."""
    with mpmath.workdps(2 * digits + 20):
        two_pi = 2 * mpmath.pi
        hurwitz = mpmath.re(mpmath.zeta(2 * n, 1 - 1j * mpmath.mpf(v) / two_pi))
        return +(mpmath.factorial(2 * n - 1) / two_pi ** (2 * n) * (mpmath.zeta(2 * n) - hurwitz))


def hurwitz_sin_oracle(p, s, digits):
    """int u^p sin(su)/(e^u - 1) du = p! Im zeta(p+1, 1 - i s)."""
    with mpmath.workdps(2 * digits + 20):
        return +(mpmath.factorial(p) * mpmath.im(mpmath.zeta(p + 1, 1 - 1j * mpmath.mpf(s))))


@pytest.mark.parametrize("digits", [30, 60])
def test_oscillatory_error_bounds_hold(digits):
    # |value - truth| <= est_error on both sides of pi, where the panels
    # change from unit to pi/v wide, and far above it
    ctx = PrecisionContext(digits)
    tol = ctx.mpf(10) ** (5 - digits)
    for n in (1, 2, 3):
        for v in ("0.1", "1", "3.14", "3.15", "4", "10", "50"):
            res = cos_kernel_integral(ctx, n, v, tol)
            assert res.est_error < tol
            assert abs(res.value - ctx.mpf(hurwitz_cos_oracle(n, v, digits))) <= res.est_error
    for p in (2, 4):
        for s in ("0.5", "1", "3", "5", "20"):
            res = sin_kernel_integral(ctx, p, s, tol)
            assert res.est_error < tol
            assert abs(res.value - ctx.mpf(hurwitz_sin_oracle(p, s, digits))) <= res.est_error


def test_oscillatory_integrals_leave_a_shared_context_alone():
    # the frame's tables are built on a boosted context, which is shared
    ctx = PrecisionContext(20).boosted(7)
    work = ctx.boosted(7)
    precs = ctx.prec, work.prec
    cos_kernel_integral(ctx, 2, "1.5", ctx.mpf(10) ** (-20))
    cos_kernel_integral(ctx, 2, "7", ctx.mpf(10) ** (-20))
    sin_kernel_integral(ctx, 2, "5", ctx.mpf(10) ** (-20))
    assert (ctx.prec, work.prec) == precs


def test_sin_kernel_integral_domain():
    ctx = PrecisionContext(30)
    tol = ctx.mpf(10) ** (-20)
    for p, s in ((3, 1), (0, 1), (2, 0), (2, -1)):
        with pytest.raises(DomainError):
            sin_kernel_integral(ctx, p, s, tol)


# -- Gauss-Legendre nodes ------------------------------------------------


def test_gl_nodes_leave_a_shared_context_alone(monkeypatch):
    # the nodes are made on the caller's context, which may be a boosted
    # one that other callers share: its precision must not move
    monkeypatch.setattr(nodes, "_GL_CACHE", {})
    ctx = PrecisionContext(20).boosted(7)
    prec = ctx._mp.prec
    rule = nodes._gl_nodes(ctx, 3)
    assert len(rule) == 12
    assert ctx._mp.prec == prec


def _gl_oracle(degree):
    """mpmath's Gauss-Legendre rule at 600 bits, a test-only oracle, with
    the 600-bit context it lives in."""
    oracle = MPContext()
    oracle.prec = 600
    return oracle, GaussLegendre(oracle).calc_nodes(degree, 600)


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("digits", [15, 30, 37, 100])
def test_gl_nodes_match_oracle_and_integrate_even_powers(monkeypatch, digits, degree):
    monkeypatch.setattr(nodes, "_GL_CACHE", {})
    ctx = PrecisionContext(digits)
    rule = nodes._gl_nodes(ctx, degree)
    mp, want = _gl_oracle(degree)
    n = 3 << (degree - 1)
    assert len(rule) == len(want) == n
    ulp = mp.ldexp(1, -ctx.prec)
    # today's order: (x, w) then (-x, w), x descending, as the oracle has it
    xs = [x for x, _ in rule[0::2]]
    assert xs == sorted(xs, reverse=True) and xs[-1] > 0
    assert all(x == -y and w == v for (x, w), (y, v) in zip(rule[0::2], rule[1::2]))
    for (x, w), (x0, w0) in zip(rule, want):
        assert abs(mp.mpf(x) - x0) <= ulp
        assert abs(mp.mpf(w) - w0) <= ulp * w0
    assert abs(mp.fsum(mp.mpf(w) for _, w in rule) - 2) <= 2 * ulp
    # exact for x^(2k) up to degree 2n - 1
    for k in range(1, n):
        got = mp.fsum(mp.mpf(w) * mp.mpf(x) ** (2 * k) for x, w in rule)
        assert abs(got - mp.mpf(2) / (2 * k + 1)) <= 16 * ulp, k


# -- Gauss-Kronrod nodes -------------------------------------------------


def _fresh_node_caches(monkeypatch):
    monkeypatch.setattr(nodes, "_GL_CACHE", {})
    monkeypatch.setattr(nodes, "_GK_CACHE", {})


def test_gk_nodes_leave_a_shared_context_alone(monkeypatch):
    # the Kronrod nodes are made in integers on the caller's context, which
    # may be a shared boosted one: no context is built and its precision
    # does not move
    _fresh_node_caches(monkeypatch)
    built = []

    def counting():
        built.append(1)
        return MPContext()

    ctx = PrecisionContext(20).boosted(7)
    prec = ctx._mp.prec
    monkeypatch.setattr(precision, "MPContext", counting)
    centre, rows = nodes._gk_nodes(ctx, 3)
    assert len(rows) == 12 and centre > 0
    assert ctx._mp.prec == prec
    assert built == []


def _kronrod_oracle_b(n):
    """The 2n+1 recurrence coefficients (a_k, b_k) of the Kronrod extension
    of the n-node Gauss-Legendre rule, for the monic polynomials in x:
    Laurie's algorithm (Gautschi's r_kronrod) in exact Fractions, a test-only
    oracle that keeps every a_k."""
    top = -(-3 * n // 2)
    a = [Fraction(0)] * (2 * n + 1)
    b = [Fraction(0)] * (2 * n + 1)
    b[0] = Fraction(2)
    for k in range(1, top + 1):
        b[k] = Fraction(k * k, 4 * k * k - 1)
    s = [Fraction(0)] * (n // 2 + 2)
    t = s[:]
    t[1] = b[n + 1]
    for m in range(n - 1):
        ks = range((m + 1) // 2, -1, -1)
        terms = [(a[k + n + 1] - a[m - k]) * t[k + 1] + b[k + n + 1] * s[k] - b[m - k] * s[k + 1] for k in ks]
        acc = Fraction(0)
        for k, term in zip(ks, terms):
            acc += term
            s[k + 1] = acc
        s, t = t, s
    s = [s[0]] + s[:-1]
    for m in range(n - 1, 2 * n - 2):
        ks = range(m + 1 - n, (m - 1) // 2 + 1)
        js = [n - 1 - m + k for k in ks]
        terms = [
            -(a[k + n + 1] - a[m - k]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[m - k] * s[j + 2]
            for k, j in zip(ks, js)
        ]
        acc = Fraction(0)
        for j, term in zip(js, terms):
            acc += term
            s[j + 1] = acc
        j, k = js[-1], (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


def _kronrod_oracle(n, xs):
    """From each node x of xs, Newton at 600 bits to the nearby root of
    p_(2n+1) (with the oracle's exact coefficients), and the Christoffel
    number 1/sum q_k^2 there, q_k orthonormal; with the 600-bit context."""
    mp = MPContext()
    mp.prec = 600
    a, b = _kronrod_oracle_b(n)
    a = [mp.mpf(c.numerator) / c.denominator for c in a]
    b = [mp.mpf(c.numerator) / c.denominator for c in b]

    def run(x):
        p0, p1, d0, d1, norm, total = mp.zero, mp.one, mp.zero, mp.zero, b[0], mp.zero
        for k in range(2 * n + 1):
            total += p1 * p1 / norm
            p0, p1, d0, d1 = p1, (x - a[k]) * p1 - b[k] * p0, d1, p1 + (x - a[k]) * d1 - b[k] * d0
            if k + 1 <= 2 * n:
                norm *= b[k + 1]
        return p1, d1, total

    out = []
    for x in xs:
        x = mp.mpf(x)
        for _ in range(60):
            p, d, _ = run(x)
            step = p / d
            x -= step
            if abs(step) < mp.ldexp(1, -590):
                break
        out.append((x, 1 / run(x)[2]))
    return mp, out


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("digits", [15, 30, 37, 100])
def test_gk_nodes_extend_the_gauss_rule_exactly(monkeypatch, digits, degree):
    _fresh_node_caches(monkeypatch)
    ctx = PrecisionContext(digits)
    n = 3 << (degree - 1)
    centre, rows = nodes._gk_nodes(ctx, degree)
    assert len(rows) == n
    mp = MPContext()
    mp.prec = 600
    ulp = mp.ldexp(1, -ctx.prec)
    # the Gauss half is _gl_nodes's rule, bit for bit
    assert [(x, wg) for x, _, wg in rows if wg] == nodes._gl_nodes(ctx, degree)[0::2]
    # new and Gauss nodes strictly interlace, from a new node next to 1
    # down to the centre
    xs = [x for x, _, _ in rows]
    assert 1 > xs[0] and xs == sorted(xs, reverse=True) and len(set(xs)) == n and xs[-1] > 0
    assert [bool(wg) for _, _, wg in rows] == [False, True] * (n // 2)
    # positive weights, each set summing to 2
    assert centre > 0 and all(wk > 0 for _, wk, _ in rows)
    assert abs(mp.mpf(centre) + 2 * mp.fsum(mp.mpf(wk) for _, wk, _ in rows) - 2) <= 4 * ulp
    assert abs(2 * mp.fsum(mp.mpf(wg) for _, _, wg in rows) - 2) <= 4 * ulp
    # K is exact for x^(2k) up to degree 3n + 1
    for k in range(1, 3 * n // 2 + 1):
        got = 2 * mp.fsum(mp.mpf(wk) * mp.mpf(x) ** (2 * k) for x, wk, _ in rows)
        assert abs(got - mp.mpf(2) / (2 * k + 1)) <= 16 * ulp, k


@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("digits", [15, 30, 37, 100])
def test_gk_nodes_match_oracle(monkeypatch, digits, degree):
    # every node within 1.5 ulp of the oracle's root, every weight within 4 ulp
    _fresh_node_caches(monkeypatch)
    ctx = PrecisionContext(digits)
    centre, rows = nodes._gk_nodes(ctx, degree)
    mp, want = _kronrod_oracle(3 << (degree - 1), [x for x, _, _ in rows] + [0])
    ulp = mp.ldexp(1, -ctx.prec)
    for (x, w), (x0, w0) in zip([(x, wk) for x, wk, _ in rows] + [(0, centre)], want):
        assert abs(mp.mpf(x) - x0) <= 1.5 * ulp
        assert abs(mp.mpf(w) - w0) <= 4 * ulp * w0
