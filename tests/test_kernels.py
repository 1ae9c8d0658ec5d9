"""Laplace-kernel evaluators: branch agreement, derivative identities,
series oracles built on mpmath's own Bernoulli numbers, and the sign
structure of the K_m family.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from cmlab import (
    DomainError,
    GridSpec,
    K_kernel,
    PrecisionContext,
    bernoulli,
    bose_derivative,
    f_kernel,
    remark1_chain,
    sign_scan,
)
from cmlab import kernels

# dyadic sample points: identical binary values in every context
V_SAMPLES = ("0.3125", "1", "3")


def oracle_c_deriv_plus_const(digits, m, v_str):
    """Independent series evaluation of K_m = c^(m) + [m odd] B_{m+1}/(m+1),
    where c(v) = -sum_{k>=1} B_{2k} v^{2k-1}/(2k)!, differentiated termwise.
    Requires v < 2 pi."""
    with mpmath.workdps(digits + 30):
        v = mpmath.mpf(v_str)
        stop = mpmath.mpf(10) ** (-(digits + 20))
        total = mpmath.mpf(0)
        k = 1
        while True:
            e = 2 * k - 1 - m
            if e >= 0:
                ff = 1
                for i in range(m):
                    ff *= 2 * k - 1 - i
                term = mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * ff * v**e
                total += term
                if 2 * k - 1 > m and abs(term) < stop:
                    break
            k += 1
        total = -total
        if m % 2 == 1:
            n = (m + 1) // 2
            total += mpmath.bernoulli(2 * n) / (2 * n)
        return total


@pytest.mark.parametrize("v", ["0.25", "1", "4"])
def test_f0_matches_direct_formula(v):
    ctx = PrecisionContext(50)
    with mpmath.workdps(80):
        direct = 1 / mpmath.mpf(v) - mpmath.mpf(1) / 2 - 1 / mpmath.expm1(mpmath.mpf(v))
    assert abs(f_kernel(ctx, 0, v) - ctx.mpf(direct)) < ctx.mpf(10) ** (-45)


@pytest.mark.parametrize("n", list(range(0, 5)))
@pytest.mark.parametrize("v", ["0.4999", "0.5001"])
def test_series_closed_branches_agree(n, v):
    # straddle the automatic branch point from both sides with both forms
    ctx = PrecisionContext(50)
    s = kernels._f_series(ctx, n, ctx.mpf(v), 0)
    c = kernels._f_closed(ctx, n, ctx.mpf(v), 0)
    assert abs(s - c) < ctx.mpf(10) ** (-40)


def test_f0_limit_at_infinity():
    ctx = PrecisionContext(50)
    half = ctx.mpf(1) / 2
    # f_0(v) + 1/2 - 1/v = -1/(e^v - 1) ~ -1e-87 at v=200: invisible, so the
    # residual is pure 50-digit rounding of the returned value
    assert abs(f_kernel(ctx, 0, 200) + half - ctx.mpf(1) / 200) < ctx.mpf(10) ** (-50)


@pytest.mark.parametrize("n", list(range(0, 5)))
def test_f_kernel_negative_near_zero(n):
    ctx = PrecisionContext(30)
    assert f_kernel(ctx, n, "0.01") < 0


def test_f_kernel_domain():
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        f_kernel(ctx, 0, 0)
    with pytest.raises(DomainError):
        f_kernel(ctx, 0, -1)


@pytest.mark.parametrize("n", [-1, 1.5, "1"])
def test_f_kernel_rejects_non_integer_order(n):
    # a fractional order is an error, not silently truncated to f_1
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        f_kernel(ctx, n, 1)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("v", ["0.3", "2"])
def test_K_kernel_matches_finite_difference(m, v):
    # K_m minus its odd-m constant B_{m+1}/(m+1) is d/dv K_{m-1}; the
    # points sit on both sides of the series/closed branch at v = 1/2
    ctx = PrecisionContext(70)
    h = ctx.mpf(10) ** (-8)
    v0 = ctx.mpf(v)

    def g(x):
        return K_kernel(ctx, m - 1, x)

    fd = (-g(v0 + 2 * h) + 8 * g(v0 + h) - 8 * g(v0 - h) + g(v0 - 2 * h)) / (12 * h)
    const = ctx.mpf(Fraction(bernoulli(m + 1), m + 1)) if m % 2 == 1 else 0
    assert abs(K_kernel(ctx, m, v0) - const - fd) < ctx.mpf(10) ** (-25)


def test_bose_derivative_order_zero():
    ctx = PrecisionContext(50)
    v = ctx.mpf("1.25")
    assert abs(bose_derivative(ctx, 0, v) - 1 / ctx.expm1(v)) < ctx.mpf(10) ** (-48)


def test_bose_derivative_order_one_closed_form():
    # d/dv 1/(e^v-1) = -e^v/(e^v-1)^2
    ctx = PrecisionContext(50)
    v = ctx.mpf("0.75")
    ev = ctx.exp(v)
    expected = -ev / (ev - 1) ** 2
    assert abs(bose_derivative(ctx, 1, v) - expected) < ctx.mpf(10) ** (-45)


@pytest.mark.parametrize("k", list(range(1, 9)))
@pytest.mark.parametrize("v", ["0.5", "1", "3"])
def test_bose_derivative_ladder(k, v):
    # each order is the derivative of the previous one
    ctx = PrecisionContext(80)
    h = ctx.mpf(10) ** (-8)
    v0 = ctx.mpf(v)

    def g(x):
        return bose_derivative(ctx, k - 1, x)

    fd = (-g(v0 + 2 * h) + 8 * g(v0 + h) - 8 * g(v0 - h) + g(v0 - 2 * h)) / (12 * h)
    exact = bose_derivative(ctx, k, v0)
    assert abs(exact - fd) < ctx.mpf(10) ** (-12) * max(1, abs(exact))


def test_bose_derivative_domain():
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        bose_derivative(ctx, -1, 1)
    with pytest.raises(DomainError):
        bose_derivative(ctx, 1.5, 1)


@pytest.mark.parametrize("m", list(range(1, 7)))
@pytest.mark.parametrize("v", V_SAMPLES)
def test_K_kernel_matches_series_oracle(m, v):
    digits = 50
    ctx = PrecisionContext(digits)
    oracle = ctx.mpf(oracle_c_deriv_plus_const(digits, m, v))
    assert abs(K_kernel(ctx, m, v) - oracle) < ctx.mpf(10) ** (-40)


# both branches, from deep inside the Taylor range to far out on the closed form
ORACLE_POINTS = ("1e-6", "7e-5", "1e-3", "0.03", "0.4999", "0.5001", "1.7", "9", "100")


def _kernel_oracle(digits, n, m, v):
    """f_n(v) (m = 0) or K_m(v) (m >= 1) at the binary value v, from
    mpmath's expm1 and bernoulli at digits + 60 + the digits the closed
    form cancels near 0; K_m's derivative is mpmath's own ``diff``."""
    top = max(n, (m + 1) // 2)
    cancel = int((2 * top + 4) * max(0.0, math.log10(2 * math.pi / float(v)))) + 1
    with mpmath.workdps(digits + 60 + cancel):
        x = mpmath.mpf(v)
        if m == 0:
            head = sum(mpmath.bernoulli(2 * k) * x ** (2 * k - 1) / mpmath.factorial(2 * k)
                       for k in range(1, n + 1))
            val = 1 / x - mpmath.mpf(1) / 2 - 1 / mpmath.expm1(x) + head
            return val if n % 2 == 0 else -val
        c = mpmath.diff(lambda y: 1 / y - 1 / mpmath.expm1(y), x, m)
        if m % 2:
            c += mpmath.bernoulli(m + 1) / (m + 1)
        return c


@pytest.mark.parametrize("digits", [30, 60])
@pytest.mark.parametrize("v", ORACLE_POINTS)
def test_f_and_K_kernel_match_mpmath_oracle(digits, v):
    # relative 10^-(digits-3) for f_0..f_5 and K_1..K_11 on both branches
    ctx = PrecisionContext(digits)
    x = ctx.mpf(v)
    failures = []
    for n, m in [(n, 0) for n in range(6)] + [(0, m) for m in range(1, 12)]:
        got = f_kernel(ctx, n, x) if m == 0 else K_kernel(ctx, m, x)
        want = _kernel_oracle(digits, n, m, x)
        with mpmath.workdps(digits + 10):
            rel = abs(mpmath.mpf(got) - want) / abs(want)
            if rel > mpmath.mpf(10) ** (3 - digits):
                failures.append((n, m, float(rel)))
    assert not failures, failures


@pytest.mark.parametrize("m", [31, 40])
@pytest.mark.parametrize("v", ["0.05", "0.3", "0.4999", "2"])
def test_K_kernel_high_orders_match_mpmath_oracle(m, v):
    # a_{n+1} is far above 1 here, and for v near 1/2 the Taylor series'
    # second term outgrows its first, so the closed form takes over
    ctx = PrecisionContext(30)
    x = ctx.mpf(v)
    want = _kernel_oracle(30, 0, m, x)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(K_kernel(ctx, m, x)) - want) <= mpmath.mpf(10) ** -27 * abs(want)


def test_K2_at_one_closed_identity():
    # K_2(1) = 2 - (u + 3u^2 + 2u^3) with u = 1/(e - 1)
    ctx = PrecisionContext(50)
    u = 1 / ctx.expm1(ctx.mpf(1))
    expected = 2 - (u + 3 * u**2 + 2 * u**3)
    assert abs(K_kernel(ctx, 2, 1) - expected) < ctx.mpf(10) ** (-45)


def test_K_kernel_leading_orders():
    # K_1 ~ v^2/240, K_2 ~ v/120, K_4 ~ -v/252 as v -> 0+
    ctx = PrecisionContext(40)
    v = ctx.mpf(10) ** (-5)
    assert abs(K_kernel(ctx, 1, v) / (v**2 / 240) - 1) < ctx.mpf(10) ** (-8)
    assert abs(K_kernel(ctx, 2, v) / (v / 120) - 1) < ctx.mpf(10) ** (-8)
    assert abs(K_kernel(ctx, 4, v) / (-v / 252) - 1) < ctx.mpf(10) ** (-8)


def test_K_kernel_domain():
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        K_kernel(ctx, 0, 1)
    with pytest.raises(DomainError):
        K_kernel(ctx, 1.5, 1)
    with pytest.raises(DomainError):
        K_kernel(ctx, 2, 0)


def test_sign_scan_odd_orders_nonnegative():
    ctx = PrecisionContext(30)
    grid = GridSpec(1e-2, 1e2, 120)
    for m, mult in ((1, 1), (3, -1), (5, 1)):
        report = sign_scan(ctx, m, grid)
        assert report.multiplier == mult
        assert report.nonnegative
        assert report.min_value >= 0
        assert not report.sign_changes


def test_sign_scan_K2_positive():
    ctx = PrecisionContext(30)
    report = sign_scan(ctx, 2, GridSpec(1e-2, 1e2, 120))
    assert report.min_value > 0
    assert not report.sign_changes


def test_sign_scan_K4_changes_sign():
    # negative near 0 (-v/252 leading term), positive for large v (24/v^5)
    ctx = PrecisionContext(30)
    report = sign_scan(ctx, 4, GridSpec(1e-2, 1e2, 120))
    assert report.min_value < 0
    assert report.sign_changes
    lo, hi = report.sign_changes[0]
    assert lo < hi


def test_sign_scan_domain():
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        sign_scan(ctx, 0, GridSpec(1e-2, 1e2, 10))


def test_remark1_chain_vanishing_near_zero():
    ctx = PrecisionContext(40)
    chain = remark1_chain(ctx, ctx.mpf(10) ** (-6))
    assert len(chain.vanishing) == 4
    for value in chain.vanishing:
        assert abs(value) < ctx.mpf(10) ** (-15)
    # expr5 -> 21 v^2 near zero
    v2 = ctx.mpf(10) ** (-12)
    assert abs(chain.expr5 / (21 * v2) - 1) < ctx.mpf(10) ** (-4)


@pytest.mark.parametrize("v", ["0.1", "1", "5"])
def test_remark1_chain_positive(v):
    ctx = PrecisionContext(40)
    chain = remark1_chain(ctx, v)
    for value in (chain.expr1, chain.expr2, chain.expr3, chain.expr4, chain.expr5):
        assert value > 0


def test_remark1_chain_value_at_one():
    # expr5(1) = 96 e^2 - 221 e
    ctx = PrecisionContext(50)
    e1 = ctx.exp(ctx.mpf(1))
    expected = 96 * e1 * e1 - 221 * e1
    assert abs(remark1_chain(ctx, 1).expr5 - expected) < ctx.mpf(10) ** (-45)


def test_remark1_chain_domain():
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        remark1_chain(ctx, 0)


def test_remark1_chain_below_float_range():
    # v = 1e-400 underflows a float; the boost comes from v's binary exponent
    ctx = PrecisionContext(30)
    chain = remark1_chain(ctx, "1e-400")
    assert chain.expr5 > 0
    for value in chain.vanishing:
        assert abs(value) < ctx.mpf(10) ** (-15)
    # expr5 -> 21 v^2 near zero
    assert abs(chain.expr5 / (21 * ctx.mpf("1e-800")) - 1) < ctx.mpf(10) ** (-4)
