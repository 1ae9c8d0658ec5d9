"""ln Gamma / polygamma evaluator against mpmath oracles and recurrences.

mpmath's gamma machinery is used here as an independent oracle only; the
package itself computes everything from shifted asymptotic series.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from cmlab import (
    DomainError,
    PrecisionContext,
    bernoulli,
    gammakit,
    ln_gamma,
    polygamma,
)

# Euler-Mascheroni constant, frozen once from an 80-digit sum
EULER_GAMMA = "0.5772156649015328606065120900824024310421593359399235988057672348848677267776646709"

GRID = ("0.1", "0.5", "1", "2", "7.5", "100", "100000")


def oracle_lngamma(digits, t):
    with mpmath.workdps(digits + 15):
        return mpmath.loggamma(mpmath.mpf(t))


def oracle_psi(digits, m, t):
    with mpmath.workdps(digits + 15):
        return mpmath.psi(m, mpmath.mpf(t))


@pytest.mark.parametrize("digits", [30, 60])
@pytest.mark.parametrize("t", GRID)
def test_ln_gamma_matches_oracle(digits, t):
    ctx = PrecisionContext(digits)
    res = ln_gamma(ctx, t)
    oracle = ctx.mpf(oracle_lngamma(digits, t))
    assert res.order == -1
    assert abs(res.value - oracle) <= res.est_error
    assert res.est_error <= ctx.mpf(10) ** (-(digits - 10)) * (1 + abs(res.value))


@pytest.mark.parametrize("digits", [30, 60])
@pytest.mark.parametrize("m", list(range(0, 9)))
@pytest.mark.parametrize("t", GRID)
def test_polygamma_matches_oracle(digits, m, t):
    ctx = PrecisionContext(digits)
    res = polygamma(ctx, m, t)
    oracle = ctx.mpf(oracle_psi(digits, m, t))
    assert res.order == m
    assert abs(res.value - oracle) <= res.est_error
    assert res.est_error <= ctx.mpf(10) ** (-(digits - 10)) * (1 + abs(res.value))


def test_ln_gamma_recurrence_random_points():
    ctx = PrecisionContext(40)
    rng = random.Random(917)
    for _ in range(6):
        t = ctx.mpf(0.2) + ctx.mpf(rng.random()) * ctx.mpf("49.8")
        lhs = ln_gamma(ctx, t + 1).value - ln_gamma(ctx, t).value
        assert abs(lhs - ctx.ln(t)) < ctx.mpf(10) ** (-30)


def test_psi_recurrence_random_points():
    ctx = PrecisionContext(40)
    rng = random.Random(918)
    for _ in range(6):
        t = ctx.mpf(0.2) + ctx.mpf(rng.random()) * ctx.mpf("49.8")
        lhs = polygamma(ctx, 0, t + 1).value - polygamma(ctx, 0, t).value
        assert abs(lhs - 1 / t) < ctx.mpf(10) ** (-30)


def test_psi_at_integer_harmonic_anchor():
    # psi(6) = H_5 - gamma, with H_5 summed exactly
    ctx = PrecisionContext(50)
    h5 = ctx.mpf(Fraction(137, 60))
    expected = h5 - ctx.mpf(EULER_GAMMA)
    assert abs(polygamma(ctx, 0, 6).value - expected) < ctx.mpf(10) ** (-45)


def test_ln_gamma_at_integer():
    ctx = PrecisionContext(50)
    assert abs(ln_gamma(ctx, 7).value - ctx.ln(ctx.mpf(720))) < ctx.mpf(10) ** (-45)


def test_trigamma_at_one():
    ctx = PrecisionContext(40)
    expected = ctx.pi ** 2 / 6
    assert abs(polygamma(ctx, 1, 1).value - expected) < ctx.mpf(10) ** (-33)


@pytest.mark.parametrize("bad_t", ["0", "-3", "inf", "nan"])
def test_ln_gamma_domain(bad_t):
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        ln_gamma(ctx, ctx.mpf(bad_t))


def test_polygamma_domain():
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        polygamma(ctx, -1, 1)
    with pytest.raises(DomainError):
        polygamma(ctx, 0.5, 1)
    with pytest.raises(DomainError):
        polygamma(ctx, 2, 0)


def test_polygamma_relative_accuracy_at_large_t():
    # the series stop is relative to its first term: an absolute stop at
    # eps/100 of the working precision left psi^(12)(1e5) ~ -4e-53 with a
    # relative error near 1e-10
    ctx = PrecisionContext(20)
    got = polygamma(ctx, 12, 1e5).value
    with mpmath.workdps(60):
        want = mpmath.polygamma(12, mpmath.mpf(1e5))
        assert abs(mpmath.mpf(got) - want) <= mpmath.mpf(10) ** (-17) * abs(want)


def test_stirling_coefficients_match_definition():
    # B_2k (2k+order-1)!/(2k)!, as a Fraction of factorials, for ln Gamma
    # (order -1), psi (order 0) and psi^(order)
    for order in range(-1, 17):
        for k in range(1, 81):
            want = bernoulli(2 * k) * Fraction(
                math.factorial(2 * k + order - 1), math.factorial(2 * k)
            )
            assert gammakit._stirling(order, k) == want, (order, k)


# (lo, hi) order ranges of the shift sums: the full jet from psi, and
# ranges whose lowest power is taken by binary powering
SHIFT_RANGES = ((0, 16), (1, 1), (1, 5), (7, 7), (7, 11), (12, 12), (12, 16), (63, 63), (63, 67))


@pytest.mark.parametrize("digits", [30, 60])
@pytest.mark.parametrize("where", ["tiny", "below-threshold", "two-below-threshold"])
def test_shift_sums_match_plain_mpf_sum(digits, where):
    # sum_{0<k<N} (t+k)^-(m+1) for m = lo..hi from one fixed-point pass in
    # the frame psi^(m)(1+t) is summed in, against the same sum in mpf at
    # 20 more digits; N = 1 has no shift terms at all.  Each power, which
    # the sums of a single x_k are, lies within [0, e] units below the
    # exact power of x_k floored once
    wctx = PrecisionContext(digits)
    for lo, hi in SHIFT_RANGES:
        thr = gammakit._threshold(wctx.digits, hi)
        t, count = {
            "tiny": (wctx.mpf("1e-300"), thr),
            "below-threshold": (thr - wctx.mpf("0.25"), 1),
            "two-below-threshold": (thr - wctx.mpf("1.75"), 2),
        }[where]
        bits = wctx.prec + gammakit._GUARD + int((hi + 2) * math.log2(float(t) + count)) + 1
        one = 1 << bits
        t_fixed = wctx.to_fixed(t, bits)
        xs = [(one << bits) // (t_fixed + k * one) for k in range(1, count)]
        got = [wctx.from_fixed(s, bits) for s in gammakit._shift_sums(xs, lo, hi, bits)]
        assert len(got) == hi - lo + 1
        with mpmath.workdps(digits + 20):
            for m, value in enumerate(got, lo):
                want = mpmath.fsum(
                    (mpmath.mpf(t) + k) ** (-(m + 1)) for k in range(1, count)
                )
                tol = mpmath.mpf(10) ** (1 - digits) * want
                assert abs(mpmath.mpf(value) - want) <= tol, (lo, hi, m)
        for x in xs:
            powers = gammakit._shift_sums([x], lo, hi, bits)
            for e, p in enumerate(powers, lo + 1):
                assert 0 <= (x**e >> ((e - 1) * bits)) - p <= e, (lo, hi, e)


@pytest.mark.parametrize("digits", [15, 30, 60])
def test_jet_without_shift_matches_oracle(digits):
    # at the working threshold the shift is its one step, z = t + 1: the
    # series alone gives every order, and its first omitted term, at the
    # top order's term count K, lies below 10^-digits of the value.  The
    # same sum at the caller's digits, where no guard digits hide a count
    # too small for the top order, meets the same tolerance
    ctx = PrecisionContext(digits)
    wctx = ctx.boosted(10 + 16)
    t = gammakit._threshold(wctx.digits, 16)
    values = gammakit._stirling_jet(ctx, -1, 16, t)
    bare = gammakit._jet1p(ctx, -1, 16, ctx.mpf(t - 1))
    z = t + 1
    count = gammakit._term_count(
        gammakit._table(gammakit._stirling, 16), 1, -2 * math.log2(z), wctx.prec + gammakit._GUARD
    )
    for order, value in enumerate(values, -1):
        want = oracle_lngamma(digits, t) if order == -1 else oracle_psi(digits, order, t)
        first_out = abs(gammakit._stirling(order, count)) / z ** (2 * count + order)
        with mpmath.workdps(digits + 15):
            tol = mpmath.mpf(10) ** (2 - digits) * abs(want)
            assert abs(mpmath.mpf(value) - want) <= tol
            assert abs(mpmath.mpf(bare[order + 1]) - want) <= tol
            bound = mpmath.mpf(10) ** (-digits) * abs(want)
            assert 0 < mpmath.mpf(first_out.numerator) / first_out.denominator <= bound


# zeros near which a relative error says nothing: ln Gamma at 1 and 2,
# psi at 1.4616...
_ZEROS = {-1: (1.0, 2.0), 0: (1.4616321449683623,)}


@pytest.mark.parametrize("digits", [15, 30, 60, 100])
def test_ln_gamma_and_polygamma_match_mpmath_oracle_on_seeded_sweep(digits):
    # ln Gamma (order -1) and psi^(m) at 40 seeded points log-uniform in
    # [1e-12, 1e12]: within 10^-(digits-3) relative away from the zeros,
    # and within est_error everywhere
    ctx = PrecisionContext(digits)
    rng = random.Random(digits)
    points = [10 ** rng.uniform(-12, 12) for _ in range(40)]
    failures = []
    for order in (-1, 0, 1, 3, 7, 12):
        for t in points:
            res = ln_gamma(ctx, t) if order == -1 else polygamma(ctx, order, t)
            want = oracle_lngamma(digits, t) if order == -1 else oracle_psi(digits, order, t)
            with mpmath.workdps(digits + 15):
                err = abs(mpmath.mpf(res.value) - want)
                if err > mpmath.mpf(res.est_error):
                    failures.append(("est_error", order, t, float(err)))
                near_zero = any(abs(t - z) < 0.5 for z in _ZEROS.get(order, ()))
                if not near_zero and err > mpmath.mpf(10) ** (3 - digits) * abs(want):
                    failures.append(("relative", order, t, float(err / abs(want))))
    assert not failures, failures


def _remainders_at_one(nmax, jmax):
    """|R_n^(j)(1)| for n <= nmax, j <= jmax: mpmath's psi^(j-1)(1) (or
    1 - ln(2 pi)/2 for j = 0) less the exact j-th derivative at t = 1 of
    the rest of the head, (t - 1/2) ln t - t + sum_{k<=n} c_k t^(1-2k)
    with c_k = B_2k/(2k(2k-1)).  Call under a working precision that
    absorbs the head's size."""
    c = [Fraction(*mpmath.bernfrac(2 * k)) / (2 * k * (2 * k - 1)) for k in range(1, nmax + 1)]
    table = {}
    for j in range(jmax + 1):
        if j == 0:
            g, head = 1 - mpmath.ln(2 * mpmath.pi) / 2, Fraction(0)
        else:
            # (t - 1/2) ln t - t differentiated j times is ln t - 1/(2t)
            # differentiated j - 1 times
            i = j - 1
            g = mpmath.psi(i, 1)
            head = Fraction(-1, 2) if i == 0 else Fraction(
                (-1) ** (i - 1) * math.factorial(i - 1) * 2 - (-1) ** i * math.factorial(i), 2
            )
        for n in range(nmax + 1):
            if n:
                head += c[n - 1] * math.prod(1 - 2 * n - i for i in range(j))
            table[n, j] = abs(g - mpmath.mpf(head.numerator) / head.denominator)
    return table


def test_no_boost_below_one_loses_fewer_digits_than_the_guard():
    # below t = 1 the jet of R_n^(m+1) sums G_m(1+t) + Lambda with only the
    # guard digits 10 + max(m, 0).  There R = G + Lambda, |R_n^(j)(t)| >=
    # |R_n^(j)(1)| by complete monotonicity, and |Lambda| <= |R| + |G|, so
    # the sum loses at most log10(1 + 2 max|G_m(1+t)| / |R_n^(m+1)(1)|)
    # digits; max|G_m(1+t)| on (0, 1] is m! zeta(m+1) for m >= 1, gamma for
    # psi and -ln Gamma(x0) for ln Gamma, x0 the minimum on [1, 2]
    with mpmath.workdps(400):
        x0 = mpmath.findroot(mpmath.digamma, 1.46)
        g_max = {-1: -mpmath.loggamma(x0), 0: +mpmath.euler}
        g_max.update((m, mpmath.factorial(m) * mpmath.zeta(m + 1)) for m in range(1, 64))
        assert 0.1214 < g_max[-1] < 0.1215
        lost = {
            (n, j): mpmath.log10(1 + 2 * g_max[j - 1] / r)
            for (n, j), r in _remainders_at_one(30, 64).items()
        }
    over = [(n, j, float(v)) for (n, j), v in lost.items() if not v < 10 + max(j - 1, 0) - 3]
    assert not over, over
    # n = 3, j = 0 loses the most: 2.93 digits
    assert max(lost, key=lost.get) == (3, 0) and 2.9 < lost[3, 0] < 3
