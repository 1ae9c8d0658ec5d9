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
    remainder_deriv,
    remainder_jet,
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


def _walk_term_count(tab, k0, log2_w, rel_bits):
    """The term count as it was found before: a walk over the float logs
    from term k0 on, one entry at a time."""
    logs = tab.log2
    gammakit._frac_coeffs(tab, k0)
    prev = 0.0
    k = k0
    while True:
        if len(logs) <= k:
            gammakit._frac_coeffs(tab, k + 1)
        rel = logs[k] - logs[k0 - 1] + (k + 1 - k0) * log2_w
        if rel <= -rel_bits:
            return k + 1
        if rel >= prev:
            raise AssertionError("series stalled at k=%d; its terms do not shrink" % (k + 1))
        prev = rel
        k += 1


def test_term_count_equals_the_walk_on_a_seeded_sweep():
    # the Stirling tables of ln Gamma, psi and psi^(m), and the kernels'
    # Taylor tables, at seeded (k0, log2 w, bits) with c_k0 != 0; where the
    # walk finds the terms stalling, both raise
    from cmlab import kernels

    tables = [gammakit._table(gammakit._stirling, m) for m in (-1, 0, 1, 8, 63)]
    tables += [gammakit._table(kernels._taylor, ell) for ell in (0, 1, 5)]
    rng = random.Random(24)
    outcomes = {"count": 0, "stall": 0}
    for _ in range(3000):
        tab = rng.choice(tables)
        k0 = rng.choice((1, 2, 3, 7, 31))
        bits = rng.choice((60, 130, 183, 400))
        log2_w = -rng.uniform(0.5, 40) if tab.coeff is gammakit._stirling else rng.uniform(-30, -2.2)
        if not gammakit._frac_coeffs(tab, k0)[k0 - 1]:
            continue
        try:
            want = _walk_term_count(tab, k0, log2_w, bits)
        except AssertionError as exc:
            with pytest.raises(AssertionError, match=str(exc)):
                gammakit._term_count(tab, k0, log2_w, bits)
            outcomes["stall"] += 1
        else:
            assert gammakit._term_count(tab, k0, log2_w, bits) == want, (tab.param, k0, log2_w, bits)
            outcomes["count"] += 1
    assert min(outcomes.values()) > 300, outcomes


@pytest.mark.parametrize("digits", [15, 30, 60, 100])
def test_psi1_table_matches_zeta(digits):
    # e_j = psi^(j)(1)/j! = (-1)^(j+1) zeta(j+1), e_0 = -gamma, at the bits
    # of the table: every entry of the first three blocks within 2 units
    wctx = PrecisionContext(digits).boosted(18)
    bits, table = gammakit._psi1_table(wctx, 3 * gammakit._BLOCK)
    assert bits == wctx.prec + 3 * gammakit._GUARD
    with mpmath.workdps(wctx.digits + 40):
        for j, e in enumerate(table[: 3 * gammakit._BLOCK]):
            want = -mpmath.euler if j == 0 else (-1) ** (j + 1) * mpmath.zeta(j + 1)
            assert abs(e - want * mpmath.mpf(2) ** bits) < 2, j


def _switch(wctx, hi):
    """(below, above): t in (0, 1) on either side of the point where the
    Taylor route of a jet with top order hi stops being the cheaper one."""
    below, above = 1e-3, 0.9
    assert gammakit._taylor_plan(wctx, hi, wctx.mpf(below)) is not None
    assert gammakit._taylor_plan(wctx, hi, wctx.mpf(above)) is None
    for _ in range(30):
        mid = math.sqrt(below * above)
        if gammakit._taylor_plan(wctx, hi, wctx.mpf(mid)) is None:
            above = mid
        else:
            below = mid
    return below, above


@pytest.mark.parametrize("digits", [15, 30, 60, 100])
def test_taylor_and_shift_routes_match_oracle(digits):
    # ln Gamma(1+t) and psi^(m)(1+t), m = 0..63, by each route forced
    # through its internal function, against mpmath within 10^(3-digits)
    # relative; the Taylor route also above its switch, with its own count
    ctx = PrecisionContext(digits)
    hi = 63
    wctx = ctx.boosted(10 + hi)
    below, above = _switch(wctx, hi)
    failures = []
    for t in (1e-12, 1e-6, 1e-3, below, above):
        tw = wctx.mpf(t)
        tf = float(tw)
        bits = wctx.prec + gammakit._GUARD + int((hi + 1) * math.log2((1 + tf) / (1 - tf))) + 1
        count = gammakit._taylor_terms(gammakit._log2(tw), tf, hi, bits, 10**4)
        plan = gammakit._taylor_plan(wctx, hi, tw)
        assert plan == (None if t == above else (count, bits)), t
        routes = {
            "taylor": gammakit._taylor1p(wctx, -1, hi, tw, count, bits),
            "shift": gammakit._jet1p(wctx, -1, hi, tw),
        }
        with mpmath.workdps(wctx.digits + 20):
            x = 1 + mpmath.mpf(tw)
            want = [mpmath.loggamma(x)] + [mpmath.psi(m, x) for m in range(hi + 1)]
            for route, values in routes.items():
                for m, (got, w) in enumerate(zip(values, want), -1):
                    if abs(mpmath.mpf(got) - w) > mpmath.mpf(10) ** (3 - digits) * abs(w):
                        failures.append((route, t, m))
    assert not failures, failures


class _Unrounded:
    """A working context whose ``from_fixed`` hands back (acc, bits)."""

    def __init__(self, wctx):
        self.wctx = wctx

    def __getattr__(self, name):
        return getattr(self.wctx, name)

    def from_fixed(self, acc, bits):
        return acc, bits


@pytest.mark.parametrize("digits", [15, 60])
def test_taylor_route_meets_its_stated_bound(digits):
    # the docstring's error of the fixed-point sums before they are rounded:
    # under (K_T + 2m + 6) units of 2^-(prec+guard) relative for m >= 1,
    # and K_T + 8 units absolute for orders 0 and -1
    ctx = PrecisionContext(digits)
    worst = 0
    for hi in (8, 63):
        wctx = ctx.boosted(10 + hi)
        unit = mpmath.mpf(2) ** -(wctx.prec + gammakit._GUARD)
        for t in (1e-12, 1e-3, 0.05, _switch(wctx, hi)[0]):
            tw = wctx.mpf(t)
            count, bits = gammakit._taylor_plan(wctx, hi, tw)
            sums = gammakit._taylor1p(_Unrounded(wctx), -1, hi, tw, count, bits)
            with mpmath.workdps(wctx.digits + 60):
                x = 1 + mpmath.mpf(tw)
                for m, (acc, b) in enumerate(sums, -1):
                    want = mpmath.loggamma(x) if m == -1 else mpmath.psi(m, x)
                    err = abs(mpmath.ldexp(acc, -b) - want) / unit
                    if m >= 1:
                        ratio = err / abs(want) / (count + 2 * m + 6)
                    else:
                        ratio = err / (count + 8)
                    worst = max(worst, ratio)
    assert worst < 1, worst


def _route_points(ctx, hi, n):
    """The rule test's points for top order hi and offset n, by name."""
    thr = gammakit._threshold(ctx.boosted(10 + max(hi, 0)).digits, hi)
    points = {"1e-10": "1e-10", "0.01": "0.01", "0.5": "0.5", "1.5": "1.5"}
    points.update({"thr-1": thr - 1, "thr": thr, "thr+n": thr + (n or 0), "1e12": "1e12"})
    return {name: ctx.mpf(t) for name, t in points.items()}


def test_route_depends_only_on_t_top_order_digits_and_n(monkeypatch):
    # every caller of _stirling_jet with the same t, top order, digits and
    # n takes the same route, one-order calls as well as jets: the Taylor
    # series below its switch, the bare tail from the threshold plus n on
    # (n = 0 for ln Gamma and psi^(m)), the shift between; and each jet
    # plans its shift at most once
    calls = []
    for name in ("_tail", "_taylor1p", "_jet1p", "_shift_plan"):

        def spy(*args, _real=getattr(gammakit, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(gammakit, name, spy)
    ctx = PrecisionContext(30)
    jet = gammakit._stirling_jet
    callers = {
        (3, None): [lambda t: polygamma(ctx, 3, t), lambda t: jet(ctx, 0, 3, t)],
        (-1, None): [lambda t: ln_gamma(ctx, t), lambda t: jet(ctx, -1, -1, t)],
        (4, 2): [
            lambda t: jet(ctx, 4, 4, t, 2),
            lambda t: remainder_deriv(ctx, 2, 5, t),
            lambda t: jet(ctx, -1, 4, t, 2),
        ],
        (8, 2): [
            lambda t: jet(ctx, 0, 8, t, 2),
            lambda t: remainder_jet(ctx, 2, 1, 9, t),
            lambda t: jet(ctx, 8, 8, t, 2),
        ],
    }
    shift = "_jet1p"
    want = {"1e-10": "_taylor1p", "0.01": "_taylor1p", "0.5": shift, "1.5": shift}
    want.update({"thr-1": shift, "thr+n": "_tail", "1e12": "_tail"})
    failures = []
    for (hi, n), fns in callers.items():
        # at the threshold itself, the tail without n and the shift with n = 2
        want["thr"] = "_tail" if n is None else shift
        for name, t in _route_points(ctx, hi, n).items():
            expected = want[name]
            for i, fn in enumerate(fns):
                calls.clear()
                fn(t)
                routes = [c for c in calls if c != "_shift_plan"]
                plans = len(calls) - len(routes)
                if routes != [expected] or plans > (0 if expected == "_tail" else 1):
                    failures.append((hi, n, name, i, calls[:]))
    assert not failures, failures


@pytest.mark.parametrize("digits", [15, 30, 100])
def test_ln_gamma_and_polygamma_meet_oracle_on_every_route(digits):
    # ln Gamma (m = -1) and psi^(m) on each side of every switch, the
    # Taylor series, the shift and the bare tail, out to t = 1e5000:
    # within 10^(3-digits) relative of mpmath, and within est_error
    ctx = PrecisionContext(digits)
    failures = []
    for m in [-1, *range(13), 31, 63]:
        thr = gammakit._threshold(ctx.boosted(10 + max(m, 0)).digits, m)
        points = (1e-300, 1e-6, 0.05, 0.2, thr - 0.5, thr, thr + 0.5, 1e3, 1e12, 1e300, "1e5000")
        for t in points:
            res = ln_gamma(ctx, t) if m == -1 else polygamma(ctx, m, t)
            with mpmath.workdps(digits + 20):
                x = mpmath.mpf(t)
                want = mpmath.loggamma(x) if m == -1 else mpmath.psi(m, x)
                err = abs(mpmath.mpf(res.value) - want)
                if err > mpmath.mpf(10) ** (3 - digits) * abs(want):
                    failures.append(("relative", m, t, float(err / abs(want))))
                if err > mpmath.mpf(res.est_error):
                    failures.append(("est_error", m, t, float(err / abs(want))))
    assert not failures, failures


def test_psi1_table_is_the_same_whichever_jet_builds_it_first(monkeypatch):
    # a jet of order 8 at 70 digits and one of order 63 at 15 digits both
    # work at 88 digits; built in either order, the table and the jets agree
    jets = ((PrecisionContext(70), 0, 8), (PrecisionContext(15), 0, 63))
    assert {ctx.boosted(10 + hi).digits for ctx, _, hi in jets} == {88}
    seen = []
    for order in (jets, jets[::-1]):
        monkeypatch.setattr(gammakit, "_PSI1", {})
        values = {hi: gammakit._stirling_jet(ctx, lo, hi, ctx.mpf("0.05"), 1) for ctx, lo, hi in order}
        assert list(gammakit._PSI1) == [88]
        seen.append((values, list(gammakit._PSI1[88])))
    (values_a, table_a), (values_b, table_b) = seen
    assert values_a == values_b
    shared = min(len(table_a), len(table_b))
    assert shared >= 2 * gammakit._BLOCK and table_a[:shared] == table_b[:shared]
