"""Remainder family R_n and its first two derivatives: closed-form anchors,
the exact two-term envelope identity, sign structure, and tail limits.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from cmlab import (
    DomainError,
    GridSpec,
    PrecisionContext,
    bernoulli,
    gammakit,
    remainder,
    remainder_d1,
    remainder_d2,
    remainder_deriv,
    remainder_jet,
    tail_limits,
)
from cmlab.remainders import _MAX_DERIV

EULER_GAMMA = "0.5772156649015328606065120900824024310421593359399235988057672348848677267776646709"


def test_r0_at_one_closed_form():
    # R_0(1) = 1 - ln(2 pi)/2
    ctx = PrecisionContext(50)
    expected = 1 - ctx.ln(2 * ctx.pi) / 2
    assert abs(remainder(ctx, 0, 1) - expected) < ctx.mpf(10) ** (-48)


def test_r0_at_half_closed_form():
    # R_0(1/2) = (1 - ln 2)/2, below t = 1
    ctx = PrecisionContext(50)
    expected = (1 - ctx.ln(2)) / 2
    assert abs(remainder(ctx, 0, "0.5") - expected) < ctx.mpf(10) ** (-48)


def test_r1_at_half_complement():
    ctx = PrecisionContext(50)
    lhs = remainder(ctx, 1, "0.5") + remainder(ctx, 0, "0.5")
    assert abs(lhs - ctx.mpf(Fraction(1, 6))) < ctx.mpf(10) ** (-48)


def test_d1_at_one_closed_form():
    # -R_2'(1) = gamma - 23/40
    ctx = PrecisionContext(60)
    expected = ctx.mpf(EULER_GAMMA) - ctx.mpf(Fraction(23, 40))
    assert abs(remainder_d1(ctx, 2, 1) - expected) < ctx.mpf(10) ** (-55)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("t", ["0.1", "0.9"])
def test_small_argument_branch_matches_raw_definition(n, t):
    # below t = 1 R_0 and R_1 must agree with the textbook formula, which is
    # well conditioned at these points and safe to evaluate raw
    digits = 50
    ctx = PrecisionContext(digits)
    with mpmath.workdps(digits + 25):
        tv = mpmath.mpf(t)
        a0 = (
            mpmath.loggamma(tv)
            - (tv - mpmath.mpf(1) / 2) * mpmath.ln(tv)
            + tv
            - mpmath.ln(2 * mpmath.pi) / 2
        )
        raw = a0 if n == 0 else -(a0 - 1 / (12 * tv))
    assert abs(remainder(ctx, n, t) - ctx.mpf(raw)) < ctx.mpf(10) ** (-45)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("t", ["0.5", "1", "3", "10"])
def test_envelope_identity(n, t):
    # R_n + R_{n+1} = |B_{2n+2}| / ((2n+2)(2n+1)) * t^{-(2n+1)}, exactly
    ctx = PrecisionContext(40)
    tv = ctx.mpf(t)
    env = ctx.mpf(abs(bernoulli(2 * n + 2)) / ((2 * n + 2) * (2 * n + 1)))
    rhs = env * tv ** (-(2 * n + 1))
    lhs = remainder(ctx, n, tv) + remainder(ctx, n + 1, tv)
    assert abs(lhs - rhs) < ctx.mpf(10) ** (-32) * rhs


def test_leading_blowup_near_zero():
    # t R_1(t) -> 1/12 and R_0(t) ~ -(1/2) ln t - ln(2 pi)/2
    ctx = PrecisionContext(40)
    t = ctx.mpf(10) ** (-8)
    assert abs(t * remainder(ctx, 1, t) - ctx.mpf(Fraction(1, 12))) < ctx.mpf(10) ** (-6)
    t = ctx.mpf(10) ** (-10)
    approx = -ctx.ln(t) / 2 - ctx.ln(2 * ctx.pi) / 2
    assert abs(remainder(ctx, 0, t) - approx) < ctx.mpf(10) ** (-8)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("t", ["0.7", "2", "15"])
def test_derivative_sign_alternation(n, t):
    # complete monotonicity pattern: (-1)^j R_n^{(j)} > 0
    ctx = PrecisionContext(35)
    for j in range(0, 7):
        value = remainder_deriv(ctx, n, j, t)
        signed = value if j % 2 == 0 else -value
        assert signed > 0, (n, j, t)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_d1_d2_consistency(n):
    ctx = PrecisionContext(40)
    t = ctx.mpf(2)
    assert abs(remainder_d1(ctx, n, t) + remainder_deriv(ctx, n, 1, t)) < ctx.mpf(10) ** (-45)
    assert abs(remainder_d2(ctx, n, t) - remainder_deriv(ctx, n, 2, t)) < ctx.mpf(10) ** (-45)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_derivative_ladder_finite_difference(n, j):
    ctx = PrecisionContext(60)
    t0 = ctx.mpf("1.5")
    h = ctx.mpf(10) ** (-10)

    def g(x):
        return remainder_deriv(ctx, n, j, x)

    fd = (-g(t0 + 2 * h) + 8 * g(t0 + h) - 8 * g(t0 - h) + g(t0 - 2 * h)) / (12 * h)
    assert abs(remainder_deriv(ctx, n, j + 1, t0) - fd) < ctx.mpf(10) ** (-35)


def _ratio(ctx, n, t):
    """-t R_n''(t)/R_n'(t), the degree bound of -R_n' at the point t."""
    d1, d2 = remainder_jet(ctx, n, 1, 2, t)
    return -t * d2 / d1


def test_ratio_bound_limits():
    ctx = PrecisionContext(40)
    # t d2/d1 -> 2n as t -> 0+ and -> 2n+2 as t -> inf
    r = _ratio(ctx, 1, ctx.mpf(10) ** (-4))
    assert 0 < r - 2 < ctx.mpf(10) ** (-3)
    r = _ratio(ctx, 3, ctx.mpf(10) ** (-4))
    assert 0 < r - 6 < ctx.mpf(10) ** (-6)
    r = _ratio(ctx, 1, ctx.mpf(10) ** 6)
    assert abs(r - 4) < ctx.mpf(10) ** (-3)


def test_tail_limits_structure():
    ctx = PrecisionContext(40)
    report = tail_limits(ctx, 1)
    assert report.n == 1
    assert [e.power for e in report.entries] == [1, 3, 4, 2]
    assert report.entries[0].target == 0
    assert report.entries[1].target == 0
    assert report.entries[2].target == Fraction(-1, 120)
    assert report.entries[3].target == Fraction(-1, 12)
    assert report.max_deviation < ctx.mpf(10) ** (-5)
    for entry in report.entries:
        assert entry.deviation == abs(entry.value - entry.target_value)


def test_tail_limits_domain():
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        tail_limits(ctx, 0)


def test_large_argument_stability():
    # R_3(1e8) ~ 5.9e-60: the internal boost must keep the cancellation
    # of ~66 leading digits from contaminating the result
    ctx = PrecisionContext(40)
    t = ctx.mpf(10) ** 8
    env = ctx.mpf(abs(bernoulli(8)) / (8 * 7)) * t ** (-7)
    value = remainder(ctx, 3, t)
    assert value > 0
    assert abs(value / env - 1) < ctx.mpf(10) ** (-10)


@pytest.mark.parametrize("n", [1, 2])
def test_derivative_beyond_float_range_is_leading_tail_term(n):
    # at t = 1e400 the next tail term is 10^-800 of the leading one,
    # (-1)^n c_{n+1} (1 - 2(n+1)) t^(-2n-2) with c_k = B_2k/((2k)(2k-1))
    ctx = PrecisionContext(30)
    t = ctx.mpf("1e400")
    k = n + 1
    c = Fraction(bernoulli(2 * k), 2 * k * (2 * k - 1))
    lead = ctx.mpf((-1) ** n * c * (1 - 2 * k)) * t ** (-2 * k)
    got = remainder_deriv(ctx, n, 1, t)
    assert abs(got - lead) <= ctx.mpf(10) ** (-27) * abs(lead)
    # -t R_n''/R_n' tends to 2n+2 at infinity
    assert abs(_ratio(ctx, n, t) - 2 * k) <= ctx.mpf(10) ** (-27)


def test_remainder_domain():
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        remainder(ctx, -1, 1)
    with pytest.raises(DomainError):
        remainder(ctx, 31, 1)
    with pytest.raises(DomainError):
        remainder(ctx, 0, 0)
    with pytest.raises(DomainError):
        remainder(ctx, 0, -2)
    with pytest.raises(DomainError):
        remainder_deriv(ctx, 1, _MAX_DERIV + 1, 1)


def _remainder_deriv_oracle(n, j, t, digits):
    """R_n^(j)(t) from mpmath's loggamma/polygamma minus the j-th derivative
    of the Stirling head, written out term by term, at enough extra digits
    to absorb the cancellation of size t^(2n+j+2)."""
    extra = 30 + math.ceil((2 * n + j + 2) * max(0.0, math.log10(t)))
    with mpmath.workdps(digits + extra):
        tv = mpmath.mpf(t)
        if j == 0:
            g = mpmath.loggamma(tv)
            head = (tv - mpmath.mpf(1) / 2) * mpmath.ln(tv) - tv + mpmath.ln(2 * mpmath.pi) / 2
        else:
            g = mpmath.polygamma(j - 1, tv)
            # the (j-1)-th derivative of ln t - 1/(2t)
            i = j - 1
            if i == 0:
                head = mpmath.ln(tv) - 1 / (2 * tv)
            else:
                head = (-1) ** (i - 1) * mpmath.factorial(i - 1) * tv ** (-i)
                head -= (-1) ** i * mpmath.factorial(i) / (2 * tv ** (i + 1))
        for k in range(1, n + 1):
            # c_k t^(1-2k) differentiated j times: c_k <1-2k>_j t^(1-2k-j)
            falling_j = math.prod(1 - 2 * k - i for i in range(j))
            c_k = mpmath.bernoulli(2 * k) / (2 * k * (2 * k - 1))
            head += c_k * falling_j * tv ** (1 - 2 * k - j)
        value = g - head
        return value if n % 2 == 0 else -value


@pytest.mark.parametrize("digits", [15, 30, 60, 100])
@pytest.mark.parametrize("n", [0, 1, 2, 6, 30])
def test_remainder_deriv_matches_mpmath_oracle(digits, n):
    # R_n^(j) = (-1)^n (G - head) against an oracle built independently
    # from mpmath's gamma-family routines, across both tails of the axis and
    # either side of the switch to the tail sum.  At 15 digits, n = 30 and
    # j = 16 that switch is t = 72; a switch blind to n would sit at t = 42,
    # and its tail stalls at t = 45
    ctx = PrecisionContext(digits)
    failures = []
    for j in (0, 1, 2, 5, 9, 16, 32, 64):
        switch = gammakit._threshold(digits + 10 + max(j - 1, 0), j - 1) + n
        for t in (1e-8, 0.3, 5, 40, 45, switch - 0.5, switch, 1e4, 1e10, 1e100):
            want = _remainder_deriv_oracle(n, j, t, digits)
            got = remainder_deriv(ctx, n, j, t)
            with mpmath.workdps(digits + 10):
                rel = abs(mpmath.mpf(got) - want) / abs(want)
                if rel > mpmath.mpf(10) ** (3 - digits):
                    failures.append((j, t, float(rel)))
    assert not failures, failures


@pytest.mark.parametrize("digits", [31, 33, 37])
def test_tail_switch_reads_the_working_digits(monkeypatch, digits):
    # off the ladder the working context has more digits than asked for,
    # and the tail route's switch is read at those digits: the tail sum
    # runs from the switch on, and not at the lower switch ctx.digits +
    # guard alone would give.  On both sides every value meets the mpmath
    # oracle
    tails = []
    real_tail = gammakit._tail

    def spy(*args):
        tails.append(args)
        return real_tail(*args)

    monkeypatch.setattr(gammakit, "_tail", spy)
    ctx = PrecisionContext(digits)
    failures = []
    for n in (0, 2, 6):
        for j in (1, 5, 9, 16):
            guard = 10 + max(j - 1, 0)
            switch = gammakit._threshold(ctx.boosted(guard).digits, j - 1) + n
            below = gammakit._threshold(digits + guard, j - 1) + n
            for t in (below, switch - 0.5, switch, switch + 0.5):
                tails.clear()
                want = _remainder_deriv_oracle(n, j, t, digits)
                got = remainder_deriv(ctx, n, j, t)
                if bool(tails) != (t >= switch):
                    failures.append(("route", n, j, t))
                with mpmath.workdps(digits + 10):
                    rel = abs(mpmath.mpf(got) - want) / abs(want)
                    if rel > mpmath.mpf(10) ** (3 - digits):
                        failures.append((n, j, t, float(rel)))
    assert not failures, failures


JET_RANGES = ((0, 16), (1, 9), (4, 6), (12, 12))
JET_POINTS = (1e-10, 1e-3, 0.7, 7.5, 33.0, 1e3, 1e6, 1e12)


@pytest.mark.parametrize("digits", [15, 30, 60])
@pytest.mark.parametrize("n", [0, 1, 2, 6])
def test_remainder_jet_matches_single_orders_and_oracle(digits, n):
    # every member of a jet against the one-order evaluator (which works at
    # fewer digits when it is not the jet's top order) and against the
    # mpmath oracle, within 10^-(digits-3) relative
    ctx = PrecisionContext(digits)
    oracle = {}
    failures = []
    for j_lo, j_hi in JET_RANGES:
        for t in JET_POINTS:
            jet = remainder_jet(ctx, n, j_lo, j_hi, t)
            assert len(jet) == j_hi - j_lo + 1
            for j, got in enumerate(jet, j_lo):
                if (j, t) not in oracle:
                    oracle[j, t] = _remainder_deriv_oracle(n, j, t, digits)
                single = remainder_deriv(ctx, n, j, t)
                with mpmath.workdps(digits + 10):
                    want = oracle[j, t]
                    tol = mpmath.mpf(10) ** (3 - digits) * abs(want)
                    if abs(mpmath.mpf(got) - want) > tol:
                        failures.append(("oracle", j_lo, j_hi, j, t))
                    if abs(mpmath.mpf(got) - mpmath.mpf(single)) > tol:
                        failures.append(("single", j_lo, j_hi, j, t))
    assert not failures, failures


def test_remainder_jet_domain():
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        remainder_jet(ctx, 1, 3, 2, 1)
    with pytest.raises(DomainError):
        remainder_jet(ctx, 1, 0, _MAX_DERIV + 1, 1)
    with pytest.raises(DomainError):
        remainder_jet(ctx, 1, -1, 2, 1)
    with pytest.raises(DomainError):
        remainder_jet(ctx, 1, 0, 2, 0)


def _reference_head(wctx, lo, hi, z, n):
    """The leading terms of the Stirling expansions of ln Gamma (order -1)
    and psi^(order) at z plus their first n Bernoulli terms, in mpf: the
    head the remainder route once subtracted at the unshifted t."""
    zp = [wctx.mpf(1), 1 / z]
    for _ in range(max(hi + 1, 2 * n + hi) - 1):
        zp.append(zp[-1] * zp[1])
    lnz = wctx.ln(z) if lo <= 0 else None
    bits = wctx.prec + gammakit._GUARD
    values = []
    for order in range(lo, hi + 1):
        bern = wctx.mpf(0)
        coeffs = gammakit._fixed_coeffs(gammakit._table(gammakit._stirling, order), 1, n, bits)
        for k, c in enumerate(coeffs, 1):
            bern += wctx.from_fixed(c, bits) * zp[2 * k + order]
        if order == -1:
            values.append((z - 0.5) * lnz - z + wctx.ln(2 * wctx.pi) / 2 + bern)
        elif order == 0:
            values.append(lnz - zp[1] / 2 - bern)
        else:
            fm1 = math.factorial(order - 1)
            val = fm1 * zp[order] + fm1 * order * zp[order + 1] / 2
            values.append(val + bern if order % 2 else -val - bern)
    return values


def _reference_jet(wctx, lo, hi, t):
    """ln Gamma and psi^(order) at t the way they were summed before the
    psi(1+t) frame: head plus tail at z = t + N, less the N shift terms
    k = 0..N-1 summed in mpf."""
    thr = gammakit._threshold(wctx.digits, hi)
    shift = 0 if t >= thr else int(math.ceil(thr - float(t)))
    z = t + shift
    tails = gammakit._tail(wctx, lo, hi, z, 1)
    values = [h + s for h, s in zip(_reference_head(wctx, lo, hi, z, 0), tails)]
    for m in range(max(lo, 0), hi + 1):
        s = sum((t + k) ** (-(m + 1)) for k in range(shift))
        values[m - lo] -= math.factorial(m) * s * (1 if m % 2 == 0 else -1)
    if shift and lo == -1:
        prod = t
        for k in range(1, shift):
            prod *= t + k
        values[0] -= wctx.ln(prod)
    return values


def reference_remainder_jet(ctx, n, j_lo, j_hi, t):
    """A test-local copy of the route R_n^(j) took below the switch before
    the psi(1+t) frame: (-1)^n (G - head) at the unshifted t, G by
    ``_reference_jet`` at the boosted context.  At or above the switch it
    takes the tail route, which is unchanged."""
    t0 = ctx.mpf(t)
    guard = 10 + max(j_hi - 1, 0)
    sign = -1 if n % 2 else 1
    lo, hi = j_lo - 1, j_hi - 1
    if t0 >= gammakit._threshold(ctx.digits + guard, hi) + n:
        wctx = ctx.boosted(guard)
        return [ctx.mpf(sign * v) for v in gammakit._tail(wctx, lo, hi, wctx.mpf(t0), n + 1)]
    lt = math.log10(float(t0)) if t0 > 1 else 0.0
    wctx = ctx.boosted(int(math.ceil((2 * n + j_hi + 2) * lt)) + 15 + guard)
    tw = wctx.mpf(t0)
    gs = _reference_jet(wctx, lo, hi, tw)
    heads = _reference_head(wctx, lo, hi, tw, n)
    return [ctx.mpf(sign * (g - h)) for g, h in zip(gs, heads)]


@pytest.mark.parametrize("n", [1, 2])
def test_remainder_jet_equals_reference_route_on_degree_grid(n):
    # the jets cm_check reads on the default degree grid, orders 1..9 at
    # 30 digits: equal after rounding to ctx to the route they replace
    ctx = PrecisionContext(30)
    differ = []
    for t in GridSpec(1e-10, 1e3, 400).points(ctx):
        got = remainder_jet(ctx, n, 1, 9, t)
        want = reference_remainder_jet(ctx, n, 1, 9, t)
        differ += [(j, float(t)) for j, (a, b) in enumerate(zip(got, want), 1) if a != b]
    assert not differ, differ


@pytest.mark.parametrize("digits", [15, 60, 100])
@pytest.mark.parametrize("n", [0, 6, 30])
def test_remainder_deriv_matches_reference_route(digits, n):
    # every order, below t = 1, above it and just below the switch to the
    # tail sum: within 10^(3-digits) relative of the replaced route
    ctx = PrecisionContext(digits)
    tol = ctx.mpf(10) ** (3 - digits)
    failures = []
    for j in range(17):
        switch = gammakit._threshold(digits + 10 + max(j - 1, 0), j - 1) + n
        for t in (1e-7, 0.3, 7.5, switch - 0.5):
            (got,) = remainder_jet(ctx, n, j, j, t)
            (want,) = reference_remainder_jet(ctx, n, j, j, t)
            if abs(got - want) > tol * abs(want):
                failures.append((j, t, float(abs(got / want - 1))))
    assert not failures, failures


def test_laurent_coefficients_match_definition():
    # Lambda_{n,m} = G_m(t) - G_m(1+t) - head_{n,m}(t): the k = 0 shift
    # term less the leading and first n Bernoulli terms of G_m's Stirling
    # expansion at t, as exact Fractions in powers of 1/t, past the
    # logarithms of orders 0 and -1; n = None takes no head
    for order in range(-1, 17):
        for n in [None] + list(range(31)):
            want = {}

            def add(k, c):
                want[k] = want.get(k, 0) + Fraction(c)

            if order >= 0:
                # psi^(m)(t) - psi^(m)(1+t)
                add(order + 1, (-1) ** (order + 1) * math.factorial(order))
            if n is None:
                pass
            elif order >= 1:
                sign = (-1) ** (order + 1)
                add(order, -sign * math.factorial(order - 1))
                add(order + 1, -sign * Fraction(math.factorial(order), 2))
                for k in range(1, n + 1):
                    add(2 * k + order, -sign * gammakit._stirling(order, k))
            elif order == 0:
                add(1, Fraction(1, 2))
                for k in range(1, n + 1):
                    add(2 * k, gammakit._stirling(0, k))
            else:
                for k in range(1, n + 1):
                    add(2 * k - 1, -gammakit._stirling(-1, k))
            den, terms = gammakit._laurent_coeffs(order, n)
            assert all(isinstance(a, int) and a != 0 for _, a in terms), (order, n)
            got = {k: Fraction(a, den) for k, a in terms}
            assert got == {k: c for k, c in want.items() if c}, (order, n)
