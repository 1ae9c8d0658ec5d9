"""Grid-certified complete-monotonicity checks and degree bisection."""

import math

import mpmath
import pytest

from cmlab import (
    DEFAULT_GRID,
    BracketError,
    CMCheckResult,
    DomainError,
    FunctionFamily,
    GridSpec,
    PrecisionContext,
    builtin_families,
    cm_check,
    conjecture_probe,
    degree_estimate,
    first_deriv_bound,
)
from cmlab import cmdegree
from cmlab.cmdegree import _JetTable
from cmlab.remainders import _MAX_DERIV, remainder_deriv

COARSE = GridSpec(1e-6, 1e3, 60)


def family(name, deriv, max_order=12):
    """The family whose jet to order ``top`` is deriv(ctx, j, t), j <= top."""

    def eval_deriv(ctx, top, t):
        return [deriv(ctx, j, t) for j in range(top + 1)]

    return FunctionFamily(name, eval_deriv, max_order)


def exp_family():
    # e^{-t}: completely monotonic, but t^alpha e^{-t} already fails
    # monotonicity for any alpha > 0, so its degree is 0
    def deriv(ctx, j, t):
        val = ctx.exp(-t)
        return val if j % 2 == 0 else -val

    return family("exp-decay", deriv)


def inverse_family():
    # 1/t: t^alpha / t is completely monotonic exactly for alpha <= 1
    def deriv(ctx, j, t):
        return (-1) ** j * math.factorial(j) * ctx.mpf(t) ** (-j - 1)

    return family("inverse", deriv)


def increasing_family():
    # 1 - e^{-t} grows, so -t h'/h < 0 everywhere and even alpha = 0 fails
    def deriv(ctx, j, t):
        return -ctx.expm1(-t) if j == 0 else (-1) ** (j + 1) * ctx.exp(-t)

    return family("increasing", deriv)


def test_builtin_families_catalog():
    fams = builtin_families()
    expected = {"lnminuspsi", "phi"}
    expected.update("R:%d" % n for n in range(7))
    expected.update("negRprime:%d" % n for n in range(7))
    assert set(fams) == expected
    for name, fam in fams.items():
        assert isinstance(fam, FunctionFamily)
        assert fam.name == name


#: (n, m) of each built-in family (-1)^m R_n^(m)
REMAINDER_FAMILIES = {"phi": (1, 1)}
REMAINDER_FAMILIES.update(("R:%d" % n, (n, 0)) for n in range(7))
REMAINDER_FAMILIES.update(("negRprime:%d" % n, (n, 1)) for n in range(7))


@pytest.mark.parametrize("name", sorted(REMAINDER_FAMILIES))
def test_builtin_family_max_order_is_the_remainder_cap(name):
    # (-1)^m R_n^(m) reads R_n^(m+j) for its j-th derivative, so it
    # reaches remainders' cap at j = _MAX_DERIV - m; its jet's top order
    # is R_n^(_MAX_DERIV) itself, below and above the tail switch
    n, m = REMAINDER_FAMILIES[name]
    ctx = PrecisionContext(30)
    fam = builtin_families()[name]
    assert fam.max_order == _MAX_DERIV - m
    for t in (ctx.mpf("0.75"), ctx.mpf(200)):
        jet = fam.eval_deriv(ctx, fam.max_order, t)
        assert len(jet) == fam.max_order + 1
        assert jet[-1] == (-1) ** m * remainder_deriv(ctx, n, m + fam.max_order, t)


def test_phi_is_negRprime_1():
    ctx = PrecisionContext(30)
    fams = builtin_families()
    t = ctx.mpf("0.75")
    for j in (0, 1, 2):
        a = fams["phi"].eval_deriv(ctx, j, t)
        b = fams["negRprime:1"].eval_deriv(ctx, j, t)
        assert a == b


def test_cm_check_passes_plain_cm_function():
    ctx = PrecisionContext(30)
    res = cm_check(ctx, exp_family(), 0, order=6, grid=COARSE)
    assert res.passed
    assert bool(res)
    assert res.order is None


def test_cm_check_rejects_weighted_exponential():
    ctx = PrecisionContext(30)
    res = cm_check(ctx, exp_family(), "0.5", order=6, grid=COARSE)
    assert not res.passed
    assert res.order is not None
    assert res.value < 0


def test_degree_estimate_exponential_is_zero():
    ctx = PrecisionContext(30)
    bracket = degree_estimate(ctx, exp_family(), 0, 1, resolution=0.25, order=6, grid=COARSE)
    assert bracket.passed_alpha == 0
    assert bracket.width <= ctx.mpf("0.25") + ctx.mpf(10) ** (-12)
    assert 0 in bracket


def test_cm_check_lnminuspsi():
    ctx = PrecisionContext(30)
    fam = builtin_families()["lnminuspsi"]
    table = _JetTable(ctx, fam, COARSE)
    assert cm_check(ctx, fam, 1, order=6, grid=COARSE, _cache=table).passed
    res = cm_check(ctx, fam, "1.2", order=6, grid=COARSE, _cache=table)
    assert not res.passed
    # t^{alpha-1} leading behaviour near 0 breaks the first derivative
    assert res.order == 1
    assert res.t < 1


@pytest.mark.parametrize("digits", [30, 60])
def test_lnminuspsi_derivs_match_mpmath_oracle(digits):
    # h = ln t - psi(t) and its derivatives h^(j), j <= max_order, from
    # one jet, against mpmath's psi^(j) at enough extra digits to absorb
    # ln t - psi(t) ~ 1/(2t): relative 10^-(digits-3) also at t = 1e12,
    # where ln t - psi cancels.  h = 1/(2t) - R_0'(t) reads R_0^(j+1) for
    # its j-th derivative, so it stops one below remainders' cap
    ctx = PrecisionContext(digits)
    fam = builtin_families()["lnminuspsi"]
    top = fam.max_order
    assert top == _MAX_DERIV - 1
    points = (1e-8, 0.5, 40, 1e6, 1e12)
    want = {}
    with mpmath.workdps(digits + 40):
        for t in points:
            tv = mpmath.mpf(t)
            for j in range(top + 1):
                lead = mpmath.ln(tv) if j == 0 else (-1) ** (j - 1) * mpmath.factorial(j - 1) / tv**j
                want[j, t] = lead - mpmath.polygamma(j, tv)

    def off(got, j, t):
        with mpmath.workdps(digits + 10):
            return abs(mpmath.mpf(got) - want[j, t]) > mpmath.mpf(10) ** (3 - digits) * abs(want[j, t])

    failures = []
    for t in points:
        jet = fam.eval_deriv(ctx, top, t)
        assert len(jet) == top + 1
        failures += [(j, t) for j in range(top + 1) if off(jet[j], j, t)]
    assert not failures, failures


def test_cm_check_cache_is_shared():
    ctx = PrecisionContext(30)
    calls = []
    base = builtin_families()["lnminuspsi"]
    fam = counted(base, calls)
    table = _JetTable(ctx, fam, COARSE)
    assert cm_check(ctx, fam, 1, order=3, grid=COARSE, _cache=table).passed
    assert len(calls) == COARSE.count
    # each row holds H_l = t^l h^(l)(t), l <= 3, as mpfs and as integers
    # M_l with M_l 2^low == H_l exactly, one of them odd
    for t, (hs, ms, low) in zip(COARSE.points(ctx), table.rows):
        want, tl = [], ctx.mpf(1)
        for h in base.eval_deriv(ctx, 3, t):
            want.append(h * tl)
            tl *= t
        assert hs == want
        assert [ctx._mp.ldexp(m, low) for m in ms] == hs
        assert any(m % 2 for m in ms)
    calls.clear()
    rows = list(table.rows)
    # a second alpha on the same grid reuses every stored row
    cm_check(ctx, fam, "0.7", order=3, grid=COARSE, _cache=table)
    assert calls == []
    assert all(a is b for a, b in zip(table.rows, rows))
    # a higher order makes one jet per point, appends only the new orders
    # and aligns the row again
    cm_check(ctx, fam, "0.7", order=5, grid=COARSE, _cache=table)
    assert [top for top, _ in calls] == [5] * COARSE.count
    for (hs, ms, low), (old_hs, _, _) in zip(table.rows, rows):
        assert len(hs) == len(ms) == 6
        assert all(a is b for a, b in zip(hs[:4], old_hs))
        assert [ctx._mp.ldexp(m, low) for m in ms] == hs


@pytest.mark.parametrize("other", ["family", "grid", "ctx", "dict"])
def test_cm_check_rejects_a_table_of_another_check(other):
    # on a shared dict, rows filled for phi served negRprime:2 and made it
    # fail at alpha = 3.5; a table refuses to serve another family
    ctx = PrecisionContext(30)
    fams = builtin_families()
    fam = fams["negRprime:2"]
    table = {
        "family": _JetTable(ctx, fams["phi"], COARSE),
        "grid": _JetTable(ctx, fam, GridSpec(1e-6, 1e3, 61)),
        "ctx": _JetTable(PrecisionContext(30), fam, COARSE),
        "dict": {},
    }[other]
    with pytest.raises(DomainError, match="jet table"):
        cm_check(ctx, fam, "3.5", order=6, grid=COARSE, _cache=table)
    with pytest.raises(DomainError, match="jet table"):
        first_deriv_bound(ctx, fam, grid=COARSE, _cache=table)
    assert cm_check(ctx, fam, "3.5", order=6, grid=COARSE).passed


def test_cm_check_rejects_a_jet_of_the_wrong_length():
    # a row must hold every order the check reads
    ctx = PrecisionContext(30)
    phi = builtin_families()["phi"]
    for wrong in (lambda jet: jet[:-1], lambda jet: jet + jet[-1:]):
        fam = FunctionFamily("wrong", lambda c, top, t: wrong(phi.eval_deriv(c, top, t)), 8)
        with pytest.raises(ValueError, match="zip"):
            cm_check(ctx, fam, 1, order=4, grid=COARSE)


def test_degree_estimate_aligns_each_row_once(monkeypatch):
    # one integer row per grid point, aligned when its one jet fills it,
    # and one row of Leibniz coefficients C(j,i) <alpha>_i per order of
    # each check
    ctx = PrecisionContext(30)
    rows, checks = [], []
    aligned, check = cmdegree._aligned, cmdegree.cm_check

    def counted_aligned(xs):
        rows.append(len(xs))
        return aligned(xs)

    def counted_check(*args, **kwargs):
        checks.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(cmdegree, "_aligned", counted_aligned)
    monkeypatch.setattr(cmdegree, "cm_check", counted_check)
    order = 6
    degree_estimate(
        ctx, builtin_families()["negRprime:2"], resolution=0.1, order=order, grid=COARSE
    )
    assert len(checks) > 2
    assert rows[: order + 1] == list(range(1, order + 2))
    assert rows.count(order + 1) == COARSE.count + len(checks)
    assert len(rows) == COARSE.count + len(checks) * (order + 1)


def test_cm_check_rejects_a_non_finite_jet():
    # an infinite H has no integer mantissa: it must not read as 0
    ctx = PrecisionContext(30)
    fam = family("inf", lambda c, j, t: c.mpf("inf") if j == 2 else c.mpf(1) / t)
    with pytest.raises(DomainError, match="H_2 is \\+inf"):
        cm_check(ctx, fam, 0, order=3, grid=COARSE)


def test_cm_check_validation():
    ctx = PrecisionContext(30)
    fam = builtin_families()["lnminuspsi"]
    with pytest.raises(DomainError):
        cm_check(ctx, fam, -0.5, grid=COARSE)
    with pytest.raises(DomainError):
        cm_check(ctx, fam, 1, order=fam.max_order + 1, grid=COARSE)
    with pytest.raises(DomainError):
        cm_check(ctx, "lnminuspsi", 1, grid=COARSE)


def test_first_deriv_bound_lnminuspsi():
    # the infimum of -t h'/h sits just above the true degree 1
    ctx = PrecisionContext(30)
    fam = builtin_families()["lnminuspsi"]
    bound = first_deriv_bound(ctx, fam, grid=GridSpec(1e-6, 1e3, 200))
    assert 1 < bound < ctx.mpf("1.05")


def test_first_deriv_bound_needs_positive_values():
    ctx = PrecisionContext(30)

    def deriv(ctx_, j, t):
        return -ctx_.exp(-t) if j % 2 == 0 else ctx_.exp(-t)

    fam = family("negative", deriv)
    with pytest.raises(DomainError):
        first_deriv_bound(ctx, fam, grid=GridSpec(0.1, 10, 10))


def test_degree_estimate_lnminuspsi_bracket():
    ctx = PrecisionContext(30)
    fam = builtin_families()["lnminuspsi"]
    bracket = degree_estimate(ctx, fam, "0.5", "1.5", resolution=0.25, order=5, grid=COARSE)
    assert bracket.passed_alpha == 1
    assert bracket.failed_alpha == ctx.mpf("1.25")
    assert 1 in bracket
    assert ctx.mpf("1.3") not in bracket
    assert bracket.order_used == 5
    assert bracket.first_deriv_bound > 1
    assert bracket.grid is COARSE


def test_degree_estimate_bad_endpoints():
    ctx = PrecisionContext(30)
    fam = builtin_families()["lnminuspsi"]
    with pytest.raises(BracketError):
        # lower endpoint already fails
        degree_estimate(ctx, fam, "1.5", "2.5", resolution=0.25, order=4, grid=COARSE)
    with pytest.raises(BracketError):
        # upper endpoint still passes
        degree_estimate(ctx, fam, "0.2", "0.8", resolution=0.25, order=4, grid=COARSE)
    with pytest.raises(DomainError):
        degree_estimate(ctx, fam, 1, 1, order=4, grid=COARSE)
    with pytest.raises(DomainError):
        degree_estimate(ctx, fam, 0.5, 1.5, resolution=0, order=4, grid=COARSE)


def test_degree_estimate_needs_order_one_before_any_evaluation():
    # an order-0 check reads only h >= 0, which no alpha changes, so the
    # default upper end could never fail
    ctx = PrecisionContext(30)
    calls = []
    fam = counted(builtin_families()["phi"], calls)
    for ends in ((), (1, 3)):
        with pytest.raises(DomainError, match="derivative order must be an integer >= 1, got 0"):
            degree_estimate(ctx, fam, *ends, resolution=0.25, order=0, grid=COARSE)
    assert calls == []


@pytest.mark.parametrize(
    "name,lo,hi",
    [("lnminuspsi", 1, 1), ("phi", 2, 2), ("negRprime:2", 3, 4), ("negRprime:3", 5, 6)],
)
def test_degree_estimate_default_start_brackets_known_degrees(name, lo, hi):
    # no ends given: the bisection starts from [0, first integer above the
    # first-derivative bound], and the bracket meets the known degree
    # interval (for n >= 2 the paper proves 2n - 1 <= deg(-R_n') <= 2n)
    ctx = PrecisionContext(30)
    bracket = degree_estimate(ctx, builtin_families()[name], resolution=0.1, order=6, grid=COARSE)
    assert bracket.width <= ctx.mpf("0.1")
    if lo == hi:
        assert lo in bracket
    else:
        assert lo <= bracket.passed_alpha < bracket.failed_alpha <= hi
    assert bracket.passed_alpha <= bracket.first_deriv_bound


def test_degree_estimate_default_start_rejects_increasing_family():
    ctx = PrecisionContext(30)
    fam = increasing_family()
    assert first_deriv_bound(ctx, fam, grid=COARSE) < 0
    with pytest.raises(BracketError, match="alpha_lo=0.0 already fails"):
        degree_estimate(ctx, fam, resolution=0.25, order=4, grid=COARSE)


def test_degree_estimate_rejects_unreachable_resolution():
    # near alpha = 1, 20-digit numbers are about 1e-21 apart: bisection can
    # never get the bracket down to 1e-30
    ctx = PrecisionContext(20)
    fam = inverse_family()
    with pytest.raises(DomainError, match="resolution"):
        degree_estimate(ctx, fam, "0.5", "1.5", resolution="1e-30", order=4, grid=COARSE)
    with pytest.raises(DomainError, match="resolution"):
        degree_estimate(ctx, exp_family(), 0, 1, resolution="1e-30", order=4, grid=COARSE)
    # a resolution a few spacings wide is still reached
    bracket = degree_estimate(ctx, fam, "0.5", "1.5", resolution="1e-19", order=4, grid=COARSE)
    assert 0 < bracket.width <= ctx.mpf("1e-19")
    assert 1 in bracket


def test_degree_estimate_rejects_unreachable_resolution_before_evaluating():
    # given ends are checked before the cold scan of alpha_lo; with no
    # alpha_hi the check against max(1, |alpha_lo|) still runs first
    ctx = PrecisionContext(20)
    calls = []

    def deriv(ctx, j, t):
        calls.append((j, t))
        return (-1) ** j * math.factorial(j) * ctx.mpf(t) ** (-j - 1)

    fam = family("counted-inverse", deriv)
    for hi in (2, None):
        with pytest.raises(DomainError, match="resolution"):
            degree_estimate(ctx, fam, 0, hi, resolution="1e-30", order=2, grid=COARSE)
    assert calls == []


def counted(fam, calls):
    """``fam`` with every jet call recorded as (top, t)."""

    def eval_deriv(ctx, top, t):
        calls.append((top, t))
        return fam.eval_deriv(ctx, top, t)

    return FunctionFamily(fam.name, eval_deriv, fam.max_order)


def test_degree_estimate_fills_cache_with_one_jet_per_point():
    ctx = PrecisionContext(30)
    calls = []
    degree_estimate(
        ctx, counted(builtin_families()["negRprime:2"], calls), resolution=0.1, order=6, grid=COARSE
    )
    assert [top for top, _ in calls] == [6] * COARSE.count
    assert [t for _, t in calls] == COARSE.points(ctx)


def test_degree_estimate_builds_grid_points_once(monkeypatch):
    ctx = PrecisionContext(30)
    calls = []
    points = GridSpec.points

    def counted_points(grid, c):
        calls.append(grid)
        return points(grid, c)

    monkeypatch.setattr(GridSpec, "points", counted_points)
    degree_estimate(ctx, builtin_families()["negRprime:2"], resolution=0.1, order=4, grid=COARSE)
    assert calls == [COARSE]


PROBE_SMALL = GridSpec(1e-8, 1e3, 120)


def test_conjecture_probe_straddles_known_degrees():
    # the two second-derivative cases with proved degrees: 2 and 3
    ctx = PrecisionContext(25)
    b = conjecture_probe(ctx, 0, 2, grid=PROBE_SMALL)
    assert b.passed_alpha <= 2 <= b.failed_alpha
    assert b.width <= ctx.mpf("0.1") + ctx.mpf(10) ** (-12)
    b = conjecture_probe(ctx, 1, 2, grid=PROBE_SMALL)
    assert b.passed_alpha <= 3 <= b.failed_alpha


def test_conjecture_probe_open_case_records_bracket():
    # n=2, m=0 has no proved degree; the probe just reports a bracket
    ctx = PrecisionContext(25)
    b = conjecture_probe(ctx, 2, 0, grid=PROBE_SMALL)
    assert 1 <= b.passed_alpha < b.failed_alpha <= 3


def test_conjecture_probe_validation():
    ctx = PrecisionContext(25)
    with pytest.raises(DomainError):
        conjecture_probe(ctx, 7, 0)
    with pytest.raises(DomainError):
        conjecture_probe(ctx, 0, 5)


def test_cm_check_result_is_truthy_wrapper():
    ok = CMCheckResult(True)
    bad = CMCheckResult(False, order=2, t=1.0, value=-0.1)
    assert ok and not bad


def reference_cm_check(ctx, alpha, order, grid, table):
    """The all-mpf check: every (j, t) pair summed by mpmath's ``fdot``
    and weighted by t^(alpha-j), with t^alpha made for every point up
    front; the first negative sum fails.  It reads only the mpf rows of
    the jet ``table``."""
    alpha0 = ctx.mpf(alpha)
    pts = grid.points(ctx)
    fall = [ctx.mpf(1)]
    for i in range(1, order + 1):
        fall.append(fall[-1] * (alpha0 - (i - 1)))
    coef = [[math.comb(j, i) * fall[i] for i in range(j + 1)] for j in range(order + 1)]
    tpow = [ctx.power(t, alpha0) for t in pts]
    tinv = [1 / t for t in pts]
    for j in range(order + 1):
        for idx, t in enumerate(pts):
            if j:
                tpow[idx] *= tinv[idx]
            row = table.row(idx, order)[0]
            hs = [row[j - i] for i in range(j + 1)]
            signed = ctx._mp.fdot(coef[j], hs) * tpow[idx]
            if j % 2:
                signed = -signed
            if not signed >= 0:
                return CMCheckResult(False, j, +t, signed)
    return CMCheckResult(True)


def verdict(res):
    return (res.passed, res.order, res.t, res.value)


# alphas on both sides of each degree on COARSE at order 8; the second and
# third are the last passing and the first failing point of its bisection
BOTH_SIDES = {
    "phi": ("1", "1.96875", "2.015625", "2", "2.5"),
    "negRprime:2": ("3", "3.8671875", "3.90625", "4.5"),
    "negRprime:3": ("5", "5.76953125", "5.796875", "6.5"),
    "lnminuspsi": ("0.5", "1", "1.03125", "1.5"),
    "R:1": ("0.5", "1", "1.03125", "1.5"),
}


@pytest.mark.parametrize("name", sorted(BOTH_SIDES), ids="{}-jet".format)
def test_cm_check_verdicts_match_all_mpf_reference(name):
    # no decided sum on either side lies near the noise radius, so every
    # verdict and witness is the all-mpf loop's, bit for bit
    ctx = PrecisionContext(30)
    fam = builtin_families()[name]
    table, ref_table = _JetTable(ctx, fam, COARSE), _JetTable(ctx, fam, COARSE)
    seen = set()
    for alpha in BOTH_SIDES[name]:
        got = cm_check(ctx, fam, alpha, order=8, grid=COARSE, _cache=table)
        want = reference_cm_check(ctx, alpha, 8, COARSE, ref_table)
        assert verdict(got) == verdict(want), alpha
        seen.add(got.passed)
    assert seen == {True, False}


@pytest.mark.parametrize("alpha", ["1.9", "2.1"])
def test_cm_check_matches_reference_beyond_float_range(alpha):
    # H_l reaches about 1e600 at t = 1e-300, beyond any float: the
    # integer rows hold it as they hold every other value
    ctx = PrecisionContext(30)
    grid = GridSpec(1e-300, 1e300, 40)
    fam = builtin_families()["phi"]
    got = cm_check(ctx, fam, alpha, order=4, grid=grid)
    want = reference_cm_check(ctx, alpha, 4, grid, _JetTable(ctx, fam, grid))
    assert verdict(got) == verdict(want)


def inverse_square_deriv(ctx, j, t):
    return (-1) ** j * math.factorial(j + 1) * ctx.mpf(t) ** (-j - 2)


def test_cm_check_matches_reference_on_cancelling_sums():
    # h = t^-2 at alpha = 2: g = 1, so every sum of order j >= 1 is a
    # cancellation down to rounding; each failure lies inside
    # 10^(3-digits) of its terms' sizes, so the first of them, at order
    # 1, is returned, undecided
    ctx = PrecisionContext(30)
    fam = family("inverse-square", inverse_square_deriv)
    got = cm_check(ctx, fam, 2, order=8, grid=COARSE)
    want = reference_cm_check(ctx, 2, 8, COARSE, _JetTable(ctx, fam, COARSE))
    assert not want.passed and want.order == 1
    assert verdict(got) == verdict(want) and got.undecided


def test_cm_check_decided_witness_wins_over_an_earlier_undecided_one():
    # t^-2 with its third derivative 1e-3 too small above t = 100: at
    # alpha = 2 the order-3 sum there is -1e-3 H_3, far outside the noise,
    # while the first failures, from order 1 on, are noise
    def deriv(ctx, j, t):
        value = inverse_square_deriv(ctx, j, t)
        return value * (1 - ctx.mpf("1e-3")) if j == 3 and t > 100 else value

    ctx = PrecisionContext(30)
    fam = family("inverse-square-broken", deriv)
    first = reference_cm_check(ctx, 2, 8, COARSE, _JetTable(ctx, fam, COARSE))
    assert first.order == 1 and first.t < 1e-5
    got = cm_check(ctx, fam, 2, order=8, grid=COARSE)
    assert not got.passed and not got.undecided
    assert got.order == 3 and got.t > 100
    assert got.value == pytest.approx(-24e-3 * float(got.t) ** -3, rel=1e-6)


@pytest.mark.parametrize("delta", ["1e-12", "1e-24", "1e-29"])
def test_cm_check_decides_a_failure_by_its_relative_size(delta):
    # the same family with H_3 a relative delta too small above t = 100:
    # the order-3 sum there is 24 delta t^-2 against terms of size 72
    # t^-2, decided wherever delta/3 exceeds the 10^-27 radius of 30
    # digits, however small t^(alpha-3) makes the value; delta = 1e-29
    # lies inside the radius and stays undecided
    def deriv(ctx, j, t):
        value = inverse_square_deriv(ctx, j, t)
        return value * (1 - ctx.mpf(delta)) if j == 3 and t > 100 else value

    ctx = PrecisionContext(30)
    got = cm_check(ctx, family("inverse-square-scaled", deriv), 2, order=8, grid=COARSE)
    assert not got.passed
    if delta == "1e-29":
        assert got.undecided and got.order == 1
    else:
        assert not got.undecided
        assert got.order == 3 and got.t > 100
        want = -24 * float(delta) * float(got.t) ** -3
        assert got.value == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("digits", [15, 20])
def test_phi_below_25_digits_fails_only_undecided_at_its_degree(digits):
    # phi's sums near t = 1e-10 cancel into their rounding noise at
    # alpha = 2, and some come out negative: the bracket keeps that
    # failing end, and reports it undecided
    ctx = PrecisionContext(digits)
    phi = builtin_families()["phi"]
    res = cm_check(ctx, phi, 2, order=8, grid=DEFAULT_GRID)
    assert not res.passed and res.undecided
    b = degree_estimate(ctx, phi, 1, 3, resolution=0.05, order=8, grid=DEFAULT_GRID)
    assert (b.passed_alpha, b.failed_alpha) == (ctx.mpf("1.96875"), 2)
    assert b.failed_undecided
    with pytest.raises(BracketError, match="undecided"):
        degree_estimate(ctx, phi, 2, 3, resolution=0.05, order=8, grid=DEFAULT_GRID)


@pytest.mark.parametrize("beta", ["0.7", "1.7", "2.3", "4.3"])
def test_cm_check_matches_reference_below_float_resolution(beta):
    # h = t^-beta at alpha = beta + 1e-18: g = t^(1e-18) fails the j = 1
    # check by about 1e-18/t, a relative 1e-18 of the sum's terms, so
    # the float sums are rounding noise of either sign
    def deriv(ctx, j, t):
        b = ctx.mpf(beta)
        return math.prod(-(b + i) for i in range(j)) * ctx.power(t, -b - j)

    ctx = PrecisionContext(30)
    fam = family("power", deriv)
    alpha = ctx.mpf(beta) + ctx.mpf("1e-18")
    got = cm_check(ctx, fam, alpha, order=4, grid=COARSE)
    want = reference_cm_check(ctx, alpha, 4, COARSE, _JetTable(ctx, fam, COARSE))
    assert not want.passed
    assert verdict(got) == verdict(want)


def test_cm_check_clear_pass_needs_no_power(monkeypatch):
    calls = []
    power = PrecisionContext.power

    def counted_power(self, x, a):
        calls.append(x)
        return power(self, x, a)

    monkeypatch.setattr(PrecisionContext, "power", counted_power)
    ctx = PrecisionContext(30)
    assert cm_check(ctx, builtin_families()["phi"], 1, order=8, grid=COARSE).passed
    assert calls == []


@pytest.mark.parametrize(
    "name,ends,bracket,bound",
    [
        ("phi", (1, 3), ("2.0", "2.03125"), "2.000000000599999995092328"),
        ("negRprime:2", (0, None), ("3.8671875", "3.90625"), "4.000000000000000000200000"),
        ("R:1", (0, None), ("1.0", "1.03125"), "1.000000012112784477613556"),
        ("lnminuspsi", (0, None), ("1.0", "1.03125"), "1.000000002144863531351717"),
    ],
    ids=["phi", "negRprime:2", "R:1", "lnminuspsi"],
)
def test_degree_bisect_brackets_are_pinned(name, ends, bracket, bound):
    # the brackets of the degree-bisect benchmark, at 30 digits on the
    # default grid, order 8, resolution 0.05
    ctx = PrecisionContext(30)
    b = degree_estimate(
        ctx, builtin_families()[name], *ends, resolution=0.05, order=8, grid=DEFAULT_GRID
    )
    assert (b.passed_alpha, b.failed_alpha) == tuple(ctx.mpf(x) for x in bracket)
    assert not b.failed_undecided
    assert mpmath.nstr(b.first_deriv_bound, 25, strip_zeros=False) == bound
