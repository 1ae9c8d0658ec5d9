"""Grid-certified complete-monotonicity checks and degree bisection."""

import math

import mpmath
import pytest

from cmlab import (
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

COARSE = GridSpec(1e-6, 1e3, 60)


def exp_family():
    # e^{-t}: completely monotonic, but t^alpha e^{-t} already fails
    # monotonicity for any alpha > 0, so its degree is 0
    def eval_deriv(ctx, j, t):
        val = ctx.exp(-t)
        return val if j % 2 == 0 else -val

    return FunctionFamily("exp-decay", eval_deriv)


def inverse_family():
    # 1/t: t^alpha / t is completely monotonic exactly for alpha <= 1
    def eval_deriv(ctx, j, t):
        return (-1) ** j * math.factorial(j) * ctx.mpf(t) ** (-j - 1)

    return FunctionFamily("inverse", eval_deriv)


def increasing_family():
    # 1 - e^{-t} grows, so -t h'/h < 0 everywhere and even alpha = 0 fails
    def eval_deriv(ctx, j, t):
        return -ctx.expm1(-t) if j == 0 else (-1) ** (j + 1) * ctx.exp(-t)

    return FunctionFamily("increasing", eval_deriv)


def test_builtin_families_catalog():
    fams = builtin_families()
    expected = {"lnminuspsi", "phi", "negR1prime"}
    expected.update("R:%d" % n for n in range(7))
    expected.update("negRprime:%d" % n for n in range(7))
    assert set(fams) == expected
    for name, fam in fams.items():
        assert isinstance(fam, FunctionFamily)
        assert fam.name == name


def test_phi_is_negR1prime():
    ctx = PrecisionContext(30)
    fams = builtin_families()
    t = ctx.mpf("0.75")
    for j in (0, 1, 2):
        a = fams["phi"].eval_deriv(ctx, j, t)
        b = fams["negR1prime"].eval_deriv(ctx, j, t)
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
    cache = {}
    assert cm_check(ctx, fam, 1, order=6, grid=COARSE, _cache=cache).passed
    res = cm_check(ctx, fam, "1.2", order=6, grid=COARSE, _cache=cache)
    assert not res.passed
    # t^{alpha-1} leading behaviour near 0 breaks the first derivative
    assert res.order == 1
    assert res.t < 1


@pytest.mark.parametrize("digits", [30, 60])
def test_lnminuspsi_derivs_match_mpmath_oracle(digits):
    # h = ln t - psi(t) and its derivatives h^(j), j <= 8, against mpmath's
    # psi^(j) at enough extra digits to absorb ln t - psi(t) ~ 1/(2t):
    # relative 10^-(digits-3) also at t = 1e12, where ln t - psi cancels
    ctx = PrecisionContext(digits)
    fam = builtin_families()["lnminuspsi"]
    points = (1e-8, 0.5, 40, 1e6, 1e12)
    want = {}
    with mpmath.workdps(digits + 40):
        for t in points:
            tv = mpmath.mpf(t)
            for j in range(9):
                lead = mpmath.ln(tv) if j == 0 else (-1) ** (j - 1) * mpmath.factorial(j - 1) / tv**j
                want[j, t] = lead - mpmath.polygamma(j, tv)

    def off(got, j, t):
        with mpmath.workdps(digits + 10):
            return abs(mpmath.mpf(got) - want[j, t]) > mpmath.mpf(10) ** (3 - digits) * abs(want[j, t])

    failures = [(j, t) for t in points for j in range(9) if off(fam.eval_deriv(ctx, j, t), j, t)]
    assert not failures, failures
    # the jet of orders 0..8 at once
    for t in points:
        jet = fam.eval_jet(ctx, 0, 8, t)
        failures += [("jet", j, t) for j in range(9) if off(jet[j], j, t)]
    assert not failures, failures


def test_cm_check_cache_is_shared():
    ctx = PrecisionContext(30)
    fam = builtin_families()["lnminuspsi"]
    cache = {}
    cm_check(ctx, fam, 1, order=3, grid=COARSE, _cache=cache)
    filled = len(cache)
    assert filled > 0
    assert all(isinstance(k, tuple) and len(k) == 2 for k in cache)
    # a second alpha on the same grid reuses every stored derivative
    cm_check(ctx, fam, "0.7", order=3, grid=COARSE, _cache=cache)
    assert len(cache) == filled


def test_cm_check_validation():
    ctx = PrecisionContext(30)
    fam = builtin_families()["lnminuspsi"]
    with pytest.raises(DomainError):
        cm_check(ctx, fam, -0.5, grid=COARSE)
    with pytest.raises(DomainError):
        cm_check(ctx, fam, 1, order=13, grid=COARSE)
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

    def eval_deriv(ctx_, j, t):
        return -ctx_.exp(-t) if j % 2 == 0 else ctx_.exp(-t)

    fam = FunctionFamily("negative", eval_deriv)
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

    def eval_deriv(ctx, j, t):
        calls.append((j, t))
        return (-1) ** j * math.factorial(j) * ctx.mpf(t) ** (-j - 1)

    fam = FunctionFamily("counted-inverse", eval_deriv)
    for hi in (2, None):
        with pytest.raises(DomainError, match="resolution"):
            degree_estimate(ctx, fam, 0, hi, resolution="1e-30", order=2, grid=COARSE)
    assert calls == []


def counted(family, jets, derivs):
    """``family`` with every jet and single-order call recorded."""

    def eval_deriv(ctx, j, t):
        derivs.append((j, t))
        return family.eval_deriv(ctx, j, t)

    def eval_jet(ctx, j_lo, j_hi, t):
        jets.append((j_lo, j_hi, t))
        return family.eval_jet(ctx, j_lo, j_hi, t)

    return FunctionFamily(family.name, eval_deriv, family.max_order, eval_jet=eval_jet)


def test_degree_estimate_fills_cache_with_one_jet_per_point():
    ctx = PrecisionContext(30)
    fam = builtin_families()["negRprime:2"]
    jets, derivs = [], []
    bracket = degree_estimate(
        ctx, counted(fam, jets, derivs), resolution=0.1, order=6, grid=COARSE
    )
    assert derivs == []
    assert [(lo, hi) for lo, hi, _ in jets] == [(0, 6)] * COARSE.count
    assert [t for _, _, t in jets] == COARSE.points(ctx)
    # the same bracket as the family's own derivatives give one at a time
    single = FunctionFamily(fam.name, fam.eval_deriv, fam.max_order)
    other = degree_estimate(ctx, single, resolution=0.1, order=6, grid=COARSE)
    assert (bracket.passed_alpha, bracket.failed_alpha) == (other.passed_alpha, other.failed_alpha)
    assert abs(bracket.first_deriv_bound - other.first_deriv_bound) < ctx.mpf(10) ** (-25)


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


def test_cm_check_jet_and_single_orders_agree():
    # the jet path and the one-order path fill the same scaled cache
    ctx = PrecisionContext(30)
    fam = builtin_families()["negRprime:3"]
    single = FunctionFamily(fam.name, fam.eval_deriv, fam.max_order)
    for alpha in ("5", "5.9", "6.5"):
        a = cm_check(ctx, fam, alpha, order=6, grid=COARSE)
        b = cm_check(ctx, single, alpha, order=6, grid=COARSE)
        assert (a.passed, a.order, a.t) == (b.passed, b.order, b.t)
        if not a.passed:
            assert abs(a.value - b.value) <= ctx.mpf(10) ** (-25) * abs(b.value)


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
