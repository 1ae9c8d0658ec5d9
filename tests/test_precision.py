"""Context arithmetic: conversions, checked functions, domain guards,
the shared boosted contexts, and the point grid."""

import random
import threading
from fractions import Fraction

import pytest

from cmlab import (
    DomainError,
    GridSpec,
    PrecisionContext,
    f_kernel,
    polygamma,
    precision,
    remainder_deriv,
)


def test_default_digits():
    ctx = PrecisionContext()
    assert ctx.digits == 50
    assert ctx.mpf(1) / 3 != 0


@pytest.mark.parametrize("digits", [14, 10, 0, -3])
def test_minimum_digits_enforced(digits):
    with pytest.raises(DomainError):
        PrecisionContext(digits)


def test_mpf_conversions():
    ctx = PrecisionContext(30)
    assert ctx.mpf(7) == 7
    assert ctx.mpf("0.5") == ctx.mpf(1) / 2
    assert ctx.mpf(0.25) == ctx.mpf(1) / 4
    # Fractions convert through exact integer parts, not through float;
    # 1 + 1e-25 survives at 30 digits but would vanish in a double
    third = ctx.mpf(Fraction(1, 3))
    assert abs(third - ctx.mpf(1) / 3) == 0
    big = ctx.mpf(Fraction(10**25 + 1, 10**25))
    assert big > 1


def test_cross_context_values_survive():
    lo = PrecisionContext(20)
    hi = PrecisionContext(60)
    x = hi.ln(2)
    again = lo.mpf(x)
    assert abs(again - x) < lo.mpf(10) ** (-18)


def test_boosted_adds_digits():
    ctx = PrecisionContext(25)
    assert ctx.boosted(15).digits == 40
    assert ctx.boosted(-5).digits == 25
    # the original context is untouched
    assert ctx.digits == 25


def test_boosted_contexts_are_shared_per_digit_count():
    ctx = PrecisionContext(25)
    assert ctx.boosted(7) is ctx.boosted(7)
    assert PrecisionContext(25).boosted(15) is PrecisionContext(30).boosted(10)
    # a context the caller builds is always its own
    assert PrecisionContext(40) is not ctx.boosted(15)
    assert PrecisionContext(40) is not PrecisionContext(40)


def test_boosted_contexts_are_per_thread():
    ctx = PrecisionContext(25)
    mine = ctx.boosted(15)
    theirs = []
    worker = threading.Thread(target=lambda: theirs.append(ctx.boosted(15)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(theirs) == 1
    assert theirs[0] is not mine
    assert theirs[0].digits == mine.digits == 40


def test_positive_boosts_land_on_the_ladder():
    # a positive boost rounds the total digits up to a multiple of 8: at
    # least the digits asked for, and fewer than 8 more
    for digits in range(15, 61):
        ctx = PrecisionContext(digits)
        assert ctx.boosted(0).digits == ctx.boosted(-3).digits == digits
        for extra in range(1, 41):
            got = ctx.boosted(extra).digits
            assert got % 8 == 0
            assert digits + extra <= got < digits + extra + 8, (digits, extra)


def test_cold_sweep_builds_few_shared_contexts():
    # polygamma m = 0..12 and remainder_deriv n <= 3, j <= 8 at 24 seeded
    # points, log-uniform over 1e-10..1e12, at 30 and 100 digits, in a
    # fresh thread so that the shared contexts it counts are its own.  The
    # boosts vary with t and the order; the ladder keeps the contexts they
    # land on few
    rng = random.Random(1)
    ts = [10 ** rng.uniform(-10, 12) for _ in range(24)]
    built = []

    def sweep():
        for digits in (30, 100):
            ctx = PrecisionContext(digits)
            for t in ts:
                for m in range(13):
                    polygamma(ctx, m, t)
                for n in range(4):
                    for j in range(9):
                        remainder_deriv(ctx, n, j, t)
        built.append(len(precision._SHARED.by_digits))

    worker = threading.Thread(target=sweep)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert built and built[0] <= 14, built


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda c: polygamma(c, 0, "0.3").value,
        lambda c: polygamma(c, 5, "7.5").est_error,
        lambda c: polygamma(c, 3, "2e4").value,
        lambda c: remainder_deriv(c, 1, 1, "0.01"),
        lambda c: remainder_deriv(c, 2, 4, "50"),
        lambda c: f_kernel(c, 2, "3"),  # closed branch (v >= 1/2)
    ],
)
def test_shared_context_gives_bit_identical_values(evaluate):
    shared = PrecisionContext(20).boosted(12)
    fresh = PrecisionContext(32)
    assert shared is not fresh
    # the raw mpf tuples: bit for bit, not only equal in value
    assert evaluate(shared)._mpf_ == evaluate(fresh)._mpf_


def test_eps_matches_digits():
    ctx = PrecisionContext(33)
    assert ctx.eps == ctx.mpf(10) ** (-33)


@pytest.mark.parametrize(
    "which,args",
    [
        ("ln", (0,)),
        ("ln", (-2,)),
        ("exp", ("inf",)),
        ("pow", (-1, "0.5")),
        ("pow", (0, 2)),
    ],
)
def test_domain_violations(which, args):
    ctx = PrecisionContext(20)
    method = getattr(ctx, "power" if which == "pow" else which)
    with pytest.raises(DomainError):
        method(*args)


def test_elementary_values():
    ctx = PrecisionContext(30)
    assert ctx.exp(0) == 1
    assert abs(ctx.power(2, 10) - 1024) == 0


def test_expm1_accurate_near_zero():
    ctx = PrecisionContext(40)
    x = ctx.mpf(10) ** (-30)
    rel = abs(ctx.expm1(x) - x) / x
    assert rel < ctx.mpf(10) ** (-25)


# -- grids -------------------------------------------------------------


def test_gridspec_points_are_log_spaced():
    ctx = PrecisionContext(30)
    grid = GridSpec(1e-2, 1e2, 5)
    pts = grid.points(ctx)
    assert len(pts) == 5
    # endpoints reproduce the stored (float) bounds, not their decimal look
    assert abs(pts[0] - ctx.mpf(1e-2)) < ctx.mpf(10) ** (-25)
    assert abs(pts[-1] - 100) < ctx.mpf(10) ** (-22)
    ratios = [pts[k + 1] / pts[k] for k in range(4)]
    for r in ratios[1:]:
        assert abs(r - ratios[0]) < ctx.mpf(10) ** (-20)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_min": 0, "t_max": 1, "count": 5},
        {"t_min": -1, "t_max": 1, "count": 5},
        {"t_min": 2, "t_max": 1, "count": 5},
        {"t_min": 1, "t_max": 2, "count": 1},
    ],
)
def test_gridspec_validation(kwargs):
    with pytest.raises(DomainError):
        GridSpec(**kwargs)


def test_gridspec_ends_below_the_float_range():
    # the ends are compared exactly: 1e-400 is not 0 just because a float is
    grid = GridSpec("1e-400", "1e-300", 3)
    ctx = PrecisionContext(20)
    pts = grid.points(ctx)
    assert len(pts) == 3
    assert abs(pts[0] / ctx.mpf("1e-400") - 1) < ctx.mpf(10) ** (-15)
    assert abs(pts[1] / ctx.mpf("1e-350") - 1) < ctx.mpf(10) ** (-15)
    with pytest.raises(DomainError, match="t_min < t_max"):
        GridSpec("1e-400", "1e-401", 3)
