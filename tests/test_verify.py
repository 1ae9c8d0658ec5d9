"""The identity checks of ``cmlab.verify``: Binet's second formula and
the psi integral against the series evaluators, the Laplace representation
of -R_n', and the Remark 3 inequalities."""

from fractions import Fraction

import pytest

from cmlab import (
    DomainError,
    GridSpec,
    PrecisionContext,
    K_kernel,
    bernoulli,
    binet_check,
    kernels,
    psi_integral_check,
    remark3_inequalities,
    verify_degree_representation,
)
from cmlab.verify import run_suite


# -- integral formulas for ln Gamma and psi ------------------------------


@pytest.mark.parametrize("t", ["1", "10"])
def test_binet_integral_agrees(t):
    ctx = PrecisionContext(30)
    assert binet_check(ctx, t) < ctx.mpf(10) ** (-17)


@pytest.mark.parametrize("t", ["1", "10"])
def test_psi_integral_agrees(t):
    ctx = PrecisionContext(30)
    assert psi_integral_check(ctx, t) < ctx.mpf(10) ** (-17)


# -- Laplace representation and Remark 3 ---------------------------------


def test_verify_degree_representation_fast_case():
    ctx = PrecisionContext(25)
    dev = verify_degree_representation(ctx, 1, 10, ctx.mpf(10) ** (-15))
    assert dev < ctx.mpf(10) ** (-15)


def test_verify_degree_representation_domain():
    ctx = PrecisionContext(25)
    tol = ctx.mpf(10) ** (-15)
    with pytest.raises(DomainError):
        verify_degree_representation(ctx, 0, 1, tol)
    with pytest.raises(DomainError):
        verify_degree_representation(ctx, 1, 0, tol)


@pytest.mark.parametrize("n,exact", [(1, Fraction(1, 24)), (2, Fraction(1, 240))])
def test_remark3_report(n, exact):
    ctx = PrecisionContext(30)
    report = remark3_inequalities(ctx, n, GridSpec(1e-2, 1e2, 40))
    assert report.bound_exact == exact
    assert report.all_hold
    assert not report.violations
    assert len(report.max_abs_lhs) == len(report.min_margin) == len(report.argmin) == 2
    for margin in report.min_margin:
        assert margin > 0
    for lhs in report.max_abs_lhs:
        assert lhs < report.bound


def test_remark3_margin_is_two_sided():
    # for n >= 2 the moment goes negative: at n = 2 it reaches -1.259e-3
    # near v = 4.74, against the bound 1/240, so the margin there is
    # bound - |lhs|, not bound - lhs
    ctx = PrecisionContext(30)
    report = remark3_inequalities(ctx, 2, GridSpec(4.5, 5, 3))
    tol = ctx.mpf(10) ** (-25)
    for route in range(2):
        assert abs(report.min_margin[route] - ctx.mpf("2.9076414190e-3")) < ctx.mpf(10) ** (-12)
        assert abs(report.max_abs_lhs[route] - ctx.mpf("1.2590252477e-3")) < ctx.mpf(10) ** (-12)
        assert report.min_margin[route] == report.bound - report.max_abs_lhs[route]
        v = report.argmin[route]
        lhs = (K_kernel(ctx, 3, v) - ctx.mpf(bernoulli(4)) / 4) / 2
        assert lhs < 0
        assert abs(report.max_abs_lhs[route] - abs(lhs)) < tol


def test_remark3_grid_below_the_float_range():
    # the closed form's boost is read from v's binary exponent, not from
    # float(v) = 0; as v -> 0+ both routes rise to the bound
    ctx = PrecisionContext(30)
    report = remark3_inequalities(ctx, 1, GridSpec("1e-400", "1e-300", 3))
    tol = ctx.mpf(10) ** (-25)
    for lhs in report.max_abs_lhs:
        assert abs(lhs - report.bound) < tol


def test_remark3_ties_at_the_bound_are_undecided():
    # at v = 1e-30 both routes meet the bound to every digit: margin 0 is
    # a tie inside the rounding noise, not a violation
    ctx = PrecisionContext(30)
    report = remark3_inequalities(ctx, 1, GridSpec(1e-30, 1e-29, 2))
    assert report.min_margin == [0, 0]
    assert report.all_hold
    assert report.violations == []
    assert sorted(route for route, _, _ in report.undecided) == [1, 1, 2, 2]


def test_remark3_violation_beyond_the_noise_is_decided(monkeypatch):
    # route 1's lhs pushed 1e-20 past the bound is a violation; route 2,
    # untouched, stays a tie
    real = kernels.K_kernel

    def pushed(ctx, m, v):
        return real(ctx, m, v) - 2 * ctx.mpf(10) ** -20

    monkeypatch.setattr(kernels, "K_kernel", pushed)
    ctx = PrecisionContext(30)
    report = remark3_inequalities(ctx, 1, GridSpec(1e-30, 1e-29, 2))
    assert not report.all_hold
    assert [route for route, _, _ in report.violations] == [1, 1]
    assert [route for route, _, _ in report.undecided] == [2, 2]


def test_remark3_records_count_undecided_margins():
    ctx = PrecisionContext(30)
    records = [r for r in run_suite(ctx, "remark3", True, False) if "violations" in r]
    assert [r["name"] for r in records] == ["remark3-n1", "remark3-n2"]
    for rec in records:
        assert rec["pass"] is True
        assert rec["violations"] == rec["undecided"] == 0


def test_remark3_domain():
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        remark3_inequalities(ctx, 0, GridSpec(1e-2, 1e2, 10))
