"""The identity checks of ``cmlab.verify``: Binet's second formula and
the psi integral against the series evaluators, the Laplace representation
of -R_n', and the Remark 3 inequalities."""

from fractions import Fraction

import pytest

from cmlab import (
    DomainError,
    GridSpec,
    PrecisionContext,
    binet_check,
    psi_integral_check,
    remark3_inequalities,
    verify_degree_representation,
)


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
    assert len(report.max_lhs) == 3
    for margin in report.min_margin:
        assert margin > 0
    for lhs in report.max_lhs:
        assert lhs < report.bound


def test_remark3_grid_below_the_float_range():
    # the boost is read from v's binary exponent, not from float(v) = 0; as
    # v -> 0+ routes 1 and 2 rise to the bound and route 3, their negation,
    # falls to minus it
    ctx = PrecisionContext(30)
    report = remark3_inequalities(ctx, 1, GridSpec("1e-400", "1e-300", 3))
    tol = ctx.mpf(10) ** (-25)
    assert abs(report.max_lhs[0] - report.bound) < tol
    assert abs(report.max_lhs[1] - report.bound) < tol
    assert abs(report.max_lhs[2] + report.bound) < tol


def test_remark3_domain():
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError):
        remark3_inequalities(ctx, 0, GridSpec(1e-2, 1e2, 10))
