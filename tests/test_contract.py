"""The argument contract: every integer parameter goes through
``errors.check_int`` and every positive real or tolerance through
``PrecisionContext.positive``.  A bad argument is a DomainError that names
the parameter, raised before any evaluation; 2.5 is never read as 2."""

import time
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
    bose_moment,
    builtin_families,
    cm_check,
    conjecture_probe,
    cos_kernel_integral,
    degree_estimate,
    f_kernel,
    laplace,
    polygamma,
    remainder,
    remainder_deriv,
    remainder_jet,
    remark3_inequalities,
    sign_scan,
    sin_kernel_integral,
    stirling2,
    tail_limits,
    verify_degree_representation,
    zeta_even,
)
from cmlab.errors import check_int

INF = float("inf")
NAN = float("nan")

# -- check_int ----------------------------------------------------------


@pytest.mark.parametrize(
    "x", [3, 3.0, mpmath.mpf(3), Fraction(6, 2)], ids=["int", "float", "mpf", "Fraction"]
)
def test_check_int_accepts_integral_values(x):
    k = check_int(x, "index n", 0, 5)
    assert k == 3
    assert type(k) is int


@pytest.mark.parametrize(
    "x",
    [2.5, mpmath.mpf("2.5"), INF, NAN, "3", None, -1, 6],
    ids=["2.5", "mpf-2.5", "inf", "nan", "str", "None", "lo-1", "hi+1"],
)
def test_check_int_rejects_and_names_the_parameter(x):
    with pytest.raises(DomainError, match="index n must be an integer in \\[0, 5\\]"):
        check_int(x, "index n", 0, 5)


def test_check_int_without_upper_end():
    assert check_int(10**30, "count", 2) == 10**30
    with pytest.raises(DomainError, match="count must be an integer >= 2, got 1"):
        check_int(1, "count", 2)


# -- the public API -------------------------------------------------------

CTX = PrecisionContext(30)
TOL = CTX.mpf(10) ** (-20)
PHI = builtin_families()["phi"]
SMALL = GridSpec(1, 2, 3)


def _one(v):
    return CTX.mpf(1)


# (id, call, what the DomainError names)
INTEGER_ROWS = [
    ("polygamma-m", lambda: polygamma(CTX, 2.5, 1), "polygamma order m"),
    ("f_kernel-n", lambda: f_kernel(CTX, 2.5, 1), "f_kernel n"),
    ("bose_derivative-k", lambda: bose_derivative(CTX, 2.5, 1), "bose_derivative order k"),
    ("K_kernel-m", lambda: K_kernel(CTX, 2.5, 1), "K_kernel order m"),
    ("sign_scan-m", lambda: sign_scan(CTX, 2.5, SMALL), "sign_scan order m"),
    ("cm_check-order", lambda: cm_check(CTX, PHI, 1, order=2.5, grid=SMALL), "derivative order"),
    (
        "degree_estimate-order-0",
        lambda: degree_estimate(CTX, PHI, 1, 3, order=0, grid=SMALL),
        "derivative order must be an integer >= 1",
    ),
    ("conjecture_probe-n", lambda: conjecture_probe(CTX, 2.5, 1), "conjecture_probe n"),
    ("conjecture_probe-m", lambda: conjecture_probe(CTX, 1, 2.5), "conjecture_probe m"),
    ("remainder-n", lambda: remainder(CTX, 2.5, 1), "truncation order n"),
    ("remainder_deriv-j", lambda: remainder_deriv(CTX, 1, 2.5, 1), "derivative order j_hi"),
    ("remainder_jet-j_lo", lambda: remainder_jet(CTX, 1, 0.5, 2, 1), "derivative order j_lo"),
    ("tail_limits-n", lambda: tail_limits(CTX, 2.5), "tail_limits order n"),
    # each of these truncated its argument before (and "30" was read as 30)
    ("bernoulli-n", lambda: bernoulli(2.5), "bernoulli index n"),
    ("stirling2-k", lambda: stirling2(2.5, 1), "stirling2 k"),
    ("stirling2-p", lambda: stirling2(3, 1.5), "stirling2 p"),
    ("zeta_even-n", lambda: zeta_even(1.5), "zeta_even n"),
    (
        "cos_kernel_integral-n",
        lambda: cos_kernel_integral(CTX, 2.5, 1, TOL),
        "cos_kernel_integral n",
    ),
    (
        "sin_kernel_integral-p",
        lambda: sin_kernel_integral(CTX, 2.5, 1, TOL),
        "sin_kernel_integral p",
    ),
    (
        "laplace-budget",
        lambda: laplace(CTX, _one, 1, TOL, budget=50.5, kernel_bound=1),
        "evaluation budget",
    ),
    ("bose_moment-budget", lambda: bose_moment(CTX, 3, TOL, budget=50.5), "evaluation budget"),
    (
        "cos_kernel_integral-budget",
        lambda: cos_kernel_integral(CTX, 1, 1, TOL, budget=50.5),
        "evaluation budget",
    ),
    (
        "sin_kernel_integral-budget",
        lambda: sin_kernel_integral(CTX, 2, 1, TOL, budget=50.5),
        "evaluation budget",
    ),
    (
        "verify_degree_representation-n",
        lambda: verify_degree_representation(CTX, 1.5, 10, CTX.mpf(10) ** -8),
        "verify_degree_representation n",
    ),
    (
        "remark3_inequalities-n",
        lambda: remark3_inequalities(CTX, 1.5, SMALL),
        "remark3_inequalities n",
    ),
    ("PrecisionContext-digits", lambda: PrecisionContext(30.5), "PrecisionContext digits"),
    ("PrecisionContext-str", lambda: PrecisionContext("30"), "PrecisionContext digits"),
    ("GridSpec-count", lambda: GridSpec(1, 2, 2.5), "GridSpec count"),
]

REAL_ROWS = [
    (
        "laplace-t-inf",
        lambda: laplace(CTX, _one, INF, TOL, kernel_bound=1),
        "laplace requires finite t",
    ),
    ("bose_moment-s-inf", lambda: bose_moment(CTX, INF, TOL), "bose_moment requires finite s"),
    ("bose_moment-s-nan", lambda: bose_moment(CTX, NAN, TOL), "bose_moment requires finite s"),
    (
        "sin_kernel_integral-s-inf",
        lambda: sin_kernel_integral(CTX, 2, INF, TOL),
        "sin_kernel_integral requires finite s",
    ),
    (
        "cos_kernel_integral-v-inf",
        lambda: cos_kernel_integral(CTX, 1, INF, TOL),
        "cos_kernel_integral requires finite v = 0 or v > 0",
    ),
    (
        "cos_kernel_integral-v-negative",
        lambda: cos_kernel_integral(CTX, 1, -1, TOL),
        "cos_kernel_integral requires finite v = 0 or v > 0",
    ),
    (
        "verify_degree_representation-t-nan",
        lambda: verify_degree_representation(CTX, 1, NAN, TOL),
        "verify_degree_representation requires finite t",
    ),
    (
        "degree_estimate-resolution-inf",
        lambda: degree_estimate(CTX, PHI, 1, 3, resolution=INF, grid=SMALL),
        "degree_estimate requires finite resolution",
    ),
]

TOL_ROWS = [
    (
        "laplace-tol-0",
        lambda: laplace(CTX, _one, 1, 0, kernel_bound=1),
        "laplace requires finite tol",
    ),
    (
        "laplace-tol-nan",
        lambda: laplace(CTX, _one, 1, NAN, kernel_bound=1),
        "laplace requires finite tol",
    ),
    ("bose_moment-tol-0", lambda: bose_moment(CTX, 3, 0), "bose_moment requires finite tol"),
    (
        "cos_kernel_integral-tol-negative",
        lambda: cos_kernel_integral(CTX, 1, 1, -1),
        "cos_kernel_integral requires finite tol",
    ),
    (
        "sin_kernel_integral-tol-0",
        lambda: sin_kernel_integral(CTX, 2, 1, 0),
        "sin_kernel_integral requires finite tol",
    ),
    (
        "verify_degree_representation-tol-0",
        lambda: verify_degree_representation(CTX, 1, 1, 0),
        "verify_degree_representation requires finite tol",
    ),
]


@pytest.mark.parametrize(
    "call,what",
    [row[1:] for row in INTEGER_ROWS + REAL_ROWS],
    ids=[row[0] for row in INTEGER_ROWS + REAL_ROWS],
)
def test_bad_argument_is_a_domain_error_naming_it(call, what):
    with pytest.raises(DomainError, match=what):
        call()


@pytest.mark.parametrize(
    "call,what", [row[1:] for row in TOL_ROWS], ids=[row[0] for row in TOL_ROWS]
)
def test_bad_tolerance_raises_before_any_evaluation(call, what):
    # before, each of these ran until its panels or its evaluation budget ran out
    start = time.perf_counter()
    with pytest.raises(DomainError, match=what):
        call()
    assert time.perf_counter() - start < 0.5


def test_laplace_checks_its_arguments_before_calling_the_kernel():
    calls = []

    def kernel(v):
        calls.append(v)
        return CTX.mpf(1)

    for t, tol in ((INF, TOL), (1, 0), (1, -TOL)):
        with pytest.raises(DomainError):
            laplace(CTX, kernel, t, tol, kernel_bound=1)
    # before, a negative bound returned the first panel alone, and nan ran
    # until the panels ran out
    for bound in (-1, 0, NAN):
        with pytest.raises(DomainError, match="laplace requires finite kernel_bound"):
            laplace(CTX, kernel, 1, TOL, kernel_bound=bound)
    assert calls == []
