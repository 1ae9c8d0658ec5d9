"""Numerical complete-monotonicity checking and degree bracketing.

Every family tends to 0 at infinity, so h itself is tested for complete
monotonicity after multiplication by t^alpha: g(t) = t^alpha h(t) and the
check requires (-1)^j g^(j)(t) >= 0 for every derivative order j <= J on
every point of a grid.  The degree of h is the largest
alpha for which g stays completely monotonic, so a bisection on alpha
between a passing and a failing endpoint brackets it.

The check is one-sided by construction: a failure is a certificate (an
explicit (j, t) witness up to rounding, and reported undecided where it
lies inside its sum's rounding noise), while a pass only says no
violation was visible at this grid, derivative order and tolerance.
Degree brackets inherit that asymmetry; ``passed_alpha`` can overshoot
the true degree when the grid misses the violating region, which is why
the grid reaches far into both tails by default.

g^(j) is assembled by the Leibniz rule from exact derivatives of t^alpha
and the family's own derivatives, so no numerical differentiation happens
anywhere; families supply analytic derivatives to order ``max_order``.
The jet table of a bracket holds each grid point's scaled values
H_l = t^l h^(l)(t), so that

    g^(j)(t) = t^(alpha-j) sum_i C(j,i) <alpha>_i H_(j-i)(t):

the coefficients C(j,i) <alpha>_i are made once per alpha.  t^(alpha-j)
is positive, so only the sign of the sum decides a pass, and one rule
decides it.  A row of H and the coefficients of an order are each held as
exact integers at their least binary exponent, so the sum S of the mpf
products is one exact integer sum, with no rounding of its own.
(-1)^j S >= 0 passes.  A negative one is a decided failure where |S|
exceeds 10^(3-digits) times the sum of its terms' absolute values, the
radius of the inputs' rounding, and undecided otherwise.  Only a failing
pair pays for t^(alpha-j): t^alpha times 1/t, j times over.

A family answers with a jet, every order 0..J at once, so a grid point's
first need fills its whole row from one call.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BracketError, DomainError, check_int
from .precision import GridSpec, PrecisionContext
from .remainders import _MAX_DERIV, remainder_jet

__all__ = [
    "DEFAULT_GRID",
    "FunctionFamily",
    "CMCheckResult",
    "DegreeBracket",
    "builtin_families",
    "cm_check",
    "first_deriv_bound",
    "degree_estimate",
    "conjecture_probe",
]

logger = logging.getLogger(__name__)

#: log-spaced default grid; the low end is deep enough that the power-law
#: behaviour of every built-in family near 0 is visible to the check
DEFAULT_GRID = GridSpec(1e-10, 1e3, 400)

#: grid used by :func:`conjecture_probe`
PROBE_GRID = GridSpec(1e-8, 1e3, 300)


@dataclass(frozen=True)
class FunctionFamily:
    """A function together with its analytic derivatives.

    ``eval_deriv(ctx, top, t)`` returns [h(t), h'(t), ..., h^(top)(t)]
    from one evaluation, for 0 <= top <= ``max_order``; h must tend to 0
    at infinity.
    """

    name: str
    eval_deriv: Callable
    max_order: int


@dataclass
class CMCheckResult:
    """Outcome of one t^alpha-weighted monotonicity sweep.

    On failure, ``order``/``t``/``value`` hold the first decided witness
    in scan order (derivative order outer, grid ascending inner).  Where
    every failure lies inside the rounding noise of its sum, they hold the
    first of those and ``undecided`` is set.
    """

    passed: bool
    order: Optional[int] = None
    t: object = None
    value: object = None
    undecided: bool = False

    def __bool__(self):
        return self.passed


@dataclass
class DegreeBracket:
    """Bisection output: alpha still passing, alpha already failing, and
    whether the check that failed at ``failed_alpha`` was undecided."""

    passed_alpha: object
    failed_alpha: object
    order_used: int
    grid: GridSpec
    first_deriv_bound: object
    failed_undecided: bool = False

    @property
    def width(self):
        return self.failed_alpha - self.passed_alpha

    def __contains__(self, x):
        return self.passed_alpha <= x <= self.failed_alpha


def _aligned(xs):
    """(ms, low) with xs[i] == ms[i] 2^low exactly: the signed mantissas of
    the finite mpfs ``xs`` shifted to their least exponent."""
    parts = [x._mpf_ for x in xs]
    low = min((e for _, m, e, _ in parts if m), default=0)
    return [(-m if sign else m) << (e - low) for sign, m, e, _ in parts], low


class _JetTable:
    """One family's scaled jet H_l = t^l h^(l)(t) at each point of one grid.
    A row holds the mpfs H_0, H_1, ... and their exact integers M_l with
    H_l = M_l 2^low at the row's least exponent.  A point's first need
    fills its row from one jet; a later, higher ``top`` appends the rest
    and aligns the row again."""

    def __init__(self, ctx, family, grid):
        self.key = (ctx, family, grid)
        self.points = grid.points(ctx)
        self.rows = [([], [], 0) for _ in self.points]

    def row(self, idx, top):
        """(mpfs, integers, low) at grid point ``idx``, holding at least
        H_0..H_top.  A non-finite H is a :class:`DomainError`."""
        row = self.rows[idx]
        hs = row[0]
        if len(hs) <= top:
            ctx, family, _ = self.key
            t = self.points[idx]
            tl = ctx.mpf(1)
            for l, h in zip(range(top + 1), family.eval_deriv(ctx, top, t), strict=True):
                if l == len(hs):
                    hs.append(ctx.mpf(h) * tl)
                    if not ctx.isfinite(hs[-1]):
                        raise DomainError("%s: H_%d is %s at t=%s" % (family.name, l, hs[-1], t))
                tl *= t
            row = self.rows[idx] = (hs, *_aligned(hs))
        return row


def _table(ctx, family, grid, table):
    """``table``, or a new one where it is None.  A table made for another
    context, family or grid is a :class:`DomainError`."""
    if table is None:
        table = _JetTable(ctx, family, grid)
    if not (isinstance(table, _JetTable) and table.key == (ctx, family, grid)):
        raise DomainError("_cache is no jet table of %s on this context and grid" % family.name)
    return table


def cm_check(
    ctx: PrecisionContext,
    family: FunctionFamily,
    alpha,
    order: int = 8,
    grid: GridSpec = DEFAULT_GRID,
    _cache=None,
) -> CMCheckResult:
    """Test (-1)^j [t^alpha h]^(j) >= 0 for all j <= order on the grid.

    Each (j, t) pair is decided by one exact integer sum of its Leibniz
    terms, from the jet table's integer rows and the order's integer
    coefficients, and t^(alpha-j) is computed only where that sum has the
    wrong sign.  A failing pair whose sum lies within 10^(3-digits) of the
    sum of its terms' absolute values is undecided: each H and coefficient
    is within 10^(3-digits) relative, so its sign may be rounding.  The
    scan goes on past it; a decided failure is returned at once, and where
    only undecided ones turn up the result is the first of them.

    ``_cache`` may be a jet table of this context, family and grid, shared
    between calls: its jets dominate the cost of scanning many alphas.
    """
    if not isinstance(family, FunctionFamily):
        raise DomainError("cm_check needs a FunctionFamily, got %r" % (family,))
    order = check_int(order, "derivative order")
    if order > family.max_order:
        raise DomainError(
            "family %s supplies derivatives up to order %d, requested %d"
            % (family.name, family.max_order, order)
        )
    alpha0 = ctx.mpf(alpha)
    if not (ctx.isfinite(alpha0) and alpha0 >= 0):
        raise DomainError("alpha must be finite and >= 0, got %s" % alpha0)
    table = _table(ctx, family, grid, _cache)
    scale = 10 ** (ctx.digits - 3)
    undecided = None

    # coef[j] = C(j,i) <alpha>_i for i <= j, with d^i/dt^i t^alpha = <alpha>_i
    # t^(alpha-i), as exact integers at order j's least exponent
    fall = [ctx.mpf(1)]
    for i in range(1, order + 1):
        fall.append(fall[-1] * (alpha0 - (i - 1)))
    coef = [_aligned([math.comb(j, i) * fall[i] for i in range(j + 1)]) for j in range(order + 1)]

    for j, (cj, low_c) in enumerate(coef):
        negate = j % 2 == 1
        for idx, t in enumerate(table.points):
            _, ms, low = table.row(idx, order)
            prods = list(map(operator.mul, cj, ms[j::-1]))
            s = sum(prods)
            if (-s if negate else s) >= 0:
                continue
            decided = abs(s) * scale > sum(map(abs, prods))
            if not decided and undecided is not None:
                continue
            # t^(alpha-j) as t^alpha times 1/t, j times over
            tpow = ctx.power(t, alpha0)
            tinv = 1 / t
            for _ in range(j):
                tpow *= tinv
            signed = ctx.from_fixed(-s if negate else s, -(low_c + low)) * tpow
            if decided:
                return CMCheckResult(False, j, +t, signed)
            undecided = CMCheckResult(False, j, +t, signed, undecided=True)
    return CMCheckResult(True) if undecided is None else undecided


def first_deriv_bound(
    ctx: PrecisionContext,
    family: FunctionFamily,
    grid: GridSpec = DEFAULT_GRID,
    _cache=None,
):
    """inf over the grid of -t h'(t) / h(t).

    Any alpha above this value fails the j = 1 check at the minimizing
    grid point, so it is a grid-certified upper bound for ``passed_alpha``
    (up to tolerance).  Points where h is not positive are skipped.
    """
    table = _table(ctx, family, grid, _cache)
    best = None
    for idx in range(len(table.points)):
        hs = table.row(idx, 1)[0]
        if not hs[0] > 0:
            continue
        val = -hs[1] / hs[0]
        if best is None or val < best:
            best = val
    if best is None:
        raise DomainError(
            "first_deriv_bound: %s is nonpositive on the whole grid" % family.name
        )
    return best


def _check_resolution(ctx, res, *ends):
    scale = max([1] + [abs(e) for e in ends if e is not None])
    if res < ctx.eps * scale:
        raise DomainError(
            "resolution %s is below the spacing of %d-digit numbers near %s"
            % (res, ctx.digits, scale)
        )


def degree_estimate(
    ctx: PrecisionContext,
    family: FunctionFamily,
    alpha_lo=0,
    alpha_hi=None,
    resolution=0.05,
    order: int = 8,
    grid: GridSpec = DEFAULT_GRID,
) -> DegreeBracket:
    """Bisect alpha between a passing and a failing endpoint.

    ``alpha_lo`` must pass and ``alpha_hi`` must fail, otherwise a
    :class:`BracketError` reports the offending endpoint (with the failure
    witness where there is one, and whether it is undecided).  An undecided
    check bisects as a failure, and ``failed_undecided`` says whether the
    check at the failing end was one.  Without ``alpha_hi`` the failing end
    is the first integer above max(``first_deriv_bound``, ``alpha_lo``) +
    ``resolution``: every alpha above the bound fails the j = 1 check.  The
    returned bracket has width at most ``resolution``.  A non-finite end
    or an ``order`` below 1 (order 0 ignores alpha) is a :class:`DomainError`,
    and so is a resolution below the working precision's spacing near the
    ends, raised before any evaluation when both ends are given.
    """
    order = check_int(order, "derivative order", 1)
    lo = ctx.mpf(alpha_lo)
    hi = None if alpha_hi is None else ctx.mpf(alpha_hi)
    for name, end in (("alpha_lo", lo), ("alpha_hi", hi)):
        if end is not None and not ctx.isfinite(end):
            raise DomainError("%s must be finite, got %s" % (name, end))
    res = ctx.positive(resolution, "degree_estimate", "resolution")
    if hi is not None and not lo < hi:
        raise DomainError("need alpha_lo < alpha_hi, got %s >= %s" % (lo, alpha_hi))
    _check_resolution(ctx, res, lo, hi)
    table = _JetTable(ctx, family, grid)

    r_lo = cm_check(ctx, family, lo, order=order, grid=grid, _cache=table)
    if not r_lo.passed:
        raise BracketError(
            "alpha_lo=%s already fails for %s: derivative %s at t=%s gave %s%s"
            % (
                lo,
                family.name,
                r_lo.order,
                r_lo.t,
                r_lo.value,
                ", inside its rounding noise (undecided)" if r_lo.undecided else "",
            )
        )
    bound = first_deriv_bound(ctx, family, grid=grid, _cache=table)
    if hi is None:
        hi = ctx.mpf(int(max(bound, lo) + res) + 1)
        _check_resolution(ctx, res, lo, hi)
    logger.info("degree_estimate(%s): bisecting alpha in [%s, %s]", family.name, lo, hi)
    r_hi = cm_check(ctx, family, hi, order=order, grid=grid, _cache=table)
    if r_hi.passed:
        raise BracketError(
            "alpha_hi=%s still passes for %s; the bracket must straddle the degree"
            % (hi, family.name)
        )

    undecided = r_hi.undecided
    while hi - lo > res:
        mid = (lo + hi) / 2
        r_mid = cm_check(ctx, family, mid, order=order, grid=grid, _cache=table)
        if r_mid.passed:
            lo = mid
        else:
            hi, undecided = mid, r_mid.undecided
    return DegreeBracket(lo, hi, order, grid, bound, undecided)


# -- built-in families ------------------------------------------------


def _lnminuspsi_jet(ctx, top, t):
    """ln t - psi(t) = 1/(2t) - R_0'(t): its j-th derivative is
    (-1)^j j!/(2 t^(j+1)) - R_0^(j+1)(t), and (-1)^j times it is a sum of
    two positive terms, as both parts are completely monotonic."""
    t = ctx.mpf(t)
    rs = remainder_jet(ctx, 0, 1, top + 1, t)
    return [(-1) ** j * math.factorial(j) / (2 * t ** (j + 1)) - r for j, r in enumerate(rs)]


def _remainder_family(name, n, m):
    """The family (-1)^m R_n^(m), whose j-th derivative is (-1)^m R_n^(m+j)."""
    sign = -1 if m % 2 else 1

    def eval_deriv(ctx, top, t):
        return [sign * v for v in remainder_jet(ctx, n, m, m + top, t)]

    return FunctionFamily(name, eval_deriv, _MAX_DERIV - m)


def builtin_families() -> dict:
    """Name -> family for the functions this package studies.

    ``lnminuspsi`` is ln t - psi(t) (degree 1); ``phi`` is -R_1' (degree
    2), as is ``negRprime:1``; ``R:n`` and ``negRprime:n`` for n = 0..6
    are R_n and -R_n'.  All tend to 0 at infinity.  The j-th derivative
    of (-1)^m R_n^(m) reads R_n^(m+j), and that of ``lnminuspsi`` reads
    R_0^(j+1), so ``max_order`` is remainders' one cap ``_MAX_DERIV``
    less m, or less 1.
    """
    fams = {
        "lnminuspsi": FunctionFamily("lnminuspsi", _lnminuspsi_jet, _MAX_DERIV - 1),
        "phi": _remainder_family("phi", 1, 1),
    }
    for n in range(7):
        fams["R:%d" % n] = _remainder_family("R:%d" % n, n, 0)
        fams["negRprime:%d" % n] = _remainder_family("negRprime:%d" % n, n, 1)
    return fams


def conjecture_probe(
    ctx: PrecisionContext,
    n,
    m,
    order: int = 6,
    grid: GridSpec = PROBE_GRID,
    resolution=0.1,
) -> DegreeBracket:
    """EXPLORATORY bracket for the degree of (-1)^m R_n^(m).

    Bisects from :func:`degree_estimate`'s default start.  Only the cases
    with proved degrees (small n, m) are certificates; everything else is
    a finite-grid observation, and the log record says so.
    """
    n = check_int(n, "conjecture_probe n", 0, 6)
    m = check_int(m, "conjecture_probe m", 0, 4)
    fam = _remainder_family("probe:R%d^(%d)" % (n, m), n, m)
    bracket = degree_estimate(ctx, fam, resolution=resolution, order=order, grid=grid)
    logger.info(
        "conjecture_probe(n=%d, m=%d): EXPLORATORY bracket [%s, %s]; "
        "a pass is only as strong as the grid and order=%d allow",
        n,
        m,
        bracket.passed_alpha,
        bracket.failed_alpha,
        order,
    )
    return bracket
