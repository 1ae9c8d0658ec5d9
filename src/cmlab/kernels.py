"""The Laplace kernel family f_n, Bose-factor derivatives, and the
assembled kernels K_m.

The base kernel is

    f_n(v) = (-1)^n [ 1/v - (1/2) coth(v/2) + sum_{k=1}^n B_{2k} v^{2k-1}/(2k)! ]

whose Laplace transform gives R_n'(t).  One routine evaluates f_n and
each derivative f_n^(ell); ``f_kernel`` is its ell = 0 case, and
``K_kernel`` its ell = m case up to sign.  Both branches read one exact
gammakit table per ell of a_k^(ell) = B_{2k} <2k-1>_ell/(2k)!.  Near the
origin the closed form cancels catastrophically, so below v = 1/2 the
Taylor series (-1)^{n+1} sum_{k>=n+1} a_k^(ell) v^{2k-1-ell} is summed
by gammakit's fixed-point series routine in w = v^2 < 1/4, stopped
relative to its first term.  Elsewhere (and where that series' second
term is not below its first, as for K_m with m near 30 and beyond just
under 1/2) the closed form runs under a precision boost sized to the
known cancellation.

High derivatives of 1/v - (1/2) coth(v/2) are never taken numerically:
the Bose factor 1/(e^v - 1) has the exact Stirling-number derivative
polynomial (``bose_derivative``), and the 1/v part differentiates in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorics import bernoulli, stirling2
from .errors import check_int
from .gammakit import _frac_coeffs, _log2, _series, _table
from .precision import GridSpec, PrecisionContext

__all__ = [
    "f_kernel",
    "bose_derivative",
    "K_kernel",
    "Remark1Chain",
    "remark1_chain",
    "SignReport",
    "sign_scan",
]

_SERIES_BRANCH = Fraction(1, 2)  # below this, Taylor series; above, closed form
_TWO_PI_FLOAT = 2 * math.pi


def _taylor(ell: int, k: int) -> Fraction:
    """a_k^(ell) = B_2k <2k-1>_ell/(2k)! = B_2k/(2k (2k-1-ell)!), the k-th
    Taylor coefficient of d^ell/dv^ell (1/v - (1/2) coth(v/2)) up to sign;
    zero when 2k-1 < ell."""
    if 2 * k - 1 < ell:
        return Fraction(0)
    return bernoulli(2 * k) / (2 * k * math.factorial(2 * k - 1 - ell))


def _closed_boost(m_like: int, v) -> int:
    """Digits lost to cancellation in the closed forms: roughly
    (order+2) * log10(2 pi / v) for v below 2 pi, plus a flat margin.  v's
    size is read from its binary exponent: float(v) underflows below
    1e-308."""
    if v >= _TWO_PI_FLOAT:
        return 10
    return int((m_like + 2) * (math.log10(_TWO_PI_FLOAT) - _log2(v) * math.log10(2))) + 10


def f_kernel(ctx: PrecisionContext, n: int, v):
    """Evaluate f_n(v) for integer n >= 0 and v > 0 (series below v = 1/2,
    closed form above)."""
    return _f_deriv(ctx, check_int(n, "f_kernel n"), 0, v)


def _f_deriv(ctx, n, ell, v):
    """d^ell/dv^ell of f_n at v > 0: the Taylor series below v = 1/2 where
    its terms shrink from the first on, the closed form elsewhere."""
    v0 = ctx.positive(v, "f_%d^(%d)" % (n, ell), "v")
    if v0 < ctx.mpf(_SERIES_BRANCH):
        # the series' second term over its first (K_m, m >~ 30: not below 1)
        tab = _table(_taylor, ell)
        _frac_coeffs(tab, n + 2)
        if tab.log2[n + 1] - tab.log2[n] + 2 * _log2(v0) < 0:
            return _f_series(ctx, n, v0, ell)
    return _f_closed(ctx, n, v0, ell)


def _f_series(ctx, n, v, ell):
    """d^ell/dv^ell of f_n = (-1)^{n+1} v^{2n+1-ell} sum_{k>n} a_k^(ell)
    w^{k-n-1} for ell <= 2n+1 and w = v^2 < 1/4 (a_k shrinks like
    (2 pi)^-2k)."""
    acc = _series(ctx, _table(_taylor, ell), n + 1, v * v, 2 * _log2(v))
    val = acc * v ** (2 * n + 1 - ell)
    return val if n % 2 else -val


def _f_closed(ctx, n, v, ell):
    """d^ell/dv^ell of f_n = (-1)^n [(-1)^ell ell!/v^(ell+1) - [ell = 0]/2 -
    d^ell/dv^ell 1/(e^v - 1) + sum_{k<=n} a_k^(ell) v^(2k-1-ell)], under a
    boost sized to the cancellation (the Bose factor via Stirling numbers)."""
    wctx = ctx.boosted(_closed_boost(2 * n if ell == 0 else ell + 1, v))
    vv = wctx.mpf(v)
    acc = (-1) ** ell * math.factorial(ell) / vv ** (ell + 1)
    if ell == 0:
        acc -= wctx.mpf(1) / 2
    acc -= bose_derivative(wctx, ell, vv)
    for k, a in enumerate(_frac_coeffs(_table(_taylor, ell), n), 1):
        if a:
            acc += wctx.mpf(a) * vv ** (2 * k - 1 - ell)
    return ctx.mpf(acc if n % 2 == 0 else -acc)


def _bose(k: int, p: int) -> int:
    """(p-1)! S(k+1, p), the p-th coefficient of the k-th Bose derivative."""
    return math.factorial(p - 1) * int(stirling2(k + 1, p))


def bose_derivative(ctx: PrecisionContext, k: int, v):
    """d^k/dv^k of 1/(e^v - 1), evaluated through the exact identity

        (-1)^k sum_{p=1}^{k+1} (p-1)! S(k+1, p) (e^v - 1)^{-p}

    All inner terms share one sign, so there is no cancellation.
    """
    k = check_int(k, "bose_derivative order k")
    v0 = ctx.positive(v, "bose_derivative", "v")
    u = 1 / ctx.expm1(v0)
    if k == 0:
        return u
    acc = ctx.mpf(0)
    for c in reversed(_frac_coeffs(_table(_bose, k), k + 1)):
        acc = (acc + c) * u
    return acc if k % 2 == 0 else -acc


def K_kernel(ctx: PrecisionContext, m: int, v):
    """K_m(v) for m >= 1: the m-th derivative of 1/v - (1/2) coth(v/2),
    plus B_{2n}/(2n) when m = 2n-1 is odd (nothing is added for even m).

    Closed form for v >= 1/2 (derivative of 1/v exactly, Bose factor via
    the Stirling identity); termwise-differentiated Taylor series below.
    """
    m = check_int(m, "K_kernel order m", 1)
    # K_m = (-1)^n f_n^(m) with n = (m+1)//2: the falling factorials in
    # f_n^(m) kill every k < n term, and for odd m = 2n-1 the k = n term is
    # exactly the added constant, while for even m it vanishes too
    n = (m + 1) // 2
    sign = 1 if n % 2 == 0 else -1
    return sign * _f_deriv(ctx, n, m, v)


@dataclass
class Remark1Chain:
    """The five exponential-polynomial expressions of the second-kernel
    positivity chain: expr1 is the derivative of (e^v-1)^3 v^3 K_2(v),
    expr2..expr5 are the successive derivatives of expr1 * e^{-v}.

    The first four vanish as v -> 0+; expr5 is positive on (0, inf),
    which closes the chain.
    """

    v: object
    expr1: object
    expr2: object
    expr3: object
    expr4: object
    expr5: object

    @property
    def vanishing(self):
        return (self.expr1, self.expr2, self.expr3, self.expr4)


def remark1_chain(ctx: PrecisionContext, v) -> Remark1Chain:
    """Evaluate the five chain expressions at v > 0 from their explicit
    closed forms, with a precision boost against the v -> 0 cancellation
    (expr1 vanishes to sixth order)."""
    v0 = ctx.positive(v, "remark1_chain", "v")
    extra = 10
    if v0 < 1:
        # from v's binary exponent: float(v) underflows below 1e-308
        extra += int(-6 * _log2(v0) * math.log10(2)) + 5
    wctx = ctx.boosted(extra)
    w = wctx.mpf(v0)
    ev = wctx.exp(w)
    e2 = ev * ev
    w2 = w * w
    w3 = w2 * w
    expr1 = ev * (6 * e2 - w3 - 3 * w2 + 6 - ev * (2 * w3 + 3 * w2 + 12))
    expr2 = 12 * e2 - ev * (2 * w3 + 9 * w2 + 6 * w + 12) - 3 * w * (w + 2)
    expr3 = 24 * e2 - ev * (2 * w3 + 15 * w2 + 24 * w + 18) - 6 * (w + 1)
    expr4 = 48 * e2 - ev * (2 * w3 + 21 * w2 + 54 * w + 42) - 6
    expr5 = 96 * e2 - ev * (2 * w3 + 27 * w2 + 96 * w + 96)
    return Remark1Chain(
        v=ctx.mpf(v0),
        expr1=ctx.mpf(expr1),
        expr2=ctx.mpf(expr2),
        expr3=ctx.mpf(expr3),
        expr4=ctx.mpf(expr4),
        expr5=ctx.mpf(expr5),
    )


@dataclass
class SignReport:
    """Grid sign scan of K_m.

    For odd m = 2n-1 the scanned quantity is (-1)^{n-1} K_m (expected
    non-negative by the cosine-moment representation); for even m it is
    K_m itself and ``sign_changes`` lists the bracketing grid intervals
    where the sign flips (open territory for m >= 4).
    """

    m: int
    multiplier: int
    min_value: object
    argmin: object
    nonnegative: bool
    sign_changes: list = field(default_factory=list)


def sign_scan(ctx: PrecisionContext, m: int, grid: GridSpec) -> SignReport:
    """Scan K_m over the grid and report extremes and sign structure."""
    m = check_int(m, "sign_scan order m", 1)
    if m % 2 == 1:
        n = (m + 1) // 2
        mult = 1 if n % 2 == 1 else -1
    else:
        mult = 1
    min_value = None
    argmin = None
    changes = []
    prev_v = None
    prev_sign = 0
    for v in grid.points(ctx):
        val = mult * K_kernel(ctx, m, v)
        if min_value is None or val < min_value:
            min_value = val
            argmin = v
        s = 1 if val > 0 else (-1 if val < 0 else 0)
        if prev_sign and s and s != prev_sign:
            changes.append((prev_v, v))
        prev_v, prev_sign = v, s
    return SignReport(
        m=m,
        multiplier=mult,
        min_value=min_value,
        argmin=argmin,
        nonnegative=bool(min_value >= 0),
        sign_changes=changes,
    )
