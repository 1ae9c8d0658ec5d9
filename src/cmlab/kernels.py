"""The Laplace kernel family f_n, Bose-factor derivatives, and the
assembled kernels K_m.

The base kernel is

    f_n(v) = (-1)^n [ 1/v - (1/2) coth(v/2) + sum_{k=1}^n B_{2k} v^{2k-1}/(2k)! ]

whose Laplace transform gives R_n'(t).  Near the origin the closed form
cancels catastrophically, so below v = 1/2 everything switches to the
Taylor series f_n(v) = (-1)^{n+1} sum_{k>=n+1} B_{2k} v^{2k-1}/(2k)!
(convergent for |v| < 2 pi).  Above the branch point the closed form is
used with a precision boost sized to the known cancellation.  One routine
makes that choice for f_n and for each derivative f_n^(ell); ``f_kernel``
is its ell = 0 case, and ``K_kernel`` its ell = m case up to sign.

High derivatives of 1/v - (1/2) coth(v/2) are never taken numerically:
the Bose factor 1/(e^v - 1) has the exact Stirling-number derivative
polynomial (``bose_derivative``), and the 1/v part differentiates in
closed form.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorics import bernoulli, falling, stirling2
from .errors import DomainError
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
_SERIES_CAP = 300  # Taylor terms allowed before the series gives up
_TWO_PI_FLOAT = 2 * math.pi


# B_{2k}/(2k)! as exact fractions, index k-1; filled under the lock, read
# without it
_B_OVER_FACT: list = []
_B_OVER_FACT_FILL = threading.Lock()


def _b_over_fact(k: int) -> Fraction:
    if len(_B_OVER_FACT) < k:
        with _B_OVER_FACT_FILL:
            while len(_B_OVER_FACT) < k:
                j = len(_B_OVER_FACT) + 1
                _B_OVER_FACT.append(bernoulli(2 * j) / math.factorial(2 * j))
    return _B_OVER_FACT[k - 1]


def _closed_boost(m_like: int, v: float) -> int:
    """Digits lost to cancellation in the closed forms: roughly
    (order+2) * log10(2 pi / v) for v below 2 pi, plus a flat margin."""
    if v >= _TWO_PI_FLOAT:
        return 10
    return int((m_like + 2) * math.log10(_TWO_PI_FLOAT / v)) + 10


def _c_closed(wctx: PrecisionContext, v):
    """1/v - (1/2) coth(v/2) = 1/v - 1/2 - 1/(e^v - 1), v > 0."""
    return 1 / v - wctx.mpf(1) / 2 - 1 / wctx.expm1(v)


def f_kernel(ctx: PrecisionContext, n: int, v):
    """Evaluate f_n(v) for integer n >= 0 and v > 0 (series below v = 1/2,
    closed form above)."""
    if int(n) != n or n < 0:
        raise DomainError("f_kernel requires integer n >= 0, got %r" % (n,))
    return _f_deriv(ctx, int(n), 0, v)


def _f_deriv(ctx, n, ell, v):
    """d^ell/dv^ell of f_n at v > 0: the Taylor series below v = 1/2, the
    closed form above."""
    v0 = ctx.mpf(v)
    if not (ctx.isfinite(v0) and v0 > 0):
        raise DomainError("f_%d^(%d) requires v > 0, got %s" % (n, ell, v0))
    if v0 < ctx.mpf(_SERIES_BRANCH):
        return _f_series(ctx, n, v0, ell)
    return _f_closed(ctx, n, v0, ell)


def _f_series(ctx, n, v, ell):
    """d^ell/dv^ell of f_n by its Taylor series, for ell <= 2n+1:
    (-1)^{n+1} sum_{k>=n+1} B_{2k}/(2k)! * <2k-1>_ell * v^{2k-1-ell}."""
    stop = ctx.mpf(10) ** (-(ctx.digits + 5))
    v2 = v * v
    total = ctx.mpf(0)
    k = n + 1
    vpow = v ** (2 * k - 1 - ell)
    count = 0
    while count < _SERIES_CAP:
        coeff = _b_over_fact(k) * falling(2 * k - 1, ell)
        term = ctx.mpf(coeff) * vpow
        total += term
        if abs(term) < stop:
            break
        vpow *= v2
        k += 1
        count += 1
    else:
        raise DomainError(
            "series for f_%d^(%d) did not reach the cutoff within %d terms"
            % (n, ell, _SERIES_CAP)
        )
    sign = -1 if n % 2 == 0 else 1
    return sign * total


def _f_closed(ctx, n, v, ell):
    """d^ell/dv^ell of f_n by its closed form, under a precision boost sized
    to the cancellation (derivative of 1/v exactly, Bose factor via the
    Stirling identity)."""
    wctx = ctx.boosted(_closed_boost(2 * n if ell == 0 else ell + 1, float(v)))
    vv = wctx.mpf(v)
    if ell == 0:
        acc = _c_closed(wctx, vv)
        for k in range(1, n + 1):
            acc += wctx.mpf(_b_over_fact(k)) * vv ** (2 * k - 1)
    else:
        sign_l = 1 if ell % 2 == 0 else -1
        acc = sign_l * wctx.mpf(math.factorial(ell)) / vv ** (ell + 1)
        acc -= bose_derivative(wctx, ell, vv)
        for k in range(1, n + 1):
            fal = falling(2 * k - 1, ell)
            if fal:
                acc += wctx.mpf(_b_over_fact(k) * fal) * vv ** (2 * k - 1 - ell)
    sign = 1 if n % 2 == 0 else -1
    return ctx.mpf(sign * acc)


# Stirling-number coefficient rows (p-1)! S(k+1, p), exact ints, index k
_BOSE_ROWS: dict = {}


def _bose_row(k: int):
    row = _BOSE_ROWS.get(k)
    if row is None:
        row = [math.factorial(p - 1) * int(stirling2(k + 1, p)) for p in range(1, k + 2)]
        _BOSE_ROWS[k] = row
    return row


def bose_derivative(ctx: PrecisionContext, k: int, v):
    """d^k/dv^k of 1/(e^v - 1), evaluated through the exact identity

        (-1)^k sum_{p=1}^{k+1} (p-1)! S(k+1, p) (e^v - 1)^{-p}

    All inner terms share one sign, so there is no cancellation.
    """
    if int(k) != k or k < 0:
        raise DomainError("bose_derivative requires integer k >= 0, got %r" % (k,))
    k = int(k)
    v0 = ctx.mpf(v)
    if not (ctx.isfinite(v0) and v0 > 0):
        raise DomainError("bose_derivative requires v > 0, got %s" % v0)
    u = 1 / ctx.expm1(v0)
    if k == 0:
        return u
    acc = ctx.mpf(0)
    for c in reversed(_bose_row(k)):
        acc = (acc + c) * u
    return acc if k % 2 == 0 else -acc


def K_kernel(ctx: PrecisionContext, m: int, v):
    """K_m(v) for m >= 1: the m-th derivative of 1/v - (1/2) coth(v/2),
    plus B_{2n}/(2n) when m = 2n-1 is odd (nothing is added for even m).

    Closed form for v >= 1/2 (derivative of 1/v exactly, Bose factor via
    the Stirling identity); termwise-differentiated Taylor series below.
    """
    if int(m) != m or m < 1:
        raise DomainError("K_kernel requires integer m >= 1, got %r" % (m,))
    m = int(m)
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
    v0 = ctx.mpf(v)
    if not (ctx.isfinite(v0) and v0 > 0):
        raise DomainError("remark1_chain requires v > 0, got %s" % v0)
    extra = 10
    fv = float(v0)
    if fv < 1:
        extra += int(6 * -math.log10(fv)) + 5
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
    if int(m) != m or m < 1:
        raise DomainError("sign_scan requires integer m >= 1, got %r" % (m,))
    m = int(m)
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
