"""Log-gamma and polygamma evaluators with certified accuracy.

Everything here is computed from scratch with the shift-plus-asymptotic-
series method: the argument is raised by an integer shift until it clears
a precision-dependent threshold, the enveloping asymptotic series is
summed to below working epsilon (its truncation error is bounded by the
first omitted term, which alternates in sign), and the shift is undone
through exact recurrences.  No gamma-family routine of the underlying
arbitrary-precision library is called, so these values can serve as one
side of an honest cross-check against quadrature.

Series coefficients are cached exactly (as ``Fraction``) per derivative
order, and again as floats per working precision, since the polygamma
path is hot inside the complete-monotonicity grid scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import bernoulli
from .errors import DomainError
from .precision import PrecisionContext

__all__ = ["GammaEval", "ln_gamma", "polygamma"]


@dataclass
class GammaEval:
    """One evaluation of ln Gamma (order -1) or psi^(order) (order >= 0).

    ``est_error`` is a conservative absolute bound combining series
    truncation with accumulated rounding; away from zeros of the function
    it stays far below 10^-(digits-10) in relative terms.
    """

    t: object
    value: object
    order: int
    est_error: object


# exact series coefficients per order: key -1 is ln-gamma, 0 is psi,
# m >= 1 is psi^(m).  Entry k-1 multiplies the k-th reciprocal power.
# The remainders read the same table for their subtracted partial sums.
_FRAC_COEFF: dict = {}
# (working digits, order) -> same coefficients as floats
_MPF_COEFF: dict = {}


def _frac_coeffs(order: int, upto: int):
    lst = _FRAC_COEFF.setdefault(order, [])
    while len(lst) < upto:
        k = len(lst) + 1
        b = bernoulli(2 * k)
        if order == -1:
            c = b / ((2 * k) * (2 * k - 1))
        elif order == 0:
            c = b / (2 * k)
        else:
            mult = 1
            for i in range(1, order):
                mult *= 2 * k + i
            c = b * mult
        lst.append(c)
    return lst


def _coeff_mpf(wctx: PrecisionContext, order: int, k: int):
    key = (wctx.digits, order)
    lst = _MPF_COEFF.setdefault(key, [])
    if len(lst) < k:
        fracs = _frac_coeffs(order, k + 8)
        for j in range(len(lst), k + 8):
            lst.append(wctx.mpf(fracs[j]))
    return lst[k - 1]


def _asym_sum(wctx: PrecisionContext, order: int, z, p0):
    """Sum coeff_k * z^(-2(k-1)) * p0 until below eps/100.

    Returns (partial sum, bound on the omitted tail).  The terms alternate
    and envelope the limit, so the first omitted term bounds the error;
    they must still be shrinking when the stop fires, which the shift
    threshold guarantees.
    """
    zinv2 = 1 / (z * z)
    zpow = p0
    stop = wctx.eps / 100
    total = wctx.mpf(0)
    prev = None
    k = 1
    while True:
        # zpow on the left: mpf arithmetic rounds to the left operand's
        # context, and the cached coefficients belong to whichever context
        # first filled the list
        term = zpow * _coeff_mpf(wctx, order, k)
        at = abs(term)
        if at <= stop:
            return total, at
        if prev is not None and at >= prev:
            raise AssertionError(
                "asymptotic series stalled at k=%d; shift threshold too low" % k
            )
        total += term
        prev = at
        zpow *= zinv2
        k += 1
        if k > 4000:
            raise AssertionError("asymptotic series failed to terminate")


def _threshold(wp: int, order: int) -> int:
    # the series reaches 10^-wp while still decreasing once z exceeds
    # roughly 0.37 wp; 0.45 wp plus a flat margin leaves headroom for the
    # polynomial prefactors that grow with the derivative order
    return int(0.45 * wp) + 9 + max(order, 0)


def _shifted_arg(wctx, t, order: int):
    tw = wctx.mpf(t)
    threshold = _threshold(wctx.digits, order)
    shift = 0
    if tw < threshold:
        shift = int(math.ceil(threshold - float(tw)))
    return tw, tw + shift, shift


def _wrap(ctx: PrecisionContext, t, order: int, value_w, trunc) -> GammaEval:
    v = ctx.mpf(value_w)
    est = (
        abs(v) * ctx.mpf(10) ** (2 - ctx.digits)
        + ctx.mpf(10) ** (-(ctx.digits + 6))
        + ctx.mpf(trunc)
    )
    return GammaEval(t=ctx.mpf(t), value=v, order=order, est_error=est)


def ln_gamma(ctx: PrecisionContext, t) -> GammaEval:
    """ln Gamma(t) for t > 0."""
    t0 = ctx.mpf(t)
    if not (ctx.isfinite(t0) and t0 > 0):
        raise DomainError("ln_gamma requires finite t > 0, got %s" % t0)
    wctx = ctx.boosted(10)
    tw, z, shift = _shifted_arg(wctx, t, -1)
    half = wctx.mpf(1) / 2
    tail, trunc = _asym_sum(wctx, -1, z, 1 / z)
    val = (z - half) * wctx.ln(z) - z + wctx.ln(2 * wctx.pi) / 2 + tail
    for j in range(shift):
        val -= wctx.ln(tw + j)
    return _wrap(ctx, t, -1, val, trunc)


def polygamma(ctx: PrecisionContext, m: int, t) -> GammaEval:
    """psi^(m)(t) for integer m >= 0 and t > 0 (m = 0 is psi itself)."""
    if int(m) != m or m < 0:
        raise DomainError("polygamma requires integer m >= 0, got %r" % (m,))
    m = int(m)
    t0 = ctx.mpf(t)
    if not (ctx.isfinite(t0) and t0 > 0):
        raise DomainError("polygamma requires finite t > 0, got %s" % t0)
    wctx = ctx.boosted(10 + m)
    tw, z, shift = _shifted_arg(wctx, t, m)

    if m == 0:
        tail, trunc = _asym_sum(wctx, 0, z, 1 / (z * z))
        val = wctx.ln(z) - 1 / (2 * z) - tail
        for j in range(shift):
            val -= 1 / (tw + j)
    else:
        fm1 = math.factorial(m - 1)
        fm = fm1 * m
        tail, trunc = _asym_sum(wctx, m, z, z ** (-(m + 2)))
        sign = 1 if m % 2 else -1
        val = sign * (fm1 * z ** (-m) + fm / (2 * z ** (m + 1)) + tail)
        if shift:
            ssum = wctx.mpf(0)
            for j in range(shift):
                ssum += (tw + j) ** (-(m + 1))
            # psi^(m)(t) = psi^(m)(t+N) - (-1)^m m! sum_j (t+j)^(-m-1)
            val -= (fm if m % 2 == 0 else -fm) * ssum
    return _wrap(ctx, t, m, val, trunc)

