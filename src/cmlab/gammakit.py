"""Log-gamma and polygamma evaluators with certified accuracy.

Everything here is computed from scratch with the shift-plus-asymptotic-
series method: the argument is raised by an integer shift until it clears
a precision-dependent threshold, the enveloping asymptotic series is
summed to below working epsilon (its truncation error is bounded by the
first omitted term, which alternates in sign), and the shift is undone
through exact recurrences.  No gamma-family routine of the underlying
arbitrary-precision library is called, so these values can serve as one
side of an honest cross-check against quadrature.

One routine, ``_expansion``, builds the Stirling expansion of ln Gamma
(order -1) and psi^(m) (order m): its leading terms plus the Bernoulli
terms, summed to convergence at the shifted argument for ``ln_gamma`` and
``polygamma``, or cut after n terms for the head the remainders subtract.

Series coefficients are cached exactly (as ``Fraction``) per derivative
order, and again as floats per working precision, since the polygamma
path is hot inside the complete-monotonicity grid scans.  The caches only
grow, under a lock, and are read without one.
"""

from __future__ import annotations

import math
import threading
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
_FRAC_COEFF: dict = {}
# (working digits, order) -> same coefficients as floats
_MPF_COEFF: dict = {}
# serialises the filling of both tables; a list only grows, so a reader
# that finds entry k there needs no lock
_FILL = threading.Lock()


def _frac_coeffs(order: int, upto: int):
    lst = _FRAC_COEFF.setdefault(order, [])
    if len(lst) < upto:
        with _FILL:
            while len(lst) < upto:
                # B_2k (2k+order-1)!/(2k)!: B_2k/((2k)(2k-1)) for ln Gamma,
                # B_2k/(2k) for psi, B_2k (2k+1)...(2k+order-1) above
                k = len(lst) + 1
                ratio = Fraction(math.factorial(2 * k + order - 1), math.factorial(2 * k))
                lst.append(bernoulli(2 * k) * ratio)
    return lst


def _coeff_mpf(wctx: PrecisionContext, order: int, k: int):
    lst = _MPF_COEFF.setdefault((wctx.digits, order), [])
    if len(lst) < k:
        fracs = _frac_coeffs(order, k)
        with _FILL:
            for j in range(len(lst), k):
                lst.append(wctx.mpf(fracs[j]))
    return lst[k - 1]


def _asym_sum(wctx: PrecisionContext, order: int, z, p0, n=None):
    """Sum coeff_k * z^(-2(k-1)) * p0 over k <= n, or until below eps/100
    when n is None.

    Returns (partial sum, first omitted term's magnitude).  The terms
    alternate and envelope the limit, so the first omitted term bounds the
    error; when summing to convergence they must still be shrinking when
    the stop fires, which the shift threshold guarantees.
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
        if (k > n) if n is not None else (at <= stop):
            return total, at
        if n is None and prev is not None and at >= prev:
            raise AssertionError(
                "asymptotic series stalled at k=%d; shift threshold too low" % k
            )
        total += term
        prev = at
        zpow *= zinv2
        k += 1
        if k > 4000:
            raise AssertionError("asymptotic series failed to terminate")


def _expansion(wctx: PrecisionContext, order: int, z, n=None):
    """The Stirling expansion of ln Gamma (order -1) or psi^(order) at z:
    its leading terms plus the first n Bernoulli terms, or all of them up
    to convergence when n is None.

    Returns (value, bound on the omitted tail): the tail is the first
    omitted term in magnitude, whichever sign the function's series puts
    on it.
    """
    tail, trunc = _asym_sum(wctx, order, z, z ** (-(order + 2)), n)
    if order == -1:
        half = wctx.mpf(1) / 2
        return (z - half) * wctx.ln(z) - z + wctx.ln(2 * wctx.pi) / 2 + tail, trunc
    if order == 0:
        return wctx.ln(z) - 1 / (2 * z) - tail, trunc
    fm1 = math.factorial(order - 1)
    val = fm1 * z ** (-order) + fm1 * order / (2 * z ** (order + 1)) + tail
    return (val if order % 2 else -val), trunc


def _threshold(wp: int, order: int) -> int:
    # the series reaches 10^-wp while still decreasing once z exceeds
    # roughly 0.37 wp; 0.45 wp plus a flat margin leaves headroom for the
    # polynomial prefactors that grow with the derivative order
    return int(0.45 * wp) + 9 + max(order, 0)


def _shifted_arg(wctx, t, order: int):
    tw = wctx.mpf(t)
    shift = max(0, int(math.ceil(_threshold(wctx.digits, order) - float(tw))))
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
    val, trunc = _expansion(wctx, -1, z)
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
    val, trunc = _expansion(wctx, m, z)
    # psi^(m)(t) = psi^(m)(t+N) - (-1)^m m! sum_j (t+j)^(-m-1)
    ssum = wctx.mpf(0)
    for j in range(shift):
        ssum += (tw + j) ** (-(m + 1))
    val -= (-1) ** m * math.factorial(m) * ssum
    return _wrap(ctx, t, m, val, trunc)
