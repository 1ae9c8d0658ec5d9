"""Log-gamma and polygamma evaluators with certified accuracy.

Everything here is computed from scratch with the shift-plus-asymptotic-
series method: the argument is raised by an integer shift N until it
clears a precision-dependent threshold, the enveloping asymptotic series
is summed there (its truncation error is bounded by the first omitted
term, which alternates in sign), and the shift is undone through exact
recurrences.  No gamma-family routine of the underlying arbitrary-
precision library is called, so these values can serve as one side of an
honest cross-check against quadrature.

``_head`` builds the leading terms plus the first n Bernoulli terms of
the Stirling expansions of ln Gamma (order -1) and psi^(m) (order m), in
mpf, and ``_tail`` sums their Bernoulli terms from k0 on to convergence,
in fixed point, each for a whole range of orders at once.  ``_jet`` is
head (n = 0) plus tail (k0 = 1) at the shifted argument, less the shift
sums; ``ln_gamma`` and ``polygamma`` are its one-order cases.  The
remainder jets read the tail from k0 = n+1 directly.

The two inner loops run on Python integers in fixed point, with every
number a multiple of 2^-F:

* the shift sums sum_{0<k<N} (t+k)^-(m+1), for every order m of the
  range, take one integer division per k for 1/(t+k) and one multiply
  and shift per order.  Each term is at most 1 and at least z^-(m+1)
  (z = t + N), and each floor loses under one unit of 2^-F, so
  F = prec + guard + (m_hi+2) log2 z keeps the relative error of every
  sum below 2^-(prec+guard).  The k = 0 term stays in mpf, since t may
  be 1e-300; the shift of ln Gamma is one ln of the product of the t+k;
* ``_series`` sums c_k w^(k-k0) for k >= k0 by Horner in w < 1 with the
  coefficients floor(c_k 2^F), F = prec + guard bits below |c_k0|.  Each
  step's floor and each coefficient's lose under one unit of 2^-F, and
  w < 1 only shrinks what earlier steps lost, so the sum is off by under
  2K units, against a sum near c_k0.  ``_term_count`` takes K from float
  logs of the exact coefficients: the first term with
  |c_K/c_k0| w^(K-k0) <= 2^-(prec+guard), a stop relative to the value.
  The truncation bound is that first omitted term.  Every series of the
  package runs here: the Stirling tails in w = z^-2 (k0 = 1 for
  psi^(m), k0 = n+1 for R_n) and the kernels' Taylor series of f_n^(l)
  (k0 = n+1).  The head (n <= 30 terms at the unshifted t, where w may
  exceed 1) stays in mpf.

Each exact coefficient sequence has one table, keyed by the function that
gives its k-th coefficient and that function's parameter: the
``Fraction`` values, their float log2 magnitudes and the integers
floor(c_k 2^B), rebuilt at more bits when a call needs them.  Shifted
right by B - F bits they give exactly floor(c_k 2^F), so values do not
depend on which precisions ran before.  The tables only grow, under one
lock, and are read without one.
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

#: guard bits of the fixed-point kernels and of the relative series stop
_GUARD = 20


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


class _Coeffs:
    """The sequence k -> coeff(param, k), entry k-1 for term k: exact, as
    float log2 magnitudes (-inf for a zero), and as ``fixed`` = (B, list of
    floor(c_k 2^B))."""

    def __init__(self, coeff, param):
        self.coeff = coeff
        self.param = param
        self.exact = []
        self.log2 = []
        self.fixed = (0, [])


# one table per (coefficient function, parameter)
_TABLES: dict = {}
# serialises the filling of every table; a list only grows and a table's
# ``fixed`` pair is replaced whole, so a reader needs no lock
_FILL = threading.Lock()


def _table(coeff, param) -> _Coeffs:
    """The table of the sequence k -> coeff(param, k), made on first use."""
    key = (coeff, param)
    tab = _TABLES.get(key)
    if tab is None:
        with _FILL:
            tab = _TABLES.setdefault(key, _Coeffs(coeff, param))
    return tab


def _stirling(order: int, k: int) -> Fraction:
    """B_2k (2k+order-1)!/(2k)!, the k-th Bernoulli coefficient of ln Gamma
    (order -1: B_2k/((2k)(2k-1))), psi (order 0: B_2k/(2k)) or psi^(order)."""
    b = bernoulli(2 * k)
    if order == -1:
        return b / (2 * k * (2 * k - 1))
    if order == 0:
        return b / (2 * k)
    return b * math.perm(2 * k + order - 1, order - 1)


def _frac_coeffs(tab: _Coeffs, upto: int):
    """The exact c_k for k <= upto."""
    lst = tab.exact
    if len(lst) < upto:
        with _FILL:
            while len(lst) < upto:
                c = tab.coeff(tab.param, len(lst) + 1)
                # the log goes in first: a reader that finds entry k in
                # ``exact`` finds it in ``log2`` too
                tab.log2.append(
                    math.log2(abs(c.numerator)) - math.log2(c.denominator) if c else -math.inf
                )
                lst.append(c)
    return lst[:upto]


def _fixed_coeffs(tab: _Coeffs, k0: int, upto: int, bits: int):
    """floor(c_k 2^bits) for k0 <= k <= upto."""
    have, lst = tab.fixed
    if have < bits or len(lst) < upto:
        exact = _frac_coeffs(tab, upto)
        with _FILL:
            have, lst = tab.fixed
            if have < bits:
                have = max(bits, 2 * have)
                lst = [(c.numerator << have) // c.denominator for c in exact[: len(lst)]]
            for c in exact[len(lst) : upto]:
                lst.append((c.numerator << have) // c.denominator)
            tab.fixed = (have, lst)
    drop = have - bits
    return [c >> drop for c in lst[k0 - 1 : upto]]


def _log2(x) -> float:
    """log2 of a positive mpf, without overflow."""
    man, exp = x.man_exp
    return math.log2(man) + exp


def _term_count(tab: _Coeffs, k0: int, log2_w: float, rel_bits: int) -> int:
    """The index K of the first term of sum_{k>=k0} c_k w^(k-k0) (c_k0 != 0)
    with |c_K/c_k0| w^(K-k0) <= 2^-rel_bits.  The terms must shrink from k0
    on, which the shift threshold guarantees for the asymptotic series."""
    logs = tab.log2
    _frac_coeffs(tab, k0)
    prev = 0.0  # term k0 over itself
    k = k0  # 0-based index of term k0+1
    while True:
        if len(logs) <= k:
            _frac_coeffs(tab, 2 * k)
        rel = logs[k] - logs[k0 - 1] + (k + 1 - k0) * log2_w  # term k+1 over term k0
        if rel <= -rel_bits:
            return k + 1
        if rel >= prev:
            raise AssertionError("series stalled at k=%d; its terms do not shrink" % (k + 1))
        prev = rel
        k += 1


def _series(wctx: PrecisionContext, tab: _Coeffs, k0: int, w, log2_w: float):
    """sum_{k0<=k<K} c_k w^(k-k0) (w < 1) in fixed point, with K from
    :func:`_term_count` at 2^-(prec+guard) and prec + guard bits below
    |c_k0|, w too held to 2^-bits.  Returns (the sum, c_K, K), both numbers
    in mpf, the sum off by under 2(K-k0) units of 2^-bits."""
    count = _term_count(tab, k0, log2_w, wctx.prec + _GUARD)
    bits = wctx.prec + _GUARD - min(0, math.floor(tab.log2[k0 - 1]))
    coeffs = _fixed_coeffs(tab, k0, count, bits)
    w_fixed = wctx.to_fixed(w, bits)
    acc = 0
    for c in reversed(coeffs[:-1]):
        acc = ((acc * w_fixed) >> bits) + c
    return wctx.from_fixed(acc, bits), wctx.from_fixed(coeffs[-1], bits), count


def _zpowers(wctx: PrecisionContext, z, top: int):
    """[z^0, z^-1, ..., z^-top], each one more multiplication by 1/z."""
    zp = [wctx.mpf(1), 1 / z]
    for _ in range(top - 1):
        zp.append(zp[-1] * zp[1])
    return zp


def _head(wctx: PrecisionContext, lo: int, hi: int, z, n: int):
    """The leading terms of the Stirling expansions of ln Gamma (order -1)
    and psi^(order) at z plus their first n Bernoulli terms, in mpf, for
    every order lo..hi."""
    zp = _zpowers(wctx, z, max(hi + 1, 2 * n + hi))
    lnz = wctx.ln(z) if lo <= 0 else None
    bits = wctx.prec + _GUARD
    values = []
    for order in range(lo, hi + 1):
        bern = wctx.mpf(0)
        for k, c in enumerate(_fixed_coeffs(_table(_stirling, order), 1, n, bits), 1):
            bern += wctx.from_fixed(c, bits) * zp[2 * k + order]
        if order == -1:
            values.append((z - 0.5) * lnz - z + wctx.ln(2 * wctx.pi) / 2 + bern)
        elif order == 0:
            values.append(lnz - zp[1] / 2 - bern)
        else:
            fm1 = math.factorial(order - 1)
            val = fm1 * zp[order] + fm1 * order * zp[order + 1] / 2
            values.append(val + bern if order % 2 else -val - bern)
    return values


def _tail(wctx: PrecisionContext, lo: int, hi: int, z, k0: int):
    """The Bernoulli terms k >= k0 of the Stirling expansions of ln Gamma
    (order -1) and psi^(order) at z for every order lo..hi, summed and
    signed as the function's series is.  Returns (values, truncation
    bounds); a bound is the first omitted term in magnitude."""
    zp = _zpowers(wctx, z, max(2, 2 * k0 + hi))
    log2_w = -2 * _log2(z)
    values, truncs = [], []
    for order in range(lo, hi + 1):
        acc, first_out, count = _series(wctx, _table(_stirling, order), k0, zp[2], log2_w)
        tail = acc * zp[2 * k0 + order]
        values.append(tail if order % 2 else -tail)
        truncs.append(abs(first_out) * zp[1] ** (2 * count + order))
    return values, truncs


def _threshold(wp: int, order: int) -> int:
    # the series reaches 10^-wp while still decreasing once z exceeds
    # roughly 0.37 wp; 0.45 wp plus a flat margin leaves headroom for the
    # polynomial prefactors that grow with the derivative order
    return int(0.45 * wp) + 9 + max(order, 0)


def _shift_sums(wctx: PrecisionContext, t, count: int, lo: int, hi: int):
    """sum_{k<count} (t+k)^-(m+1) for m = lo..hi (lo >= 0, count >= 1):
    the k = 0 term in mpf, the others in fixed point."""
    inv = 1 / t
    p = inv ** (lo + 1)
    sums = []
    for _ in range(lo, hi + 1):
        sums.append(p)
        p *= inv
    if count == 1:
        return sums
    bits = wctx.prec + _GUARD + int((hi + 2) * math.log2(float(t) + count)) + 1
    one = 1 << bits
    t_fixed = wctx.to_fixed(t, bits)
    acc = [0] * len(sums)
    for k in range(1, count):
        x = (one << bits) // (t_fixed + k * one)  # floor(2^bits / (t+k))
        p = x ** (lo + 1) >> (lo * bits)
        acc[0] += p
        for i in range(1, len(acc)):
            p = (p * x) >> bits
            acc[i] += p
    return [s + wctx.from_fixed(a, bits) for s, a in zip(sums, acc)]


def _jet(wctx: PrecisionContext, lo: int, hi: int, t):
    """ln Gamma (order -1) and psi^(order) at t for every order lo..hi,
    each summed to convergence.  Returns (values, truncation bounds)."""
    tw = wctx.mpf(t)
    thr = _threshold(wctx.digits, hi)
    shift = 0 if tw >= thr else int(math.ceil(thr - float(tw)))
    z = tw + shift
    tails, truncs = _tail(wctx, lo, hi, z, 1)
    values = [h + s for h, s in zip(_head(wctx, lo, hi, z, 0), tails)]
    if shift and hi >= 0:
        # psi^(m)(t) = psi^(m)(t+N) - (-1)^m m! sum_{k<N} (t+k)^(-m-1)
        first = max(lo, 0)
        for m, s in zip(range(first, hi + 1), _shift_sums(wctx, tw, shift, first, hi)):
            term = math.factorial(m) * s
            values[m - lo] -= term if m % 2 == 0 else -term
    if shift and lo == -1:
        # ln Gamma(t) = ln Gamma(t+N) - ln(t (t+1) ... (t+N-1))
        prod = tw
        for k in range(1, shift):
            prod *= tw + k
        values[0] -= wctx.ln(prod)
    return values, truncs


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
    (val,), (trunc,) = _jet(ctx.boosted(10), -1, -1, t)
    return _wrap(ctx, t, -1, val, trunc)


def polygamma(ctx: PrecisionContext, m: int, t) -> GammaEval:
    """psi^(m)(t) for integer m >= 0 and t > 0 (m = 0 is psi itself)."""
    if int(m) != m or m < 0:
        raise DomainError("polygamma requires integer m >= 0, got %r" % (m,))
    m = int(m)
    t0 = ctx.mpf(t)
    if not (ctx.isfinite(t0) and t0 > 0):
        raise DomainError("polygamma requires finite t > 0, got %s" % t0)
    (val,), (trunc,) = _jet(ctx.boosted(10 + m), m, m, t)
    return _wrap(ctx, t, m, val, trunc)
