"""Log-gamma and polygamma evaluators with certified accuracy.

Everything here is computed from scratch with the shift-plus-asymptotic-
series method: the argument is raised by an integer shift N until it
clears a precision-dependent threshold, the enveloping asymptotic series
is summed there (its truncation error is bounded by the first omitted
term, which alternates in sign), and the shift is undone through exact
recurrences.  No gamma-family routine of the underlying arbitrary-
precision library is called, so these values can serve as one side of an
honest cross-check against quadrature.

``_stirling_jet`` is the one route to the Stirling expansions G_m of
ln Gamma (m = -1) and psi^(m) (m >= 0), for a whole range of orders at
once.  Without n it returns G_m(t); ``ln_gamma`` and ``polygamma`` are
its one-order cases.  With n >= 0 it returns G_m(t) - head_{n,m}(t), head
being G_m's leading terms plus its first n Bernoulli terms at t: that is
(-1)^n R_n^(m+1)(t), the Bernoulli terms k > n, and ``remainders`` is its
caller.  Each value is rounded to the caller's context; the working
context carries at least 10 + max(m_hi, 0) guard digits, more where
``PrecisionContext.boosted`` rounds up to its ladder.

At or above G's shift threshold plus n the terms k > n shrink from the
first on, and the value is ``_tail`` from k0 = n+1: nothing cancels.
The threshold is taken at the digits of the working context the tail is
summed on, as ``_jet1p`` takes its own, so the ladder's extra digits
never push a tail past the point where its terms shrink.
Elsewhere the value is split at the shift's first step,

    G_m(t) - head_{n,m}(t) = G_m(1+t) + Lambda_{n,m}(t).

``_jet1p`` sums G_m(1+t) for the whole range of orders: with z = t + N
(N >= 1, z past the threshold),

    psi^(m)(1+t) = [leading terms + Bernoulli tail at z]
                   - (-1)^m m! sum_{0<k<N} (t+k)^-(m+1),

and likewise ln Gamma(1+t) = ln Gamma(z) - ln prod_{0<k<N} (t+k).
Lambda_{n,m} = G_m(t) - G_m(1+t) - head is the k = 0 shift term less the
head.  Without n it is the k = 0 term alone, (-1)^(m+1) m! t^-(m+1), or
-ln t for ln Gamma.  With n, for m >= 1 it is the Laurent polynomial

    (-1)^(m+1) [(m!/2) t^-(m+1) - (m-1)! t^-m - sum_{k<=n} c_k^(m) t^-(2k+m)],

for m = 0 -ln t - 1/(2t) + sum_{k<=n} (B_2k/2k) t^-2k, and for m = -1
-(t + 1/2) ln t + t - ln(2 pi)/2 - sum_{k<=n} c_k t^(1-2k).  The integer
coefficients of its powers of 1/t, over one denominator, sit in one exact
table keyed by (m, n), and ``_laurent`` sums them exactly in integers from
t's mantissa before one division, so t may be 1e-300.  With n and t > 1
the sum, of size t^-(2n+m+2) against ingredients of size t^-m (ln t for
m = 0, t ln t for m = -1), runs under (2n+m+3) log10 t + 15 more digits,
which the switch keeps bounded.  At t <= 1 it runs under the guard digits
alone: there |R_n^(m+1)(t)| >= |R_n^(m+1)(1)| by complete monotonicity and
|Lambda| <= |R| + |G|, so the sum loses at most
log10(1 + 2 max|G_m(1+t)| / |R_n^(m+1)(1)|) digits, under 3 for every
n <= 30 and order m <= 63 (max|G_m(1+t)| is m! zeta(m+1) for m >= 1,
gamma for psi and 0.1215 for ln Gamma).

``_jet1p`` runs in one fixed-point frame: every number is a multiple of
2^-F with F = prec + guard + (m_hi+2) log2 z (guard = ``_GUARD`` bits,
on top of the working context's guard digits), so that z^-(m_hi+2), the
smallest part any order needs, still has prec + guard bits.

* 1/(t+k) for 0 < k <= N takes one integer division each, and z^-e
  repeated multiplications by the last of them;
* the shift sums sum_{0<k<N} (t+k)^-(m+1), for every order m of the
  range m_lo..m_hi: the lowest order's power x_k^(m_lo+1) of x_k =
  floor(2^F/(t+k)) by square and multiply at F bits, one floor per
  product, and each higher order's by one more multiply and floor.  A
  floor loses under one unit of 2^-F; a square doubles what its operand
  lost at most, a multiply by x_k <= 1 does not raise it, so the power
  x_k^e is off by under e units, order m's by at most m + 1.  With x_k's
  own unit, carried through the power, each term is within 2(m+1) units
  of (t+k)^-(m+1) >= z^-(m+1), and a unit is at most 2^-(prec+guard)
  z^-(m_hi+2).  As z > m + 9, every sum is off by under
  2^-(prec+guard-1) relative;
* the Bernoulli tail is a Horner sum of c_k w^(k-1) in w = z^-2, with
  the coefficients floor(c_k 2^F), times z^-(m+2).  Each step's floor
  and each coefficient's lose under one unit, and w < 1 only shrinks what
  earlier steps lost.

For m >= 1 the leading terms (m-1)! z^-m + (m!/2) z^-(m+1), the tail and
the shift sums all carry the sign of psi^(m), so nothing cancels and
each order costs one conversion out of fixed point.  For order 0,
psi(1+t) = ln z - [1/(2z) + tail + shift sums], and for order -1 the
terms (z - 1/2) ln z - z + ln(2 pi)/2 and the ln of the product stay in
mpf; only those logarithms are not fixed point.

``_term_count`` takes the number of terms K from float logs of the exact
coefficients: the first term with |c_K/c_k0| w^(K-k0) <= 2^-(prec+guard),
a stop relative to the series' first term.  |c_K/c_1| grows with the
order, so one count, the top order's, serves every order of a jet.  The
truncation bound is the first omitted term.  ``_series`` sums the same
Horner loop at prec + guard bits below |c_k0| and serves the remainders'
tails above the switch (w = z^-2, k0 = n+1) and the kernels' Taylor
series of f_n^(l) (k0 = n+1).

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
from .errors import check_int
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
# (order, n) -> the exact Laurent polynomial of Lambda_{n,order}, n = None
# for the bare k = 0 term; an entry is made whole and then published
_LAURENT: dict = {}
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
            # one entry at a time: the table ends at the last term read
            _frac_coeffs(tab, k + 1)
        rel = logs[k] - logs[k0 - 1] + (k + 1 - k0) * log2_w  # term k+1 over term k0
        if rel <= -rel_bits:
            return k + 1
        if rel >= prev:
            raise AssertionError("series stalled at k=%d; its terms do not shrink" % (k + 1))
        prev = rel
        k += 1


def _horner(coeffs, w: int, bits: int) -> int:
    """sum_i coeffs[i] w^i over all but the last coefficient, every number
    a fixed-point integer at ``bits``; off by under one unit per term."""
    acc = 0
    for c in reversed(coeffs[:-1]):
        acc = ((acc * w) >> bits) + c
    return acc


def _series(wctx: PrecisionContext, tab: _Coeffs, k0: int, w, log2_w: float):
    """sum_{k0<=k<K} c_k w^(k-k0) (w < 1) in fixed point, with K from
    :func:`_term_count` at 2^-(prec+guard) and prec + guard bits below
    |c_k0|, w too held to 2^-bits.  Returns the sum in mpf, off by under
    2(K-k0) units of 2^-bits."""
    count = _term_count(tab, k0, log2_w, wctx.prec + _GUARD)
    bits = wctx.prec + _GUARD - min(0, math.floor(tab.log2[k0 - 1]))
    coeffs = _fixed_coeffs(tab, k0, count, bits)
    return wctx.from_fixed(_horner(coeffs, wctx.to_fixed(w, bits), bits), bits)


def _tail(wctx: PrecisionContext, lo: int, hi: int, z, k0: int):
    """The Bernoulli terms k >= k0 of the Stirling expansions of ln Gamma
    (order -1) and psi^(order) at z for every order lo..hi, summed and
    signed as the function's series is."""
    zp = [wctx.mpf(1), 1 / z]
    for _ in range(max(1, 2 * k0 + hi - 1)):
        zp.append(zp[-1] * zp[1])
    log2_w = -2 * _log2(z)
    values = []
    for order in range(lo, hi + 1):
        tail = _series(wctx, _table(_stirling, order), k0, zp[2], log2_w) * zp[2 * k0 + order]
        values.append(tail if order % 2 else -tail)
    return values


def _threshold(wp: int, order: int) -> int:
    # the series reaches 10^-wp while still decreasing once z exceeds
    # roughly 0.37 wp; 0.45 wp plus a flat margin leaves headroom for the
    # polynomial prefactors that grow with the derivative order
    return int(0.45 * wp) + 9 + max(order, 0)


def _shift_sums(xs, lo: int, hi: int, bits: int):
    """sum_k (t+k)^-(m+1) at ``bits`` for m = lo..hi (lo >= 0), from the
    x_k = floor(2^bits/(t+k)): the lowest order's powers x_k^(lo+1) by
    square and multiply from the exponent's top bit, each higher order's
    the last order's times x_k; one floor per product.  Each power x_k^e
    is never above the exact power floored once, and under e units below
    it."""
    p = xs
    for bit in bin(lo + 1)[3:]:
        p = [(q * q) >> bits for q in p]
        if bit == "1":
            p = [(q * x) >> bits for q, x in zip(p, xs)]
    sums = [sum(p)]
    for _ in range(lo, hi):
        p = [(q * x) >> bits for q, x in zip(p, xs)]
        sums.append(sum(p))
    return sums


def _jet1p(wctx: PrecisionContext, lo: int, hi: int, t):
    """ln Gamma(1+t) (order -1) and psi^(order)(1+t) for every order lo..hi,
    each summed to convergence at z = t + N (N >= 1, z past the threshold)
    less the shift sums over 0 < k < N."""
    thr = _threshold(wctx.digits, hi)
    shift = 1 if t >= thr - 1 else int(math.ceil(thr - float(t)))
    z = t + shift
    log2_z = _log2(z)
    bits = wctx.prec + _GUARD + int((hi + 2) * log2_z) + 1
    one = 1 << bits
    t_fixed = wctx.to_fixed(t, bits)
    xs = [(one << bits) // (t_fixed + k * one) for k in range(1, shift + 1)]
    zp = [one, xs.pop()]  # z^0, z^-1, ..., z^-(hi+2) in fixed point
    for _ in range(max(1, hi + 1)):
        zp.append((zp[-1] * zp[1]) >> bits)
    sums = _shift_sums(xs, max(lo, 0), hi, bits) if hi >= 0 else []
    # the term count of the top order serves every lower one: |c_K/c_1|
    # grows with the order
    count = _term_count(_table(_stirling, hi), 1, -2 * log2_z, wctx.prec + _GUARD)
    lnz = wctx.ln(z) if lo <= 0 else None
    values = []
    for order in range(lo, hi + 1):
        coeffs = _fixed_coeffs(_table(_stirling, order), 1, count, bits)
        tail = (_horner(coeffs, zp[2], bits) * zp[order + 2]) >> bits
        if order == -1:
            prod = wctx.mpf(1)
            for k in range(1, shift):
                prod *= t + k
            value = (z - 0.5) * lnz - z + wctx.ln(2 * wctx.pi) / 2 - wctx.ln(prod)
            value += wctx.from_fixed(tail, bits)
        elif order == 0:
            value = lnz - wctx.from_fixed((zp[1] >> 1) + tail + sums[0], bits)
        else:
            # every part has the sign of psi^(order): nothing cancels
            fm1 = math.factorial(order - 1)
            lead = fm1 * zp[order] + ((fm1 * order * zp[order + 1]) >> 1)
            value = wctx.from_fixed(lead + tail + fm1 * order * sums[order - max(lo, 0)], bits)
            if order % 2 == 0:
                value = -value
        values.append(value)
    return values


def _laurent_coeffs(order: int, n):
    """(D, [(k, a_k), ...]) with integers a_k != 0 such that the Laurent
    polynomial of Lambda_{n,order}(t) is sum_k a_k t^-k / D; one exact
    table, keyed by (order, n).  n = None gives the bare k = 0 term."""
    key = (order, n)
    entry = _LAURENT.get(key)
    if entry is None:
        # the k = 0 shift term G_m(t) - G_m(1+t): (-1)^(m+1) m! t^-(m+1),
        # or for ln Gamma -ln t, which is no power of 1/t
        sign = 1 if order % 2 else -1
        terms = {order + 1: sign * math.factorial(order)} if order >= 0 else {}
        if n is not None:
            # less the head; outside the lock, which _frac_coeffs takes itself
            s = _frac_coeffs(_table(_stirling, order), n)
            if order >= 1:
                # (-1)^(m+1) [(m-1)! t^-m + (m!/2) t^-(m+1) + sum_k s_k t^-(2k+m)]
                head = [(order, sign * math.factorial(order - 1))]
                head.append((order + 1, Fraction(sign * math.factorial(order), 2)))
                head += [(2 * k + order, sign * c) for k, c in enumerate(s, 1)]
            elif order == 0:
                # ln t - 1/(2t) - sum_k (B_2k/2k) t^-2k, past its ln t
                head = [(1, Fraction(-1, 2))] + [(2 * k, -c) for k, c in enumerate(s, 1)]
            else:
                # (t - 1/2) ln t - t + ln(2 pi)/2 + sum_k c_k t^(1-2k), past
                # its first three terms
                head = [(2 * k - 1, c) for k, c in enumerate(s, 1)]
            for k, a in head:
                terms[k] = terms.get(k, 0) - a
        den = math.lcm(*(Fraction(a).denominator for a in terms.values()))
        made = (den, [(k, int(a * den)) for k, a in terms.items() if a])
        with _FILL:
            entry = _LAURENT.setdefault(key, made)
    return entry


def _laurent(wctx: PrecisionContext, n, lo: int, hi: int, t):
    """Lambda_{n,m}(t) = G_m(t) - G_m(1+t) - head_{n,m}(t) for m = lo..hi,
    head being the leading terms of G_m's Stirling expansion plus its
    first n Bernoulli terms, or nothing for n = None: the Laurent
    polynomial, summed exactly in integers and then rounded, plus its
    logarithms.  Those are -ln t for ln Gamma (m = -1) without n, and with
    n -ln t (m = 0) or -(t + 1/2) ln t + t - ln(2 pi)/2 (m = -1)."""
    entries = [_laurent_coeffs(order, n) for order in range(lo, hi + 1)]
    top = max((k for _, terms in entries for k, _ in terms), default=0)
    # t = p / 2^down exactly, so t^-k = 2^(k down) p^(top-k) / p^top
    man, exp = t.man_exp
    p, down = man << max(exp, 0), max(-exp, 0)
    ppow = [1]
    for _ in range(top):
        ppow.append(ppow[-1] * p)
    lnt = wctx.ln(t) if lo == -1 or (lo == 0 and n is not None) else None
    values = []
    for order, (den, terms) in enumerate(entries, lo):
        num = sum((a * ppow[top - k]) << (k * down) for k, a in terms)
        den *= ppow[top]
        # num/den floored to prec + guard bits, then rounded once more
        bits = wctx.prec + _GUARD + den.bit_length() - abs(num).bit_length()
        quo = (num << bits) // den if bits >= 0 else num // (den << -bits)
        value = wctx.from_fixed(quo, bits)
        if order == -1:
            value += -lnt if n is None else t - (t + 0.5) * lnt - wctx.ln(2 * wctx.pi) / 2
        elif order == 0 and n is not None:
            value -= lnt
        values.append(value)
    return values


def _stirling_jet(ctx: PrecisionContext, lo: int, hi: int, t, n=None):
    """G_m(t) for every order m = lo..hi, or with n >= 0 G_m(t) less its
    head, (-1)^n R_n^(m+1)(t); each rounded to ``ctx``.  t is read at the
    working precision, so digits it has beyond ``ctx`` count; with n it
    must compare with numbers (an mpf or a float)."""
    guard = 10 + max(hi, 0)
    extra = guard
    if n is not None:
        wctx = ctx.boosted(guard)
        # the switch reads the digits the tail is summed at, which the
        # ladder may raise past ctx.digits + guard
        if t >= _threshold(wctx.digits, hi) + n:
            # the Bernoulli terms k > n shrink from the first on: nothing cancels
            return [ctx.mpf(v) for v in _tail(wctx, lo, hi, wctx.mpf(t), n + 1)]
        if t > 1:
            # t is a float here; these digits absorb the cancellation
            extra += int(math.ceil((2 * n + hi + 3) * math.log10(float(t)))) + 15
    wctx = ctx.boosted(extra)
    tw = wctx.mpf(t)
    gs = _jet1p(wctx, lo, hi, tw)
    return [ctx.mpf(g + lam) for g, lam in zip(gs, _laurent(wctx, n, lo, hi, tw))]


def _wrap(ctx: PrecisionContext, t, order: int, v) -> GammaEval:
    """The evaluation with its error bound: 10^(2-digits) relative plus
    an absolute floor.  The series' truncation is dominated by both.  Each
    tail stops below 2^-(prec+20) of its first term (m+1)!/12 z^-(m+2), at
    the working precision.  For m >= 1 that term is below
    (m-1)! z^-m <= |psi^(m)(t)|, because z > m+9.  For orders 0 and -1
    it lies far below the absolute floor."""
    est = abs(v) * ctx.mpf(10) ** (2 - ctx.digits) + ctx.mpf(10) ** (-(ctx.digits + 6))
    return GammaEval(t=ctx.mpf(t), value=v, order=order, est_error=est)


def ln_gamma(ctx: PrecisionContext, t) -> GammaEval:
    """ln Gamma(t) for t > 0."""
    ctx.positive(t, "ln_gamma")
    (val,) = _stirling_jet(ctx, -1, -1, t)
    return _wrap(ctx, t, -1, val)


def polygamma(ctx: PrecisionContext, m: int, t) -> GammaEval:
    """psi^(m)(t) for integer m >= 0 and t > 0 (m = 0 is psi itself)."""
    m = check_int(m, "polygamma order m")
    ctx.positive(t, "polygamma")
    (val,) = _stirling_jet(ctx, m, m, t)
    return _wrap(ctx, t, m, val)
