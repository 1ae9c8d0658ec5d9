"""Log-gamma and polygamma evaluators with certified accuracy.

Everything here is computed from scratch with the shift-plus-asymptotic-
series method: the argument is raised by an integer shift N until it
clears a precision-dependent threshold, the enveloping asymptotic series
is summed there (its truncation error is bounded by the first omitted
term, which alternates in sign), and the shift is undone through exact
recurrences.  At small t the Taylor series at 1 serves instead, from a
table of psi^(j)(1)/j! that the same kind of sum builds, and far enough
out the series alone, with no shift.
No gamma-family routine of the underlying arbitrary-precision library is
called, so these values can serve as one side of an honest cross-check
against quadrature.

``_stirling_jet`` is the one route to the Stirling expansions G_m of
ln Gamma (m = -1) and psi^(m) (m >= 0), for a whole range of orders at
once.  Without n it returns G_m(t); ``ln_gamma`` and ``polygamma`` are
its one-order cases.  With n >= 0 it returns G_m(t) - head_{n,m}(t), head
being G_m's leading terms plus its first n Bernoulli terms at t: that is
(-1)^n R_n^(m+1)(t), the Bernoulli terms k > n, and ``remainders`` is its
caller.  Each value is rounded to the caller's context; the working
context carries at least 10 + max(m_hi, 0) guard digits, more where
``PrecisionContext.boosted`` rounds up to its ladder.

One rule picks each jet's route from its input alone: t, read at the
working precision, the top order m_hi, the working digits and n, taken
as 0 when there is none.  Who calls, and how many orders it asks for,
play no part:

* at or above thr + n, thr = ``_threshold`` at the working digits and
  m_hi, the bare tail: the Bernoulli terms k > n shrink from the first
  on, and ``_tail`` sums them from k0 = n+1;
* below the switch of ``_taylor_plan`` (below), the Taylor series at 1;
* between, the shift.

The threshold is taken at the digits of the working context the tail is
summed on, as ``_jet1p`` takes its own, so the ladder's extra digits
never push a tail past the point where its terms shrink.  With n the
tail is the value, and nothing cancels.  Without n, G_m(t) =
head_{0,m}(t) + the tail from k = 1, and head_{0,m} = Lambda_None -
Lambda_{0,m} (below) comes from the two exact Laurent tables.  Above the
threshold these parts do not cancel.  For m >= 1, with s = (-1)^(m+1),
Lambda_None = s m! t^-(m+1), -Lambda_{0,m} = s [(m-1)! t^-m - (m!/2)
t^-(m+1)] and the tail, whose first term is s (m+1)!/12 t^-(m+2), all
carry the sign s, as t >= thr > m + 9.  For m = 0 the head ln t - 1/(2t)
is ln t + 1/(2t) less 1/t, and for m = -1 (t - 1/2) ln t - t + ln(2 pi)/2
is (t + 1/2) ln t - t + ln(2 pi)/2 less ln t.  The working digits are at
least 32 (15 digits, 10 guard digits, the ladder), so t >= thr >= 23,
and there the parts' magnitudes, the tail's included, sum to under 1.13
times the value (m = -1 at t = 23 is the worst): the sum loses under a
fifth of a bit.  Inside Lambda_{0,-1}, (t + 1/2) ln t > 3t, so t
cancels under a bit of it too.

Below the tail's switch the value is split at the shift's first step,

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
smallest part any order needs, still has prec + guard bits.  It only
sees t < thr + n, so z < max(thr + n, thr_w) + 1, thr_w being the
threshold at its own working digits (which the boost for n and t > 1
raises): F is bounded by the digits, the orders and n, never by t.

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

Below t = 1 a jet, of one order or many, may take a second route to
G_m(1+t), ``_taylor1p``: the Taylor series at 1 (Abramowitz-Stegun 6.1.33
and 6.4; DLMF 5.7.3),

    psi^(m)(1+t) = m! S_m(t),  S_m(t) = sum_{k>=0} C(m+k,k) e_(m+k) t^k,
    ln Gamma(1+t) = S_-1(t) = sum_{k>=1} e_(k-1) t^k / k,

from one table of e_j = psi^(j)(1)/j! (e_0 = -gamma, e_j = (-1)^(j+1)
zeta(j+1)), each order one Horner sum in t, all in one fixed-point frame
2^-F, F = prec + guard + c with c = 1 + floor((m_hi+1) log2((1+t)/(1-t))),
the cancellation's bits below; ``_laurent`` and the split are the same
on both routes.  ``_taylor_plan`` picks the route: its term count K_T, the least K
whose truncation bound is under one unit, taken from float logs, must be
below the N + K terms of ``_jet1p``'s shift and tail (``_shift_plan``,
from ``_threshold`` and ``_term_count``, made once per jet and handed to
``_jet1p`` when the shift wins), and F must fit the table's bits.  That
holds up to t of about 0.11 to 0.13 at every digits 15..100 and top order
-1..63.  For m_hi = 8 at 30 digits (48 working digits) K_T is 6 at t =
1e-10, 21 at 1e-3 and 67 at 0.1, against N + K = 38 + 36.  A jet of ln
Gamma alone (m_hi = -1) reads order 0's count and frame.  The route's
error, in units of 2^-F of S_m:

* the Horner floors: each step's under one unit, so K_T in all, as t < 1
  only shrinks what earlier steps lost.  t itself is exact in the frame
  from t >= 2^(prec-F) on, its prec bits then lying above 2^-F; below,
  its floor moves S_m by at most (m+1) zeta(m+2, 1-t) < 2(m+1) units;
* the table: each entry within 2 units of e_j 2^F, so C(m+k,k) e_(m+k)
  within 2 C(m+k,k) units and the sum within 2 (1-t)^-(m+1); for order
  -1 the floor of e_(k-1)/k adds one unit per term, times t^k;
* the truncation: with |e_j| = zeta(j+1) <= 1 + 2^(1-j) for j >= 1, and
  term ratios t(m+k+1)/(k+1) falling with k,

      sum_{k>=K} C(m+k,k) |e_(m+k)| t^k
          <= C(m+K,K) |e_(m+K)| t^K / (1 - t(m+K+1)/(K+1)),

  under one unit at K = K_T.  The bound grows with m, and order -1's
  tail lies below order 0's, so the top order's count, or order 0's for
  a jet of order -1 alone, serves every order;
* the cancellation: the terms alternate in sign.  For m >= 1 their
  magnitudes sum to zeta(m+1, 1-t), and |S_m| = zeta(m+1, 1+t) >=
  (1+t)^-(m+1), so the largest term over |S_m| is at most
  ((1+t)/(1-t))^(m+1): 18.5 bits at m = 63 and t = 0.1, where the
  largest term alone is 2^15.7 |S_m|.  F carries those c bits, so the
  errors above, under K_T + 2(1-t)^-(m+1) + 2m + 4 units, stay under
  (K_T + 2m + 6) 2^-(prec+guard) relative to S_m.  Orders 0 and -1 are
  read absolutely, as the split at t <= 1 reads G_m(1+t) against its
  maximum on (0, 1] (above): their errors are under K_T + 8 units.

The table is keyed by the working digits, which the context ladder
bounds, and built at B = prec + 3 guard bits (so F <= B holds for c <=
2 guard) in whole blocks of ``_BLOCK`` orders, under the fill lock, by
Euler-Maclaurin at N = 2^q, the first power of two past the threshold:

    zeta(j+1) = sum_{0<i<N} i^-(j+1) + N^-j/j + N^-(j+1)/2
                + sum_{k>=1} (B_2k/2k) C(2k+j-1, j) N^-(2k+j),

psi(1) = q ln 2 - [sum_{0<i<N} 1/i + 1/(2N) + sum_{k>=1} (B_2k/2k)
N^-2k], with ln 2 = 2 atanh(1/3).  zeta(j+1, N) is psi^(j)(N)'s Stirling
series over j!, so its Bernoulli terms envelope it and stop at the first
one below a unit; psi's own table of B_2k/(2k) serves every order, the
integer binomial carrying the order, and no Stirling table of order j is
built.  Summed at B + guard bits the shift sums lose under (j+1) N units,
as above, the Bernoulli terms one unit each and the logarithm q(B/3 + 2):
far under 2^(guard-1), so each entry floored to B is within 2 units (1
measured at 15..100 digits), and floored to F within 2.  An entry depends
on the digits, j and its block alone, so the table is the same whichever
jet builds it first.

``_term_count`` takes the number of terms K from float logs of the exact
coefficients: the first term with |c_K/c_k0| w^(K-k0) <= 2^-(prec+guard),
a stop relative to the series' first term.  |c_K/c_1| grows with the
order, so one count, the top order's, serves every order of a jet.  The
truncation bound is the first omitted term.  Per (k0, rel_bits) the table
keeps running bounds on log2 w, so the count is one bisection and equals
what a walk over the terms from k0 on finds.  ``_series`` sums the same
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

import bisect
import math
import threading
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import bernoulli
from .errors import check_int
from .precision import PrecisionContext

__all__ = ["GammaEval", "ln_gamma", "polygamma"]

#: guard bits of the fixed-point kernels and of the relative series stop
_GUARD = 20
#: orders per block of the psi^(j)(1)/j! table
_BLOCK = 32
_LN2 = math.log(2)


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
    floor(c_k 2^B)).  ``stops`` holds :func:`_term_count`'s thresholds per
    (k0, rel_bits)."""

    def __init__(self, coeff, param):
        self.coeff = coeff
        self.param = param
        self.exact = []
        self.log2 = []
        self.fixed = (0, [])
        self.stops = {}


# one table per (coefficient function, parameter)
_TABLES: dict = {}
# (order, n) -> the exact Laurent polynomial of Lambda_{n,order}, n = None
# for the bare k = 0 term; an entry is made whole and then published
_LAURENT: dict = {}
# working digits -> [e_j 2^B for j = 0, 1, ...], e_j = psi^(j)(1)/j!, in
# whole blocks of _BLOCK orders
_PSI1: dict = {}
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
    on, which the shift threshold guarantees for the asymptotic series.

    Term K meets the stop once log2 w <= theta_K = (-rel_bits - log2|c_K/
    c_k0|)/(K - k0), and term K is no smaller than term K-1 once log2 w >=
    sigma_K = log2|c_(K-1)/c_K|.  Per (k0, rel_bits) the table keeps the
    running maximum of theta and the running minimum of sigma over K =
    k0+1, k0+2, ..., grown as far as a call needs, so K is a bisection:
    the first K whose running theta reaches log2 w, checked against the
    float sum of the stop itself, and the terms before it must shrink."""
    logs = tab.log2
    if len(logs) < k0:
        _frac_coeffs(tab, k0)
    stops = tab.stops.get((k0, rel_bits))
    if stops is None:
        with _FILL:
            stops = tab.stops.setdefault((k0, rel_bits), (array("d"), array("d")))
    reach, stall = stops
    if not reach or reach[-1] < log2_w:
        _grow_stops(tab, k0, rel_bits, stops, log2_w)
    i = bisect.bisect_left(reach, log2_w)
    if i == len(reach) or (i and stall[i - 1] <= log2_w):
        first = next(j for j, s in enumerate(stall) if s <= log2_w)
        raise AssertionError("series stalled at k=%d; its terms do not shrink" % (k0 + 1 + first))

    def met(count):  # the stop as the float sum reads it
        if len(logs) < count:
            _frac_coeffs(tab, count)
        return logs[count - 1] - logs[k0 - 1] + (count - k0) * log2_w <= -rel_bits

    count = k0 + 1 + i
    # a threshold and the float sum may round apart at a tie
    while count > k0 + 1 and met(count - 1):
        count -= 1
    while not met(count):
        count += 1
    return count


def _grow_stops(tab: _Coeffs, k0: int, rel_bits: int, stops, log2_w: float):
    """Extend a (k0, rel_bits) pair of :func:`_term_count`'s running
    thresholds until theta reaches log2_w or the terms stop shrinking
    there.  The entries depend only on the table, so a thread appends just
    those no other thread has appended meanwhile."""
    reach, stall = stops
    logs = tab.log2
    # read both at one index: ``stall`` may already hold entries another
    # thread is about to add to ``reach``
    have = len(reach)
    top = reach[have - 1] if have else -math.inf
    low = stall[have - 1] if have else math.inf
    new_reach, new_stall = [], []
    count = k0 + 1 + have
    while top < log2_w < low:
        if len(logs) < count:
            # one entry at a time: the table ends at the last term read
            _frac_coeffs(tab, count)
        top = max(top, (-rel_bits - (logs[count - 1] - logs[k0 - 1])) / (count - k0))
        low = min(low, logs[count - 2] - logs[count - 1])
        new_reach.append(top)
        new_stall.append(low)
        count += 1
    with _FILL:
        done = len(reach) - have
        # the running minima first: a reader that finds entry i in
        # ``reach`` finds it in ``stall`` too
        stall.extend(new_stall[done:])
        reach.extend(new_reach[done:])


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


def _shift_plan(wctx: PrecisionContext, hi: int, t):
    """(N, z, K) of :func:`_jet1p` at t for top order hi: the shift N >= 1,
    z = t + N past the threshold, and the Bernoulli tail's term count K.
    The count of the top order serves every lower one: |c_K/c_1| grows
    with the order."""
    thr = _threshold(wctx.digits, hi)
    shift = 1 if t >= thr - 1 else int(math.ceil(thr - float(t)))
    z = t + shift
    count = _term_count(_table(_stirling, hi), 1, -2 * _log2(z), wctx.prec + _GUARD)
    return shift, z, count


def _jet1p(wctx: PrecisionContext, lo: int, hi: int, t, plan=None):
    """ln Gamma(1+t) (order -1) and psi^(order)(1+t) for every order lo..hi,
    each summed to convergence at z = t + N (N >= 1, z past the threshold)
    less the shift sums over 0 < k < N; ``plan`` is :func:`_shift_plan`'s
    (N, z, K) at t, made here when not given."""
    shift, z, count = plan or _shift_plan(wctx, hi, t)
    log2_z = _log2(z)
    bits = wctx.prec + _GUARD + int((hi + 2) * log2_z) + 1
    one = 1 << bits
    t_fixed = wctx.to_fixed(t, bits)
    xs = [(one << bits) // (t_fixed + k * one) for k in range(1, shift + 1)]
    zp = [one, xs.pop()]  # z^0, z^-1, ..., z^-(hi+2) in fixed point
    for _ in range(max(1, hi + 1)):
        zp.append((zp[-1] * zp[1]) >> bits)
    sums = _shift_sums(xs, max(lo, 0), hi, bits) if hi >= 0 else []
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


def _scaled(num: int, den: int, e: int) -> int:
    """floor(num/den 2^e) for any integer e."""
    return (num << e) // den if e >= 0 else num // (den << -e)


def _ln2_fixed(bits: int) -> int:
    """ln 2 at ``bits`` from 2 atanh(1/3) = sum_k 2/((2k+1) 3^(2k+1)), one
    floor per term: under bits/3 + 2 units low."""
    two, p, k, acc = 2 << bits, 3, 0, 0
    while p <= two:
        acc += two // ((2 * k + 1) * p)
        p *= 9
        k += 1
    return acc


def _psi1_block(wctx: PrecisionContext, a: int, bits: int):
    """e_j = psi^(j)(1)/j! for j = a .. a + _BLOCK - 1 at ``bits``, each
    within 2 units: Euler-Maclaurin at N = 2^q, the first power of two past
    the threshold, summed at bits + _GUARD and then floored."""
    q = (_threshold(wctx.digits, 0) - 1).bit_length()
    fine = bits + _GUARD
    sums = _shift_sums([(1 << fine) // i for i in range(1, 1 << q)], a, a + _BLOCK - 1, fine)
    tab = _table(_stirling, 0)  # B_2k/(2k)
    out = []
    for j, acc in enumerate(sums, a):
        # zeta(j+1, N) = N^-j/j + N^-(j+1)/2 + sum_k (B_2k/2k) C(2k+j-1, j)
        # N^-(2k+j), k >= 1, whose terms envelope it; for j = 0 the sum
        # psi(N) = ln N - [1/(2N) + ...] less the harmonic number
        if j:
            acc += _scaled(1, j, fine - q * j)
        acc += _scaled(1, 2, fine - q * (j + 1))
        k, prev = 0, None
        while True:
            k += 1
            if len(tab.exact) < k:
                _frac_coeffs(tab, k)
            c = tab.exact[k - 1]
            num, e = c.numerator * math.comb(2 * k + j - 1, j), fine - q * (2 * k + j)
            if abs(num) << max(e, 0) < c.denominator << max(-e, 0):
                break  # the first term below one unit: the rest is smaller
            term = _scaled(num, c.denominator, e)
            if prev is not None and abs(term) > abs(prev):
                raise AssertionError("Euler-Maclaurin stalled at j=%d, k=%d" % (j, k))
            acc += term
            prev = term
        if j == 0:
            acc = q * _ln2_fixed(fine) - acc
        elif j % 2 == 0:
            acc = -acc  # e_j = (-1)^(j+1) zeta(j+1)
        out.append(acc >> _GUARD)
    return out


def _psi1_table(wctx: PrecisionContext, upto: int):
    """(B, [e_j 2^B for j = 0, 1, ...]) with at least ``upto`` entries, B =
    prec + 3 _GUARD at wctx's digits.  Built in whole blocks of _BLOCK
    orders, the same whichever call asks first."""
    lst = _PSI1.get(wctx.digits)
    if lst is None:
        with _FILL:
            lst = _PSI1.setdefault(wctx.digits, [])
    bits = wctx.prec + 3 * _GUARD
    while len(lst) < upto:
        a = len(lst)
        block = _psi1_block(wctx, a, bits)
        with _FILL:
            if len(lst) == a:
                lst.extend(block)
    return bits, lst


def _taylor_terms(log2_t: float, t: float, m: int, bits: int, cap: int):
    """The least K <= cap whose truncation bound, for order m >= 0,

        sum_{k>=K} C(m+k,k) |e_(m+k)| t^k
            <= C(m+K,K) |e_(m+K)| t^K / (1 - t(m+K+1)/(K+1)),

    is at most 2^-bits, with |e_j| = zeta(j+1) <= 1 + 2^(1-j); None if K =
    cap is not enough.  The bound falls with K once its ratio is below 1."""

    def fits(k):
        rho = t * (m + k + 1) / (k + 1)
        if rho >= 1:
            return False
        log2_binom = (math.lgamma(m + k + 1) - math.lgamma(m + 1) - math.lgamma(k + 1)) / _LN2
        log2_e = math.log2(1 + 2.0 ** (1 - m - k))
        return log2_binom + log2_e + k * log2_t - math.log2(1 - rho) <= -bits

    if not fits(cap):
        return None
    low, high = 0, cap
    while high - low > 1:
        mid = (low + high) // 2
        if fits(mid):
            high = mid
        else:
            low = mid
    return high


def _taylor_plan(wctx: PrecisionContext, hi: int, t, plan=None):
    """(K_T, F) of :func:`_taylor1p` at t for top order hi, when its K_T
    terms are fewer than the N + K terms of :func:`_jet1p`'s shift and
    tail (``plan``, :func:`_shift_plan`'s at t, made here when not given)
    and the frame F = prec + _GUARD + the cancellation's bits fits the
    table; else None.  Order -1 alone reads order 0's count and frame."""
    tf = float(t)
    if not tf < 1:
        return None
    bits = wctx.prec + _GUARD + int((max(hi, 0) + 1) * math.log2((1 + tf) / (1 - tf))) + 1
    if bits > wctx.prec + 3 * _GUARD:
        return None
    shift, _, count = plan or _shift_plan(wctx, hi, t)
    terms = _taylor_terms(_log2(t), tf, max(hi, 0), bits, shift + count - 1)
    return None if terms is None else (terms, bits)


def _taylor1p(wctx: PrecisionContext, lo: int, hi: int, t, count: int, bits: int):
    """ln Gamma(1+t) = sum_{0<k<K} e_(k-1) t^k/k (order -1) and
    psi^(m)(1+t) = m! sum_{k<K} C(m+k,k) e_(m+k) t^k for every order lo..hi,
    each one Horner sum in the fixed-point frame at ``bits``."""
    have, table = _psi1_table(wctx, hi + count + 1)
    es = [e >> (have - bits) for e in table[: hi + count + 1]]
    tt = wctx.to_fixed(t, bits)
    values = []
    for order in range(lo, hi + 1):
        # each list ends at the first omitted term, which _horner leaves out
        if order == -1:
            acc = (_horner([e // k for k, e in enumerate(es[:count], 1)], tt, bits) * tt) >> bits
        else:
            coeffs = [math.comb(order + k, k) * e for k, e in enumerate(es[order : order + count + 1])]
            acc = _horner(coeffs, tt, bits) * math.factorial(order)
        values.append(wctx.from_fixed(acc, bits))
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
        value = wctx.from_fixed(_scaled(num, den, bits), bits)
        if order == -1:
            value += -lnt if n is None else t - (t + 0.5) * lnt - wctx.ln(2 * wctx.pi) / 2
        elif order == 0 and n is not None:
            value -= lnt
        values.append(value)
    return values


def _stirling_jet(ctx: PrecisionContext, lo: int, hi: int, t, n=None):
    """G_m(t) for every order m = lo..hi, or with n >= 0 G_m(t) less its
    head, (-1)^n R_n^(m+1)(t); each rounded to ``ctx``.  t is read at the
    working precision, as ``wctx.mpf(t)``, so digits it has beyond ``ctx``
    count up to the working digits, and the route is chosen from that
    reading, the top order hi, the working digits and n alone."""
    guard = 10 + max(hi, 0)
    wctx = ctx.boosted(guard)
    tw = wctx.mpf(t)
    # the switch reads the digits the tail is summed at, which the
    # ladder may raise past ctx.digits + guard
    if tw >= _threshold(wctx.digits, hi) + (n or 0):
        # the Bernoulli terms k > n (k >= 1 without n) shrink from the first on
        values = _tail(wctx, lo, hi, tw, (n or 0) + 1)
        if n is None:
            # G_m = head_{0,m} + that tail: nothing cancels
            heads = zip(_laurent(wctx, None, lo, hi, tw), _laurent(wctx, 0, lo, hi, tw))
            values = [v + a - b for v, (a, b) in zip(values, heads)]
        return [ctx.mpf(v) for v in values]
    if n is not None and tw > 1:
        # t is below the switch here; these digits absorb the cancellation
        wctx = ctx.boosted(guard + int(math.ceil((2 * n + hi + 3) * math.log10(float(tw)))) + 15)
        tw = wctx.mpf(t)
    plan = _shift_plan(wctx, hi, tw)
    taylor = _taylor_plan(wctx, hi, tw, plan)
    gs = _jet1p(wctx, lo, hi, tw, plan) if taylor is None else _taylor1p(wctx, lo, hi, tw, *taylor)
    return [ctx.mpf(g + lam) for g, lam in zip(gs, _laurent(wctx, n, lo, hi, tw))]


def _wrap(ctx: PrecisionContext, t, order: int, v) -> GammaEval:
    """The evaluation with its error bound: 10^(2-digits) relative plus
    an absolute floor, over at least 10 guard digits.  It covers each
    route ``_stirling_jet`` may take:

    * the shift (``_jet1p``) and the bare tail (``_tail`` plus
      head_{0,m}): each Bernoulli tail stops below 2^-(prec+20) of its
      first term (m+1)!/12 z^-(m+2), at the working precision, z = t + N
      or t itself.  For m >= 1 that term is below (m-1)! z^-m <=
      |psi^(m)(t)|, because z > m+9; for orders 0 and -1 it lies far
      below the absolute floor.  The shift sums and the head lose under
      a bit;
    * the Taylor series at 1 (``_taylor1p``): under (K_T + 2m + 6)
      2^-(prec+20) relative to psi^(m)(1+t) for m >= 1, which has the
      sign of the k = 0 term (-1)^(m+1) m! t^-(m+1) added to it, and
      K_T + 8 such units absolute for orders 0 and -1, where |psi(t)| > 7
      and |ln Gamma(t)| > 1.8 below the switch (t < 0.14)."""
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
