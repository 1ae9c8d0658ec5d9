"""Remainders of the Stirling series for ln Gamma and their derivatives.

With c_k = B_{2k}/((2k)(2k-1)) and the elementary part
(t - 1/2) ln t - t + (1/2) ln(2 pi), define

    A_n(t) = ln Gamma(t) - elementary(t) - sum_{k=1}^n c_k t^{1-2k}
    R_n(t) = (-1)^n A_n(t)

Every R_n is completely monotonic on (0, inf).  The module exposes R_n,
the positive first-derivative remainder -R_n' (phi(t) is the n = 1 case),
the second derivative R_n'', arbitrary-order derivatives for the degree
machinery, the pointwise degree bound -t R_n''/R_n', and the power-scaled
limits of R_n' at both ends of the axis.

``remainder_jet`` returns R_n^(j) for a whole range of orders j from one
working context and one set of Stirling sums; every other evaluator here
is one of its cases.  With G = ln Gamma (j = 0) or psi^(j-1), R_n^(j) is
(-1)^n times the Bernoulli terms k > n of G's Stirling expansion.  At or
above G's shift threshold plus n those terms shrink from the first on,
and the jet is gammakit's tail from k0 = n+1 at the 10 + (j-1) guard
digits a lone psi^(j-1) gets: nothing cancels.  Below it the definition
G(t) - head(t), head being G's leading terms plus its first n Bernoulli
terms at t, is split at the shift's first step, with m = j-1:

    (-1)^n R_n^(j)(t) = G_m(1+t) + Lambda_{n,m}(t),

G_m(1+t) from gammakit's ``_jet1p``, the one routine ``ln_gamma`` and
``polygamma`` use too, and Lambda_{n,m} = G_m(t) - G_m(1+t) - head the
k = 0 shift term less the head: for m >= 1 the Laurent polynomial

    (-1)^(m+1) [(m!/2) t^-(m+1) - (m-1)! t^-m - sum_{k<=n} c_k^(m) t^-(2k+m)],

for m = 0 -ln t - 1/(2t) + sum_{k<=n} (B_2k/2k) t^-2k, and for j = 0
-(t + 1/2) ln t + t - ln(2 pi)/2 - sum_{k<=n} c_k t^(1-2k).  Its integer
coefficients over one denominator sit in one exact table keyed by
(m, n), and it is summed exactly in integers from t's mantissa before
one division.  Above t = 1 the sum, of size t^-(2n+j+1) against
ingredients of size t^-(j-1) (ln t for j = 1, t ln t for j = 0), runs
under (2n+j+2) log10 t more digits, which the switch keeps bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .gammakit import _FILL, _GUARD, _frac_coeffs, _jet1p, _stirling, _table, _tail, _threshold
from .precision import PrecisionContext

__all__ = [
    "remainder",
    "remainder_d1",
    "remainder_d2",
    "remainder_deriv",
    "remainder_jet",
    "ratio_bound",
    "TailLimitEntry",
    "TailLimits",
    "tail_limits",
]

_MAX_N = 30
_MAX_DERIV = 16

# (order, n) -> the exact Laurent polynomial of Lambda_{n,order}
_LAURENT: dict = {}


def _check_n(n) -> int:
    if int(n) != n or n < 0 or n > _MAX_N:
        raise DomainError("truncation order n must be an integer in [0, %d], got %r" % (_MAX_N, n))
    return int(n)


def _check_t(ctx, t):
    t0 = ctx.mpf(t)
    if not (ctx.isfinite(t0) and t0 > 0):
        raise DomainError("remainder evaluation requires t > 0, got %s" % t0)
    return t0


def remainder(ctx: PrecisionContext, n, t):
    """R_n(t) = (-1)^n A_n(t); strictly positive on (0, inf)."""
    return remainder_deriv(ctx, n, 0, t)


def _check_j(j) -> int:
    if int(j) != j or j < 0 or j > _MAX_DERIV:
        raise DomainError("derivative order j must be an integer in [0, %d], got %r" % (_MAX_DERIV, j))
    return int(j)


def remainder_jet(ctx: PrecisionContext, n, j_lo: int, j_hi: int, t):
    """[R_n^(j_lo)(t), ..., R_n^(j_hi)(t)] for 0 <= j_lo <= j_hi <= 16.

    One working context, at the digits the hardest member j_hi needs, and
    one set of Stirling sums serve every order.
    """
    n = _check_n(n)
    j_lo, j_hi = _check_j(j_lo), _check_j(j_hi)
    if j_lo > j_hi:
        raise DomainError("need j_lo <= j_hi, got %d > %d" % (j_lo, j_hi))
    t0 = _check_t(ctx, t)
    guard = 10 + max(j_hi - 1, 0)
    sign = -1 if n % 2 else 1
    if t0 >= _threshold(ctx.digits + guard, j_hi - 1) + n:
        # the Bernoulli terms k > n shrink from the first on: nothing cancels
        wctx = ctx.boosted(guard)
        tails = _tail(wctx, j_lo - 1, j_hi - 1, wctx.mpf(t0), n + 1)
        return [ctx.mpf(sign * v) for v in tails]
    # t is a float here; these digits absorb the cancellation
    lt = math.log10(float(t0)) if t0 > 1 else 0.0
    wctx = ctx.boosted(int(math.ceil((2 * n + j_hi + 2) * lt)) + 15 + guard)
    tw = wctx.mpf(t0)
    gs, _ = _jet1p(wctx, j_lo - 1, j_hi - 1, tw)
    lams = _laurent(wctx, n, j_lo - 1, j_hi - 1, tw)
    values = [ctx.mpf(g + lam) for g, lam in zip(gs, lams)]
    return [-v for v in values] if n % 2 else values


def _laurent_coeffs(order: int, n: int):
    """(D, [(k, a_k), ...]) with integers a_k != 0 such that the Laurent
    polynomial of Lambda_{n,order}(t) is sum_k a_k t^-k / D; one exact
    table, keyed by (order, n)."""
    key = (order, n)
    entry = _LAURENT.get(key)
    if entry is None:
        # outside the lock, which _frac_coeffs takes itself
        s = _frac_coeffs(_table(_stirling, order), n)
        if order >= 1:
            # (-1)^(m+1) [(m!/2) t^-(m+1) - (m-1)! t^-m - sum_k s_k t^-(2k+m)]
            sign = 1 if order % 2 else -1
            terms = [(order, -sign * math.factorial(order - 1))]
            terms.append((order + 1, Fraction(sign * math.factorial(order), 2)))
            terms += [(2 * k + order, -sign * c) for k, c in enumerate(s, 1)]
        elif order == 0:
            # -1/(2t) + sum_k (B_2k/2k) t^-2k
            terms = [(1, Fraction(-1, 2))] + [(2 * k, c) for k, c in enumerate(s, 1)]
        else:
            # -sum_k c_k t^(1-2k)
            terms = [(2 * k - 1, -c) for k, c in enumerate(s, 1)]
        den = math.lcm(*(Fraction(a).denominator for _, a in terms))
        made = (den, [(k, int(a * den)) for k, a in terms if a])
        with _FILL:
            entry = _LAURENT.setdefault(key, made)
    return entry


def _laurent(wctx, n: int, lo: int, hi: int, t):
    """Lambda_{n,m}(t) = G_m(t) - G_m(1+t) - head_{n,m}(t) for m = lo..hi,
    head being the leading terms of G_m's Stirling expansion plus its
    first n Bernoulli terms: the Laurent polynomial, summed exactly in
    integers and then rounded, plus -ln t (m = 0) or
    -(t + 1/2) ln t + t - ln(2 pi)/2 (m = -1)."""
    entries = [_laurent_coeffs(order, n) for order in range(lo, hi + 1)]
    top = max((k for _, terms in entries for k, _ in terms), default=0)
    # t = p / 2^down exactly, so t^-k = 2^(k down) p^(top-k) / p^top
    man, exp = t.man_exp
    p, down = man << max(exp, 0), max(-exp, 0)
    ppow = [1]
    for _ in range(top):
        ppow.append(ppow[-1] * p)
    lnt = wctx.ln(t) if lo <= 0 else None
    values = []
    for order, (den, terms) in enumerate(entries, lo):
        num = sum((a * ppow[top - k]) << (k * down) for k, a in terms)
        den *= ppow[top]
        # num/den floored to prec + guard bits, then rounded once more
        bits = wctx.prec + _GUARD + den.bit_length() - abs(num).bit_length()
        quo = (num << bits) // den if bits >= 0 else num // (den << -bits)
        value = wctx.from_fixed(quo, bits)
        if order == 0:
            value -= lnt
        elif order == -1:
            value += t - (t + 0.5) * lnt - wctx.ln(2 * wctx.pi) / 2
        values.append(value)
    return values


def remainder_deriv(ctx: PrecisionContext, n, j: int, t):
    """R_n^(j)(t) for 0 <= j <= 16; the degree machinery's raw material."""
    return remainder_jet(ctx, n, j, j, t)[0]


def remainder_d1(ctx: PrecisionContext, n, t):
    """-R_n'(t) = (-1)^{n+1} A_n'(t); positive (completely monotonic)."""
    return -remainder_deriv(ctx, n, 1, t)


def remainder_d2(ctx: PrecisionContext, n, t):
    """R_n''(t) = (-1)^n A_n''(t); non-negative by complete monotonicity."""
    return remainder_deriv(ctx, n, 2, t)


def ratio_bound(ctx: PrecisionContext, n, t):
    """-t R_n''(t)/R_n'(t), the pointwise necessary upper bound for the
    degree of -R_n'; tends to 2n as t -> 0+ for n >= 1."""
    n = _check_n(n)
    t0 = _check_t(ctx, t)
    d1, d2 = remainder_jet(ctx, n, 1, 2, t0)
    if not ctx.isfinite(d1) or d1 == 0:
        raise DomainError("ratio_bound: -R_%d'(%s) vanished or overflowed" % (n, t0))
    return -t0 * d2 / d1


@dataclass
class TailLimitEntry:
    """One power-scaled limit check: value of t^power * R_n'(t) at ``t``
    against the exact limit ``target``."""

    power: int
    t: object
    value: object
    target: Fraction
    target_value: object

    @property
    def deviation(self):
        return abs(self.value - self.target_value)


@dataclass
class TailLimits:
    """The four scaled limits of R_n': three for t -> inf (powers 2n-1 and
    2n+1 give 0, power 2n+2 gives (-1)^{n+1} B_{2n+2}/(2n+2)) and one for
    t -> 0+ (power 2n gives (-1)^n B_{2n}/(2n))."""

    n: int
    entries: list

    @property
    def max_deviation(self):
        return max(e.deviation for e in self.entries)


def tail_limits(ctx: PrecisionContext, n) -> TailLimits:
    """Evaluate the four scaled tail expressions at t = 10^6 / 10^-6."""
    n = _check_n(n)
    if n < 1:
        raise DomainError("tail_limits requires n >= 1, got %d" % n)
    t_inf = ctx.mpf(10) ** 6
    t_zero = ctx.mpf(10) ** (-6)
    rp_inf = -remainder_d1(ctx, n, t_inf)
    rp_zero = -remainder_d1(ctx, n, t_zero)

    b_over_2k = _frac_coeffs(_table(_stirling, 0), n + 1)  # B_{2k}/(2k), index k-1
    sign_inf = 1 if n % 2 == 1 else -1  # (-1)^{n+1}
    target3 = Fraction(sign_inf) * b_over_2k[n]
    sign_zero = -sign_inf  # (-1)^n
    target4 = Fraction(sign_zero) * b_over_2k[n - 1]

    entries = []
    for power, target in ((2 * n - 1, Fraction(0)), (2 * n + 1, Fraction(0)), (2 * n + 2, target3)):
        value = t_inf ** power * rp_inf
        entries.append(TailLimitEntry(power, t_inf, value, target, ctx.mpf(target)))
    value = t_zero ** (2 * n) * rp_zero
    entries.append(TailLimitEntry(2 * n, t_zero, value, target4, ctx.mpf(target4)))
    return TailLimits(n, entries)
