"""Remainders of the Stirling series for ln Gamma and their derivatives.

With c_k = B_{2k}/((2k)(2k-1)) and the elementary part
(t - 1/2) ln t - t + (1/2) ln(2 pi), define

    A_n(t) = ln Gamma(t) - elementary(t) - sum_{k=1}^n c_k t^{1-2k}
    R_n(t) = (-1)^n A_n(t)

Every R_n is completely monotonic on (0, inf).  The module exposes R_n,
the positive first-derivative remainder -R_n' (phi(t) is the n = 1 case),
the second derivative R_n'', arbitrary-order derivatives for the degree
machinery, and the power-scaled limits of R_n' at both ends of the axis.

``remainder_jet`` returns R_n^(j) for a whole range of orders j from
one call to gammakit's ``_stirling_jet``, the one route ``ln_gamma`` and
``polygamma`` take too: with G = ln Gamma (j = 0) or psi^(j-1), the j-th
derivative of ln Gamma, R_n^(j) is (-1)^n times G less the leading and
first n Bernoulli terms of its Stirling expansion.  Every other evaluator here is one of its cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import bernoulli
from .errors import check_int
from .gammakit import _stirling_jet
from .precision import PrecisionContext

__all__ = [
    "remainder",
    "remainder_d1",
    "remainder_d2",
    "remainder_deriv",
    "remainder_jet",
    "TailLimitEntry",
    "TailLimits",
    "tail_limits",
]

_MAX_N = 30
_MAX_DERIV = 64


def remainder(ctx: PrecisionContext, n, t):
    """R_n(t) = (-1)^n A_n(t); strictly positive on (0, inf)."""
    return remainder_deriv(ctx, n, 0, t)


def remainder_jet(ctx: PrecisionContext, n, j_lo: int, j_hi: int, t):
    """[R_n^(j_lo)(t), ..., R_n^(j_hi)(t)] for 0 <= j_lo <= j_hi <= _MAX_DERIV.

    One working context, at the digits the hardest member j_hi needs, and
    one set of Stirling sums serve every order.
    """
    n = check_int(n, "truncation order n", 0, _MAX_N)
    j_hi = check_int(j_hi, "derivative order j_hi", 0, _MAX_DERIV)
    j_lo = check_int(j_lo, "derivative order j_lo", 0, j_hi)
    t0 = ctx.positive(t, "remainder evaluation")
    values = _stirling_jet(ctx, j_lo - 1, j_hi - 1, t0, n)
    return [-v for v in values] if n % 2 else values


def remainder_deriv(ctx: PrecisionContext, n, j: int, t):
    """R_n^(j)(t) for 0 <= j <= _MAX_DERIV; the degree machinery's raw material."""
    return remainder_jet(ctx, n, j, j, t)[0]


def remainder_d1(ctx: PrecisionContext, n, t):
    """-R_n'(t) = (-1)^{n+1} A_n'(t); positive (completely monotonic)."""
    return -remainder_deriv(ctx, n, 1, t)


def remainder_d2(ctx: PrecisionContext, n, t):
    """R_n''(t) = (-1)^n A_n''(t); non-negative by complete monotonicity."""
    return remainder_deriv(ctx, n, 2, t)


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
    n = check_int(n, "tail_limits order n", 1, _MAX_N)
    t_inf = ctx.mpf(10) ** 6
    t_zero = ctx.mpf(10) ** (-6)
    rp_inf = -remainder_d1(ctx, n, t_inf)
    rp_zero = -remainder_d1(ctx, n, t_zero)

    sign_inf = 1 if n % 2 == 1 else -1  # (-1)^{n+1}
    target3 = sign_inf * bernoulli(2 * n + 2) / (2 * n + 2)
    sign_zero = -sign_inf  # (-1)^n
    target4 = sign_zero * bernoulli(2 * n) / (2 * n)

    entries = []
    for power, target in ((2 * n - 1, Fraction(0)), (2 * n + 1, Fraction(0)), (2 * n + 2, target3)):
        value = t_inf ** power * rp_inf
        entries.append(TailLimitEntry(power, t_inf, value, target, ctx.mpf(target)))
    value = t_zero ** (2 * n) * rp_zero
    entries.append(TailLimitEntry(2 * n, t_zero, value, target4, ctx.mpf(target4)))
    return TailLimits(n, entries)
