"""Configurable-precision real arithmetic used by every numeric module.

A :class:`PrecisionContext` owns an independent mpmath context, so two
computations at different precisions never interfere through global state
and results are reproducible regardless of evaluation order or threading.
The boosted working contexts that the evaluators ask for are shared: there
is one per digit count and per thread, built on first use and never
mutated afterwards, so sharing one changes no value.  A positive boost
lands on a ladder: the total digits round up to a multiple of
``_LADDER``, so the boosts that vary with t or v meet a handful of
contexts rather than one per digit count.  A context built with
``PrecisionContext(digits)`` is always its own.

Precision is an explicit parameter threaded through every call in this
package; nothing reads an ambient global.  :class:`GridSpec`, the
log-spaced point grid that kernels, the degree machinery and the identity
suites scan, lives here too, since its points are built under a context.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_man_exp, to_fixed

from .errors import DomainError, check_int

__all__ = ["PrecisionContext", "GridSpec"]

MIN_DIGITS = 15

# Boosted contexts carry a multiple of this many digits.  A CPython int
# digit holds 30 bits, enough for 9 decimal digits, so one rung adds at
# most one limb to each mantissa: the rounding up costs little, and it
# saves building a context (about 0.3 ms) for every distinct boost.
_LADDER = 8


class _SharedContexts(threading.local):
    """The boosted contexts of one thread, keyed by digits."""

    def __init__(self):
        self.by_digits = {}


_SHARED = _SharedContexts()


class PrecisionContext:
    """Carries the working precision (decimal digits) for real arithmetic.

    All elementary operations performed under a context are correctly
    rounded to within a couple of units in the last place at ``digits``
    decimal digits.  Values produced under one context can be fed to
    another; they are re-rounded on conversion.
    """

    def __init__(self, digits: int = 50):
        self.digits = digits = check_int(digits, "PrecisionContext digits", MIN_DIGITS)
        self._mp = MPContext()
        self._mp.dps = digits

    def __repr__(self):
        return "PrecisionContext(digits=%d)" % self.digits

    # -- conversions -------------------------------------------------

    def mpf(self, x):
        """Convert ``x`` (int, float, str, Fraction, or any mpf) to this
        context's arbitrary-precision float."""
        if isinstance(x, Fraction):
            # exact integer conversion, then a single correctly rounded division
            return self._mp.mpf(x.numerator) / self._mp.mpf(x.denominator)
        return self._mp.mpf(x)

    def positive(self, x, name: str, var: str = "t"):
        """``x`` as an mpf of this context, checked finite and > 0; else a
        DomainError naming the function ``name`` and its variable ``var``."""
        x0 = self.mpf(x)
        if not (self._mp.isfinite(x0) and x0 > 0):
            raise DomainError("%s requires finite %s > 0, got %s" % (name, var, x0))
        return x0

    @property
    def prec(self) -> int:
        """The working precision in bits."""
        return self._mp.prec

    def to_fixed(self, x, bits: int) -> int:
        """floor(x * 2^bits) as an integer, exact for ``x`` as stored in
        this context."""
        return to_fixed(self.mpf(x)._mpf_, bits)

    def from_fixed(self, v: int, bits: int):
        """The fixed-point integer ``v`` read as v * 2^-bits, correctly
        rounded to this context."""
        return self._mp.make_mpf(from_man_exp(v, -bits, *self._mp._prec_rounding))

    def boosted(self, extra_digits: int) -> "PrecisionContext":
        """The shared context with at least ``extra_digits`` more working
        digits.

        A positive boost rounds the total digits up to a multiple of
        ``_LADDER``, so the context has under ``_LADDER`` digits more than
        asked for; a boost of 0 or less gives the shared context at
        ``digits``.  Built once per digit count and per thread, and handed
        to every caller that asks for those digits in that thread.
        Nothing may change its precision: every value made under it
        rounds to that context's current precision, whoever is using it.
        """
        digits = self.digits + max(0, extra_digits)
        if extra_digits > 0:
            digits = -(-digits // _LADDER) * _LADDER
        shared = _SHARED.by_digits
        ctx = shared.get(digits)
        if ctx is None:
            ctx = shared[digits] = PrecisionContext(digits)
        return ctx

    # -- constants ---------------------------------------------------

    @property
    def pi(self):
        return +self._mp.pi

    @property
    def eps(self):
        """10**(-digits): the relative resolution of this context."""
        return self._mp.mpf(10) ** (-self.digits)

    # -- checked elementary functions ---------------------------------

    def isfinite(self, x) -> bool:
        return self._mp.isfinite(self.mpf(x))

    def exp(self, x):
        return self._finite("exp", self._mp.exp(self.mpf(x)), x)

    def expm1(self, x):
        return self._finite("expm1", self._mp.expm1(self.mpf(x)), x)

    def ln(self, x):
        x = self.mpf(x)
        if x <= 0:
            raise DomainError("ln requires a positive argument, got %s" % x)
        return self._finite("ln", self._mp.ln(x), x)

    def cos_sin(self, x):
        """(cos x, sin x)."""
        return self._mp.cos_sin(self.mpf(x))

    def power(self, x, a):
        x = self.mpf(x)
        if x <= 0:
            raise DomainError("pow requires a positive base, got %s" % x)
        return self._finite("pow", self._mp.power(x, self.mpf(a)), x)

    def _finite(self, name, value, arg):
        if not self._mp.isfinite(value):
            raise DomainError("%s(%s) is not finite at %d digits" % (name, arg, self.digits))
        return value


def _exact(x) -> Fraction:
    """A grid end as an exact rational, so that 1e-400 stays above 0; a
    DomainError if it is not a finite number."""
    try:
        return Fraction(str(x))
    except ValueError:
        raise DomainError("GridSpec requires finite numeric ends, got %r" % (x,))


@dataclass(frozen=True)
class GridSpec:
    """A log-spaced evaluation grid on (0, inf)."""

    t_min: object
    t_max: object
    count: int

    def __post_init__(self):
        lo, hi = _exact(self.t_min), _exact(self.t_max)
        if lo <= 0:
            raise DomainError("GridSpec requires t_min > 0, got %s" % (self.t_min,))
        if not lo < hi:
            raise DomainError(
                "GridSpec requires t_min < t_max, got [%s, %s]" % (self.t_min, self.t_max)
            )
        object.__setattr__(self, "count", check_int(self.count, "GridSpec count", 2))

    def points(self, ctx: PrecisionContext):
        lo = ctx.ln(ctx.mpf(self.t_min))
        hi = ctx.ln(ctx.mpf(self.t_max))
        n = self.count
        step = (hi - lo) / (n - 1)
        return [ctx.exp(lo + k * step) for k in range(n)]
