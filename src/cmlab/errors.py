"""Exception types shared by all cmlab modules, and the one check of an
integer argument (``check_int``) that every index, order, count and
budget in the package goes through."""

__all__ = ["DomainError", "IntegrationError", "BracketError", "check_int"]


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


def check_int(x, what: str, lo: int = 0, hi=None) -> int:
    """``x`` as an int, if it is an integer in [lo, hi] (no upper end when
    ``hi`` is None); else a DomainError naming the parameter ``what``.

    Integral floats, mpfs and Fractions pass.  Nothing is truncated: 2.5,
    inf, nan, a string or None is rejected like a value out of range.
    """
    try:
        k = int(x)
        ok = k == x
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok or k < lo or (hi is not None and k > hi):
        span = ">= %d" % lo if hi is None else "in [%d, %d]" % (lo, hi)
        raise DomainError("%s must be an integer %s, got %r" % (what, span, x))
    return k


class IntegrationError(RuntimeError):
    """A quadrature routine could not reach the requested tolerance.

    Carries the best error bound achieved and the number of integrand
    evaluations spent, so callers can decide whether to retry with a
    larger budget or a looser tolerance.
    """

    def __init__(self, message, est_error=None, evaluations=None):
        super().__init__(message)
        self.est_error = est_error
        self.evaluations = evaluations


class BracketError(RuntimeError):
    """A bisection precondition failed: the requested bracket does not
    straddle a pass/fail boundary."""
