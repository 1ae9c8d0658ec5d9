"""Exact integer/rational sequences: Bernoulli numbers, Stirling numbers of
the second kind, falling factorials, and zeta at even integers.

Everything here is exact arithmetic over ``fractions.Fraction``; floating
values are produced only by the caller converting through a
:class:`~cmlab.precision.PrecisionContext`.  The Bernoulli cache only
grows, and it grows under a lock, so concurrent callers at worst wait for
one another's work; a value already cached is read without the lock.

Conventions:

* Bernoulli numbers follow the generating function z/(e^z - 1), i.e.
  B_1 = -1/2 (so 1/(e^z-1) = 1/z - 1/2 + ...).
* S(k, p) counts partitions of a k-set into p nonempty blocks.
* The falling factorial <a>_n = a (a-1) ... (a-n+1), with <a>_0 = 1.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

from .errors import DomainError

__all__ = ["bernoulli", "stirling2", "falling", "zeta_even"]

# B_0, B_1, ... computed so far (exact, lowest terms by Fraction's invariant)
_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_FILL = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n.

    Uses the defining recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 (with
    B_0 = 1), which follows from multiplying the generating function by
    (e^z - 1) and matching coefficients.  Results are memoized; the
    recurrence is O(n^2) rational operations to fill the cache.
    """
    n = int(n)
    if n < 0:
        raise DomainError("bernoulli requires n >= 0, got %d" % n)
    if len(_BERNOULLI) <= n:
        with _BERNOULLI_FILL:
            while len(_BERNOULLI) <= n:
                m = len(_BERNOULLI)  # next index to fill
                acc = Fraction(0)
                for k in range(m):
                    acc += comb(m + 1, k) * _BERNOULLI[k]
                _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def stirling2(k: int, p: int) -> Fraction:
    """Stirling number of the second kind S(k, p), 1 <= p <= k.

    Computed from the explicit alternating sum
    S(k,p) = (1/p!) sum_{q=1}^{p} (-1)^{p-q} C(p,q) q^k,
    which is exact in integer arithmetic (the division by p! is exact).
    The value is integer-valued but returned as a Fraction for uniformity
    with the other exact sequences.
    """
    k = int(k)
    p = int(p)
    if k < 1:
        raise DomainError("stirling2 requires k >= 1, got %d" % k)
    if not 1 <= p <= k:
        raise DomainError("stirling2 requires 1 <= p <= k, got p=%d, k=%d" % (p, k))
    total = 0
    for q in range(1, p + 1):
        term = comb(p, q) * q**k
        total += term if (p - q) % 2 == 0 else -term
    result = Fraction(total)
    for d in range(2, p + 1):  # divide by p! factor by factor, exactly
        result /= d
    if result.denominator != 1:
        raise AssertionError("S(%d,%d) did not reduce to an integer" % (k, p))
    return result


def falling(alpha, n: int):
    """Falling factorial <alpha>_n = alpha (alpha-1) ... (alpha-n+1).

    Generic over the argument kind: exact for int/Fraction input, floating
    for mpf/float input (the degree estimator needs non-integer alpha).
    Returns 1 of the same kind for n = 0.
    """
    n = int(n)
    if n < 0:
        raise DomainError("falling requires n >= 0, got %d" % n)
    result = alpha * 0 + 1  # multiplicative identity of alpha's kind
    for k in range(n):
        result = result * (alpha - k)
    return result


def zeta_even(n: int) -> tuple[Fraction, int]:
    """zeta(2n) as an exact rational multiple of pi^{2n}.

    Returns ``(q_n, 2n)`` with zeta(2n) = q_n * pi^{2n}, where
    q_n = (-1)^{n+1} B_{2n} 2^{2n-1} / (2n)!  (Euler's evaluation).
    Example: n=1 -> (1/6, 2), n=2 -> (1/90, 4).
    """
    n = int(n)
    if n < 1:
        raise DomainError("zeta_even requires n >= 1, got %d" % n)
    sign = 1 if n % 2 == 1 else -1
    num = sign * bernoulli(2 * n) * Fraction(2) ** (2 * n - 1)
    fact = Fraction(1)
    for d in range(2, 2 * n + 1):
        fact *= d
    return num / fact, 2 * n
