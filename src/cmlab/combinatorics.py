"""Exact integer/rational sequences: Bernoulli numbers, Stirling numbers of
the second kind, and zeta at even integers.

Everything here is exact arithmetic over integers and ``fractions.Fraction``;
floating values are produced only by the caller converting through a
:class:`~cmlab.precision.PrecisionContext`.

The Bernoulli numbers come from integer tangent numbers (Brent and Harvey,
"Fast computation of Bernoulli, Tangent and Secant numbers", 2013): O(N^2)
multiply-adds of integers for B_0..B_2N, and one ``Fraction`` per even
index.  The recurrence keeps its state between calls, so a miss extends
the cache to exactly the index asked for, with no refill from scratch
and no entry beyond it.  It grows under a lock, so concurrent callers at
worst wait for one another's work; a value already cached is read without
the lock.

Conventions:

* Bernoulli numbers follow the generating function z/(e^z - 1), i.e.
  B_1 = -1/2 (so 1/(e^z-1) = 1/z - 1/2 + ...).
* S(k, p) counts partitions of a k-set into p nonempty blocks.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial

from .errors import check_int

__all__ = ["bernoulli", "stirling2", "zeta_even"]

# B_0, B_1, ... computed so far (exact, lowest terms by Fraction's invariant)
_BERNOULLI: list[Fraction] = [Fraction(1)]
# the state of the tangent-number recurrence at the largest T_N made so
# far: entry N after each of its passes k = 1..N, the last being T_N
_COLUMN: list[int] = []
_BERNOULLI_FILL = threading.Lock()


def _tangent_numbers(count: int) -> list[int]:
    """[T_N+1, ..., T_count] after the T_N last made, where
    tan z = sum_k T_k z^(2k-1)/(2k-1)!, by Brent and Harvey's recurrence
    run one entry at a time.  Their pass k sets
    T_j = (j-k) T_j-1 + (j-k+2) T_j for j = k..N, after T_j = (j-1)!
    (pass 1); entry j needs only entry j-1 after each pass, which
    ``_COLUMN`` keeps, so the recurrence resumes without starting over."""
    col = _COLUMN
    out = []
    for j in range(len(col) + 1, count + 1):
        new = [(j - 1) * col[0] if col else 1]
        for k in range(2, j):
            new.append((j - k) * col[k - 1] + (j - k + 2) * new[-1])
        if j > 1:
            new.append(2 * new[-1])
        col[:] = new
        out.append(new[-1])
    return out


def _bernoulli_from(start: int, stop: int) -> list[Fraction]:
    """B_start..B_stop for start >= 1 just past the cache, with
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    first = len(_COLUMN) + 1
    t = _tangent_numbers(stop // 2)
    out = []
    for n in range(start, stop + 1):
        if n == 1:
            out.append(Fraction(-1, 2))
        elif n % 2:
            out.append(Fraction(0))
        else:
            k = n // 2
            four_k = 1 << n
            num = n * t[k - first]
            out.append(Fraction(num if k % 2 else -num, four_k * (four_k - 1)))
    return out


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n.

    The even ones come from the tangent numbers T_k, B_2k =
    (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), which Brent and Harvey's
    recurrence gives in O(N^2) integer multiply-adds for k <= N; B_1 = -1/2
    and the other odd ones are 0.  A miss extends the cache to exactly
    B_n: the recurrence resumes from its saved state, so a caller that
    asks for one n at a time pays the same O(N^2) in all as one that asks
    for B_N at once.  The new entries go into the cache with one
    ``extend`` under ``_BERNOULLI_FILL``, so a reader that takes no lock
    never finds a partial entry.
    """
    n = check_int(n, "bernoulli index n")
    if len(_BERNOULLI) <= n:
        with _BERNOULLI_FILL:
            have = len(_BERNOULLI)
            if have <= n:
                _BERNOULLI.extend(_bernoulli_from(have, n))
    return _BERNOULLI[n]


def stirling2(k: int, p: int) -> Fraction:
    """Stirling number of the second kind S(k, p), 1 <= p <= k.

    Computed from the explicit alternating sum
    S(k,p) = (1/p!) sum_{q=1}^{p} (-1)^{p-q} C(p,q) q^k,
    in integers, with one exact division by p!.
    The value is integer-valued but returned as a Fraction for uniformity
    with the other exact sequences.
    """
    k = check_int(k, "stirling2 k", 1)
    p = check_int(p, "stirling2 p", 1, k)
    total = 0
    for q in range(1, p + 1):
        term = comb(p, q) * q**k
        total += term if (p - q) % 2 == 0 else -term
    result, rest = divmod(total, factorial(p))
    if rest:
        raise AssertionError("S(%d,%d) did not reduce to an integer" % (k, p))
    return Fraction(result)


def zeta_even(n: int) -> tuple[Fraction, int]:
    """zeta(2n) as an exact rational multiple of pi^{2n}.

    Returns ``(q_n, 2n)`` with zeta(2n) = q_n * pi^{2n}, where
    q_n = (-1)^{n+1} B_{2n} 2^{2n-1} / (2n)!  (Euler's evaluation).
    Example: n=1 -> (1/6, 2), n=2 -> (1/90, 4).
    """
    n = check_int(n, "zeta_even n", 1)
    sign = 1 if n % 2 == 1 else -1
    num = sign * bernoulli(2 * n) * Fraction(2) ** (2 * n - 1)
    fact = Fraction(1)
    for d in range(2, 2 * n + 1):
        fact *= d
    return num / fact, 2 * n
