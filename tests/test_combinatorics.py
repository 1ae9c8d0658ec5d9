"""Exact combinatorial ingredients, checked against independent recurrences."""

from fractions import Fraction
from math import comb

import pytest

from cmlab import DomainError, PrecisionContext, bernoulli, stirling2, zeta_even


def akiyama_tanigawa(n):
    """Independent Bernoulli oracle (first-kind convention, B_1 = -1/2)."""
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    for j in range(1, n + 1):
        for m in range(n + 1 - j):
            row[m] = (m + 1) * (row[m] - row[m + 1])
    # the algorithm produces B_n with B_1 = +1/2; flip to the convention used here
    return -row[0] if n == 1 else row[0]


def recurrence_bernoulli(upto):
    """B_0..B_upto by sum_{k<=n} C(n+1, k) B_k = 0, in Fractions: an
    independent route to every index, odd ones included."""
    table = [Fraction(1)]
    for m in range(1, upto + 1):
        table.append(-sum(comb(m + 1, k) * b for k, b in enumerate(table)) / (m + 1))
    return table


def stirling_triangle(rows):
    """S(n, k) by the standard triangular recurrence."""
    tri = {(0, 0): 1}
    for n in range(1, rows + 1):
        for k in range(1, n + 1):
            tri[(n, k)] = k * tri.get((n - 1, k), 0) + tri.get((n - 1, k - 1), 0)
    return tri


@pytest.mark.parametrize("n", list(range(0, 42)))
def test_bernoulli_matches_akiyama_tanigawa(n):
    assert bernoulli(n) == akiyama_tanigawa(n)


def test_bernoulli_matches_recurrence_to_300():
    assert [bernoulli(n) for n in range(301)] == recurrence_bernoulli(300)
    assert all(type(bernoulli(n)) is Fraction for n in range(301))


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(bernoulli(k) == 0 for k in (3, 5, 7, 9, 11))


def test_bernoulli_sign_alternation():
    # B_{2k} alternates in sign: (-1)^{k+1} B_{2k} > 0
    for k in range(1, 16):
        signed = bernoulli(2 * k) * (-1) ** (k + 1)
        assert signed > 0


def test_bernoulli_rejects_negative():
    with pytest.raises(DomainError):
        bernoulli(-1)


def test_stirling2_matches_triangle():
    tri = stirling_triangle(14)
    for n in range(1, 15):
        for k in range(1, n + 1):
            assert stirling2(n, k) == tri[(n, k)], (n, k)


def test_stirling2_known_row():
    assert [stirling2(5, k) for k in range(1, 6)] == [1, 15, 25, 10, 1]


@pytest.mark.parametrize("args", [(0, 1), (3, 0), (3, 4), (-1, 1)])
def test_stirling2_domain(args):
    with pytest.raises(DomainError):
        stirling2(*args)


def test_zeta_even_small_cases():
    # zeta(2) = pi^2/6, zeta(4) = pi^4/90, zeta(6) = pi^6/945
    assert zeta_even(1) == (Fraction(1, 6), 2)
    assert zeta_even(2) == (Fraction(1, 90), 4)
    assert zeta_even(3) == (Fraction(1, 945), 6)


@pytest.mark.parametrize("n", list(range(1, 9)))
def test_zeta_even_against_mpmath(n):
    import mpmath

    ctx = PrecisionContext(50)
    q, power = zeta_even(n)
    assert power == 2 * n
    value = ctx.mpf(q) * ctx.pi ** power
    with mpmath.workdps(60):
        oracle = ctx.mpf(mpmath.zeta(2 * n))
    assert abs(value - oracle) < ctx.mpf(10) ** (-45)


def test_zeta_even_rejects_nonpositive():
    with pytest.raises(DomainError):
        zeta_even(0)
