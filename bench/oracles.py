"""Independent reference values for the benchmark's correctness checks.

Everything here is computed by mpmath's own routines at raised precision
(``polygamma``, ``loggamma``, ``coth``, ``diff``, ``zeta``), never by cmlab,
so agreement with cmlab is a genuine cross-check.  Inputs are Python floats,
which both sides convert exactly.
"""

from __future__ import annotations

import math

import mpmath


def rel_tol(digits: int):
    """The accuracy every checked value must meet: 10^-(digits-3)."""
    return mpmath.mpf(10) ** (3 - digits)


# Zeros of ln Gamma (t = 1, 2) and of psi (t = 1.46163...): relative error
# is meaningless next to them, so an absolute part of the same size is
# allowed inside these windows and nowhere else.
_LNGAMMA_ZEROS = (1.0, 2.0)
_PSI_ZERO = 1.4616321449683623
_ZERO_WINDOW = 0.5


def near_zero(fn: str, index: int, t: float) -> bool:
    if fn == "ln_gamma":
        return any(abs(t - z) < _ZERO_WINDOW for z in _LNGAMMA_ZEROS)
    if fn == "polygamma" and index == 0:
        return abs(t - _PSI_ZERO) < _ZERO_WINDOW
    return False


def within(value, ref, tol, digits: int, absolute_ok: bool = False) -> bool:
    """|value - ref| <= tol * |ref| (or tol * max(|ref|, 1) next to a zero of
    the function), compared at three times ``digits``."""
    with mpmath.workdps(3 * digits):
        scale = abs(ref)
        if absolute_ok:
            scale = max(scale, mpmath.mpf(1))
        return abs(mpmath.mpf(value) - ref) <= tol * scale


def agrees(value, ref, digits: int, absolute_ok: bool = False) -> bool:
    """``value`` meets the tolerance 10^-(digits-3) against ``ref``."""
    return within(value, ref, rel_tol(digits), digits, absolute_ok)


def polygamma_ref(m: int, t: float, digits: int):
    with mpmath.workdps(2 * digits + 20):
        return +mpmath.polygamma(m, mpmath.mpf(t))


def ln_gamma_ref(t: float, digits: int):
    with mpmath.workdps(2 * digits + 20):
        return +mpmath.loggamma(mpmath.mpf(t))


def _falling(a: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= a - i
    return out


def remainder_deriv_ref(n: int, j: int, t: float, digits: int):
    """R_n^(j)(t) rebuilt from mpmath's log-gamma/polygamma minus the exact
    Stirling terms.  At large t the result is of size t^-(2n+j+1) while the
    ingredients are of size ln t, so the working precision grows with
    (2n+j+2) log10 t to absorb the cancellation."""
    lt = max(0.0, math.log10(t))
    with mpmath.workdps(2 * digits + int((2 * n + j + 2) * lt) + 30):
        x = mpmath.mpf(t)
        if j == 0:
            a = mpmath.loggamma(x) - ((x - 0.5) * mpmath.ln(x) - x + mpmath.ln(2 * mpmath.pi) / 2)
        elif j == 1:
            a = mpmath.digamma(x) - (mpmath.ln(x) - 1 / (2 * x))
        else:
            # d^j/dt^j of (t - 1/2) ln t - t is d^(j-2)/dt^(j-2) of 1/t + 1/(2 t^2)
            sign = -1 if j % 2 else 1
            elementary = sign * (
                mpmath.factorial(j - 2) * x ** (1 - j) + mpmath.factorial(j - 1) * x ** (-j) / 2
            )
            a = mpmath.polygamma(j - 1, x) - elementary
        for k in range(1, n + 1):
            c_k = mpmath.bernoulli(2 * k) / ((2 * k) * (2 * k - 1))
            a -= c_k * _falling(1 - 2 * k, j) * x ** (1 - 2 * k - j)
        return +(a if n % 2 == 0 else -a)


def _bose_closed(x):
    """1/v - coth(v/2)/2, the closed form behind every f_n and K_m."""
    return 1 / x - mpmath.coth(x / 2) / 2


def f_kernel_ref(n: int, v: float, digits: int):
    with mpmath.workdps(3 * digits):
        x = mpmath.mpf(v)
        acc = _bose_closed(x)
        for k in range(1, n + 1):
            acc += mpmath.bernoulli(2 * k) * x ** (2 * k - 1) / mpmath.factorial(2 * k)
        return +(acc if n % 2 == 0 else -acc)


def K_kernel_ref(m: int, v: float, digits: int):
    with mpmath.workdps(3 * digits):
        acc = mpmath.diff(_bose_closed, mpmath.mpf(v), m)
        if m % 2 == 1:
            n = (m + 1) // 2
            acc += mpmath.bernoulli(2 * n) / (2 * n)
        return +acc


REFERENCES = {
    "polygamma": lambda index, x, digits: polygamma_ref(index, x, digits),
    "ln_gamma": lambda index, x, digits: ln_gamma_ref(x, digits),
    "remainder_deriv": lambda index, x, digits: remainder_deriv_ref(index[0], index[1], x, digits),
    "f_kernel": lambda index, x, digits: f_kernel_ref(index, x, digits),
    "K_kernel": lambda index, x, digits: K_kernel_ref(index, x, digits),
}


# -- quadrature closed forms -------------------------------------------


def sin_moment_ref(p: int, s, digits: int):
    """int_0^inf u^p sin(su)/(e^u - 1) du = p! Im zeta(p+1, 1 - i s)."""
    with mpmath.workdps(2 * digits + 20):
        return +(mpmath.factorial(p) * mpmath.im(mpmath.zeta(p + 1, 1 - 1j * mpmath.mpf(s))))


def cos_kernel_ref(n: int, v, digits: int):
    """int_0^inf w^(2n-1) [1 - cos(wv)]/(e^(2 pi w) - 1) dw
    = (2n-1)!/(2 pi)^(2n) [zeta(2n) - Re zeta(2n, 1 - i v/(2 pi))]."""
    with mpmath.workdps(2 * digits + 20):
        p = 2 * n - 1
        two_pi = 2 * mpmath.pi
        hurwitz = mpmath.re(mpmath.zeta(p + 1, 1 - 1j * mpmath.mpf(v) / two_pi))
        return +(mpmath.factorial(p) / two_pi ** (p + 1) * (mpmath.zeta(p + 1) - hurwitz))


def bose_moment_ref(s, digits: int):
    """int_0^inf w^s/(e^(2 pi w) - 1) dw = Gamma(s+1) zeta(s+1)/(2 pi)^(s+1)."""
    with mpmath.workdps(2 * digits + 20):
        s = mpmath.mpf(s)
        return +(mpmath.gamma(s + 1) * mpmath.zeta(s + 1) / (2 * mpmath.pi) ** (s + 1))


def psi_laplace_ref(t, digits: int):
    """int_0^inf (1/(1 - e^-v) - 1/v) e^(-tv) dv = ln t - psi(t)."""
    with mpmath.workdps(2 * digits + 20):
        t = mpmath.mpf(t)
        return +(mpmath.ln(t) - mpmath.digamma(t))
