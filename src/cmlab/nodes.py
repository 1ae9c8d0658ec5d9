"""Gauss-Legendre and Gauss-Kronrod nodes and weights on [-1, 1], made here
in fixed-point integers and rounded once to the caller's context.

Each node and weight is made in integers in a fixed-point frame, as
gammakit's jets are: every number is a multiple of 2^-F, F = prec +
gammakit's ``_GUARD`` bits for the context it is rounded to.  No context
is made or changed.  The Gauss rule of degree m (``_gl_nodes``) has
n = 3 2^(m-1) nodes, mpmath's convention.  Each positive root x of P_n starts
from Newton in floats from cos(pi (k - 1/4) / (n + 1/2)) and then takes
integer Newton steps x - P_n (x^2 - 1) / (n (x P_n - P_(n-1))) until the
step s predicts it has left both node and weight within a unit:
n(n+1) s^2 / (1 - x^2) < 2^-F.  Newton's error after the step is about
P_n''/(2 P_n') s^2 = x s^2 / (1 - x^2) at a root, and the weight reads
d = x P_n - P_(n-1) from before the step, off by about
n(n+1) s^2 / (2 (1 - x^2)) relative since d' = (n+1) P_n.  From a float
start that is one integer step at 53 bits, two at 103 and 126, and
about three at 336:

* P_n(x) and P_(n-1)(x) come from the recurrence
  j P_j = (2j-1) x P_(j-1) - (j-1) P_(j-2) with one floor per step, each
  losing under one unit; forward on [-1, 1] the recurrence carries those
  losses without amplifying them much;
* so Newton settles where the computed P_n(x) vanishes, off the root by
  P_n's error over |P_n'(x)|, and the weight
  w = 2 (1 - x^2) / (n (x P_n - P_(n-1)))^2 takes one floor division.

Against mpmath's rule at 600 bits, for degrees 2..6 at 53 to 336 bits,
every node lies within 1.5 units and every weight within 6.1 units (under
2^-(F-13) relative, the smallest weight at n = 96 being about 2^-10).
Each value is then rounded once to the context, which adds at most half
an ulp.  The pairs come as (x, w), (-x, w) with x descending.

The Kronrod extension (``_gk_nodes``) keeps those n nodes and adds n + 1,
one beyond the largest and one between each two in a row (D. Laurie,
Calculation of Gauss-Kronrod quadrature rules, Math. Comp. 66, 1997;
A. S. Kronrod, 1965); for even n, x = 0 is one of them.  It is exact for
degree 3n + 1.  Only x >= 0 is made:

* Laurie's algorithm (Gautschi's ``r_kronrod``) gives the 2n + 1
  recurrence coefficients b_k of the Kronrod matrix in fixed point (the
  a_k are all 0, as the weight is even).  In y = 2x every b_k is about 1,
  and each is off the exact algorithm's by at most a dozen units for
  n <= 48;
* the monic p_(2n+1)(y) = y Q(y^2) runs over its odd indices alone, by
  the recurrence taken twice, p_(k+2) = (y^2 - b_k - b_(k+1)) p_k -
  b_k b_(k-1) p_(k-2), with a floor per step;
* a new node starts from Newton in floats on p_(2n+1)/P_n, half-way in
  angle between its two Gauss nodes, and takes integer Newton steps on
  p_(2n+1) until a step is at most a unit;
* its weight, the integral of its Lagrange polynomial, is
  ||P_n||^2 / p_(2n+1)'(x), plus the Gauss weight at a Gauss node; at a
  new node p_(2n+1)' comes from the last Newton step, at most a unit off.

Against Laurie's algorithm in exact fractions, with the roots and the
Christoffel numbers 1/sum q_k(x)^2 at 600 bits, for n = 6..48 at 73 to
356 bits, every node lies within 3 units and every weight within 7 (under
2^-(F-12) relative).  Each is rounded once to the context.
"""

from __future__ import annotations

import math

from .errors import check_int
from .gammakit import _GUARD
from .precision import PrecisionContext


# (n, bits) -> the positive roots of P_n and their weights, at 2^-bits
_GL_CACHE: dict = {}
# (digits, degree) -> the Kronrod table of that degree
_GK_CACHE: dict = {}


def _float_root(n: int, k: int) -> float:
    """The k-th largest root of P_n to float accuracy, by Newton from the
    asymptotic start cos(pi (k - 1/4) / (n + 1/2))."""
    x = math.cos(math.pi * (k - 0.25) / (n + 0.5))
    while True:
        p1, p0 = x, 1.0
        for j in range(2, n + 1):
            p1, p0 = ((2 * j - 1) * x * p1 - (j - 1) * p0) / j, p1
        step = p1 * (x * x - 1) / (n * (x * p1 - p0))
        x -= step
        if abs(step) < 1e-10:
            return x


def _legendre(x: int, n: int, bits: int):
    """P_n and P_(n-1) at x 2^-bits, each a fixed-point integer at
    ``bits``, by the three-term recurrence with one floor per step."""
    p1, p0 = x, 1 << bits
    for j in range(2, n + 1):
        p1, p0 = (((2 * j - 1) * x * p1 - ((j - 1) * p0 << bits)) >> bits) // j, p1
    return p1, p0


def _gl_fixed(n: int, bits: int):
    """The positive roots x of P_n, descending, with their Gauss-Legendre
    weights w, as pairs of fixed-point integers at ``bits``; cached by
    (n, bits).  See the module docstring."""
    key = (n, bits)
    roots = _GL_CACHE.get(key)
    if roots is None:
        one2 = 1 << (2 * bits)  # 1 in units of 2^-(2 bits)
        roots = []
        for k in range(1, n // 2 + 1):
            x = int(math.ldexp(_float_root(n, k), 53)) << (bits - 53)
            while True:
                p1, p0 = _legendre(x, n, bits)
                # P_n' = n (x P_n - P_(n-1)) / (x^2 - 1), with d = x P_n - P_(n-1)
                d = x * p1 - (p0 << bits)
                step = p1 * (x * x - one2) // (n * d)
                x -= step
                # the step leaves x about x step^2/(1 - x^2) off, as
                # P_n''/P_n' = 2x/(1 - x^2) at a root; d, which the weight
                # reads from before the step, has d' = (n+1) P_n, so it is
                # off by about n(n+1) step^2/(2(1 - x^2)) relative.  Stop
                # once both are under a unit
                if (n * (n + 1) * step * step) << bits < one2 - x * x:
                    break
            # w = 2 / ((1 - x^2) P_n'^2) = 2 (1 - x^2) / (n d)^2
            roots.append((x, ((one2 - x * x) << (3 * bits + 1)) // (n * n * d * d)))
        roots = _GL_CACHE.setdefault(key, roots)
    return roots


def _gl_nodes(ctx: PrecisionContext, degree: int):
    """The Gauss-Legendre rule of n = 3 2^(degree-1) nodes (degree >= 2) as
    pairs (x, w), (-x, w) with x descending, each rounded once to ``ctx``."""
    n = 3 << (check_int(degree, "Gauss-Legendre degree", 2) - 1)
    bits = ctx.prec + _GUARD
    nodes = []
    for x, w in _gl_fixed(n, bits):
        x, w = ctx.from_fixed(x, bits), ctx.from_fixed(w, bits)
        nodes += [(x, w), (-x, w)]
    return nodes


def _kronrod_b(n: int, bits: int):
    """b_1 .. b_2n of the Jacobi matrix of the Kronrod extension of the
    n-node Gauss-Legendre rule, for the monic polynomials in y = 2x (so
    each b is 4 times Legendre's and about 1), at ``bits``.

    Laurie's algorithm (Gautschi's ``r_kronrod``) with every diagonal
    entry 0, as the weight is even: the first ceil(3n/2) b are
    Legendre's, 4k^2/(4k^2 - 1), and the rest come from two sweeps of
    mixed moments s, t, each a cumulative sum.  b_0 is never read."""
    b = [0] * (2 * n + 1)
    for k in range(1, (3 * n + 1) // 2 + 1):
        b[k] = (4 * k * k << bits) // (4 * k * k - 1)
    s = [0] * (n // 2 + 2)
    t = s[:]
    t[1] = b[n + 1]
    for m in range(n - 1):
        acc = 0
        for k in range((m + 1) // 2, -1, -1):
            acc += (b[k + n + 1] * s[k] - b[m - k] * s[k + 1]) >> bits
            s[k + 1] = acc
        s, t = t, s
    s = [0] + s[:-1]
    for m in range(n - 1, 2 * n - 2):
        acc = 0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - m + k
            acc += (b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]) >> bits
            s[j + 1] = acc
        if m % 2:
            b[(m + 1) // 2 + n + 1] = (s[j + 1] << bits) // s[j + 2]
        s, t = t, s
    return b


def _gk_fixed(n: int, bits: int):
    """The Kronrod extension of the n-node Gauss-Legendre rule (n even) at
    x >= 0, in fixed point at ``bits``: the centre weight, and rows
    (x, w_K, w_G) with x descending and w_G = 0 at the n/2 new nodes.
    See the module docstring."""
    big = 2 * n + 1
    # p_(2n+1)(y) = y Q(z), z = y^2, and p_n(y) = R(z) (the monic
    # polynomials of the Kronrod matrix in y = 2x): the recurrence
    # p_(k+1) = y p_k - b_k p_(k-1) taken twice, p_(k+2) =
    # (z - b_k - b_(k+1)) p_k - b_k b_(k-1) p_(k-2), runs Q over the odd k
    # and R over the even ones
    b = _kronrod_b(n, bits)
    odd = [(b[k] + b[k + 1], b[k] * b[k - 1] >> bits) for k in range(1, big - 1, 2)]
    even = [(b[k] + b[k + 1], b[k] * b[k - 1] >> bits if k else 0) for k in range(0, n, 2)]
    unit = 2.0**-bits
    oddf = [(c * unit, d * unit) for c, d in odd]
    evenf = [(c * unit, d * unit) for c, d in even]
    # h = int_-1^1 P_n(x)^2 dx for the monic P_n in y: 2 b_1 ... b_n
    h = 2 << bits
    for k in range(1, n + 1):
        h = h * b[k] >> bits

    def float_step(x):
        # Newton's step in x for p_(2n+1)/p_n = y Q(z)/R(z) at a float x
        y = 2 * x
        z = y * y
        logs = []
        for chain in (oddf, evenf):
            q0, q1, d0, d1 = 0.0, 1.0, 0.0, 0.0
            for c, d in chain:
                t = z - c
                q0, q1, d0, d1 = q1, t * q1 - d * q0, d1, q1 + t * d1 - d * d0
            logs.append(d1 / q1)
        return 0.5 / (1 / y + 2 * y * (logs[0] - logs[1]))

    def slope(x):
        # p_(2n+1) at x 2^-bits and its derivative in y, d/dy (y Q(z)) =
        # Q + 2 z Q'(z), both at bits
        y = x << 1
        z = y * y >> bits
        q0, q1, d0, d1 = 0, 1 << bits, 0, 0
        for c, d in odd:
            t = z - c
            d0, d1 = d1, q1 + ((t * d1 - d * d0) >> bits)
            q0, q1 = q1, (t * q1 - d * q0) >> bits
        return y * q1 >> bits, q1 + (z * d1 >> (bits - 1))

    gauss = _gl_fixed(n, bits)
    hi = [1 << bits] + [x for x, _ in gauss]
    theta = [0.0] + [math.acos(x * unit) for x, _ in gauss]
    rows = []
    for k, (x, wg) in enumerate(gauss):
        # the new node between hi[k] and x, from half-way in the angle
        xf = math.cos((theta[k] + theta[k + 1]) / 2)
        while True:
            step = float_step(xf)
            xf -= step
            # Newton's next error is about step^2 / spacing
            if abs(step) < 1e-8 * (hi[k] - x) * unit:
                break
        xi = int(math.ldexp(xf, 53)) << (bits - 53)
        while True:
            p, dp = slope(xi)
            step = (p << (bits - 1)) // dp
            xi -= step
            if abs(step) <= 1:
                break
        if not x < xi < hi[k]:
            raise ArithmeticError("Kronrod node left its Gauss interval")
        # the weights: int of the Lagrange basis polynomial of each node
        # gives h/p'_(2n+1) there, plus the Gauss weight at a Gauss node
        rows.append((xi, (h << bits) // dp, 0))
        rows.append((x, wg + (h << bits) // slope(x)[1], wg))
    return (h << bits) // slope(0)[1], rows


def _gk_nodes(ctx: PrecisionContext, degree: int):
    """The (2n+1)-node Kronrod extension of ``_gl_nodes``'s rule of
    degree, n = 3 2^(degree-1): the centre weight, and rows (x, w_K, w_G)
    for the nodes x > 0, descending, with w_G = 0 at the new nodes, each
    value rounded once to ``ctx``; the Gauss nodes and weights are
    ``_gl_nodes``'s own.  Cached by (digits, degree)."""
    key = (ctx.digits, degree)
    table = _GK_CACHE.get(key)
    if table is None:
        bits = ctx.prec + _GUARD
        gauss = iter(_gl_nodes(ctx, degree)[0::2])
        centre, fixed = _gk_fixed(3 << (degree - 1), bits)
        rows = []
        for x, wk, wg in fixed:
            # a Gauss row takes x and w_G as _gl_nodes rounded them
            x, wg = next(gauss) if wg else (ctx.from_fixed(x, bits), 0)
            rows.append((x, ctx.from_fixed(wk, bits), wg))
        table = _GK_CACHE.setdefault(key, (ctx.from_fixed(centre, bits), rows))
    return table
