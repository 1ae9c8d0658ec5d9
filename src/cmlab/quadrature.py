"""High-precision semi-infinite quadrature.

Covers the four integral shapes the package needs:

* Laplace transforms  int_0^inf kernel(v) e^{-tv} dv        (``laplace``)
* Bose-type moments   int_0^inf w^s / (e^{2 pi w} - 1) dw   (``bose_moment``)
* the cosine kernel   int_0^inf w^{2n-1}[1-cos(wv)]/(e^{2 pi w}-1) dw
* the sine moments    int_0^inf u^p sin(su)/(e^u - 1) du

The engine is deliberately simple and certifiable: panels integrated by
*nested pairs* of Gauss-Legendre rules, with nodes made here (a rising
pair must agree to the panel tolerance, otherwise the panel is bisected),
plus analytic
exponential tail bounds for the cutoff.  All four shapes run the same
panel march and differ only in their panels and their tail bound:
doubling panels for ``laplace`` and ``bose_moment``, and panels aligned to
half-periods for the oscillatory integrands, so each panel is smooth and
non-oscillatory.  ``bose_moment`` and the oscillatory integrals share one
exponential-envelope tail.

Two stability rules are applied throughout: 1 - cos(x) is always evaluated
as 2 sin^2(x/2), and 1/(e^x - 1) always goes through expm1 (or, in the
frame below, the sum of two terms >= 0).

A panel is summed by a *rule* ``rule(a, b, degree)``, the one entry of
``_panel``.  ``laplace`` and ``bose_moment`` call their integrand at each
node mid + half x.  The oscillatory shapes, u^p trig(u)/(e^{r u} - 1) with
trig = sin(f u) (f = s, r = 1) or 1 - cos(v u) = 2 sin^2(f u) (f = v/2,
r = 2 pi), are summed by ``_FrameRule`` as one integer dot product in a
fixed-point frame, as gammakit's jets are: every number is a multiple of
2^-F, F = prec + gammakit's ``_GUARD`` bits.  A node is u = a + y with
y = half (1 + x), and two exact identities leave no transcendental call
that depends on both a and y:

    sin(f u) = sin(f a) cos(f y) + cos(f a) sin(f y),
    e^{r u} - 1 = e^{r a} (expm1(r y) + G),   G = -expm1(-r a) = 1 - e^{-r a}.

Both terms of the second are >= 0, so nothing cancels, and the integrand
is e^{-r a} u^p trig / (expm1(r y) + G).  A table per (degree, half) holds
y, the weight, expm1(r y) and cos/sin(f y) at each node; the last come by
angle addition from cos/sin(f half) and cos/sin(f half x), since the
nodes come in pairs x, -x.  Per panel start a the frame holds a,
cos/sin(f a) and G = 2^F - floor(e^{-r a} 2^F) (in units of 2^-F), and
e^{-r a} multiplies the panel's sum in mpf.  So a panel costs one cos_sin
and one exp, and a node integer multiplies and one floor division.  Each
value is computed on ctx.boosted(7), which has at least 22 more bits than
ctx and whose precision is never raised, and then floored into the frame.

The frame's error, in units of 2^-F: each table entry is within 2^-(F+2)
of its size before its floor, which loses under one unit more, and the
angle additions floor once more.  So a + y, sin(f u) and expm1(r y) + G
are off by a few units (the last two are at most 1 and e^r), and each
node's quotient is floored once.  Divided by expm1(r y) + G >= expm1(r y)
and summed with weights whose w_i/(1 + x_i) add up to a few times log N,
this leaves the panel's value off by at most a few dozen units times the
envelope u^p/(e^{r u} - 1) at its largest on the panel: with F = prec + 20,
far below the rounding floor 10 eps (1 + |hi|) that every panel counts in
its error bound.  Like that floor, the frame is absolute: an integral far
below its envelope (the cosine kernel at v near 0) keeps no more than that.

Every rule's nodes and weights come from ``_gl_nodes``, in the same
frame: F = prec + ``_GUARD`` bits for the context it is called on.  The
rule of degree m has n = 3 2^(m-1) nodes, mpmath's convention, which
``_panel``'s evaluation budget assumes.  Each positive root x of P_n starts
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

The half-period panels are pi/s or pi/v wide, capped at 1 and cut to
prec - 32 bits, so that panel ends and bisection points are exact and a
call meets few halves; each half's tables serve every panel, and a panel
of degree 2..5 has 6 + 12 + 24 + 48 = 90 nodes.  For s or v <= pi they are
the unit panels [k, k+1] of every call, and two module-level caches keep
what does not depend on s or v: the node tables, keyed by (bits, r,
degree, half), and e^{-r a} and G, keyed by (bits, r, a).  No key holds
v or s, so the caches stay bounded.  Above pi, and for cos/sin of f, the
tables are the call's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, IntegrationError, check_int
from .gammakit import _GUARD, _fixed_coeffs, _log2, _table, _term_count
from .kernels import _taylor
from .precision import PrecisionContext

__all__ = [
    "IntegralResult",
    "laplace",
    "bose_moment",
    "cos_kernel_integral",
    "sin_kernel_integral",
    "DEFAULT_BUDGET",
]

#: default cap on integrand evaluations per integral
DEFAULT_BUDGET = 200_000

_MAX_SPLIT_DEPTH = 40


@dataclass
class IntegralResult:
    """Value of a semi-infinite integral with a conservative error bound.

    ``est_error`` adds, for every panel, the nested-rule disagreement and
    the rounding floor 10 eps (1 + |panel value|) to the analytic bound on
    the discarded tail; on success it is below the tolerance that was
    requested.
    """

    value: object
    est_error: object
    evaluations: int


class _Budget:
    """Mutable evaluation counter shared by the panels of one integral."""

    def __init__(self, limit: int):
        self.limit = check_int(limit, "evaluation budget")
        self.used = 0

    def spend(self, n: int):
        self.used += n
        if self.used > self.limit:
            raise IntegrationError(
                "evaluation budget of %d integrand calls exhausted" % self.limit,
                evaluations=self.used,
            )


# -- Gauss-Legendre panel machinery -----------------------------------

# (digits, degree) -> list of (node, weight) on [-1, 1]
_GL_CACHE: dict = {}


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


def _gl_nodes(ctx: PrecisionContext, degree: int):
    """The Gauss-Legendre rule of n = 3 2^(degree-1) nodes (degree >= 2) as
    pairs (x, w), (-x, w) with x descending, each rounded once to ``ctx``;
    cached by (digits, degree).  See the module docstring."""
    key = (ctx.digits, degree)
    nodes = _GL_CACHE.get(key)
    if nodes is None:
        n = 3 << (check_int(degree, "Gauss-Legendre degree", 2) - 1)
        bits = ctx.prec + _GUARD
        one2 = 1 << (2 * bits)  # 1 in units of 2^-(2 bits)
        nodes = []
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
            w = ((one2 - x * x) << (3 * bits + 1)) // (n * n * d * d)
            x, w = ctx.from_fixed(x, bits), ctx.from_fixed(w, bits)
            nodes += [(x, w), (-x, w)]
        nodes = _GL_CACHE.setdefault(key, nodes)
    return nodes


def _panel(rule, a, b, budget, degree):
    """One Gauss-Legendre pass of the given degree over [a, b]; mpmath's
    rule of degree m has 3 * 2^(m-1) nodes."""
    budget.spend(3 << (degree - 1))
    return rule(a, b, degree)


def _pointwise(ctx, f):
    """The panel rule that calls the integrand f at each node."""

    def rule(a, b, degree):
        mid = (a + b) / 2
        half = (b - a) / 2
        acc = ctx.mpf(0)
        for x, w in _gl_nodes(ctx, degree):
            acc += w * f(mid + half * x)
        return half * acc

    return rule


def _integrate_panel(ctx, rule, a, b, panel_tol, budget, degree=5, depth=0):
    """Nested-pair panel integral: pairs of consecutive degree climb from
    degree-2 until two rules agree, else the panel is bisected (bounds add).
    The bound is the pair's disagreement plus the rounding floor."""
    hi = _panel(rule, a, b, budget, degree - 2)
    for d in range(degree - 1, degree + 2):
        lo, hi = hi, _panel(rule, a, b, budget, d)
        diff = abs(hi - lo)
        # rounding floor: below this level the disagreement is noise, not signal
        floor = 10 * ctx.eps * (1 + abs(hi))
        if diff <= panel_tol or diff <= floor:
            return hi, diff + floor
    if depth >= _MAX_SPLIT_DEPTH:
        raise IntegrationError(
            "panel [%s, %s] did not converge after %d bisections" % (a, b, depth),
            est_error=diff,
            evaluations=budget.used,
        )
    m = (a + b) / 2
    v1, e1 = _integrate_panel(ctx, rule, a, m, panel_tol / 2, budget, degree, depth + 1)
    v2, e2 = _integrate_panel(ctx, rule, m, b, panel_tol / 2, budget, degree, depth + 1)
    return v1 + v2, e1 + e2


def _envelope_tail(ctx, p, rate, amp=1):
    """Tail bound b -> amp int_b^inf u^p e^{-rate u} du / (1 - e^{-rate b})
    for an integrand bounded by amp u^p / (e^{rate u} - 1).

    The integral is at most b^p e^{-rate b} / (rate - p/b) once rate b > p
    (geometric majorant on the shifted series); before that it is None.
    """

    def tail(b):
        if rate * b <= p:
            return None
        decay = ctx.exp(-rate * b)
        env = ctx.power(b, p) * decay / (rate - ctx.mpf(p) / b)
        return amp * env / (1 - decay)

    return tail


def _doubling_panels(ctx, a, b, tol):
    """Panels [a, b], [b, 2b], [2b, 4b], ... with tolerance tol/2^(i+3) for
    the i-th, at most 201 of them."""
    for idx in range(201):
        yield a, b, tol / ctx.mpf(2) ** (idx + 3)
        a, b = b, 2 * b


def _half_period_panels(ctx, freq, p, rate, tol):
    """Unending panels one half-period pi/freq wide (capped at 1) from 0,
    each with tolerance tol / (8 n_est), where n_est estimates how many pass
    before the envelope tail of u^p / (e^{rate u} - 1) engages."""
    width = min(ctx.mpf(1), ctx.pi / freq)
    # cut to prec - 32 bits: k width and the bisection points of its
    # panel are then exact for k 2^depth < 2^32, so every panel is the
    # same width and the node tables of one call serve them all
    man, exp = width.man_exp
    cut = max(0, man.bit_length() - (ctx.prec - 32))
    width = ctx.from_fixed(man >> cut, -exp - cut)
    panel_tol = tol / (8 * _estimate_panels(float(tol), p, float(rate), float(width)))
    a = ctx.mpf(0)
    while True:
        yield a, a + width, panel_tol
        a += width


def _march(ctx, rule, panels, tail, tol, bud, degree=5, total=0, err=0):
    """The one panel loop: add each panel's integral by ``rule`` and its
    error to ``total`` and ``err`` until tail(b) (None while no bound
    holds) drops below tol/4, then add the tail to the error.

    Raises IntegrationError when the panels or the evaluation budget run
    out first.  Its ``est_error`` is the error of the finished panels plus
    the tail bound at the last one's end, or infinite while no tail bound
    has held.
    """
    total = ctx.mpf(total)
    err = ctx.mpf(err)
    rest = None
    try:
        for a, b, panel_tol in panels:
            val, perr = _integrate_panel(ctx, rule, a, b, panel_tol, bud, degree)
            total += val
            err += perr
            rest = tail(b)
            if rest is not None and rest < tol / 4:
                return IntegralResult(total, err + rest, bud.used)
        raise IntegrationError(
            "tail bound did not engage before the panels ran out", evaluations=bud.used
        )
    except IntegrationError as exc:
        exc.est_error = err + (ctx.mpf("inf") if rest is None else rest)
        raise


# -- Laplace transforms ------------------------------------------------


def laplace(
    ctx: PrecisionContext,
    kernel: Callable,
    t,
    tol,
    budget: int = DEFAULT_BUDGET,
    *,
    kernel_bound,
) -> IntegralResult:
    """int_0^inf kernel(v) e^{-tv} dv for a kernel bounded by the caller's
    uniform bound |kernel(v)| <= ``kernel_bound`` on (0, inf).

    Panels are the variable-doubling sequence [0,1], [1,2], [2,4], ...;
    integration stops when the analytic tail bound
    kernel_bound e^{-tb}/t on int_b^inf drops below the tolerance.
    """
    t = ctx.positive(t, "laplace")
    tol = ctx.positive(tol, "laplace", "tol")
    bound = ctx.positive(kernel_bound, "laplace", "kernel_bound")
    bud = _Budget(budget)

    def integrand(v):
        return kernel(v) * ctx.exp(-t * v)

    def tail(b):
        return bound * ctx.exp(-t * b) / t

    panels = _doubling_panels(ctx, ctx.mpf(0), ctx.mpf(1), tol)
    return _march(ctx, _pointwise(ctx, integrand), panels, tail, tol, bud)


# -- Bose-type moments -------------------------------------------------


def bose_moment(ctx: PrecisionContext, s, tol, budget: int = DEFAULT_BUDGET) -> IntegralResult:
    """int_0^inf w^s / (e^{2 pi w} - 1) dw for s > 0.

    The integrand behaves like w^{s-1}/(2 pi) at the origin.  For integer
    s the regrouped integrand w^{s-1} * [w / (e^{2 pi w} - 1)] is analytic
    there and plain panels converge; for non-integer s the first panel
    [0, 1/8] is summed through the Bernoulli generating-function series
    instead, to the working precision.
    """
    s = ctx.positive(s, "bose_moment", "s")
    tol = ctx.positive(tol, "bose_moment", "tol")
    bud = _Budget(budget)
    two_pi = 2 * ctx.pi

    def integrand(w):
        return ctx.power(w, s) / ctx.expm1(two_pi * w)

    rule = _pointwise(ctx, integrand)
    tail = _envelope_tail(ctx, float(s), two_pi)
    if s == int(s):
        panels = _doubling_panels(ctx, ctx.mpf(0), ctx.mpf(1) / 2, tol)
        return _march(ctx, rule, panels, tail, tol, bud)
    a = ctx.mpf(1) / 8
    val, serr = _bose_corner_series(ctx, s, a)
    panels = _doubling_panels(ctx, a, 2 * a, tol)
    return _march(ctx, rule, panels, tail, tol, bud, total=val, err=serr)


def _bose_corner_series(ctx, s, w0):
    """int_0^{w0} w^s/(e^{2 pi w}-1) dw and an error bound, by the
    generating-function series

    w^s/(e^{2 pi w}-1) = w^{s-1}/(2 pi) * sum_j B_j (2 pi w)^j / j!

    integrated termwise: with y = 2 pi w0, x = y^2 and a_k = B_2k/(2k)!,

    w0^s/(2 pi) [1/s - y/(2(s+1)) + sum_{k>=1} a_k x^k/(s+2k)].

    For y < 2 pi the a_k x^k alternate in sign and shrink (by about
    x/(4 pi^2)), and 1/(s+2k) only shrinks later terms more, so the term
    count gammakit takes from the a_k x^k alone, relative to the k = 1
    term, is conservative, and the first omitted term bounds the
    truncation.  The bound adds the rounding of the terms summed.
    """
    tab = _table(_taylor, 0)  # a_k: the Taylor coefficients of f_0
    two_pi = 2 * ctx.pi
    y = two_pi * w0
    x = y * y
    bits = ctx.prec + _GUARD
    count = _term_count(tab, 1, 2 * _log2(y), bits)
    terms = [1 / s, -y / (2 * (s + 1))]
    xk = ctx.mpf(1)
    for k, c in enumerate(_fixed_coeffs(tab, 1, count, bits), 1):
        xk *= x
        terms.append(ctx.from_fixed(c, bits) * xk / (s + 2 * k))
    omitted = abs(terms.pop())
    scale = ctx.power(w0, s) / two_pi
    rounding = 4 * (count + 4) * ctx.eps * sum(abs(term) for term in terms)
    return scale * sum(terms), scale * (omitted + rounding)


# -- oscillatory kernels -----------------------------------------------


# (bits, rate, degree, half) -> the node table of a unit panel's half
_NODE_CACHE: dict = {}
# (bits, rate, a) -> e^{-rate a} and G at the start a of a unit panel
_OFFSET_CACHE: dict = {}


class _FrameRule:
    """The panel rule of the sine moments u^p sin(freq u) / (e^u - 1), or
    for ``cosine`` of the cosine kernel u^p [1 - cos(freq u)] / (e^{2 pi u} - 1),
    summed in one fixed-point frame (see the module docstring)."""

    def __init__(self, ctx, p, freq, cosine):
        self.ctx = ctx
        self.wctx = wctx = ctx.boosted(7)
        self.bits = ctx.prec + _GUARD
        self.p = p
        self.cosine = cosine
        # f in sin(f u), and r
        self.angle = wctx.mpf(freq) / 2 if cosine else wctx.mpf(freq)
        self.rate = 2 * wctx.pi if cosine else wctx.mpf(1)
        # up to pi the panels are the unit panels of every freq
        shared = freq <= ctx.pi
        self.nodes = _NODE_CACHE if shared else {}
        self.offsets = _OFFSET_CACHE if shared else {}
        # this call's tables: (degree, half) -> the panel table, and a
        # panel start a -> its factors
        self.panels = {}
        self.starts = {}

    def _fixed(self, x):
        return self.wctx.to_fixed(x, self.bits)

    def _cos_sin(self, x):
        return [self._fixed(c) for c in self.wctx.cos_sin(self.angle * x)]

    def _node_table(self, degree, half):
        """For a panel 2 half wide: the nodes x > 0, and in the frame
        y = half (1 + x), the weight and expm1(rate y), at x and -x in turn.
        Gauss-Legendre nodes come in pairs x, -x of one weight, with no
        node at 0 from degree 2 on."""
        key = (self.bits, self.rate, degree, half)
        table = self.nodes.get(key)
        if table is None:
            wctx = self.wctx
            half = wctx.mpf(half)
            pos = [(x, w) for x, w in _gl_nodes(wctx, degree) if x > 0]
            ys = [half * (1 + sx * x) for x, _ in pos for sx in (1, -1)]
            table = (
                [x for x, _ in pos],
                [self._fixed(y) for y in ys],
                [self._fixed(w) for _, w in pos for _ in (1, -1)],
                [self._fixed(wctx.expm1(self.rate * y)) for y in ys],
            )
            table = self.nodes.setdefault(key, table)
        return table

    def _panel_table(self, degree, half):
        """The node table and cos and sin of f y at its nodes: at
        y = half (1 +- x) the angle f half +- f half x, by angle addition."""
        key = (degree, half)
        table = self.panels.get(key)
        if table is None:
            xs, yf, wf, ef = self._node_table(degree, half)
            bits = self.bits
            half = self.wctx.mpf(half)
            c0, s0 = self._cos_sin(half)
            cf, sf = [], []
            for x in xs:
                c, s = self._cos_sin(half * x)
                cf += [(c0 * c - s0 * s) >> bits, (c0 * c + s0 * s) >> bits]
                sf += [(s0 * c + c0 * s) >> bits, (s0 * c - c0 * s) >> bits]
            table = self.panels[key] = (yf, wf, ef, cf, sf)
        return table

    def _start(self, a):
        """At a panel start a, in the frame: a, G = 1 - e^{-rate a},
        cos and sin of f a; and e^{-rate a} in mpf."""
        start = self.starts.get(a)
        if start is None:
            key = (self.bits, self.rate, a)
            offset = self.offsets.get(key)
            if offset is None:
                ea = self.wctx.exp(-self.rate * self.wctx.mpf(a))
                offset = self.offsets.setdefault(key, (ea, (1 << self.bits) - self._fixed(ea)))
            ea, g = offset
            start = self.starts[a] = (self._fixed(a), g, *self._cos_sin(a), ea)
        return start

    def __call__(self, a, b, degree):
        # b - a is exact, since a = 0 or b <= 2a
        half = (b - a) / 2
        yf, wf, ef, cf, sf = self._panel_table(degree, half)
        at, g, ca, sa, ea = self._start(a)
        p = self.p
        acc = 0
        # a + y is held at F bits, so its p-th power at pF, sin(f u) at 2F
        # and expm1(rate y) + G at F: the lift brings each quotient to F
        # bits with one floor
        if self.cosine:
            lift = (p + 2) * self.bits
            for y, w, e, c, s in zip(yf, wf, ef, cf, sf):
                t = sa * c + ca * s
                acc += w * ((2 * (at + y) ** p * t * t) // ((e + g) << lift))
        else:
            lift = p * self.bits
            for y, w, e, c, s in zip(yf, wf, ef, cf, sf):
                acc += w * (((at + y) ** p * (sa * c + ca * s)) // ((e + g) << lift))
        return self.ctx.mpf(ea * self.wctx.from_fixed(acc, 2 * self.bits) * half)


def _oscillatory(ctx, p, freq, cosine, tol, bud):
    """The march of ``_FrameRule``'s integrand on panels pi/freq wide,
    with the exponential-envelope tail of its envelope, u^p/(e^u - 1) or
    for ``cosine`` 2 u^p/(e^{2 pi u} - 1)."""
    rate = 2 * ctx.pi if cosine else 1
    panels = _half_period_panels(ctx, freq, p, rate, tol)
    tail = _envelope_tail(ctx, p, rate, amp=2 if cosine else 1)
    return _march(ctx, _FrameRule(ctx, p, freq, cosine), panels, tail, tol, bud, degree=4)


def cos_kernel_integral(
    ctx: PrecisionContext, n: int, v, tol, budget: int = DEFAULT_BUDGET
) -> IntegralResult:
    """int_0^inf w^{2n-1} [1 - cos(wv)] / (e^{2 pi w} - 1) dw  (n >= 1, v >= 0).

    The integrand is pointwise nonnegative (written as 2 sin^2(wv/2), which
    is also what keeps it cancellation-free).  Panels are aligned to the
    half-period pi/v (capped at width 1) so each panel sees at most one
    hump of the oscillation; at v = 0 the integral is exactly 0.

    Each panel is summed in the fixed-point frame of the module docstring,
    at rate 2 pi.  For v <= pi the panels are the unit panels of every v:
    their tables of w and expm1(2 pi w), and e^{-2 pi a} and G at each
    panel start a, come from the module caches, and only cos and sin of
    wv/2 are made per call.
    """
    n = check_int(n, "cos_kernel_integral n", 1)
    tol = ctx.positive(tol, "cos_kernel_integral", "tol")
    bud = _Budget(budget)
    v = ctx.mpf(v)
    if v == 0:
        return IntegralResult(ctx.mpf(0), ctx.mpf(0), 0)
    # the message reads "requires finite v = 0 or v > 0"
    v = ctx.positive(v, "cos_kernel_integral", "v = 0 or v")
    return _oscillatory(ctx, 2 * n - 1, v, True, tol, bud)


def sin_kernel_integral(
    ctx: PrecisionContext, p: int, s, tol, budget: int = DEFAULT_BUDGET
) -> IntegralResult:
    """int_0^inf u^p sin(su) / (e^u - 1) du for even p >= 2, s > 0.

    Panels are aligned to the zeros of sin(su) (width pi/s, capped at 1),
    so panel contributions alternate in sign once u^p/(e^u-1) decays; the
    cutoff uses the exponential envelope, which needs no sign argument.
    Each panel is summed in the fixed-point frame of the module docstring,
    at rate 1; for s <= pi the unit panels' tables come from the module
    caches.
    """
    p = check_int(p, "sin_kernel_integral p", 2)
    if p % 2:
        raise DomainError("sin_kernel_integral requires even p, got %d" % p)
    s = ctx.positive(s, "sin_kernel_integral", "s")
    tol = ctx.positive(tol, "sin_kernel_integral", "tol")
    return _oscillatory(ctx, p, s, False, tol, _Budget(budget))


def _estimate_panels(tol, p, rate, width):
    """Rough (float) count of half-period panels before the exponential
    tail bound engages; only used to apportion the tolerance."""
    target = -math.log(max(tol, 1e-300)) + 8
    u = max(2.0, p / rate + 1)
    for _ in range(60):
        u_new = (target + p * math.log(u)) / rate
        if u_new <= u:
            break
        u = u_new
    return max(4, int(u / width) + 2)

