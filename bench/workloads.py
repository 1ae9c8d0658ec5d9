"""The benchmark's three workloads: how their inputs are made from the seed,
how one round runs against cmlab, and how its outputs are encoded.

A round is the whole workload once.  The worker runs one round per fresh
process, so every round is cold, as a user's invocation is.

* ``degree-bisect`` -- the paper's own question: ``cmlab degree`` on the
  default 400-point grid at 30 digits, order 8, resolution 0.05, for
  ``phi`` bracketed from [1, 3] and for ``negRprime:2`` from its CLI
  default bracket.  One operation is one bracket.  No quadrature or
  kernels run; the time goes into one cold fill of the derivative cache
  followed by warm-cache bisection.
* ``verify-quick`` -- ``cmlab verify --quick --suite all --digits 30``.
  One operation is one record.  Quadrature does most of the work.
* ``eval-wide`` -- cold pointwise library calls at 30 and 100 digits on
  seeded log-uniform points, plus fixed probes of two known faults.  One
  operation is one value.  No value is reused, so no cache helps.

Only ``eval-wide`` depends on the seed; the other two are fixed questions.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

WORKLOADS = ("degree-bisect", "verify-quick", "eval-wide")

DEGREE_RESOLUTION = "0.05"
_DEGREE_COMMON = [
    "--digits", "30", "--grid", "1e-10:1e3:400", "--order", "8",
    "--resolution", DEGREE_RESOLUTION,
]
DEGREE_RUNS = (
    ("phi", ["degree", "--fn", "phi", "--alpha-lo", "1", "--alpha-hi", "3"] + _DEGREE_COMMON),
    ("negRprime:2", ["degree", "--fn", "negRprime:2"] + _DEGREE_COMMON),
)

VERIFY_ARGV = ["verify", "--quick", "--suite", "all", "--digits", "30"]
VERIFY_RECORDS = (
    "binet",
    "bose",
    "laplace-rep",
    "psi-integral",
    "remark1-positivity",
    "remark1-vanishing",
    "remark2-nonnegative",
    "remark3-exact-bound",
    "remark3-n1",
    "remark3-n2",
    "remark4-n1",
)

# -- eval-wide inputs ---------------------------------------------------

EVAL_DIGITS = (30, 100)
#: seeded points per (function, index, digits) and per branch stratum
POINTS = 8
T_RANGE = (1e-10, 1e12)
V_RANGE = (1e-6, 1e3)
#: f_n and K_m switch from Taylor series to closed form here
SERIES_BRANCH = 0.5

# Fault 1: gammakit stops the polygamma series at an absolute eps/100 of its
# working precision (digits + 10 + m).  The first omitted term bounds the
# error and |psi^(m)(t)| >= (m-1)!/t^m, so the relative error is at most
# 10^-(digits+12+m) t^m/(m-1)!: a tenth of the tolerance 10^-(digits-3) up
# to t^m = (m-1)! 10^(14+m).  Above that the outcome depends on where the
# series happens to stop, so the seeded sweep ends there and fixed probes
# cover the rest.
def polygamma_sound_limit(m: int) -> float:
    if m == 0:
        return T_RANGE[1]
    return min(T_RANGE[1], 10 ** ((math.lgamma(m) / math.log(10) + 14 + m) / m))


# Fault 2: kernels._f_series stops at an absolute 10^-(digits+5), so f_n
# loses relative accuracy for n >= 2 on the series branch (v < 1/2).  The
# seeded sweep samples those f_n on the closed branch only.
F_SERIES_FAULT_MIN_N = 2

FAULT_POLYGAMMA = "polygamma-absolute-stop"
FAULT_F_SERIES = "f-series-absolute-stop"
PROBES = tuple(
    ("polygamma", m, d, t, FAULT_POLYGAMMA)
    for d in EVAL_DIGITS
    for m in range(2, 13)
    for t in (1e6, 1e9, 1e12)
) + tuple(
    ("f_kernel", n, d, v, FAULT_F_SERIES)
    for d in EVAL_DIGITS
    for n in (2, 3)
    for v in (1e-5, 7e-5, 1e-3, 1e-2)
)


def _log_stratified(rng, lo, hi, k):
    """k log-uniform points in [lo, hi), one in each of k strata of equal
    log width, so every seed covers the range evenly.  Points stay in
    [lo, hi) whatever the rounding of exp and log, so each draw stays on its
    side of a branch point."""
    a = math.log(lo)
    w = (math.log(hi) - a) / k
    return [
        min(max(math.exp(rng.uniform(a + i * w, a + (i + 1) * w)), lo), math.nextafter(hi, 0.0))
        for i in range(k)
    ]


def eval_inputs(seed: int):
    """The eval-wide round: a list of (fn, index, digits, x, fault) with x a
    float (exact in every precision) and fault the name of the known fault
    a fixed probe targets, or None for a seeded point."""
    rng = random.Random(seed)
    ops = []

    def draw(fn, index, digits, lo, hi):
        ops.extend((fn, index, digits, x, None) for x in _log_stratified(rng, lo, hi, POINTS))

    for d in EVAL_DIGITS:
        for m in range(13):
            draw("polygamma", m, d, T_RANGE[0], polygamma_sound_limit(m))
        draw("ln_gamma", None, d, *T_RANGE)
        for n in range(4):
            for j in range(9):
                draw("remainder_deriv", (n, j), d, *T_RANGE)
        # both kernel branches get the same number of points, so the
        # branch-dependent per-layer counts do not depend on the seed
        kernels = [("f_kernel", n) for n in range(4)] + [("K_kernel", m) for m in (1, 2, 3, 5)]
        for fn, index in kernels:
            if not (fn == "f_kernel" and index >= F_SERIES_FAULT_MIN_N):
                draw(fn, index, d, V_RANGE[0], SERIES_BRANCH)
            draw(fn, index, d, SERIES_BRANCH, V_RANGE[1])
    ops.extend(PROBES)
    return ops


# -- rounds ----------------------------------------------------------------


def import_cmlab():
    """Import cmlab, with its cli, from this checkout's ``src`` and nowhere
    else."""
    sys.path.insert(0, SRC)
    import cmlab
    import cmlab.cli  # noqa: F401  (the package does not import it)

    if not os.path.abspath(cmlab.__file__).startswith(SRC + os.sep):
        raise ImportError("cmlab was imported from %s, not from %s" % (cmlab.__file__, SRC))
    return cmlab


def build(workload: str, seed: int):
    if workload == "eval-wide":
        return eval_inputs(seed)
    return None


def _cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return {"rc": rc, "stdout": out.getvalue()}


def _eval_call(cmlab, ctxs, fn, index, digits, x):
    ctx = ctxs[digits]
    if fn == "polygamma":
        return cmlab.gammakit.polygamma(ctx, index, x).value
    if fn == "ln_gamma":
        return cmlab.gammakit.ln_gamma(ctx, x).value
    if fn == "remainder_deriv":
        return cmlab.remainders.remainder_deriv(ctx, index[0], index[1], x)
    if fn == "f_kernel":
        return cmlab.kernels.f_kernel(ctx, index, x)
    return cmlab.kernels.K_kernel(ctx, index, x)


def run_round(cmlab, workload: str, inputs):
    """Run one round; returns raw outputs.  Everything inside is timed."""
    if workload == "degree-bisect":
        return [dict(_cli(cmlab.cli, argv), fn=fn) for fn, argv in DEGREE_RUNS]
    if workload == "verify-quick":
        return _cli(cmlab.cli, VERIFY_ARGV)
    ctxs = {d: cmlab.precision.PrecisionContext(d) for d in EVAL_DIGITS}
    out = []
    for fn, index, digits, x, _fault in inputs:
        try:
            out.append(_eval_call(cmlab, ctxs, fn, index, digits, x))
        except Exception as exc:  # a failed operation, reported and counted
            out.append(exc)
    return out


def encode(workload: str, outputs):
    """JSON-ready outputs.  mpf values travel as exact signed (mantissa,
    exponent) pairs, an exception as its message."""
    if workload != "eval-wide":
        return outputs
    enc = []
    for v in outputs:
        if isinstance(v, Exception):
            enc.append({"error": "%s: %s" % (type(v).__name__, v)})
        else:
            man, exp = v.man_exp  # |man|: the sign is kept apart
            enc.append([-int(man) if v < 0 else int(man), int(exp)])
    return enc
