"""The exact and fixed-point coefficient caches, and quadrature's frame
tables, under concurrent first use.

Each case runs in a fresh interpreter, so the caches start empty, with four
threads released together and a tiny thread switch interval, so that the
threads interleave inside the cache fills.  Each thread's own results,
computed during the race, and the values recomputed after the threads
join are all compared with single-threaded ones: a reader that uses a
partly built entry shows in its own results.
"""

import json
import os
import subprocess
import sys

import cmlab
from cmlab import (
    K_kernel,
    PrecisionContext,
    cos_kernel_integral,
    f_kernel,
    laplace,
    polygamma,
    remainder_jet,
    sin_kernel_integral,
)

from test_combinatorics import akiyama_tanigawa

THREADS = 4
MAX_BERNOULLI = 120
POLYGAMMA_DIGITS = range(40, 70)
# the jump past twice the bits of the first entry makes the fixed-point
# coefficient tables rebuild at more bits while other threads read them
JET_DIGITS = (40, 130, 50, 45)
# t = 0.3 lies below the switch for every n: the sweep over n makes the
# threads fill the Laurent table entry by entry while the others read it
JET_NS = range(3, 31)
# 9-order jets at t = 1e-6 take the Taylor route of psi^(m)(1+t): the
# threads fill the psi^(j)(1)/j! table of each working precision
TAYLOR_DIGITS = (30, 60)
# the same jump for the kernels' Taylor tables, on both kernel branches
KERNEL_DIGITS = (40, 130, 50)
# the oscillatory integrals on unit panels (v <= pi, whose tables go to the
# module caches), on panels pi/v wide, and the sine moments
QUADRATURE_DIGITS = (30, 45)
# a Laplace transform and a cosine kernel integral per thread, whose first
# panels fill the Gauss-Legendre and Gauss-Kronrod node caches
KRONROD_DIGITS = (20, 35)

_SCRIPT = """
import json, sys, threading
sys.setswitchinterval(1e-6)
from cmlab import (
    K_kernel, PrecisionContext, bernoulli, cos_kernel_integral, f_kernel, laplace, polygamma,
    remainder_jet, sin_kernel_integral)

(THREADS, MAX_BERNOULLI, DIGITS, JET_DIGITS, JET_NS, TAYLOR_DIGITS, KERNEL_DIGITS,
 QUADRATURE_DIGITS, KRONROD_DIGITS) = (%d, %d, range(%d, %d), %r, range(%d, %d), %r, %r, %r, %r)


def bernoulli_fill():
    # every n in turn: threads read while others grow the list and the
    # tangent recurrence's saved state one entry at a time
    return [str(bernoulli(n)) for n in range(MAX_BERNOULLI + 1)]


def polygamma_sweep():
    # fills the Bernoulli, exact and fixed-point coefficient tables and the
    # Laurent table's entry of the bare k = 0 term
    return [repr(polygamma(PrecisionContext(d), 3, "30").value) for d in DIGITS]


def jets():
    return [repr(remainder_jet(PrecisionContext(d), 2, 0, 12, "0.3")) for d in JET_DIGITS] + [
        repr(remainder_jet(PrecisionContext(15), n, 0, 16, "0.3")) for n in JET_NS
    ] + [repr(remainder_jet(PrecisionContext(d), 1, 1, 9, "1e-6")) for d in TAYLOR_DIGITS]


def kernels():
    out = []
    for d in KERNEL_DIGITS:
        ctx = PrecisionContext(d)
        vals = [f_kernel(ctx, n, v) for n in range(5) for v in ("0.3", "2")]
        vals += [K_kernel(ctx, m, v) for m in range(1, 10) for v in ("0.3", "2")]
        out.append(repr(vals))
    return out


def oscillatory():
    out = []
    for d in QUADRATURE_DIGITS:
        ctx = PrecisionContext(d)
        tol = ctx.mpf(10) ** (8 - d)
        for res in (
            cos_kernel_integral(ctx, 2, "1.5", tol),
            cos_kernel_integral(ctx, 2, "7", tol),
            sin_kernel_integral(ctx, 2, "1", tol),
        ):
            out.append(repr((res.value, res.est_error, res.evaluations)))
    return out


def kronrod():
    out = []
    for d in KRONROD_DIGITS:
        ctx = PrecisionContext(d)
        tol = ctx.mpf(10) ** (5 - d)
        for res in (
            laplace(ctx, lambda v: ctx.exp(-v), "1.5", tol, kernel_bound=1),
            cos_kernel_integral(ctx, 1, "2", tol),
        ):
            out.append(repr((res.value, res.est_error, res.evaluations)))
    return out


work = {
    "bernoulli": bernoulli_fill,
    "polygamma": polygamma_sweep,
    "jet": jets,
    "kernel": kernels,
    "quadrature": oscillatory,
    "kronrod": kronrod,
}[sys.argv[1]]
barrier = threading.Barrier(THREADS)
errors = []
results = [None] * THREADS


def run(i):
    barrier.wait()
    try:
        results[i] = work()
    except Exception as exc:
        errors.append(repr(exc))


threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
for th in threads:
    th.start()
for th in threads:
    th.join()
print(json.dumps({"errors": errors, "threads": results, "after": work()}))
""" % (
    THREADS,
    MAX_BERNOULLI,
    POLYGAMMA_DIGITS.start,
    POLYGAMMA_DIGITS.stop,
    JET_DIGITS,
    JET_NS.start,
    JET_NS.stop,
    TAYLOR_DIGITS,
    KERNEL_DIGITS,
    QUADRATURE_DIGITS,
    KRONROD_DIGITS,
)


def _race_in_fresh_interpreter(work):
    """Run ``work`` (a key of the script's ``work`` table) on THREADS threads at once
    in a new interpreter, then read the caches back single-threaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, work],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _assert_all_equal(result, single):
    """No thread failed, and every thread's results and the values read
    back after the join equal the single-threaded ``single``."""
    assert result["errors"] == []
    for i, got in enumerate(result["threads"]):
        assert got == single, "thread %d" % i
    assert result["after"] == single


def test_bernoulli_filled_concurrently_is_exact():
    result = _race_in_fresh_interpreter("bernoulli")
    _assert_all_equal(result, [str(akiyama_tanigawa(k)) for k in range(MAX_BERNOULLI + 1)])


def test_polygamma_filled_concurrently_matches_single_thread():
    # a duplicated entry shifts every later coefficient
    result = _race_in_fresh_interpreter("polygamma")
    single = [repr(polygamma(PrecisionContext(d), 3, "30").value) for d in POLYGAMMA_DIGITS]
    _assert_all_equal(result, single)


def test_remainder_jet_filled_concurrently_matches_single_thread():
    result = _race_in_fresh_interpreter("jet")
    single = [repr(remainder_jet(PrecisionContext(d), 2, 0, 12, "0.3")) for d in JET_DIGITS]
    single += [repr(remainder_jet(PrecisionContext(15), n, 0, 16, "0.3")) for n in JET_NS]
    single += [repr(remainder_jet(PrecisionContext(d), 1, 1, 9, "1e-6")) for d in TAYLOR_DIGITS]
    _assert_all_equal(result, single)


def test_kernels_filled_concurrently_match_single_thread():
    result = _race_in_fresh_interpreter("kernel")
    single = []
    for d in KERNEL_DIGITS:
        ctx = PrecisionContext(d)
        vals = [f_kernel(ctx, n, v) for n in range(5) for v in ("0.3", "2")]
        vals += [K_kernel(ctx, m, v) for m in range(1, 10) for v in ("0.3", "2")]
        single.append(repr(vals))
    _assert_all_equal(result, single)


def test_oscillatory_tables_filled_concurrently_match_single_thread():
    result = _race_in_fresh_interpreter("quadrature")
    single = []
    for d in QUADRATURE_DIGITS:
        ctx = PrecisionContext(d)
        tol = ctx.mpf(10) ** (8 - d)
        for res in (
            cos_kernel_integral(ctx, 2, "1.5", tol),
            cos_kernel_integral(ctx, 2, "7", tol),
            sin_kernel_integral(ctx, 2, "1", tol),
        ):
            single.append(repr((res.value, res.est_error, res.evaluations)))
    _assert_all_equal(result, single)


def test_kronrod_tables_filled_concurrently_match_single_thread():
    # the node caches start empty in the fresh interpreter
    result = _race_in_fresh_interpreter("kronrod")
    single = []
    for d in KRONROD_DIGITS:
        ctx = PrecisionContext(d)
        tol = ctx.mpf(10) ** (5 - d)
        for res in (
            laplace(ctx, lambda v: ctx.exp(-v), "1.5", tol, kernel_bound=1),
            cos_kernel_integral(ctx, 1, "2", tol),
        ):
            single.append(repr((res.value, res.est_error, res.evaluations)))
    _assert_all_equal(result, single)
