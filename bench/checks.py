"""Correctness checks of each workload's outputs, run outside the timed part.

The checks use independent computations (``oracles``) or properties the
paper proves, never stored copies of earlier output.  Each check returns a
:class:`Verdict`:

* ``failed`` counts operations that did not produce a result (an error, a
  missing record, a record the program itself marks as failing) or whose
  value is off because of a known fault named by a fixed probe;
* ``problems`` lists every output that is wrong in a way no known fault
  explains.  The run is correct only when it is empty.

Every round runs the same operations, so a run reports one round's
``attempted`` and ``failed``, whatever the number of rounds; rounds whose
counts disagree are a problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

import mpmath

import oracles
from workloads import DEGREE_RESOLUTION, DEGREE_RUNS, VERIFY_RECORDS


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "Verdict"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def one_round(verdicts) -> Verdict:
    """The run's verdict from its rounds' verdicts: the first round's counts,
    every round's problems, and a problem for each round whose counts differ
    from the first's."""
    first = verdicts[0]
    run = Verdict(attempted=first.attempted, failed=first.failed)
    for i, v in enumerate(verdicts):
        run.problems.extend(v.problems)
        if (v.attempted, v.failed) != (first.attempted, first.failed):
            run.problems.append(
                "round %d: %d of %d operations failed, round 1: %d of %d"
                % (i + 1, v.failed, v.attempted, first.failed, first.attempted)
            )
    return run


# -- degree-bisect ----------------------------------------------------------

#: the interval the true degree is known to lie in, per family: phi = -R_1'
#: has degree exactly 2; for -R_2' the paper proves 2n-1 <= deg <= 2n
DEGREE_KNOWN = {"phi": (Decimal(2), Decimal(2)), "negRprime:2": (Decimal(3), Decimal(4))}


def check_bracket(fn: str, rc: int, stdout: str) -> Verdict:
    """One ``cmlab degree`` bracket against the known degree interval."""
    v = Verdict(attempted=1)
    if rc != 0:
        v.failed = 1
        return v
    try:
        res = json.loads(stdout)["result"]
        lo = Decimal(res["passed_alpha"])
        hi = Decimal(res["failed_alpha"])
        bound = Decimal(res["first_deriv_bound"])
    except (ValueError, KeyError, TypeError, InvalidOperation) as exc:
        v.problems.append("%s: unreadable degree output (%s)" % (fn, exc))
        return v
    res_w = Decimal(DEGREE_RESOLUTION)
    known_lo, known_hi = DEGREE_KNOWN[fn]
    if not (lo <= known_hi and hi >= known_lo):
        v.problems.append(
            "%s: bracket [%s, %s] misses the known degree interval [%s, %s]"
            % (fn, lo, hi, known_lo, known_hi)
        )
    if not Decimal(0) < hi - lo <= res_w:
        v.problems.append("%s: bracket width %s is not in (0, %s]" % (fn, hi - lo, res_w))
    if not lo <= bound + res_w:
        v.problems.append(
            "%s: passed_alpha %s exceeds first_deriv_bound %s + resolution" % (fn, lo, bound)
        )
    return v


def check_degree(rounds) -> Verdict:
    verdicts = []
    for outputs in rounds:
        v = Verdict()
        if [o["fn"] for o in outputs] != [fn for fn, _ in DEGREE_RUNS]:
            v.problems.append("degree round ran %s" % [o["fn"] for o in outputs])
        else:
            for o in outputs:
                v.add(check_bracket(o["fn"], o["rc"], o["stdout"]))
        verdicts.append(v)
    return one_round(verdicts)


# -- verify-quick -------------------------------------------------------------


def check_verify_output(rc: int, stdout: str) -> Verdict:
    """Every expected record is present and passes, each parsed deviation
    is within its tolerance, and the exit status agrees with the records."""
    v = Verdict(attempted=len(VERIFY_RECORDS))
    try:
        records = json.loads(stdout)["results"]
        by_name = {r["name"]: r for r in records}
    except (ValueError, KeyError, TypeError) as exc:
        v.failed = len(VERIFY_RECORDS)
        v.problems.append("unreadable verify output (%s)" % exc)
        return v
    for name in VERIFY_RECORDS:
        rec = by_name.get(name)
        if rec is None or rec.get("pass") is not True:
            v.failed += 1
            continue
        try:
            dev = Decimal(rec["max_deviation"])
            tol = Decimal(rec["tolerance"])
        except (KeyError, InvalidOperation) as exc:
            v.problems.append("%s: unreadable deviation or tolerance (%s)" % (name, exc))
            continue
        if not dev <= tol:
            v.problems.append("%s: deviation %s exceeds tolerance %s" % (name, dev, tol))
    expected_rc = 0 if all(r.get("pass") is True for r in records) else 1
    if rc != expected_rc:
        v.problems.append("verify exited %s, its records imply %s" % (rc, expected_rc))
    return v


def check_verify(rounds) -> Verdict:
    return one_round([check_verify_output(out["rc"], out["stdout"]) for out in rounds])


SPOT_DIGITS = 30


def quadrature_spot_checks(cmlab) -> list:
    """The quadrature routes the verify suites lean on, against Hurwitz-zeta
    and gamma-zeta closed forms (see ``oracles``).  Returns problems."""
    d = SPOT_DIGITS
    ctx = cmlab.precision.PrecisionContext(d)
    quad = cmlab.quadrature
    tol = ctx.mpf(10) ** (-d)

    def psi_kernel(v):
        # 1/(1 - e^-v) - 1/v, computed in mpmath with digits to spare for
        # the cancellation at small v
        with mpmath.workdps(2 * d):
            x = mpmath.mpf(v)
            val = 1 / (-mpmath.expm1(-x)) - 1 / x
        return ctx.mpf(val)

    cases = [
        ("sin_kernel_integral(p=2, s=%s)" % s, lambda s=s: quad.sin_kernel_integral(ctx, 2, s, tol),
         lambda s=s: oracles.sin_moment_ref(2, s, d))
        for s in (1, 5)
    ] + [
        ("cos_kernel_integral(n=1, v=%s)" % v, lambda v=v: quad.cos_kernel_integral(ctx, 1, v, tol),
         lambda v=v: oracles.cos_kernel_ref(1, v, d))
        for v in (1, 10)
    ] + [
        ("bose_moment(s=%s)" % s, lambda s=s: quad.bose_moment(ctx, s, tol),
         lambda s=s: oracles.bose_moment_ref(s, d))
        for s in (3, 2.5)
    ] + [
        ("laplace(psi kernel, t=%s)" % t,
         lambda t=t: quad.laplace(ctx, psi_kernel, t, tol, kernel_bound=1),
         lambda t=t: oracles.psi_laplace_ref(t, d))
        for t in (1, 10)
    ]
    problems = []
    for name, run, ref in cases:
        value = run().value
        expected = ref()
        if not oracles.agrees(value, expected, d):
            problems.append("%s = %s, closed form %s" % (name, value, mpmath.nstr(expected, d)))
    return problems


# -- eval-wide ------------------------------------------------------------------


def decode(enc, digits: int):
    """Inverse of ``workloads.encode`` for one value: an mpf, exact at the
    oracle's precision, or None for an operation that raised."""
    if isinstance(enc, dict):
        return None
    man, exp = enc
    with mpmath.workdps(3 * digits):
        return mpmath.ldexp(mpmath.mpf(man), exp)


def fault_cap(digits: int):
    """The largest relative error a known fault may explain: 10^-(digits//5),
    so 1e-6 at 30 digits and 1e-20 at 100.  The faults' worst measured errors
    on the probes are 1.3e-11 (psi^(m)) and 1.2e-10 (f_n) at 30 digits and
    1.3e-23 at 100, more than 700 times below the cap.  A probe further
    off than this is wrong in a way the fault does not explain."""
    return mpmath.mpf(10) ** -(digits // 5)


class EvalOracle:
    """Reference values for one eval-wide input list, computed on first use."""

    def __init__(self, inputs):
        self.inputs = inputs
        self._refs = {}

    def ref(self, i):
        if i not in self._refs:
            fn, index, digits, x, _fault = self.inputs[i]
            self._refs[i] = oracles.REFERENCES[fn](index, x, digits)
        return self._refs[i]

    def check_value(self, i, enc) -> Verdict:
        fn, index, digits, x, fault = self.inputs[i]
        v = Verdict(attempted=1)
        value = decode(enc, digits)
        if value is not None and oracles.agrees(
            value, self.ref(i), digits, oracles.near_zero(fn, index, x)
        ):
            return v
        v.failed = 1
        if fault is None or value is None or not oracles.within(
            value, self.ref(i), fault_cap(digits), digits
        ):
            what = enc["error"] if value is None else "%s, oracle %s" % (
                mpmath.nstr(value, digits), mpmath.nstr(self.ref(i), digits))
            v.problems.append(
                "%s[%s] at %r, %d digits%s: %s"
                % (fn, index, x, digits, " (beyond fault %s)" % fault if fault else "", what)
            )
        return v


def check_eval(inputs, rounds) -> Verdict:
    oracle = EvalOracle(inputs)
    verdicts = []
    for outputs in rounds:
        v = Verdict()
        if len(outputs) != len(inputs):
            v.problems.append("eval round returned %d of %d values" % (len(outputs), len(inputs)))
        else:
            for i, enc in enumerate(outputs):
                v.add(oracle.check_value(i, enc))
        verdicts.append(v)
    return one_round(verdicts)
