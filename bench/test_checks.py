"""Tests of the benchmark's own correctness checks: each must accept a right
output and reject a perturbed one.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import os
import sys

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from cmlab import PrecisionContext, gammakit  # noqa: E402


def _degree_stdout(passed, failed, bound):
    return json.dumps({"result": {"passed_alpha": passed, "failed_alpha": failed,
                                  "first_deriv_bound": bound}})


# -- degree-bisect --------------------------------------------------------------

PHI_OK = _degree_stdout("2.000000000000000000000000", "2.031250000000000000000000",
                        "2.000000000599999995092328")
NEG_R2_OK = _degree_stdout("3.843750000000000000000000", "3.875000000000000000000000",
                           "4.000000000000000000200000")


def test_degree_accepts_the_known_brackets():
    for fn, out in (("phi", PHI_OK), ("negRprime:2", NEG_R2_OK)):
        v = checks.check_bracket(fn, 0, out)
        assert (v.attempted, v.failed, v.problems) == (1, 0, [])


def test_degree_rejects_phi_bracket_excluding_2():
    v = checks.check_bracket("phi", 0, _degree_stdout("2.03125", "2.0625", "2.0000000006"))
    assert v.problems and "misses the known degree" in v.problems[0]


def test_degree_rejects_neg_r2_bracket_outside_3_4():
    v = checks.check_bracket("negRprime:2", 0, _degree_stdout("4.0625", "4.09375", "4.1"))
    assert any("misses the known degree" in p for p in v.problems)


def test_degree_rejects_wide_bracket_and_bound_overshoot():
    wide = checks.check_bracket("phi", 0, _degree_stdout("1.9", "2.1", "2.0000000006"))
    assert any("width" in p for p in wide.problems)
    over = checks.check_bracket("phi", 0, _degree_stdout("1.99", "2.01", "1.9"))
    assert any("first_deriv_bound" in p for p in over.problems)


def test_degree_counts_a_bracket_error_as_failed():
    v = checks.check_bracket("phi", 4, "")
    assert (v.failed, v.problems) == (1, [])


# -- verify-quick -----------------------------------------------------------------


def _verify_stdout(records):
    return json.dumps({"config": {}, "results": records})


def _records():
    return [{"name": n, "max_deviation": "1.0e-20", "tolerance": "1.0e-10", "pass": True}
            for n in workloads.VERIFY_RECORDS]


def test_verify_accepts_passing_records():
    v = checks.check_verify_output(0, _verify_stdout(_records()))
    assert (v.attempted, v.failed, v.problems) == (11, 0, [])


def test_verify_rejects_deviation_above_tolerance():
    recs = _records()
    recs[2]["max_deviation"] = "2.0e-10"
    v = checks.check_verify_output(0, _verify_stdout(recs))
    assert v.problems and "exceeds tolerance" in v.problems[0]


def test_verify_counts_missing_or_failing_records():
    recs = _records()
    del recs[0]
    recs[0]["pass"] = False
    v = checks.check_verify_output(1, _verify_stdout(recs))
    assert (v.failed, v.problems) == (2, [])


def test_verify_reports_one_round_and_rejects_rounds_that_disagree():
    ok = {"rc": 0, "stdout": _verify_stdout(_records())}
    v = checks.check_verify([ok, ok, ok])
    assert (v.attempted, v.failed, v.problems) == (11, 0, [])
    recs = _records()
    recs[0]["pass"] = False
    v = checks.check_verify([ok, {"rc": 1, "stdout": _verify_stdout(recs)}])
    assert (v.attempted, v.failed) == (11, 0)
    assert any("round 2" in p for p in v.problems)


def test_verify_rejects_exit_status_that_contradicts_records():
    v = checks.check_verify_output(1, _verify_stdout(_records()))
    assert any("exited" in p for p in v.problems)


# -- eval-wide ----------------------------------------------------------------------


def _polygamma_case(m=3, t=2.5, digits=30):
    value = gammakit.polygamma(PrecisionContext(digits), m, t).value
    return ("polygamma", m, digits, t, None), value


def _encode(value):
    return workloads.encode("eval-wide", [value])[0]


def test_eval_accepts_correct_polygamma():
    op, value = _polygamma_case()
    v = checks.check_eval([op], [[_encode(value)]])
    assert (v.attempted, v.failed, v.problems) == (1, 0, [])


@pytest.mark.parametrize("m", [0, 3, 12])
def test_eval_rejects_polygamma_off_in_its_20th_digit(m):
    op, value = _polygamma_case(m=m)
    with mpmath.workdps(60):
        off = mpmath.mpf(value) * (1 + mpmath.mpf(10) ** -19)
    v = checks.check_eval([op], [[_encode(off)]])
    assert v.failed == 1 and v.problems


def test_eval_counts_a_known_fault_probe_as_failed_not_incorrect():
    op, value = _polygamma_case()
    probe = op[:4] + (workloads.FAULT_POLYGAMMA,)
    with mpmath.workdps(60):
        off = mpmath.mpf(value) * (1 + mpmath.mpf(10) ** -10)
    v = checks.check_eval([probe], [[_encode(off)]])
    assert (v.failed, v.problems) == (1, [])


@pytest.mark.parametrize("factor", [1 + mpmath.mpf(10) ** -3, -1])
def test_eval_rejects_a_fault_probe_beyond_the_fault(factor):
    op, value = _polygamma_case()
    probe = op[:4] + (workloads.FAULT_POLYGAMMA,)
    with mpmath.workdps(60):
        off = mpmath.mpf(value) * factor
    v = checks.check_eval([probe], [[_encode(off)]])
    assert v.failed == 1 and any("beyond fault" in p for p in v.problems)


def test_eval_rejects_a_fault_probe_that_raises():
    op, _ = _polygamma_case()
    probe = op[:4] + (workloads.FAULT_POLYGAMMA,)
    v = checks.check_eval([probe], [[{"error": "ValueError: boom"}]])
    assert v.failed == 1 and v.problems


def test_eval_reports_one_round_whatever_the_number_of_rounds():
    op, value = _polygamma_case()
    probe = op[:4] + (workloads.FAULT_POLYGAMMA,)
    with mpmath.workdps(60):
        off = _encode(mpmath.mpf(value) * (1 + mpmath.mpf(10) ** -10))
    rounds = [[_encode(value), off]] * 5
    v = checks.check_eval([op, probe], rounds)
    assert (v.attempted, v.failed, v.problems) == (2, 1, [])


def test_rounds_whose_counts_disagree_are_a_problem():
    op, value = _polygamma_case()
    probe = op[:4] + (workloads.FAULT_POLYGAMMA,)
    with mpmath.workdps(60):
        off = _encode(mpmath.mpf(value) * (1 + mpmath.mpf(10) ** -10))
    v = checks.check_eval([probe], [[off], [_encode(value)]])
    assert (v.attempted, v.failed) == (1, 1)
    assert any("round 2" in p for p in v.problems)


def test_eval_encoding_round_trips_negative_values():
    op, value = _polygamma_case(m=2)
    assert value < 0
    assert checks.decode(_encode(value), 30) == value


def test_eval_inputs_repeat_for_a_seed_and_change_with_it():
    a, b = workloads.eval_inputs(7), workloads.eval_inputs(7)
    assert a == b and a != workloads.eval_inputs(8)
    assert len(a) == len(workloads.eval_inputs(8))
