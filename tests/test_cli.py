"""Command-line behaviour: output shapes, determinism, and exit codes."""

import json

import mpmath
import pytest

from cmlab import PrecisionContext, remainder, remainder_d1
from cmlab.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_eval_single_point_csv(capsys):
    code, out = run(capsys, ["eval", "--fn", "R:1", "--t", "2", "--digits", "30"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# fn=R:1"
    assert lines[1] == "# digits=30"
    assert lines[2] == "t,value"
    assert len(lines) == 4
    t_str, value_str = lines[3].split(",")
    ctx = PrecisionContext(30)
    assert float(t_str) == 2.0
    assert abs(float(value_str) - float(remainder(ctx, 1, 2))) < 1e-15


def test_eval_grid_below_the_float_range(capsys):
    # the grid ends are compared exactly, as --t 1e-400 is
    argv = ["eval", "--fn", "R1:1", "--grid", "1e-400:1e-300:3", "--digits", "20"]
    code, out = run(capsys, argv)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[3:]]
    assert len(rows) == 3
    for (t_str, value_str), exponent in zip(rows, (-400, -350, -300)):
        t = mpmath.mpf(t_str)
        # -R_1'(t) = 1/(12 t^2) - 1/t + O(1) as t -> 0+
        assert abs(t / mpmath.mpf(10) ** exponent - 1) < 1e-15
        assert abs(mpmath.mpf(value_str) * 12 * t**2 - 1) < 1e-15


def test_eval_kernel_uses_v_column(capsys):
    code, out = run(capsys, ["eval", "--fn", "f:0", "--grid", "0.5:2:3", "--digits", "25"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[2] == "v,value"
    assert len(lines) == 6


def test_eval_phi_alias(capsys):
    code, out = run(capsys, ["eval", "--fn", "phi", "--t", "2", "--digits", "30"])
    assert code == 0
    value = float(out.strip().splitlines()[-1].split(",")[1])
    ctx = PrecisionContext(30)
    assert abs(value - float(remainder_d1(ctx, 1, 2))) < 1e-15


def test_eval_grid_json_deterministic(capsys):
    argv = ["eval", "--fn", "psi", "--grid", "1:10:5", "--format", "json", "--digits", "30"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["config"] == {"digits": 30, "fn": "psi"}
    assert len(payload["results"]) == 5
    assert set(payload["results"][0]) == {"t", "value"}


def test_eval_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = run(
        capsys, ["eval", "--fn", "K:2", "--t", "1", "--digits", "25", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("# fn=K:2\n")
    assert text.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--fn", "bogus", "--t", "1"],
        ["eval", "--fn", "f", "--t", "1"],  # missing index
        ["eval", "--fn", "psi:1", "--t", "1"],  # index not allowed
        ["eval", "--fn", "R:x", "--t", "1"],
        ["eval", "--fn", "R:1", "--t", "1", "--grid", "1:2:3"],
        ["eval", "--fn", "R:1"],
        ["eval", "--fn", "R:1", "--grid", "1:2"],
        ["eval", "--fn", "R:1", "--grid", "1:2:0"],
    ],
)
def test_eval_usage_errors(capsys, argv):
    assert main(argv) == 2
    capsys.readouterr()


def test_eval_domain_error_exit_code(capsys):
    assert main(["eval", "--fn", "lngamma", "--t", "-1"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--fn", "psi", "--t", "-1e-3"],
        ["eval", "--fn", "psi", "--grid", "-1:2:3"],
        ["degree", "--fn", "phi", "--resolution", "-1e-2"],
        ["degree", "--fn", "phi", "--grid", "-1e-3:1:10"],
    ],
    ids=["eval-t", "eval-grid", "degree-resolution", "degree-grid"],
)
def test_dash_values_reach_the_domain_check(capsys, argv):
    # argparse alone reads -1e-3 or -1:2:3 after an option as an unknown
    # option and exits 2 with "expected one argument"
    assert main(argv) == 3
    assert "domain error" in capsys.readouterr().err


def test_argparse_paths(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["eval"]) == 2  # missing --fn
    capsys.readouterr()


def test_degree_json(capsys):
    code, out = run(
        capsys,
        [
            "degree",
            "--fn",
            "lnminuspsi",
            "--grid",
            "1e-6:1e3:80",
            "--order",
            "4",
            "--resolution",
            "0.25",
            "--digits",
            "25",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["fn"] == "lnminuspsi"
    assert payload["config"]["order"] == 4
    # no ends were typed, so degree_estimate chose both
    assert payload["config"]["alpha_lo"] is None
    assert payload["config"]["alpha_hi"] is None
    result = payload["result"]
    assert set(result) == {
        "failed_alpha",
        "failed_undecided",
        "first_deriv_bound",
        "order_used",
        "passed_alpha",
        "width",
    }
    assert float(result["passed_alpha"]) == 1.0
    assert float(result["failed_alpha"]) == 1.25
    assert result["failed_undecided"] is False
    assert float(result["width"]) == 0.25
    assert result["order_used"] == 4
    assert float(result["first_deriv_bound"]) > 1


def test_degree_unknown_family(capsys):
    assert main(["degree", "--fn", "psi"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra",
    [
        ["--grid", "1e-6:1e3:x"],
        ["--grid", "a:1e3:10"],
        ["--resolution", "abc"],
        ["--alpha-lo", "abc"],
    ],
)
def test_degree_malformed_numbers_are_usage_errors(capsys, extra):
    assert main(["degree", "--fn", "phi"] + extra) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_degree_bad_bracket_exit_code(capsys):
    code = main(
        [
            "degree",
            "--fn",
            "lnminuspsi",
            "--alpha-lo",
            "1.5",
            "--alpha-hi",
            "2.5",
            "--grid",
            "1e-6:1e3:60",
            "--order",
            "4",
            "--digits",
            "25",
        ]
    )
    assert code == 4
    capsys.readouterr()


def test_degree_unreachable_resolution_exit_code(capsys):
    # 20-digit numbers near alpha = 1 are about 1e-21 apart
    code = main(
        [
            "degree",
            "--fn",
            "lnminuspsi",
            "--resolution",
            "1e-30",
            "--grid",
            "1e-6:1e3:20",
            "--order",
            "2",
            "--digits",
            "20",
        ]
    )
    assert code == 3
    assert "resolution" in capsys.readouterr().err


def test_degree_order_reaches_the_family_cap(capsys):
    # phi = -R_1' reads R_1^(j+1), so its cap is one below remainders'
    argv = ["degree", "--fn", "phi", "--grid", "1e-3:1e3:30", "--digits", "20"]
    code, out = run(capsys, argv + ["--order", "63"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["order_used"] == 63
    assert (float(result["passed_alpha"]), float(result["failed_alpha"])) == (1.96875, 2.015625)
    assert main(argv + ["--order", "64"]) == 3
    assert "up to order 63" in capsys.readouterr().err


def test_degree_order_zero_is_a_domain_error(capsys):
    # order 0 checks only h >= 0, which no alpha changes: no bracket exists
    argv = ["degree", "--fn", "phi", "--grid", "1e-3:1e3:30", "--digits", "20", "--order", "0"]
    assert main(argv) == 3
    assert "derivative order must be an integer >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag,name", [("--alpha-lo", "alpha_lo"), ("--alpha-hi", "alpha_hi")])
def test_degree_infinite_end_is_a_domain_error(capsys, flag, name):
    # named as a non-finite end, not as a resolution below the spacing
    # of numbers near inf; -inf is passed as the option's value, not read
    # as an option of its own
    for value in ("inf", "-inf"):
        assert main(["degree", "--fn", "phi", flag, value]) == 3
        err = capsys.readouterr().err
        assert "%s must be finite" % name in err
        assert "resolution" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "remark4", "--quick", "--format", "csv"],
        ["degree", "--fn", "phi", "--format", "csv"],
    ],
    ids=["verify", "degree"],
)
def test_format_is_an_eval_option_only(capsys, argv):
    # degree and verify always print JSON, so --format is a usage error there
    assert main(argv) == 2
    assert "--format" in capsys.readouterr().err


def test_verify_remark4_quick(capsys):
    code, out = run(capsys, ["verify", "--suite", "remark4", "--quick", "--digits", "30"])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"] == {
        "digits": 30,
        "find_negative": False,
        "quick": True,
        "suite": "remark4",
    }
    (rec,) = payload["results"]
    assert rec["name"] == "remark4-n1"
    assert rec["paper_anchor"] == "tail-limit-powers"
    assert rec["pass"] is True
    assert float(rec["max_deviation"]) <= float(rec["tolerance"])


def test_verify_bose_quick(capsys):
    code, out = run(capsys, ["verify", "--suite", "bose", "--quick", "--digits", "40"])
    assert code == 0
    (rec,) = json.loads(out)["results"]
    assert rec["pass"] is True
    assert rec["moments"] == 3


def test_verify_remark3_quick(capsys):
    code, out = run(capsys, ["verify", "--suite", "remark3", "--quick", "--digits", "30"])
    assert code == 0
    records = json.loads(out)["results"]
    names = [r["name"] for r in records]
    assert names == ["remark3-exact-bound", "remark3-n1", "remark3-n2"]
    assert all(r["pass"] for r in records)
    exact = next(r for r in records if r["name"] == "remark3-exact-bound")
    assert exact["bound"] == "1/24"


def test_verify_remark1_quick(capsys):
    code, out = run(capsys, ["verify", "--suite", "remark1", "--quick", "--digits", "40"])
    assert code == 0
    records = json.loads(out)["results"]
    assert [r["name"] for r in records] == ["remark1-positivity", "remark1-vanishing"]
    assert all(r["pass"] for r in records)


def test_verify_remark2_find_negative(capsys):
    code, out = run(
        capsys,
        ["verify", "--suite", "remark2", "--quick", "--find-negative", "--digits", "35"],
    )
    assert code == 0
    records = json.loads(out)["results"]
    neg = next(r for r in records if r["name"] == "remark2-negative-case")
    assert neg["pass"] is True
    assert neg["s"] == "1"
    assert float(neg["value"]) < 0


@pytest.mark.parametrize("suite", ["binet", "psi-integral", "bose"])
def test_verify_integral_suites_tolerance_at_low_digits(capsys, suite):
    # the tolerance must stay meaningful when the working digits are few
    code, out = run(capsys, ["verify", "--suite", suite, "--quick", "--digits", "16"])
    assert code == 0
    (rec,) = json.loads(out)["results"]
    assert rec["pass"] is True
    assert float(rec["tolerance"]) <= 1e-8
    assert float(rec["max_deviation"]) <= float(rec["tolerance"])


def test_eval_prints_no_more_digits_than_computed(capsys):
    code, out = run(capsys, ["eval", "--fn", "psi", "--t", "2", "--digits", "15"])
    assert code == 0
    assert out.strip().splitlines()[-1].split(",")[1] == "4.22784335098467e-1"
