"""Command-line interface.

Three subcommands:

* ``eval``   -- tabulate one function over a point or log grid (CSV/JSON)
* ``degree`` -- bracket the complete-monotonicity degree of a built-in
  family (always JSON)
* ``verify`` -- run named identity suites and report pass/fail records
  (always JSON)

Output is deterministic: keys are sorted, numbers are printed to 25
significant digits (or ``--digits``, if that is fewer), and no timestamps
or machine details are embedded.

Exit codes: 0 success, 1 at least one verification record failed,
2 usage error, 3 domain error, 4 degree bracketing failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cmdegree import builtin_families, degree_estimate
from .errors import BracketError, DomainError, IntegrationError
from .gammakit import ln_gamma, polygamma
from .kernels import K_kernel, f_kernel
from .precision import GridSpec, PrecisionContext
from .remainders import _MAX_DERIV, remainder, remainder_d1, remainder_d2
from .verify import SUITES, run_suite

__all__ = ["main"]

_EVAL_HEADS = ("lngamma", "psi", "phi", "polygamma", "R", "R1", "R2", "f", "K")
_KERNEL_HEADS = ("f", "K")
# verify record fields that hold numbers
_NUMBER_FIELDS = ("max_deviation", "tolerance", "value")
# options whose value may start with "-", as -inf, -1e-3 or -1:2:3 do
_VALUE_OPTIONS = ("--t", "--alpha-lo", "--alpha-hi", "--resolution", "--grid")


class UsageError(Exception):
    """Bad command-line input that argparse cannot catch on its own."""


def _fmt(ctx: PrecisionContext, x) -> str:
    """min(25, digits) significant digits, always scientific notation."""
    x = ctx.mpf(x)
    if x == 0:
        return "0.0"
    return ctx._mp.nstr(x, min(25, ctx.digits), min_fixed=1, max_fixed=0, strip_zeros=False)


def _emit(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# -- eval ---------------------------------------------------------------


def _split_fn(name: str):
    head, sep, tail = name.partition(":")
    if head not in _EVAL_HEADS:
        raise UsageError(
            "unknown function %r; expected one of %s" % (name, ", ".join(_EVAL_HEADS))
        )
    if head in ("lngamma", "psi", "phi"):
        if sep:
            raise UsageError("%s takes no index" % head)
        return head, None
    if not sep or not tail:
        raise UsageError("%s needs an index, e.g. %s:1" % (head, head))
    try:
        idx = int(tail)
    except ValueError:
        raise UsageError("bad index %r in %r" % (tail, name))
    return head, idx


def _eval_one(ctx, head, idx, x):
    if head == "lngamma":
        return ln_gamma(ctx, x).value
    if head == "psi":
        return polygamma(ctx, 0, x).value
    if head == "phi":
        return remainder_d1(ctx, 1, x)
    if head == "polygamma":
        return polygamma(ctx, idx, x).value
    if head == "R":
        return remainder(ctx, idx, x)
    if head == "R1":
        return remainder_d1(ctx, idx, x)
    if head == "R2":
        return remainder_d2(ctx, idx, x)
    if head == "f":
        return f_kernel(ctx, idx, x)
    return K_kernel(ctx, idx, x)


def _parse_number(ctx, text: str, flag: str):
    try:
        return ctx.mpf(text)
    except ValueError:
        raise UsageError("%s expects a number, got %r" % (flag, text))


def _split_grid(grid_str: str):
    """``a:b:count`` -> (a, b, count), with a and b kept as given."""
    parts = grid_str.split(":")
    if len(parts) != 3:
        raise UsageError("--grid expects a:b:count, got %r" % grid_str)
    a, b, count_s = parts
    try:
        count = int(count_s)
        float(a)
        float(b)
    except ValueError:
        raise UsageError("--grid expects numeric a:b:count, got %r" % grid_str)
    return a, b, count


def _parse_points(ctx, grid_str: str):
    a, b, count = _split_grid(grid_str)
    if count < 1:
        raise UsageError("--grid needs count >= 1, got %d" % count)
    if count == 1 or ctx.mpf(a) == ctx.mpf(b):
        return [ctx.mpf(a)]
    return GridSpec(a, b, count).points(ctx)


def _cmd_eval(args) -> int:
    head, idx = _split_fn(args.fn)
    ctx = PrecisionContext(args.digits)
    if args.t is not None and args.grid:
        raise UsageError("pass --t or --grid, not both")
    if args.t is None and not args.grid:
        raise UsageError("eval needs --t or --grid")
    if args.t is not None:
        points = [_parse_number(ctx, args.t, "--t")]
    else:
        points = _parse_points(ctx, args.grid)

    var = "v" if head in _KERNEL_HEADS else "t"
    rows = [(p, _eval_one(ctx, head, idx, p)) for p in points]

    if args.format == "json":
        payload = {
            "config": {"digits": ctx.digits, "fn": args.fn},
            "results": [{var: _fmt(ctx, p), "value": _fmt(ctx, val)} for p, val in rows],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = ["# fn=%s" % args.fn, "# digits=%d" % ctx.digits, "%s,value" % var]
        lines += ["%s,%s" % (_fmt(ctx, p), _fmt(ctx, val)) for p, val in rows]
        _emit("\n".join(lines), args.out)
    return 0


# -- degree -------------------------------------------------------------


def _cmd_degree(args) -> int:
    families = builtin_families()
    if args.fn not in families:
        raise UsageError(
            "unknown family %r; expected one of %s" % (args.fn, ", ".join(sorted(families)))
        )
    ctx = PrecisionContext(args.digits)
    # only the ends the user typed; degree_estimate chooses the others
    ends = {}
    if args.alpha_lo is not None:
        ends["alpha_lo"] = _parse_number(ctx, args.alpha_lo, "--alpha-lo")
    if args.alpha_hi is not None:
        ends["alpha_hi"] = _parse_number(ctx, args.alpha_hi, "--alpha-hi")
    resolution = _parse_number(ctx, args.resolution, "--resolution")
    grid = GridSpec(*_split_grid(args.grid))

    bracket = degree_estimate(
        ctx,
        families[args.fn],
        resolution=resolution,
        order=args.order,
        grid=grid,
        **ends,
    )
    payload = {
        "config": {
            "alpha_hi": _fmt(ctx, ends["alpha_hi"]) if "alpha_hi" in ends else None,
            "alpha_lo": _fmt(ctx, ends["alpha_lo"]) if "alpha_lo" in ends else None,
            "digits": ctx.digits,
            "fn": args.fn,
            "grid": args.grid,
            "order": args.order,
            "resolution": _fmt(ctx, resolution),
        },
        "result": {
            "failed_alpha": _fmt(ctx, bracket.failed_alpha),
            "failed_undecided": bracket.failed_undecided,
            "first_deriv_bound": _fmt(ctx, bracket.first_deriv_bound),
            "order_used": bracket.order_used,
            "passed_alpha": _fmt(ctx, bracket.passed_alpha),
            "width": _fmt(ctx, bracket.width),
        },
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


# -- verify -------------------------------------------------------------


def _format_record(ctx, rec):
    return {
        key: _fmt(ctx, val) if key in _NUMBER_FIELDS and not isinstance(val, str) else val
        for key, val in rec.items()
    }


def _cmd_verify(args) -> int:
    ctx = PrecisionContext(args.digits)
    suites = tuple(SUITES) if args.suite == "all" else (args.suite,)
    records = []
    for name in suites:
        for rec in run_suite(ctx, name, args.quick, args.find_negative):
            records.append(_format_record(ctx, rec))
    records.sort(key=lambda r: r["name"])
    payload = {
        "config": {
            "digits": ctx.digits,
            "find_negative": bool(args.find_negative),
            "quick": bool(args.quick),
            "suite": args.suite,
        },
        "results": records,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0 if all(r["pass"] for r in records) else 1


# -- entry point --------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=50, help="working precision (default 50)")
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="cmlab",
        description="remainder functions, exponential kernels and "
        "complete-monotonicity degree estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="tabulate a function")
    p_eval.add_argument(
        "--fn",
        required=True,
        help="lngamma | psi | polygamma:m | R:n | R1:n | R2:n | f:n | K:m | phi",
    )
    p_eval.add_argument("--t", default=None, help="single evaluation point")
    p_eval.add_argument("--grid", default=None, help="a:b:count log-spaced points")
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    p_deg = sub.add_parser("degree", parents=[common], help="bracket a monotonicity degree")
    p_deg.add_argument(
        "--fn",
        required=True,
        help="lnminuspsi | phi | R:n | negRprime:n (n = 0..6)",
    )
    p_deg.add_argument("--alpha-lo", default=None, help="passing endpoint (default 0)")
    p_deg.add_argument(
        "--alpha-hi",
        default=None,
        help="failing endpoint (default: the first integer above "
        "first_deriv_bound + resolution)",
    )
    p_deg.add_argument("--resolution", default="0.05", help="bracket width target")
    p_deg.add_argument(
        "--order",
        type=int,
        default=8,
        help="highest derivative order checked: the family's cap is %d for R:n "
        "and %d for the others" % (_MAX_DERIV, _MAX_DERIV - 1),
    )
    p_deg.add_argument("--grid", default="1e-10:1e3:400", help="a:b:count evaluation grid")

    p_ver = sub.add_parser("verify", parents=[common], help="run identity suites")
    p_ver.add_argument("--suite", default="all", choices=tuple(SUITES) + ("all",))
    p_ver.add_argument("--quick", action="store_true", help="reduced case lists")
    p_ver.add_argument(
        "--find-negative",
        action="store_true",
        dest="find_negative",
        help="also scan the fourth-power sine moment for a negative value",
    )
    return parser


def _attach_dash_values(argv):
    """Join a token that starts with one "-" to the value-taking option
    before it, as ``--opt=value``: argparse reads -inf or -1e-3 there as
    an unknown option, since only a plain number is let through."""
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_OPTIONS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_dash_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "degree":
            return _cmd_degree(args)
        return _cmd_verify(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except DomainError as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return 3
    except BracketError as exc:
        print("bracket error: %s" % exc, file=sys.stderr)
        return 4
    except IntegrationError as exc:
        print("integration failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
