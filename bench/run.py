"""cmlab's benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload degree-bisect --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; cmlab is imported from its ``src``.  The
run repeats whole rounds of the workload, each in a fresh worker process
started one at a time (so every round is cold and nothing runs in
parallel), until ``--seconds`` have passed; the last round is finished.  It
then checks every round's outputs and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` are one round's, since every round runs the
same operations (the checks require their counts to agree).  The metrics
are those ``BENCHMARK.json`` declares, with its units:

* ``--trace 0``: ``wall_s``, ``setup_s`` and ``peak_rss_mb``, medians over
  the rounds;
* ``--trace 1``: rounds alternate untraced and traced; the metrics are the
  per-layer figures of the traced rounds (medians; counts are the same in
  every round), the traced wall time and its ratio to the untraced one.

A detailed record of the run goes to ``bench/out/``.  Exit status is 0
when a result was printed, 1 when the run could not produce one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
#: the run must end within 180 s; leave room for the checks after the rounds
ROUND_DEADLINE_S = 150


class RunError(Exception):
    """A round could not be run; the benchmark prints no result."""


def run_round(workload, seed, traced, deadline):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0",
    ]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise RunError("a %s round did not finish before the run's deadline" % workload)
    if proc.returncode != 0:
        raise RunError("worker exited %d:\n%s" % (proc.returncode, proc.stderr.strip()))
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunError("worker printed no result:\n%s" % proc.stderr.strip())
    rec["setup_s"] = rec.pop("ready") - spawn
    rec["traced"] = traced
    return rec


def run_rounds(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + ROUND_DEADLINE_S
    rounds = []
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        began = time.monotonic()
        rounds.append(run_round(workload, seed, traced, deadline))
        now = time.monotonic()
        # a traced run needs an untraced round to set its overhead against
        if len(rounds) >= (2 if trace else 1) and (
            now - start >= seconds or now + (now - began) > deadline
        ):
            return rounds


def check(workload, seed, rounds):
    outputs = [r["outputs"] for r in rounds]
    if workload == "degree-bisect":
        return checks.check_degree(outputs)
    if workload == "verify-quick":
        verdict = checks.check_verify(outputs)
        verdict.problems.extend(checks.quadrature_spot_checks(workloads.import_cmlab()))
        return verdict
    return checks.check_eval(workloads.eval_inputs(seed), outputs)


def declared_units(trace):
    """The metrics BENCHMARK.json declares for this kind of run, with their
    units: ``end_to_end`` untraced, ``per_layer`` traced."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def metrics(rounds, trace, units):
    plain = [r for r in rounds if not r["traced"]]
    if not trace:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    else:
        traced = [r for r in rounds if r["traced"]]
        # counts repeat exactly from round to round; median_low keeps them whole
        values = {
            name: (statistics.median_low if units.get(name) == "count" else statistics.median)(
                r["trace"][name] for r in traced
            )
            for name in traced[0]["trace"]
        }
        wall_traced = statistics.median(r["wall_s"] for r in traced)
        values["trace.wall_s"] = wall_traced
        values["trace.overhead"] = wall_traced / statistics.median(r["wall_s"] for r in plain)
    if set(values) != set(units):
        raise RunError(
            "measured metrics differ from BENCHMARK.json: undeclared %s, not measured %s"
            % (sorted(set(values) - set(units)), sorted(set(units) - set(values)))
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        units = declared_units(args.trace)
        rounds = run_rounds(args.workload, args.seed, args.seconds, args.trace)
        measured = metrics(rounds, args.trace, units)
    except (OSError, ValueError, KeyError, RunError) as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 1
    verdict = check(args.workload, args.seed, rounds)
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": measured,
    }
    for problem in verdict.problems:
        print("benchmark: incorrect: %s" % problem, file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        problems=verdict.problems,
        rounds=[
            {k: r[k] for k in ("traced", "wall_s", "cpu_s", "setup_s", "peak_rss_mb", "trace", "trace_table") if k in r}
            for r in rounds
        ],
    )
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
