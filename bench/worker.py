"""Run one cold round of a workload in this (fresh) process and print one
JSON line: when set-up finished, the round's wall time and peak memory,
the encoded outputs and, with ``--trace 1``, the per-layer metrics.

Started by ``run.py``; not meant to be run by hand, though it can be:

    python3 bench/worker.py --workload eval-wide --seed 1 --trace 0
"""

import argparse
import json
import resource
import sys
import time

import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cmlab = workloads.import_cmlab()
    inputs = workloads.build(args.workload, args.seed)
    # time.monotonic is CLOCK_MONOTONIC, shared with the parent process,
    # which reads the same clock just before it starts this one
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cmlab)

    c0 = time.process_time()
    t0 = time.perf_counter()
    outputs = workloads.run_round(cmlab, args.workload, inputs)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    payload = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "outputs": workloads.encode(args.workload, outputs),
    }
    if tracer is not None:
        payload["trace"] = tracer.metrics()
        payload["trace_table"] = tracer.table()
    sys.stdout.write(json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
