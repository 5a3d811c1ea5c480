"""One workload in one fresh interpreter; its result is the last stdout line.

``--setup-only`` times the import of lpwave (with numpy and scipy) and the
workload's preparation, then exits.  Otherwise the child warms up, runs
whole rounds of the workload's operations until ``--seconds`` of measured
time have passed (at least MIN_ROUNDS), checks the outputs and reports.
With ``--trace 1`` it runs untraced rounds for half the time and traced
rounds for the other half, and reports per-layer figures from the traced
rounds and the difference between the two as the tracing overhead.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

from tracing import Tracer, installed

MIN_ROUNDS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True, help="checkout holding src/lpwave")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_lpwave(root):
    """Import the program under test and refuse any other copy of it."""
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import lpwave
    import lpwave.cli  # noqa: F401
    src = os.path.realpath(os.path.join(root, "src", "lpwave"))
    if os.path.dirname(os.path.realpath(lpwave.__file__)) != src:
        raise SystemExit(f"lpwave imported from {lpwave.__file__}, not {src}")


def run_round(workload, ctx, out_dir, tracer=None):
    """One round: (measured seconds, operations failed, record or None)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    operations = workload.operations(ctx, out_dir)
    results, failed, elapsed = [], 0, 0.0
    gc.collect()
    with installed(tracer) if tracer is not None else nullcontext():
        for op in operations:
            start = time.perf_counter()
            try:
                results.append(op())
            except Exception:
                failed += 1
                traceback.print_exc()
            elapsed += time.perf_counter() - start
    record = workload.collect(ctx, out_dir, results) if not failed else None
    return elapsed, failed, record


def run_rounds(workload, ctx, work_dir, seconds, min_rounds, traced=False):
    times, records, tracers, failed = [], [], [], 0
    while len(times) < min_rounds or sum(times) < seconds:
        tracer = Tracer() if traced else None
        elapsed, n_failed, record = run_round(
            workload, ctx, os.path.join(work_dir, "round"), tracer)
        times.append(elapsed)
        failed += n_failed
        if record is not None:
            records.append(record)
        if tracer is not None:
            tracers.append(tracer)
    return times, records, tracers, failed


def write_spans(path, tracers):
    with open(path, "w") as fh:
        json.dump([{"round": i, "spans": t.spans}
                   for i, t in enumerate(tracers)], fh)


def main(argv=None):
    args = parse_args(argv)
    root = os.path.realpath(args.root)
    t0 = time.perf_counter()
    import_lpwave(root)
    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(root, ".bench_work", workload.name)
    os.makedirs(work_dir, exist_ok=True)
    t1 = time.perf_counter()
    ctx = workload.prepare(root, args.seed, work_dir)
    prepare_s = time.perf_counter() - t1
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "prepare_s": prepare_s}))
        return 0

    t2 = time.perf_counter()
    workload.warm_up(ctx)
    result = {"warm_up_s": time.perf_counter() - t2}
    ops = len(workload.operations(ctx, work_dir))
    if args.trace:
        times, records, _, failed = run_rounds(workload, ctx, work_dir,
                                               args.seconds / 2, 1)
        traced, traced_records, tracers, traced_failed = run_rounds(
            workload, ctx, work_dir, args.seconds / 2, 1, traced=True)
        write_spans(os.path.join(work_dir, "spans.json"), tracers)
        per_round = [t.metrics() for t in tracers]
        result["layers"] = {name: statistics.median(r[name] for r in per_round)
                            for name in per_round[0]}
        result["overhead_s"] = (statistics.median(traced)
                                - statistics.median(times))
        result["traced_wall_s"] = statistics.median(traced)
        records += traced_records
        failed += traced_failed
        times_all = times + traced
    else:
        times, records, _, failed = run_rounds(workload, ctx, work_dir,
                                               args.seconds, MIN_ROUNDS)
        times_all = times
    t3 = time.perf_counter()
    checks = workload.checks(ctx, records) if records else []
    result["checks_s"] = time.perf_counter() - t3
    result.update({
        "attempted": ops * len(times_all),
        "failed": failed,
        "correct": bool(records) and all(c["ok"] and c["control_rejected"]
                                         for c in checks),
        "checks": checks,
        "round_s": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
