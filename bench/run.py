"""Benchmark for lpwave: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py                       # all four, untraced then traced
    python3 bench/run.py --workload loss-refine --seed 3 --seconds 8 --trace 0

Every workload runs in its own fresh child interpreter, one at a time,
with BLAS and OpenMP pinned to one thread.  Set-up time is the median over
SETUP_RUNS further fresh interpreters that only import and prepare; they
run after the workload's child, so compiled bytecode and the file cache
are warm.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline-k4", "commutator-fine", "loss-refine", "verify-disk")
SETUP_RUNS = 3
DEADLINE_S = 170.0

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ, **CHILD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(args, deadline):
    """Run bench/child.py to completion; return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT] + args
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(args))
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=remaining,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("child timed out: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: " + " ".join(args))
    return json.loads(lines[-1])


def measure_setup(workload, seed, deadline):
    base = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    runs = [run_child(base, deadline) for _ in range(SETUP_RUNS)]
    return {key: statistics.median(r[key] for r in runs)
            for key in ("import_s", "prepare_s")} | {
        "setup_s": statistics.median(r["import_s"] + r["prepare_s"]
                                     for r in runs)}


LAYER_UNITS = LAYER_METRICS + [
    ("setup.import_s", "s"), ("setup.prepare_s", "s"), ("trace.overhead_s", "s")]


def run_workload(workload, seed, seconds, trace, deadline):
    """One run of one workload; returns (result JSON, child's report)."""
    out = run_child(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)],
                    deadline)
    # after the workload's child, so bytecode and the file cache are warm
    setup = measure_setup(workload, seed, deadline)
    if trace:
        values = dict(out["layers"], **{
            "setup.import_s": setup["import_s"],
            "setup.prepare_s": setup["prepare_s"],
            "trace.overhead_s": out["overhead_s"]})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_UNITS}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(out["round_s"]), "unit": "s"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    return result, out


def report(workload, result, out):
    for c in out["checks"]:
        status = "ok" if c["ok"] and c["control_rejected"] else "FAIL"
        print(f"  [{status}] {c['check']} (negative control "
              f"{'rejected' if c['control_rejected'] else 'ACCEPTED'})")
    print(f"  warm-up {out['warm_up_s']:.2f} s, checks {out['checks_s']:.2f} s, "
          f"rounds {', '.join(f'{t:.3f}' for t in out['round_s'])} s")
    if "traced_wall_s" in out:
        print(f"  traced wall {out['traced_wall_s']:.4f} s, untraced "
              f"{statistics.median(out['round_s']):.4f} s")
    for name, m in result["metrics"].items():
        print(f"  {workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"  {workload} attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {result['correct']}", flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: all four, untraced and "
                        "traced)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=8)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for needed in ("src/lpwave/__init__.py", "configs/k2-gamma0.cfg",
                   "configs/k4-gamma0.3.cfg"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"bench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    try:
        if args.workload:
            deadline = time.monotonic() + DEADLINE_S
            result, out = run_workload(args.workload, args.seed, args.seconds,
                                       args.trace, deadline)
            report(args.workload, result, out)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    print(f"{workload} ({'traced' if trace else 'untraced'})",
                          flush=True)
                    deadline = time.monotonic() + DEADLINE_S
                    one, out = run_workload(workload, args.seed, args.seconds,
                                            trace, deadline)
                    report(workload, one, out)
                    result["correct"] &= one["correct"]
                    result["attempted"] += one["attempted"]
                    result["failed"] += one["failed"]
                    result["metrics"].update(
                        {f"{workload}.{k}": v
                         for k, v in one["metrics"].items()})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
