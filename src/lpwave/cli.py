"""Command-line front end.

Exit codes: 0 success, 1 condition/verification failure, 2 configuration
error, 3 numerical failure (CFL refusal or blow-up).
"""

from __future__ import annotations

import argparse
import sys

from . import experiment, solver
from .errors import (EXIT_FAIL, EXIT_OK, ConfigurationError, LPWaveError,
                     classify)


def _add_common(p, force=False):
    """--config and --out, plus --force where the command reads it."""
    p.add_argument("--config", required=True,
                   help="experiment config file (key = value lines)")
    p.add_argument("--out", default=None, help="output directory")
    if force:
        p.add_argument("--force", action="store_true",
                       help="run even if hypothesis checks fail")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lpwave",
        description="frequency-band energy laboratory for degenerate "
                    "wave equations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-conditions",
                       help="run the five coefficient hypothesis checks")
    _add_common(p)

    p = sub.add_parser("solve", help="integrate the Cauchy problem")
    _add_common(p, force=True)

    p = sub.add_parser("decompose",
                       help="dyadic decomposition of a grid function")
    _add_common(p)
    p.add_argument("--in", dest="source", default=None,
                   help="grid-function CSV (default: seeded random)")

    p = sub.add_parser("commutator-scan",
                       help="operator norms of the band commutators")
    _add_common(p)
    p.add_argument("--t", type=float, default=None, help="scan time in [0, T]")

    p = sub.add_parser("weights", help="tabulate the decay weights h(nu, t)")
    _add_common(p)

    p = sub.add_parser("verify-energy",
                       help="energy ledger and inequality check on a "
                            "saved trajectory")
    _add_common(p)
    p.add_argument("--traj", required=True, help="saved trajectory directory")

    p = sub.add_parser("pipeline", help="full check/solve/verify pipeline")
    _add_common(p, force=True)

    p = sub.add_parser("sweep", help="run the pipeline on several configs, "
                                      "each in a process of its own")
    p.add_argument("configs", nargs="+", help="config files")
    p.add_argument("--out", default="sweep_out")
    p.add_argument("--force", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (LPWaveError, FileNotFoundError) as exc:
        code, label = classify(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def _dispatch(args) -> int:
    if args.command == "sweep":
        results = experiment.run_sweep(args.configs, args.out,
                                       force=args.force)
        for name, code in sorted(results.items()):
            print(f"{name}: {code}")
        return max(results.values(), default=EXIT_OK)

    cfg = experiment.read_config(args.config)
    out = args.out or cfg.output_dir

    if args.command == "check-conditions":
        code, reports = experiment.run_check_conditions(cfg, out)
        for r in reports:
            status = "ok " if r["verdict"] else "FAIL"
            print(f"[{status}] {r['condition_id']}: margin {r['margin']:.6g}")
        return code

    if args.command == "solve":
        traj = experiment.run_solve(cfg, out, force=args.force)
        print(f"saved {traj.n_saved} states to {out}")
        return EXIT_OK

    if args.command == "decompose":
        summary = experiment.run_decompose(cfg, out, source_csv=args.source)
        print(f"nu_max {summary['nu_max']}, reconstruction error "
              f"{summary['reconstruction_error']:.3e}")
        return EXIT_OK

    if args.command == "commutator-scan":
        _, report = experiment.run_commutator_scan(cfg, out, t=args.t)
        slope = report.far_slope
        print(f"near constant {report.near_constant:.6f}, far slope "
              f"{'exact zero' if slope is None else f'{slope:.3f}'}")
        return EXIT_OK

    if args.command == "weights":
        experiment.run_weights(cfg, out)
        print("weights.csv written")
        return EXIT_OK

    if args.command == "verify-energy":
        traj = solver.load_trajectory(args.traj,
                                      experiment.coefficient_set(cfg))
        _, _, _, report = experiment.run_verify_energy(cfg, traj, out)
        print(f"max violation {report.max_violation:.3e} "
              f"(budget {report.budget:.1e})")
        return EXIT_OK if report.passed else EXIT_FAIL

    if args.command == "pipeline":
        result = experiment.run_full_pipeline(cfg, out, force=args.force)
        report = result["inequality"]
        loss = result["loss"]
        print(f"inequality: max violation {report.max_violation:.3e} "
              f"(budget {report.budget:.1e}) -> "
              f"{'pass' if report.passed else 'FAIL'}")
        if loss.found:
            print(f"loss estimate: delta* = {loss.delta_star}, "
                  f"C = {loss.C_m:.3f}")
        else:
            print("loss estimate: not observed on the grid")
        return result["exit_code"]

    raise ConfigurationError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
