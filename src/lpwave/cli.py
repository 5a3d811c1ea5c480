"""Command-line front end.

Exit codes: 0 success, 1 condition/verification failure, 2 configuration
error, 3 numerical failure (CFL refusal or blow-up).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import experiment, solver
from .errors import (EXIT_FAIL, EXIT_OK, ConfigurationError, LPWaveError,
                     classify)


def _add_common(p, config_required=True):
    p.add_argument("--config", required=config_required,
                   help="experiment config file (key = value lines)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--force", action="store_true",
                   help="run even if hypothesis checks fail")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's seed")


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
    _add_common(p)
    p.add_argument("--save-every", type=int, default=None)

    p = sub.add_parser("decompose",
                       help="dyadic decomposition of a grid function")
    _add_common(p)
    p.add_argument("--in", dest="source", default=None,
                   help="grid-function CSV (default: seeded random)")

    p = sub.add_parser("commutator-scan",
                       help="operator norms of the band commutators")
    _add_common(p)
    p.add_argument("--t", type=float, default=None, help="scan time")
    p.add_argument("--nu-max", type=int, default=None)

    p = sub.add_parser("weights", help="tabulate the decay weights h(nu, t)")
    _add_common(p)

    p = sub.add_parser("verify-energy",
                       help="energy ledger and inequality check on a "
                            "saved trajectory")
    _add_common(p)
    p.add_argument("--traj", required=True, help="saved trajectory directory")
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--delta-grid", default=None,
                   help="comma-separated loss grid")

    p = sub.add_parser("pipeline", help="full check/solve/verify pipeline")
    _add_common(p)

    p = sub.add_parser("sweep", help="run several configs in parallel")
    p.add_argument("configs", nargs="+", help="config files")
    p.add_argument("--out", default="sweep_out")
    p.add_argument("--force", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    return parser


def _load_config(args):
    cfg = experiment.read_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _out_dir(args, cfg):
    return args.out or cfg.output_dir


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
                                       jobs=args.jobs, force=args.force)
        for name, code in sorted(results.items()):
            print(f"{name}: {code}")
        return max(results.values(), default=EXIT_OK)

    cfg = _load_config(args)
    out = _out_dir(args, cfg)

    if args.command == "check-conditions":
        code, reports = experiment.run_check_conditions(cfg, out)
        for r in reports:
            status = "ok " if r["verdict"] else "FAIL"
            print(f"[{status}] {r['condition_id']}: margin {r['margin']:.6g}")
        return code

    if args.command == "solve":
        if args.save_every is not None:
            cfg = dataclasses.replace(cfg,
                                      save_every=args.save_every).validate()
        traj, _, _ = experiment.run_solve(cfg, out or "trajectory",
                                          force=args.force)
        print(f"saved {traj.n_saved} states to {out or 'trajectory'}")
        return EXIT_OK

    if args.command == "decompose":
        summary = experiment.run_decompose(cfg, out or "decompose",
                                           source_csv=args.source)
        print(f"nu_max {summary['nu_max']}, reconstruction error "
              f"{summary['reconstruction_error']:.3e}")
        return EXIT_OK

    if args.command == "commutator-scan":
        _, report = experiment.run_commutator_scan(
            cfg, out or "scan", t=args.t, nu_max=args.nu_max)
        slope = report.far_slope
        print(f"near constant {report.near_constant:.6f}, far slope "
              f"{'exact zero' if slope is None else f'{slope:.3f}'}")
        return EXIT_OK

    if args.command == "weights":
        experiment.run_weights(cfg, out or "weights")
        print("weights.csv written")
        return EXIT_OK

    if args.command == "verify-energy":
        if args.m is not None:
            cfg = dataclasses.replace(cfg, m=args.m)
        if args.delta_grid is not None:
            grid_vals = tuple(float(v) for v in args.delta_grid.split(","))
            cfg = dataclasses.replace(cfg, delta_grid=grid_vals).validate()
        cs = experiment.coefficient_set(cfg)
        traj = solver.load_trajectory(args.traj, cs)
        _, _, _, report = experiment.run_verify_energy(
            cfg, traj, cs, out or "verify")
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
