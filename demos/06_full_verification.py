#!/usr/bin/env python3
"""End-to-end verification run on a degenerate problem, in memory.

The full chain: hypothesis checks, a manufactured-solution solve, the
commutator scan, constant calibration, the weighted total energy, the
integrated evolution inequality, and the loss-of-derivatives search.
A moderate grid keeps this under a minute; the shipped configs in
configs/ run the same chain at full size through the command line.
"""

import numpy as np

from lpwave.coefficients import builtin_family, run_all_checks
from lpwave.commutator import scan
from lpwave.dyadic import build_cutoffs
from lpwave.energy import (build_ledger, calibrate_constants, estimate_loss,
                           verify_energy_inequality)
from lpwave.experiment import scan_time
from lpwave.solver import cosine_mode, solve_cauchy

N, STEPS = 128, 2000
cs = builtin_family("monomial", k=2, gamma=0.0)

print("=" * 64)
print("stage 1: hypothesis checks")
print("=" * 64)
for rep in run_all_checks(cs):
    print(f"  [{'ok' if rep.verdict else 'FAIL'}] {rep.condition_id}")

print()
print("stage 2: solve with a manufactured source (u = cos t cos x)")
exact = cosine_mode()
u0, u1 = exact.initial_data(N)
traj = solve_cauchy(cs, u0, u1, exact=exact, M=STEPS, save_every=10)
print(f"  {traj.n_saved} states saved, dt = {traj.solver_dt:.1e}")

print()
print("stage 3: commutator scan and constant calibration")
fam = build_cutoffs(N)
t_star = scan_time(cs)
s = scan(cs, t_star, fam)
const = calibrate_constants(cs, fam, s)
print(f"  scan at t = {t_star:.2f}; Ctilde = {const.Ctilde:.2f}, "
      f"sigma = {const.sigma:.1f}")

print()
print("stage 4: weighted band energies")
ledger = build_ledger(traj, fam, cs, const)
print(f"  total energy at t=0: {ledger.Etot[0]:.6f}")
print(f"  band energies at t=0:",
      np.array2string(ledger.E[:, 0], precision=3))

print()
print("stage 5: integrated evolution inequality")
report = verify_energy_inequality(traj, fam, cs, ledger)
print(f"  max_t [E(t) - E(0) - source integral]/E(0) = "
      f"{report.max_violation:.3e} at t = {report.argmax_t}")
print(f"  within budget {report.budget:.0e}: {report.passed}")
assert report.passed

print()
print("stage 6: loss-of-derivatives search (rough data, three grids)")
deltas = (0.1, 0.2, 0.3, 0.5, 1.0, 2.0)
for name, family, k in (("degenerate k=2", "monomial", 2),
                        ("nondegenerate", "nondegenerate", 1)):
    rep = estimate_loss(builtin_family(family, k=k), 0.0, deltas,
                        grid_sizes=(64, 128, 256), seed=0)
    curves = {n: c[0] for n, c in rep.ratios_by_n.items()}
    trend = " -> ".join(f"{v:.2f}" for v in curves.values())
    print(f"  {name:<16} delta* = {rep.delta_star}   "
          f"ratio at smallest delta across grids: {trend}")
print("  (the degenerate ratios climb with refinement, the strictly\n"
      "   hyperbolic ones do not: that drift is the loss of derivatives)")

print()
print("all verification stages passed")
