#!/usr/bin/env python3
"""The pseudospectral solver: accuracy, order, and guard rails.

A known space-time solution is forced through the degenerate operator
(the forcing is built so the solution satisfies the semi-discrete system
exactly), so every digit of error is the time integrator's.  The step
bound refuses unstable runs instead of producing garbage; the hypothesis
checks are the caller's, run before a solve.
"""

import numpy as np

from lpwave import grid
from lpwave.coefficients import (builtin_family, constant_coefficients,
                                 run_all_checks)
from lpwave.errors import CFLError
from lpwave.grid import GridFunction
from lpwave.solver import SpaceTimeFunction, cfl_limit, solve_cauchy

N = 128
cs = builtin_family("monomial", k=2, gamma=0.0)
exact = SpaceTimeFunction(
    u=lambda t, x: np.cos(3 * t) * np.cos(x),
    ut=lambda t, x: -3 * np.sin(3 * t) * np.cos(x),
    utt=lambda t, x: -9 * np.cos(3 * t) * np.cos(x))
u0, u1 = exact.initial_data(N)
x = u0.x

print("=" * 64)
print("temporal convergence, quadratically degenerate coefficient")
print("=" * 64)
print(f"{'steps':>6} {'dt':>10} {'max error':>12} {'ratio':>7}")
prev = None
for steps in (125, 250, 500, 1000):
    traj = solve_cauchy(cs, u0, u1, exact=exact, M=steps,
                        save_every=steps // 5)
    err = max(grid.norm(GridFunction(traj.u[i]
                                     - exact.u(float(traj.times[i]), x)))
              for i in range(traj.n_saved))
    ratio = "" if prev is None else f"{prev / err:6.1f}"
    print(f"{steps:>6} {1.0/steps:>10.1e} {err:>12.3e} {ratio:>7}")
    prev = err
print("ratio ~16 per halving: classical fourth order")

print()
print("free evolution sanity (constant coefficients, u0 = cos x):")
csc = constant_coefficients(a0=1.0)
traj = solve_cauchy(csc, grid.from_callable(np.cos, N),
                    GridFunction(np.zeros(N, dtype=complex)),
                    M=4000, save_every=800)
worst = max(grid.norm(GridFunction(traj.u[i]
                                   - np.cos(traj.times[i]) * np.cos(x)))
            for i in range(traj.n_saved))
print(f"  error against cos(t)cos(x): {worst:.2e}")

print()
limit = cfl_limit(cs, N)
print(f"stability bound for this family at N={N}: dt <= {limit:.3e}")
try:
    solve_cauchy(cs, u0, u1, exact=exact, M=int(cs.T / limit * 0.5))
except CFLError as exc:
    print(f"  oversized step refused as expected: {exc}")

print()
print("hypothesis gate: the flat family (infinite-order zero) fails a check")
failed = [r.condition_id for r in run_all_checks(builtin_family("flat", k=2),
                                                x=x) if not r.verdict]
print(f"  failed: {', '.join(failed)}")
print("  (lpwave solve refuses it with exit 1; --force runs it anyway)")
