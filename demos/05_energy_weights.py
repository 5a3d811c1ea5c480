#!/usr/bin/env python3
"""Band regularizations, decay weights, and calibrated constants.

Each band nu carries its own regularization eps_nu and a weight h(nu, t)
that integrates the band's worst-case energy growth rate.  The weights
grow linearly in the band index with uniformly bounded neighbor gaps;
both facts are checked numerically here, along with one closed-form
value of the middle integrand term.
"""

import numpy as np
from scipy.integrate import quad

from lpwave.coefficients import builtin_family
from lpwave.commutator import scan
from lpwave.dyadic import build_cutoffs
from lpwave.energy import block_epsilon, calibrate_constants, weight_table

cs = builtin_family("monomial", k=2, gamma=0.0)

print("=" * 64)
print("band regularization eps_nu = 2^(-nu*2k/(2+k)), k = 2")
print("=" * 64)
print(f"{'nu':>3} {'eps_nu':>12} {'sqrt(eps)*2^nu':>15}")
for nu in range(0, 11, 2):
    eps = block_epsilon(2, nu)
    print(f"{nu:>3} {eps:>12.3e} {np.sqrt(eps) * 2.0**nu:>15.3f}")
print("sqrt(eps)*2^nu >= 1 always: the zero-order term stays absorbable")

print()
print("decay weights h(nu, t) for alpha = t^2 (raw scale):")
print(f"{'nu':>3} {'h(nu,1)':>10} {'h/nu':>8} {'gap to next':>12}")
h = weight_table(13, [1.0], cs)[1:, 0]
for i, nu in enumerate(range(1, 13)):
    print(f"{nu:>3} {h[i]:>10.4f} {h[i]/nu:>8.4f} {h[i+1]-h[i]:>12.4f}")
print("h/nu bounded, neighbor gaps level off near 2*log(2) = "
      f"{2*np.log(2):.4f}")

eps10 = block_epsilon(2, 10)
mid, _ = quad(lambda s: abs(cs.alpha_derivative(1, s))
              / (cs.alpha(s) + eps10), 0, 1, epsabs=1e-12, epsrel=1e-12)
print()
print(f"middle term at nu=10: quadrature {mid:.12f}")
print(f"closed form log(1025):          {np.log(1025.0):.12f}")

print()
print("=" * 64)
print("calibrated constants for the full verification run")
print("=" * 64)
fam = build_cutoffs(128)
s = scan(cs, 1.0, fam)
const = calibrate_constants(cs, fam, s)
for name in ("C1", "C2", "C3", "C4", "Ctilde", "C_schur", "sigma"):
    print(f"  {name:<8} = {getattr(const, name):12.4f}   "
          f"[{const.formulas.get(name, '')}]")
print("\nkernel sums behind the absorption constant:")
for key in ("S_row_a", "S_col_a", "S_row_b", "S_col_b"):
    print(f"  {key} = {const.components[key]:.4f}")
print("\nsigma is set to the whole absorption constant, twice the "
      "sigma > C/2 requirement")
