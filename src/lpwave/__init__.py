"""Numerical laboratory for band-energy analysis of degenerate wave equations.

The package builds a dyadic frequency decomposition on a uniform grid of
the torus [0, 2*pi), solves Cauchy problems for wave operators whose leading coefficient
may vanish to finite order, and verifies at desk scale the inequalities
that make the energy argument close: band-wise Bernstein brackets,
commutator norm decay, Schur sums of the cross-band kernels, decay-weight
bounds, the integrated evolution inequality for the weighted total
energy, and the loss-of-derivatives a-priori estimate.
"""

from .coefficients import (CoefficientSet, ConditionReport, builtin_family,
                           check_ellipticity, check_finite_degeneration,
                           check_levi, check_order_condition,
                           check_weak_hyperbolicity, constant_coefficients,
                           run_all_checks)
from .commutator import (CommutatorScan, apply_commutator, scan,
                         schur_kernel, verify_decay)
from .dyadic import (CutoffFamily, DyadicBlocks, bernstein_ratio,
                     build_cutoffs, decompose, reconstruct, sobolev_norm,
                     sobolev_norm_multiplier)
from .energy import (Constants, EnergyLedger, block_epsilon, build_ledger,
                     calibrate_constants, estimate_loss, loss_ratio_curve,
                     verify_energy_inequality, weight_table)
from .errors import (CFLError, ConditionError, ConfigurationError,
                     GridMismatchError, LPWaveError, NumericalBlowupError,
                     PowerIterationError, UnknownFamilyError, ZeroBlockError)
from .experiment import ExperimentConfig, parse_config, read_config
from .grid import (GridFunction, derivative, from_callable,
                   from_coefficients, frequencies, inner, norm,
                   random_band_limited)
from .solver import (SpaceTimeFunction, Trajectory, apply_L, cfl_limit,
                     cosine_mode, solve_cauchy)

__version__ = "0.1.0"
