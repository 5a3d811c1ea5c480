"""Band-resolved approximate energies, decay weights, and inequality checks.

Each band nu carries a regularized energy

    E_nu(t) = ||d_t u_nu||^2 + <(a(t,.) + eps_nu) d_x u_nu, d_x u_nu>,

with eps_nu = 2^(-nu*2k/(2+k)) chosen so sqrt(eps_nu)*2^nu >= 1.  The decay
weight h(nu, t) integrates the growth factor of E_nu, and the weighted
total  sum_nu exp(-h(nu,t) - 2*sigma*t) * E_nu(t)  is the quantity whose
one-sided evolution bound is verified in integrated form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import quad

from . import grid
from .coefficients import CoefficientSet, tensor_scan
from .commutator import CommutatorScan, _damped_kernel
from .dyadic import CutoffFamily, build_cutoffs, decompose, sobolev_norm
from .grid import GridFunction, TWO_PI
from .solver import Trajectory, cfl_limit, operator_at, solve_cauchy

QUAD_TOL = 1e-10       # absolute and relative weight quadrature tolerance
LOSS_C_CFL = 0.4       # Courant factor of the loss-search solves
LOSS_STABILITY = 2.0   # max/min ratio across grid sizes that counts as stable


def block_epsilon(k, nu) -> float:
    """Per-band regularization 2^(-nu*2k/(2+k)); in (0, 1], and
    sqrt(eps)*2^nu = 2^(nu*2/(2+k)) >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    return float(2.0 ** (-nu * 2.0 * k / (2.0 + k)))


def epsilon_array(k, nu_max) -> np.ndarray:
    return np.array([block_epsilon(k, nu) for nu in range(nu_max + 1)])


def block_energy(traj: Trajectory, i, nu, fam: CutoffFamily,
                 cs: CoefficientSet) -> float:
    """E_nu at saved index i (single entry; see energy_table for bulk)."""
    return float(energy_table(traj, fam, cs, indices=[i])[nu, 0])


def energy_table(traj: Trajectory, fam: CutoffFamily, cs: CoefficientSet,
                 indices=None) -> np.ndarray:
    """Matrix E[nu, i] of band energies over saved times.

    One FFT per saved state; the bands are one batched inverse FFT.
    """
    if indices is None:
        indices = range(traj.n_saved)
    indices = list(indices)
    xi = grid.frequencies(traj.n_points, traj.period)
    x = grid.grid_points(traj.n_points, traj.period)
    dx_w = traj.period / traj.n_points
    out = np.empty((fam.nu_max + 1, len(indices)))
    eps = epsilon_array(cs.k, fam.nu_max)[:, None]
    for col, i in enumerate(indices):
        t = float(traj.times[i])
        a_vals = np.real(cs.a(t, x))
        uhat = np.fft.fft(traj.u[i]) / traj.n_points
        uthat = np.fft.fft(traj.ut[i]) / traj.n_points
        # Plancherel for the time-derivative blocks
        kinetic = traj.period * np.sum(np.abs(fam.phi * uthat) ** 2, axis=1)
        ux = np.fft.ifft(1j * xi * fam.phi * uhat) * traj.n_points
        quad_form = dx_w * np.sum((a_vals + eps) * np.abs(ux) ** 2, axis=1)
        out[:, col] = kinetic + quad_form
    return out


# ---------------------------------------------------------------------------
# decay weights


def weight_integrand(cs: CoefficientSet, nu):
    """The four-term growth-rate integrand for band nu (scale factor 1)."""
    eps = block_epsilon(cs.k, nu)
    two_nu = 2.0 ** nu

    def f(s):
        a = float(np.real(cs.alpha(s)))
        ap = float(np.real(cs.alpha_prime(s)))
        return (eps * two_nu / np.sqrt(a + eps)
                + abs(ap) / (a + eps)
                + (a + eps) ** (cs.gamma - 0.5)
                + 1.0)

    return f


def decay_weight(nu, t, cs: CoefficientSet, scale=1.0) -> float:
    """h(nu, t): integral of the band growth rate from 0 to t, times scale.

    Zero at t = 0, non-decreasing in t, and bounded by a multiple of nu
    uniformly on [0, T].
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    val, _ = quad(weight_integrand(cs, nu), 0.0, t,
                  epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
    return float(scale * val)


def weight_table(nu_max, times, cs: CoefficientSet, scale=1.0) -> np.ndarray:
    """Matrix h[nu, i] over the saved times, accumulated interval by interval."""
    times = np.asarray(times, dtype=float)
    out = np.zeros((nu_max + 1, times.size))
    for nu in range(nu_max + 1):
        f = weight_integrand(cs, nu)
        acc = out[nu, 0] = decay_weight(nu, times[0], cs)
        for i in range(1, times.size):
            inc, _ = quad(f, times[i - 1], times[i], epsabs=QUAD_TOL,
                          epsrel=QUAD_TOL, limit=200)
            acc += inc
            out[nu, i] = acc
    return scale * out


# ---------------------------------------------------------------------------
# constant calibration


@dataclass(frozen=True)
class Constants:
    """Calibrated growth and absorption constants, with their formulas."""

    C1: float
    C2: float
    C3: float
    C4: float
    Ctilde: float
    C_schur: float
    sigma: float
    components: dict = field(default_factory=dict)
    formulas: dict = field(default_factory=dict)

    def to_dict(self):
        return {"C1": self.C1, "C2": self.C2, "C3": self.C3, "C4": self.C4,
                "Ctilde": self.Ctilde, "C_schur": self.C_schur,
                "sigma": self.sigma, "components": self.components,
                "formulas": self.formulas}


def _sup_scan(fn, cs, x, nt):
    t = np.linspace(0.0, cs.T, nt)
    return max(0.0, float(np.max(np.abs(tensor_scan(fn, t, x)))))


def calibrate_constants(cs: CoefficientSet, fam: CutoffFamily,
                        scan: CommutatorScan, nt=512) -> Constants:
    """Compute explicit candidates for every constant from grid sup-norms.

    C1..C4 come from the band-energy growth bound (each formula recorded);
    the absorption constant combines the Schur row/column sums of both
    cross-band kernels with the source term's Cauchy-Schwarz split, and
    sigma is set to it, leaving a factor-2 margin over the sigma > C/2
    requirement.
    """
    x = grid.grid_points(fam.n_points, fam.period)
    lam = min(cs.lambda0, 1.0)
    if cs.beta_time_derivative is not None:
        sup_beta_t = _sup_scan(lambda t, xx: cs.beta_time_derivative(1, t, xx),
                               cs, x, nt)
    else:
        dt_fd = cs.T / (8 * nt)
        sup_beta_t = _sup_scan(
            lambda t, xx: (cs.beta(min(t + dt_fd, cs.T), xx)
                           - cs.beta(max(t - dt_fd, 0.0), xx))
            / (min(t + dt_fd, cs.T) - max(t - dt_fd, 0.0)), cs, x, nt)
    sup_c = _sup_scan(cs.c, cs, x, nt)
    sup_b = _sup_scan(cs.b, cs, x, nt)
    sup_alpha = float(np.max(np.real(cs.alpha(np.linspace(0.0, cs.T, nt)))))

    C1 = 2.0 * (1.0 + 1.0 / lam)
    C2_alpha = cs.Lambda0 / lam
    C2_beta = sup_beta_t / lam
    C2 = C2_alpha + C2_beta
    C3 = 0.0 if sup_b == 0.0 else \
        cs.C0 * cs.Lambda0 ** cs.gamma * (1.0 + 1.0 / lam)
    C4 = 4.0 * sup_c
    Ctilde = max(C1, C2_alpha, C3, C2_beta + C4)

    # Schur sums need the weight column at the scan time with this Ctilde.
    h_col = np.array([decay_weight(nu, scan.t, cs, scale=Ctilde)
                      for nu in range(scan.nu_max + 1)])
    eps = epsilon_array(cs.k, scan.nu_max)
    # second-order kernel: alpha-free norms with the (alpha+1)^(1/2) factor
    ka = _damped_kernel(h_col, scan.norms_beta,
                        rows=(2.0 ** np.arange(scan.nu_max + 1))[:, None])
    S_row_a, S_col_a = ka.row_sum, ka.col_sum
    C_A = 4.0 * np.sqrt((sup_alpha + 1.0) / lam) * np.sqrt(S_row_a * S_col_a)
    kb = _damped_kernel(h_col, scan.norms_b, cols=eps[None, :])
    S_row_b, S_col_b = kb.row_sum, kb.col_sum
    C_B = 2.0 * np.sqrt(S_row_b * S_col_b)
    C_schur = float(C_A + C_B + 1.0)

    components = {"C2_alpha": C2_alpha, "C2_beta": C2_beta,
                  "sup_beta_t": sup_beta_t, "sup_b": sup_b, "sup_c": sup_c,
                  "sup_alpha": sup_alpha, "C_A": float(C_A), "C_B": float(C_B),
                  "S_row_a": S_row_a, "S_col_a": S_col_a,
                  "S_row_b": S_row_b, "S_col_b": S_col_b,
                  "scan_t": scan.t}
    formulas = {
        "C1": "2*(1 + 1/min(lambda0,1))",
        "C2": "Lambda0/min(lambda0,1) + sup|beta_t|/min(lambda0,1)",
        "C3": "C0 * Lambda0**gamma * (1 + 1/min(lambda0,1)), 0 when b = 0",
        "C4": "4*sup|c|",
        "Ctilde": "max(C1, C2_alpha, C3, C2_beta + C4)",
        "C_A": "4*sqrt((sup alpha + 1)/min(lambda0,1))"
               " * sqrt(S_row_a * S_col_a)",
        "C_B": "2*sqrt(S_row_b * S_col_b), kernel norms_b/eps_mu",
        "C_schur": "C_A + C_B + 1 (source absorption)",
        "sigma": "C_schur (requirement is sigma > C_schur/2)",
    }
    return Constants(C1, C2, C3, C4, float(Ctilde), C_schur, C_schur,
                     components, formulas)


# ---------------------------------------------------------------------------
# ledger and total energy


@dataclass(frozen=True)
class EnergyLedger:
    """Everything the inequality checks need, per band and saved time."""

    nu_max: int
    times: np.ndarray
    epsilon: np.ndarray        # (nu_max+1,)
    E: np.ndarray              # (nu_max+1, n_saved)
    h: np.ndarray              # (nu_max+1, n_saved)
    Etot: np.ndarray           # (n_saved,)
    constants: Constants
    m: float = 0.0
    delta_star: Optional[float] = None


def build_ledger(traj: Trajectory, fam: CutoffFamily, cs: CoefficientSet,
                 constants: Constants, m=0.0) -> EnergyLedger:
    E = energy_table(traj, fam, cs)
    h = weight_table(fam.nu_max, traj.times, cs, scale=constants.Ctilde)
    weights = np.exp(-h - 2.0 * constants.sigma * traj.times[None, :])
    Etot = np.sum(weights * E, axis=0)
    return EnergyLedger(fam.nu_max, traj.times, epsilon_array(cs.k, fam.nu_max),
                        E, h, Etot, constants, m)


def total_energy(traj: Trajectory, i, ledger: EnergyLedger) -> float:
    """Weighted band sum at saved index i (matches the ledger column)."""
    t = float(traj.times[i])
    w = np.exp(-ledger.h[:, i] - 2.0 * ledger.constants.sigma * t)
    return float(np.sum(w * ledger.E[:, i]))


# ---------------------------------------------------------------------------
# integrated evolution inequality


@dataclass(frozen=True)
class InequalityReport:
    """Integrated one-sided energy bound, saved time by saved time."""

    times: np.ndarray
    Etot: np.ndarray
    rhs_cumulative: np.ndarray
    violation: np.ndarray       # (Etot - Etot[0] - integral) / max(Etot[0], tiny)
    max_violation: float
    argmax_t: float
    budget: float
    passed: bool

    def to_dict(self):
        return {"max_violation": self.max_violation,
                "argmax_t": self.argmax_t, "budget": self.budget,
                "passed": self.passed}


def verify_energy_inequality(traj: Trajectory, fam: CutoffFamily,
                             cs: CoefficientSet, ledger: EnergyLedger,
                             budget=1e-4) -> InequalityReport:
    """Check Etot(t) <= Etot(0) + integral of the weighted source norms.

    The source term is reconstructed from the trajectory itself (operator
    applied with a central-difference second time derivative), so the
    check is self-contained and its error is O(save spacing squared) plus
    the quadrature tolerance of the weights.  Positive violations are
    reported as-is, never clipped.
    """
    d = traj.dt
    n = traj.n_saved
    rhs = np.empty(n)
    sigma = ledger.constants.sigma
    for i in range(n):
        t = float(traj.times[i])
        lu_hat = np.fft.fft(operator_at(cs, traj, i)) / traj.n_points
        band_norms_sq = traj.period * np.sum(
            np.abs(fam.phi * lu_hat[None, :]) ** 2, axis=1)
        rhs[i] = np.sum(np.exp(-ledger.h[:, i] - 2.0 * sigma * t)
                        * band_norms_sq)
    cumulative = np.concatenate([[0.0],
                                 np.cumsum((rhs[1:] + rhs[:-1]) / 2.0 * d)])
    denom = max(float(ledger.Etot[0]), 1e-300)
    violation = (ledger.Etot - ledger.Etot[0] - cumulative) / denom
    worst = int(np.argmax(violation))
    max_v = float(violation[worst])
    return InequalityReport(traj.times, ledger.Etot, cumulative, violation,
                            max_v, float(traj.times[worst]), budget,
                            max_v <= budget)


# ---------------------------------------------------------------------------
# a-priori estimate: loss-of-derivatives search


def loss_ratio_curve(traj: Trajectory, fam: CutoffFamily, m, deltas,
                     source_integral=0.0) -> np.ndarray:
    """Ratio sup_t [|u|_{m+1-d} + |d_t u|_{m-d}] / data norms, per delta.

    Norms are the dyadic proxies of :func:`dyadic.sobolev_norm`, formed
    for all deltas at once from one squared block-norm matrix per field.
    ``source_integral`` adds the time integral of the forcing's H^m norm
    to the denominator.
    """
    deltas = np.asarray(deltas, dtype=float)
    denom = (sobolev_norm(traj.u_at(0), m + 1.0, fam)
             + sobolev_norm(traj.ut_at(0), m, fam) + source_integral)
    if denom == 0.0:
        return np.zeros_like(deltas)
    nus = np.arange(fam.nu_max + 1)

    def norms(states, order):
        # float_power is libm pow, as the scalar arithmetic of sobolev_norm;
        # numpy's vectorised power may differ from it in the last bit
        sq = np.float_power([decompose(GridFunction(v, traj.period), fam)
                             .block_norms() for v in states], 2)
        weights = np.float_power(4.0, np.multiply.outer(order, nus))
        total = np.zeros((len(states), deltas.size))
        for nu in nus:
            total += weights[:, nu] * sq[:, nu, None]
        return np.sqrt(total)

    lhs = norms(traj.u, m + 1.0 - deltas) + norms(traj.ut, m - deltas)
    return np.max(lhs / denom, axis=0)


@dataclass(frozen=True)
class LossReport:
    delta_star: Optional[float]
    C_m: Optional[float]
    deltas: np.ndarray
    ratios_by_n: dict          # grid size -> ratio curve
    stability_factor: float
    found: bool
    note: str = ""

    def to_dict(self):
        return {"delta_star": self.delta_star, "C_m": self.C_m,
                "deltas": [float(d) for d in self.deltas],
                "ratios_by_n": {str(n): [float(r) for r in c]
                                for n, c in self.ratios_by_n.items()},
                "stability_factor": self.stability_factor,
                "found": self.found, "note": self.note}


def _rough_data(n_points, period, m, seed, xi_cap):
    """Data filling the band with |coef| ~ |xi|^-(m+3/2): marginally H^(m+1).

    Coefficients for each frequency are drawn once from a per-frequency
    stream, so refining the grid extends the same function.
    """
    xi = grid.frequencies(n_points, period)
    c0 = np.zeros(n_points, dtype=complex)
    c1 = np.zeros(n_points, dtype=complex)
    for j in range(n_points):
        q = int(round(xi[j] * period / (2.0 * np.pi)))
        if q == 0 or abs(xi[j]) > xi_cap:
            continue
        sub = np.random.default_rng([seed, q & 0xFFFF, q > 0])
        ph0, ph1 = sub.uniform(0, 2 * np.pi, 2)
        c0[j] = np.exp(1j * ph0) * np.abs(xi[j]) ** (-(m + 1.5))
        c1[j] = np.exp(1j * ph1) * np.abs(xi[j]) ** (-(m + 0.5))
    return (grid.from_coefficients(c0, period), grid.from_coefficients(c1, period))


def estimate_loss(cs: CoefficientSet, m, deltas, grid_sizes=(128, 256, 512),
                  seed=0) -> LossReport:
    """Search the delta grid for the smallest loss stable under refinement.

    Each grid size gets the same rough data law (truncations of one
    function pair), a forcing-free solve to T, and a ratio curve.  delta*
    is the smallest grid value whose worst-case ratio varies by at most
    the LOSS_STABILITY factor across the grid sizes; the reported
    constant is the largest ratio there.
    """
    deltas = np.asarray(deltas, dtype=float)
    ratios_by_n = {}
    for n_pts in grid_sizes:
        fam = build_cutoffs(n_pts, TWO_PI)
        xi_cap = 2.0 ** fam.nu_max
        u0, u1 = _rough_data(n_pts, TWO_PI, m, seed, xi_cap)
        limit = 0.999 * cfl_limit(cs, n_pts, TWO_PI, LOSS_C_CFL)
        steps = int(np.ceil(cs.T / limit))
        save_every = max(1, steps // 128)
        # round up to a multiple of save_every, so the final time is saved
        steps = -(-steps // save_every) * save_every
        traj = solve_cauchy(cs, u0, u1, f=None, M=steps, check=False,
                            save_every=save_every)
        ratios_by_n[n_pts] = loss_ratio_curve(traj, fam, m, deltas)
    found = None
    for j, d in enumerate(deltas):
        vals = np.array([ratios_by_n[n][j] for n in grid_sizes])
        if np.all(vals > 0) and vals.max() / vals.min() <= LOSS_STABILITY:
            found = j
            break
    if found is None:
        return LossReport(None, None, deltas, ratios_by_n, LOSS_STABILITY,
                          False,
                          note="no delta in the grid was refinement-stable")
    worst = max(ratios_by_n[n][found] for n in grid_sizes)
    return LossReport(float(deltas[found]), float(worst), deltas, ratios_by_n,
                      LOSS_STABILITY, True)


# ---------------------------------------------------------------------------
# exports


def ledger_to_csv(ledger: EnergyLedger, path):
    """energies.csv rows: (t, nu, E, h, weight)."""
    n = ledger.nu_max + 1
    weight = np.exp(-ledger.h - 2.0 * ledger.constants.sigma
                    * ledger.times[None, :])
    grid.write_csv(path, ["t", "nu", "E", "h", "weight"],
                   zip(np.repeat(ledger.times, n).tolist(),
                       list(range(n)) * ledger.times.size,
                       ledger.E.T.ravel().tolist(),
                       ledger.h.T.ravel().tolist(), weight.T.ravel().tolist()))


def inequality_to_csv(report: InequalityReport, path):
    """etot.csv rows: (t, Etot, rhs_integral, violation)."""
    grid.write_csv(path, ["t", "Etot", "rhs_integral", "violation"],
                   zip(report.times.tolist(), report.Etot.tolist(),
                       report.rhs_cumulative.tolist(),
                       report.violation.tolist()))


def constants_to_json(constants: Constants, path):
    grid.write_json(path, constants.to_dict())
