"""Band-resolved approximate energies, decay weights, and inequality checks.

Each band nu carries a regularized energy

    E_nu(t) = ||d_t u_nu||^2 + <(a(t,.) + eps_nu) d_x u_nu, d_x u_nu>,

with eps_nu = 2^(-nu*2k/(2+k)) chosen so sqrt(eps_nu)*2^nu >= 1.  The decay
weight h(nu, t) integrates the growth factor of E_nu, and the weighted
total  sum_nu exp(-h(nu,t) - 2*sigma*t) * E_nu(t)  is the quantity whose
one-sided evolution bound is verified in integrated form, with the
solve's forcing f = L u (``Trajectory.exact``) as its source term.

The weight table integrates all bands over [0, t_0] and all the intervals
between the saved times t_0, t_1, ... in one vectorised pass of QUADPACK's
21-point Gauss-Kronrod rule (``qk21``), with the sums in ``qk21``'s order
and ``dqagse``'s first-step acceptance test; a (band, interval) that fails
it is integrated by ``scipy.integrate.quad``, so each entry is the number
``quad`` returns.  ``scipy.integrate`` is imported by the first such call,
so importing this module, or a weight table that needs no fallback, loads
no scipy.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import grid
from .coefficients import CoefficientSet, scan_grids, tensor_scan
from .commutator import CommutatorScan, schur_kernel
from .dyadic import CutoffFamily, band_norms_sq, build_cutoffs, sobolev_norms
from .errors import ConfigurationError, NumericalBlowupError
from .grid import TWO_PI
from .solver import (Trajectory, _coefficients, _operator, cfl_limit,
                     solve_cauchy)

QUAD_TOL = 1e-10       # absolute and relative weight quadrature tolerance
BUDGET = 1e-4          # largest relative violation the inequality check passes
LOSS_C_CFL = 0.4       # Courant factor of the loss-search solves
LOSS_STABILITY = 2.0   # max/min ratio across grid sizes that counts as stable


def block_epsilon(k, nu):
    """Regularization 2^(-nu*2k/(2+k)) of a band nu, or an integer array of
    bands; in (0, 1], and sqrt(eps)*2^nu = 2^(nu*2/(2+k)) >= 1."""
    nu = np.asarray(nu)
    if k < 1:
        raise ValueError("k must be >= 1")
    if np.any(nu < 0):
        raise ValueError("nu must be >= 0")
    eps = np.float_power(2.0, -nu * 2.0 * k / (2.0 + k))   # libm pow, as **
    return float(eps) if eps.ndim == 0 else eps


@np.errstate(over="ignore")      # build_ledger refuses a non-finite table
def energy_table(traj: Trajectory, fam: CutoffFamily,
                 cs: CoefficientSet) -> np.ndarray:
    """Matrix E[nu, i] of band energies over saved times.

    The kinetic part is ``band_norms_sq`` of d_t u.  The band gradients
    take, per ``grid.row_chunks`` chunk of N * (nu_max + 1) values, one
    FFT of u and one (states, bands, N) inverse FFT; ``a`` is sampled
    once per chunk, on its column of times.
    """
    n = traj.n_points
    x = grid.grid_points(n)
    ik_phi = grid.ik(n) * fam.phi
    dx_w = TWO_PI / n
    out = np.empty((fam.nu_max + 1, traj.n_saved))
    eps = block_epsilon(cs.k, np.arange(fam.nu_max + 1))[:, None]
    kinetic = band_norms_sq(fam, traj.ut)
    for rows in grid.row_chunks(traj.n_saved, n * (fam.nu_max + 1)):
        a_rows = tensor_scan(cs.a, traj.times[rows], x)
        uhat = grid.fft(traj.u[rows]) / n
        ux = grid.ifft(ik_phi * uhat[:, None]) * n
        quad_form = dx_w * np.sum((a_rows[:, None] + eps) * np.abs(ux) ** 2,
                                  axis=-1)
        out[:, rows] = (kinetic[rows] + quad_form).T
    return out


# ---------------------------------------------------------------------------
# decay weights


def weight_integrand(cs: CoefficientSet, nu):
    """The four-term growth-rate integrand for band nu (scale factor 1).

    The returned f(s) takes a scalar or an array of times; an integer
    array of bands nu broadcasts against them, alpha taken once per time.
    """
    eps = block_epsilon(cs.k, nu)
    two_nu = 2.0 ** nu

    def f(s):
        a = np.real(cs.alpha(s))
        ap = np.real(cs.alpha_derivative(1, s))
        # float_power is libm pow, as Python's ** on floats
        return (eps * two_nu / np.sqrt(a + eps)
                + np.abs(ap) / (a + eps)
                + np.float_power(a + eps, cs.gamma - 0.5)
                + 1.0)

    return f


# QUADPACK dqk21: Kronrod nodes xgk (odd 0-based entries are the 10-point
# Gauss nodes, the last is the centre), Kronrod weights wgk, Gauss weights wg
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _qk21_first_step(f, lo, hi):
    """dqagse's first step on each interval [lo[i], hi[i]] at once.

    Returns the 21-point Kronrod result per interval and a mask of the
    intervals where dqagse would stop after that step, each with f's
    leading (band) axes.  Every sum runs in dqk21's order, so an accepted
    entry is the number quad returns.
    """
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    dhlgth = np.abs(hlgth)
    absc = hlgth[:, None] * _XGK[:10]
    fv = f(np.concatenate([centr[:, None], centr[:, None] - absc,
                           centr[:, None] + absc], axis=1))
    fc, fv1, fv2 = fv[..., 0], fv[..., 1:11], fv[..., 11:]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = np.abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):   # Gauss pairs first
        fsum = fv1[..., j] + fv2[..., j]
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (np.abs(fv1[..., j])
                                     + np.abs(fv2[..., j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (np.abs(fv1[..., j] - reskh)
                                     + np.abs(fv2[..., j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    ratio = np.divide(0.2e3 * abserr, resasc, out=np.zeros_like(resasc),
                      where=scaled)
    abserr = np.where(scaled,
                      resasc * np.minimum(1.0, np.float_power(ratio, 1.5)),
                      abserr)
    abserr = np.where(resabs > _UFLOW / (0.5e2 * _EPMACH),
                      np.maximum((_EPMACH * 0.5e2) * resabs, abserr), abserr)
    errbnd = np.maximum(QUAD_TOL, QUAD_TOL * np.abs(result))
    done = ((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)
    return result, done


def weight_table(nu_max, times, cs: CoefficientSet, scale=1.0) -> np.ndarray:
    """Matrix h[nu, i] of the integrals from 0 to times[i], accumulated
    interval by interval, [0, times[0]] the first.

    One integrand call takes all bands at the nodes of all intervals.
    Each increment is quad's value: the vectorised first Gauss-Kronrod
    step where dqagse accepts it, quad itself elsewhere.  h is zero at
    t = 0, non-decreasing in t, and bounded by a multiple of nu uniformly
    on [0, T]; a negative first time is a ValueError.
    """
    times = np.asarray(times, dtype=float)
    if times[0] < 0:
        raise ValueError("the first time must be >= 0")
    lo, hi = np.concatenate([[0.0], times[:-1]]), times
    f = weight_integrand(cs, np.arange(nu_max + 1)[:, None, None])
    inc, done = _qk21_first_step(f, lo, hi)
    if not done.all():
        from scipy.integrate import quad

        for nu, i in np.argwhere(~done):
            inc[nu, i] = quad(weight_integrand(cs, nu), lo[i], hi[i],
                              epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)[0]
    return scale * np.cumsum(inc, axis=1)


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
        return asdict(self)


@np.errstate(over="ignore", invalid="ignore")    # C_schur is checked below
def calibrate_constants(cs: CoefficientSet, fam: CutoffFamily,
                        scan: CommutatorScan) -> Constants:
    """Compute explicit candidates for every constant from grid sup-norms.

    C1..C4 come from the band-energy growth bound (each formula recorded);
    the absorption constant combines the Schur row/column sums of both
    cross-band kernels with the source term's Cauchy-Schwarz split, and
    sigma is set to it, leaving a factor-2 margin over the sigma > C/2
    requirement.  A C_schur that is not finite, from any overflow, is a
    ConfigurationError.
    """
    t, x = scan_grids(cs, grid.grid_points(fam.n_points))
    lam = min(cs.lambda0, 1.0)
    sup_beta_t, sup_c, sup_b = (
        max(0.0, float(np.max(np.abs(tensor_scan(fn, t, x)))))
        for fn in (functools.partial(cs.beta_time_derivative, 1), cs.c, cs.b))
    sup_alpha = float(np.max(np.real(cs.alpha(t))))

    C1 = 2.0 * (1.0 + 1.0 / lam)
    C2_alpha = cs.Lambda0 / lam
    C2_beta = sup_beta_t / lam
    C2 = C2_alpha + C2_beta
    C3 = 0.0 if sup_b == 0.0 else \
        cs.C0 * cs.Lambda0 ** cs.gamma * (1.0 + 1.0 / lam)
    C4 = 4.0 * sup_c
    Ctilde = max(C1, C2_alpha, C3, C2_beta + C4)

    # Schur sums need the weight column at the scan time with this Ctilde.
    h_col = weight_table(scan.nu_max, [scan.t], cs, scale=Ctilde)[:, 0]
    eps = block_epsilon(cs.k, np.arange(scan.nu_max + 1))
    # second-order kernel: alpha-free norms with the (alpha+1)^(1/2) factor
    ka = schur_kernel(h_col, scan.norms_beta,
                      rows=(2.0 ** np.arange(scan.nu_max + 1))[:, None])
    S_row_a, S_col_a = ka.row_sum, ka.col_sum
    C_A = 4.0 * np.sqrt((sup_alpha + 1.0) / lam) * np.sqrt(S_row_a * S_col_a)
    kb = schur_kernel(h_col, scan.norms_b, cols=eps[None, :])
    S_row_b, S_col_b = kb.row_sum, kb.col_sum
    C_B = 2.0 * np.sqrt(S_row_b * S_col_b)
    C_schur = float(C_A + C_B + 1.0)
    if not np.isfinite(C_schur):
        raise ConfigurationError(f"the Schur sums of the weighted kernels "
                                 f"overflow: C_schur = {C_schur} at Ctilde "
                                 f"= {Ctilde:.6g}")

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

    times: np.ndarray
    E: np.ndarray              # (nu_max+1, n_saved)
    h: np.ndarray              # (nu_max+1, n_saved)
    weights: np.ndarray        # exp(-h - 2*sigma*t), (nu_max+1, n_saved)
    Etot: np.ndarray           # (n_saved,)
    constants: Constants


def build_ledger(traj: Trajectory, fam: CutoffFamily, cs: CoefficientSet,
                 constants: Constants) -> EnergyLedger:
    """The ledger of traj; a band energy that overflows is a
    NumericalBlowupError naming its saved time."""
    E = energy_table(traj, fam, cs)
    overflow = ~np.all(np.isfinite(E), axis=0)
    if overflow.any():
        raise NumericalBlowupError(float(traj.times[np.argmax(overflow)]),
                                   "band energy")
    h = weight_table(fam.nu_max, traj.times, cs, scale=constants.Ctilde)
    weights = np.exp(-h - 2.0 * constants.sigma * traj.times[None, :])
    Etot = np.sum(weights * E, axis=0)
    return EnergyLedger(traj.times, E, h, weights, Etot, constants)


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
                             cs: CoefficientSet,
                             ledger: EnergyLedger) -> InequalityReport:
    """Check Etot(t) <= Etot(0) + integral of the weighted source norms.

    The source is the forcing L[traj.exact] of the solve (the saved
    states' L u, d_t^2 u taken from the equation) at the saved times, a
    ``grid.row_chunks`` chunk at a time; a trajectory without ``exact``
    has none.  Positive violations are reported as-is, never clipped;
    the check passes when the largest is at most BUDGET.
    """
    d, exact = traj.dt, traj.exact
    sq = np.zeros((traj.n_saved, fam.nu_max + 1))
    if exact is not None:
        x = grid.grid_points(traj.n_points)
        for rows in grid.row_chunks(traj.n_saved, traj.n_points):
            t = traj.times[rows, None]
            sq[rows] = band_norms_sq(fam, _operator(
                *_coefficients(cs, t, x), exact.u(t, x), exact.utt(t, x)))
    rhs = np.sum(ledger.weights * sq.T, axis=0)
    cumulative = np.concatenate([[0.0],
                                 np.cumsum((rhs[1:] + rhs[:-1]) / 2.0 * d)])
    denom = max(float(ledger.Etot[0]), 1e-300)
    violation = (ledger.Etot - ledger.Etot[0] - cumulative) / denom
    worst = int(np.argmax(violation))
    max_v = float(violation[worst])
    return InequalityReport(traj.times, ledger.Etot, cumulative, violation,
                            max_v, float(traj.times[worst]), BUDGET,
                            max_v <= BUDGET)


# ---------------------------------------------------------------------------
# a-priori estimate: loss-of-derivatives search


@np.errstate(over="ignore", invalid="ignore")   # estimate_loss checks it
def loss_ratio_curve(traj: Trajectory, fam: CutoffFamily, m,
                     deltas) -> np.ndarray:
    """Ratio sup_t [|u|_{m+1-d} + |d_t u|_{m-d}] / data norms, per delta.

    Norms are the dyadic proxies of :func:`dyadic.sobolev_norms`; the
    data norms |u(0)|_{m+1} + |d_t u(0)|_m are the last order of each
    field's call, read at the first saved state.
    """
    deltas = np.asarray(deltas, dtype=float)
    u = sobolev_norms(fam, traj.u, np.append(m + 1.0 - deltas, m + 1.0))
    ut = sobolev_norms(fam, traj.ut, np.append(m - deltas, m))
    denom = u[0, -1] + ut[0, -1]
    if denom == 0.0:
        return np.zeros_like(deltas)
    return np.max((u[:, :-1] + ut[:, :-1]) / denom, axis=0)


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
        sizes = sorted(self.ratios_by_n)
        return {"delta_star": self.delta_star, "C_m": self.C_m,
                "deltas": [float(d) for d in self.deltas],
                "grid_sizes": sizes,
                "ratios": [self.ratios_by_n[n].tolist() for n in sizes],
                "stability_factor": self.stability_factor,
                "found": self.found, "note": self.note}


def _rough_data(n_points, m, seed, xi_cap):
    """Data filling the band with |coef| ~ |xi|^-(m+3/2): marginally H^(m+1).

    Coefficients for each frequency are drawn once from a per-frequency
    stream, so refining the grid extends the same function.
    """
    xi = grid.frequencies(n_points)
    c0 = np.zeros(n_points, dtype=complex)
    c1 = np.zeros(n_points, dtype=complex)
    for j in range(n_points):
        q = int(xi[j])
        if q == 0 or abs(xi[j]) > xi_cap:
            continue
        sub = np.random.default_rng([seed, q & 0xFFFF, q > 0])
        ph0, ph1 = sub.uniform(0, 2 * np.pi, 2)
        c0[j] = np.exp(1j * ph0) * np.abs(xi[j]) ** (-(m + 1.5))
        c1[j] = np.exp(1j * ph1) * np.abs(xi[j]) ** (-(m + 0.5))
    return grid.from_coefficients(c0), grid.from_coefficients(c1)


def estimate_loss(cs: CoefficientSet, m, deltas, grid_sizes=(128, 256, 512),
                  seed=0) -> LossReport:
    """Search the delta grid for the smallest loss stable under refinement.

    Each grid size gets the same rough data law (truncations of one
    function pair), a forcing-free solve to T, and a ratio curve.  delta*
    is the smallest grid value whose worst-case ratio varies by at most
    the LOSS_STABILITY factor across the grid sizes; the reported
    constant is the largest ratio there.  One distinct size is refused, and
    so is an ``m`` whose ratio curve on some grid is not finite.
    """
    if len(set(grid_sizes)) < 2:
        raise ValueError(
            f"the loss search needs two distinct grid sizes, got {grid_sizes}")
    deltas = np.asarray(deltas, dtype=float)
    ratios_by_n = {}
    for n_pts in grid_sizes:
        fam = build_cutoffs(n_pts)
        xi_cap = 2.0 ** fam.nu_max
        u0, u1 = _rough_data(n_pts, m, seed, xi_cap)
        limit = 0.999 * cfl_limit(cs, n_pts, LOSS_C_CFL)
        steps = int(np.ceil(cs.T / limit))
        save_every = max(1, steps // 128)
        # round up to a multiple of save_every, so the final time is saved
        steps = -(-steps // save_every) * save_every
        traj = solve_cauchy(cs, u0, u1, M=steps, save_every=save_every)
        curve = loss_ratio_curve(traj, fam, m, deltas)
        if not np.all(np.isfinite(curve)):
            raise ConfigurationError(
                f"m = {m!r} gives loss ratios that are not finite at N = "
                f"{n_pts}: its Sobolev weights overflow or its data underflow")
        ratios_by_n[n_pts] = curve
    ratios = np.array([ratios_by_n[n] for n in grid_sizes])   # (sizes, deltas)
    positive = np.all(ratios > 0, axis=0)
    # max / min only where every ratio is > 0; the rest stay unstable
    spread = np.divide(ratios.max(axis=0), ratios.min(axis=0),
                       out=np.full(deltas.shape, np.inf), where=positive)
    stable = np.flatnonzero(spread <= LOSS_STABILITY)
    if not stable.size:
        return LossReport(None, None, deltas, ratios_by_n, LOSS_STABILITY,
                          False,
                          note="no delta in the grid was refinement-stable")
    found = stable[0]
    return LossReport(float(deltas[found]), float(ratios[:, found].max()),
                      deltas, ratios_by_n, LOSS_STABILITY, True)


# ---------------------------------------------------------------------------
# exports


def band_tables_to_csv(path, times, **tables):
    """Rows (t, nu, one cell per table) in (t, nu) order; each keyword is
    a column name and its (bands, times) table."""
    n = len(next(iter(tables.values())))
    cells = [table.T.ravel().tolist() for table in tables.values()]
    grid.write_csv(path, ["t", "nu", *tables],
                   zip(np.repeat(times, n).tolist(),
                       list(range(n)) * times.size, *cells))


def ledger_to_csv(ledger: EnergyLedger, path):
    """energies.csv rows: (t, nu, E, h, weight)."""
    band_tables_to_csv(path, ledger.times, E=ledger.E, h=ledger.h,
                       weight=ledger.weights)


def inequality_to_csv(report: InequalityReport, path):
    """etot.csv rows: (t, Etot, rhs_integral, violation)."""
    grid.write_csv(path, ["t", "Etot", "rhs_integral", "violation"],
                   zip(report.times.tolist(), report.Etot.tolist(),
                       report.rhs_cumulative.tolist(),
                       report.violation.tolist()))
