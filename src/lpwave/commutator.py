"""Commutators of band cutoffs with multiplication operators.

For a spatial coefficient q the operator studied here is

    w  ->  phi_nu(D)(q * psi_mu(D) w) - q * phi_nu(D) psi_mu(D) w,

small when q is smooth and nu is large.  In frequency space its kernel is
K[xi, eta] = qhat(xi - eta) * (phi_nu(xi) - phi_nu(eta)) * psi_mu(eta),
which is assembled densely for SVD norms; power iteration on the
FFT-applied operator provides the second, independent route.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import svdvals

from . import grid
from .dyadic import CutoffFamily
from .errors import GridMismatchError, PowerIterationError
from .grid import GridFunction

POWER_RESTARTS = 3      # randomized starts of the block power iteration
POWER_MAX_ITER = 2000   # iterations allowed per start
POWER_BLOCK = 4         # block width, covers mirror-pair clusters of four
DECAY_FLOOR = 1e-14     # far entries at or below this count as exact zeros
DECAY_ORDERS = (2, 4)   # q of the fitted constants norm * 2^(q*max(nu, mu))


def _coef_values(coef, fam: CutoffFamily) -> np.ndarray:
    if isinstance(coef, GridFunction):
        if coef.n_points != fam.n_points or coef.period != fam.period:
            raise GridMismatchError("coefficient grid differs from family grid")
        return coef.values
    vals = np.asarray(coef, dtype=complex)
    if vals.shape != (fam.n_points,):
        raise GridMismatchError("coefficient samples do not match the grid")
    return vals


def apply_commutator(coef, nu, mu, w: GridFunction, fam: CutoffFamily) -> GridFunction:
    """Apply [phi_nu(D), coef] psi_mu(D) to w."""
    if w.n_points != fam.n_points or w.period != fam.period:
        raise GridMismatchError("function grid differs from family grid")
    q = _coef_values(coef, fam)
    what = np.fft.fft(w.values)
    band = np.fft.ifft(fam.psi[mu] * what)
    first = np.fft.ifft(fam.phi[nu] * np.fft.fft(q * band))
    second = q * np.fft.ifft(fam.phi[nu] * fam.psi[mu] * what)
    return GridFunction(first - second, w.period)


def apply_commutator_adjoint(coef, nu, mu, w: GridFunction,
                             fam: CutoffFamily) -> GridFunction:
    """Adjoint of :func:`apply_commutator` in the discrete L2 inner product."""
    q = np.conj(_coef_values(coef, fam))
    what = np.fft.fft(w.values)
    first = np.fft.ifft(
        fam.psi[mu] * np.fft.fft(q * np.fft.ifft(fam.phi[nu] * what)))
    second = np.fft.ifft(fam.psi[mu] * fam.phi[nu] * np.fft.fft(q * w.values))
    return GridFunction(first - second, w.period)


def frequency_kernel(coef, nu, mu, fam: CutoffFamily) -> np.ndarray:
    """Dense frequency-space kernel of the commutator (FFT ordering)."""
    q = _coef_values(coef, fam)
    qhat = np.fft.fft(q) / fam.n_points
    idx = np.arange(fam.n_points)
    shift = (idx[:, None] - idx[None, :]) % fam.n_points
    return qhat[shift] * (fam.phi[nu][:, None] - fam.phi[nu][None, :]) \
        * fam.psi[mu][None, :]


def _trimmed(kernel):
    rows = np.flatnonzero(np.any(kernel != 0, axis=1))
    cols = np.flatnonzero(np.any(kernel != 0, axis=0))
    if rows.size == 0 or cols.size == 0:
        return None
    return kernel[np.ix_(rows, cols)]


def dense_norm(coef, nu, mu, fam: CutoffFamily) -> float:
    """Operator norm via SVD of the (support-trimmed) frequency kernel.

    The physical-space operator is unitarily similar to the kernel, so the
    largest singular value is the exact discrete L2 operator norm.
    """
    sub = _trimmed(frequency_kernel(coef, nu, mu, fam))
    if sub is None:
        return 0.0
    return float(svdvals(sub)[0])


def power_norm(coef, nu, mu, fam: CutoffFamily, tol=1e-8) -> float:
    """Operator norm via block power iteration on T*T.

    Real-valued coefficients produce top singular values in near-degenerate
    clusters of up to four (exact mirror pairs split by a tiny coupling), so
    a four-vector block with Rayleigh-Ritz extraction is used; convergence
    is declared on the Ritz residual ||T*T y - theta y|| <= tol * theta,
    which bounds |theta - lambda_max| directly.  Randomized restarts guard
    against unlucky starts.
    """
    rng = np.random.default_rng(0)
    n = fam.n_points
    coef_scale = max(1.0, float(np.max(np.abs(_coef_values(coef, fam)))))
    # below this the operator is zero up to roundoff of the FFT products
    zero_floor = 1e-13 * coef_scale
    # the residual of the applied operator cannot drop below FFT roundoff
    noise = 100.0 * np.finfo(float).eps * coef_scale

    # the grid weight is uniform, so sample-space euclidean algebra gives
    # the same operator norm and the same adjoint matrix
    def apply_ata(vals):
        tv = apply_commutator(coef, nu, mu, GridFunction(vals, fam.period),
                              fam)
        return apply_commutator_adjoint(coef, nu, mu, tv, fam).values

    best = 0.0
    converged = False
    last_residual = np.inf
    for _ in range(POWER_RESTARTS):
        V = np.linalg.qr(rng.standard_normal((n, POWER_BLOCK))
                         + 1j * rng.standard_normal((n, POWER_BLOCK)))[0]
        ok = False
        sigma = 0.0
        residual = np.inf
        theta = 0.0
        for _ in range(POWER_MAX_ITER):
            W = np.stack([apply_ata(v) for v in V.T], axis=1)
            small = V.conj().T @ W
            evals, evecs = np.linalg.eigh((small + small.conj().T) / 2.0)
            theta = float(evals[-1])
            sigma = np.sqrt(max(theta, 0.0))
            if sigma < zero_floor:
                ok = True
                break
            residual = float(np.linalg.norm(W @ evecs[:, -1]
                                            - theta * (V @ evecs[:, -1])))
            if residual <= tol * theta + noise * sigma:
                ok = True
                break
            V = np.linalg.qr(W)[0]
        if ok:
            converged = True
            best = max(best, float(sigma))
        else:
            last_residual = residual / max(theta, 1e-300)
    if not converged:
        raise PowerIterationError(last_residual, best)
    return best


@dataclass(frozen=True)
class CommutatorScan:
    """Operator norms of [phi_nu, q] psi_mu over the full (nu, mu) table.

    ``norms_beta`` holds the second-order coefficient's spatial factor,
    ``norms_b`` the first-order coefficient, both at the scan time.
    """

    t: float
    norms_beta: np.ndarray
    norms_b: np.ndarray
    method: str
    tolerance: float
    nu_max: int
    n_points: int
    period: float


def scan(cs, t, fam: CutoffFamily, method="dense-svd", tol=1e-8) -> CommutatorScan:
    """Measure both coefficient commutator tables at time t."""
    if method == "dense-svd":
        norm = dense_norm
    elif method == "power-iteration":
        norm = functools.partial(power_norm, tol=tol)
    else:
        raise ValueError(f"unknown method {method!r}")
    x = grid.grid_points(fam.n_points, fam.period)
    beta_vals = np.asarray(cs.beta(t, x), dtype=complex)
    b_vals = np.asarray(cs.b(t, x), dtype=complex)
    n = fam.nu_max + 1
    norms_beta = np.zeros((n, n))
    norms_b = np.zeros((n, n))
    for nu in range(n):
        for mu in range(n):
            norms_beta[nu, mu] = norm(beta_vals, nu, mu, fam)
            norms_b[nu, mu] = norm(b_vals, nu, mu, fam)
    return CommutatorScan(float(t), norms_beta, norms_b, method, tol,
                          fam.nu_max, fam.n_points, fam.period)


def scan_to_csv(s: CommutatorScan, path):
    nu, mu = np.indices(s.norms_beta.shape).reshape(2, -1).tolist()
    grid.write_csv(path, ["t", "nu", "mu", "norm_beta", "norm_b", "method"],
                   zip(itertools.repeat(s.t), nu, mu,
                       s.norms_beta.ravel().tolist(),
                       s.norms_b.ravel().tolist(),
                       itertools.repeat(s.method)))


# ---------------------------------------------------------------------------
# Schur test bookkeeping


@dataclass(frozen=True)
class SchurKernel:
    """Weighted cross-band kernel with its row/column sup-sums."""

    kernel: np.ndarray
    row_sum: float      # sup_nu sum_mu k
    col_sum: float      # sup_mu sum_nu k


def _damped_kernel(h, norms, rows=1.0, cols=1.0) -> SchurKernel:
    """Kernel e^{-(h_nu - h_mu)/2} * rows * norms / cols and its Schur sums.

    Every factor is non-negative, so plain sums are the Schur test's sums.
    """
    damp = np.exp(-(h[:, None] - h[None, :]) / 2.0)
    kernel = damp * rows * norms / cols
    return SchurKernel(kernel, float(np.max(np.sum(kernel, axis=1))),
                       float(np.max(np.sum(kernel, axis=0))))


def schur_kernel(s: CommutatorScan, h_at_t, t, cs, which="a",
                 epsilons=None) -> SchurKernel:
    """Build the weighted kernel whose Schur sums bound a cross-band term.

    which="a": e^{-(h_nu - h_mu)/2} * 2^nu * alpha(t) * norms_beta, the
    second-order coupling.  which="b": e^{-(h_nu - h_mu)/2} * norms_b /
    eps_mu, the first-order coupling (``epsilons`` required).
    """
    h = np.asarray(h_at_t, dtype=float)
    n = s.nu_max + 1
    if h.shape[0] != n:
        raise ValueError("weight column does not match the scan size")
    if which == "a":
        alpha_t = float(np.real(cs.alpha(t)))
        return _damped_kernel(h, s.norms_beta,
                              rows=(2.0 ** np.arange(n))[:, None] * alpha_t)
    if which == "b":
        if epsilons is None:
            raise ValueError("the first-order kernel needs the epsilon array")
        eps = np.asarray(epsilons, dtype=float)
        return _damped_kernel(h, s.norms_b, cols=eps[None, :])
    raise ValueError(f"unknown kernel selector {which!r}")


# ---------------------------------------------------------------------------
# decay verification


@dataclass(frozen=True)
class DecayReport:
    """Fitted decay behaviour of a scan's beta-commutator norms."""

    near_constant: float            # sup over |nu-mu| <= 2 of 2^nu * norm
    near_argmax: tuple
    far_slope: Optional[float]      # log2(norm) per unit max(nu, mu)
    far_points: int
    far_exact_zero: bool
    bounded_constants: dict         # order -> max norm * 2^(order*max(nu,mu))
    fit_residual: Optional[float]
    note: str = ""

    def to_dict(self):
        return {
            "near_constant": self.near_constant,
            "near_argmax": list(self.near_argmax),
            "far_slope": self.far_slope,
            "far_points": self.far_points,
            "far_exact_zero": self.far_exact_zero,
            "bounded_constants": {str(k): v
                                  for k, v in self.bounded_constants.items()},
            "fit_residual": self.fit_residual,
            "note": self.note,
        }


def verify_decay(s: CommutatorScan) -> DecayReport:
    """Check the two decay regimes of the beta-commutator table.

    Near diagonal (|nu-mu| <= 2): reports sup 2^nu * norm.  Far regime
    (|nu-mu| >= 3): least-squares slope of log2(norm) against max(nu, mu)
    over entries above DECAY_FLOOR, plus the fitted constants norm *
    2^(order * max(nu,mu)) for each order in DECAY_ORDERS.
    """
    n = s.nu_max + 1
    near_best, near_arg = 0.0, (0, 0)
    far_pts = []
    consts = {order: 0.0 for order in DECAY_ORDERS}
    for nu in range(n):
        for mu in range(n):
            v = s.norms_beta[nu, mu]
            if abs(nu - mu) <= 2:
                scaled = 2.0 ** nu * v
                if scaled > near_best:
                    near_best, near_arg = float(scaled), (nu, mu)
            else:
                top = max(nu, mu)
                for order in DECAY_ORDERS:
                    consts[order] = max(consts[order], v * 2.0 ** (order * top))
                if v > DECAY_FLOOR:
                    far_pts.append((top, v))
    if not far_pts:
        return DecayReport(near_best, near_arg, None, 0, True, consts, None,
                           note="all far entries at or below the floor")
    if len(far_pts) < 3:
        return DecayReport(near_best, near_arg, None, len(far_pts), False,
                           consts, None,
                           note="too few far entries above the floor to fit")
    xs = np.array([p for p, _ in far_pts], dtype=float)
    ys = np.log2([v for _, v in far_pts])
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, _), res, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    residual = float(np.sqrt(res[0] / len(far_pts))) if res.size else 0.0
    return DecayReport(near_best, near_arg, float(slope), len(far_pts), False,
                       consts, residual)


def decay_report_to_json(report: DecayReport, path):
    grid.write_json(path, report.to_dict())
