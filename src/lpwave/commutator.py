"""Commutators of band cutoffs with multiplication operators.

For a spatial coefficient q the operator studied here is

    w  ->  phi_nu(D)(q * psi_mu(D) w) - q * phi_nu(D) psi_mu(D) w,

small when q is smooth and nu is large.  In frequency space its kernel is
K[xi, eta] = qhat(xi - eta) * (phi_nu(xi) - phi_nu(eta)) * psi_mu(eta).
The cutoffs have exact zeros, so K has two blocks that can be non-zero:
A on the rows where phi_nu != 0 (over the psi_mu columns), and B on the
other rows and the psi_mu columns where phi_nu != 0.  The dense norm is
the top singular value of K from the smaller Gram matrix, formed from A
stacked on the R factor of B's QR (K^H K = A^H A + R^H R) when that has
fewer rows than the row-trimmed kernel, and from that kernel otherwise;
ARPACK via ``scipy.sparse.linalg.svds`` on the FFT-applied operator
provides the second, independent route.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from numpy.linalg import qr
from scipy.linalg import eigvalsh, get_blas_funcs
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, svds

from . import grid
from .dyadic import CutoffFamily
from .errors import GridMismatchError, PowerIterationError
from .grid import GridFunction

POWER_TOL = 1e-8        # svds tolerance of power_norm, recorded by scan
DECAY_FLOOR = 1e-14     # far entries at or below this count as exact zeros
DECAY_ORDERS = (2, 4)   # q of the fitted constants norm * 2^(q*max(nu, mu))
NEAR_TIE_RTOL = 1e-12   # near entries this close to the maximum tie with it


def _coef_values(coef, fam: CutoffFamily) -> np.ndarray:
    if isinstance(coef, GridFunction):
        if coef.n_points != fam.n_points:
            raise GridMismatchError("coefficient grid differs from family grid")
        return coef.values
    vals = np.asarray(coef, dtype=complex)
    if vals.shape != (fam.n_points,):
        raise GridMismatchError("coefficient samples do not match the grid")
    return vals


def _commutator_values(q, phi, psi, phi_psi, w):
    """[phi(D), q] psi(D) w on plain arrays; phi_psi is phi * psi."""
    what = grid.fft(w)
    band = grid.ifft(psi * what)
    first = grid.ifft(phi * grid.fft(q * band))
    second = q * grid.ifft(phi_psi * what)
    return first - second


def _adjoint_values(q_conj, phi, psi, phi_psi, w):
    """The adjoint of :func:`_commutator_values`; q_conj is conj(q)."""
    what = grid.fft(w)
    first = grid.ifft(psi * grid.fft(q_conj * grid.ifft(phi * what)))
    second = grid.ifft(phi_psi * grid.fft(q_conj * w))
    return first - second


def apply_commutator(coef, nu, mu, w: GridFunction, fam: CutoffFamily) -> GridFunction:
    """Apply [phi_nu(D), coef] psi_mu(D) to w."""
    if w.n_points != fam.n_points:
        raise GridMismatchError("function grid differs from family grid")
    phi, psi = fam.phi[nu], fam.psi[mu]
    return GridFunction(_commutator_values(_coef_values(coef, fam), phi, psi,
                                           phi * psi, w.values))


def apply_commutator_adjoint(coef, nu, mu, w: GridFunction,
                             fam: CutoffFamily) -> GridFunction:
    """Adjoint of :func:`apply_commutator` in the discrete L2 inner product."""
    if w.n_points != fam.n_points:
        raise GridMismatchError("function grid differs from family grid")
    phi, psi = fam.phi[nu], fam.psi[mu]
    return GridFunction(_adjoint_values(np.conj(_coef_values(coef, fam)), phi,
                                        psi, phi * psi, w.values))


def _kernel_block(qhat, phi, psi, rows, cols) -> np.ndarray:
    """K[rows, cols] = qhat(xi - eta) * (phi(xi) - phi(eta)) * psi(eta)."""
    return qhat[(rows[:, None] - cols) % qhat.size] \
        * (phi[rows][:, None] - phi[cols]) * psi[cols]


@dataclass(frozen=True)
class _KernelBlocks:
    """The two blocks of the frequency kernel that can be non-zero.

    Rows ``s1`` are where phi_nu != 0 and ``s0`` the others; ``cols`` are
    the columns where psi_mu != 0, and the mask ``c1`` on them marks those
    where phi_nu != 0 too.  ``a`` = K[s1, cols] and ``b`` = K[s0, cols[c1]];
    every other entry is exactly zero, phi_nu vanishing at both ends.
    """

    qhat: np.ndarray
    s1: np.ndarray
    s0: np.ndarray
    cols: np.ndarray
    c1: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _kernel_blocks(coef, nu, mu, fam: CutoffFamily) -> _KernelBlocks:
    q = _coef_values(coef, fam)
    qhat = grid.fft(q) / fam.n_points
    phi, psi = fam.phi[nu], fam.psi[mu]
    inside = phi != 0
    s1, s0 = np.flatnonzero(inside), np.flatnonzero(~inside)
    cols = np.flatnonzero(psi)
    c1 = inside[cols]
    return _KernelBlocks(qhat, s1, s0, cols, c1,
                         _kernel_block(qhat, phi, psi, s1, cols),
                         _kernel_block(qhat, phi, psi, s0, cols[c1]))


def _gram_input(coef, nu, mu, fam: CutoffFamily) -> Optional[np.ndarray]:
    """A matrix M with M^H M = K^H K, None when K has no non-zero entry.

    K^H K = A^H A + B^H B = A^H A + R^H R for the R factor of B = QR, so
    when |s1| + |c1| is below the short side of the row-trimmed kernel,
    M is A stacked on R (placed in the c1 columns).  Otherwise M is that
    kernel itself: the rows of K[:, cols] that are not all zero, in order,
    assembled from the blocks byte for byte as the formula gives them.
    """
    k = _kernel_blocks(coef, nu, mu, fam)
    live_a, live_b = np.any(k.a != 0, axis=1), np.any(k.b != 0, axis=1)
    n_a, n_b = np.count_nonzero(live_a), np.count_nonzero(live_b)
    if not n_a + n_b:
        return None
    n1 = k.s1.size
    if n1 + np.count_nonzero(k.c1) < min(n_a + n_b, k.cols.size):
        r = qr(k.b, mode="r")
        stacked = np.zeros((n1 + r.shape[0], k.cols.size), dtype=complex)
        stacked[:n1] = k.a
        stacked[n1:, k.c1] = r
        return stacked
    kernel = np.empty((n_a + n_b, k.cols.size), dtype=complex)
    kernel[:n_a] = k.a[live_a]
    lower = kernel[n_a:]
    lower[:, k.c1] = k.b[live_b]
    # the zero entries are formed, not filled in: their signs are the
    # formula's, so this is the full formula's trimmed kernel, bit for bit
    lower[:, ~k.c1] = _kernel_block(k.qhat, fam.phi[nu], fam.psi[mu],
                                    k.s0[live_b], k.cols[~k.c1])
    return kernel[np.argsort(np.concatenate([k.s1[live_a], k.s0[live_b]]))]


def dense_norm(coef, nu, mu, fam: CutoffFamily) -> float:
    """Operator norm as the top singular value of the frequency kernel,
    from the smaller Gram matrix of :func:`_gram_input`.

    The physical-space operator is unitarily similar to the kernel, so its
    largest singular value is the exact discrete L2 operator norm.  It is
    the square root of the largest eigenvalue of M^H M, or of M M^H when M
    has fewer rows than columns, found directly by LAPACK; the relative
    error of that square root is O(machine epsilon) at every scale.
    """
    m_in = _gram_input(coef, nu, mu, fam)
    if m_in is None:
        return 0.0
    # herk on the Fortran-order view M^T (no copy) fills the upper triangle
    # of conj(M^H M), or of conj(M M^H) with trans=2: the Gram matrix's
    # eigenvalues without a conjugated copy of M, released before eigvalsh
    rows, cols = m_in.shape
    herk = get_blas_funcs("herk", (m_in,))
    gram = herk(1.0, m_in.T, trans=0 if rows >= cols else 2)
    del m_in
    m = gram.shape[0]
    top = eigvalsh(gram, lower=False, overwrite_a=True,
                   subset_by_index=[m - 1, m - 1])[0]
    return float(np.sqrt(max(top, 0.0)))


def power_norm(coef, nu, mu, fam: CutoffFamily, tol=POWER_TOL) -> float:
    """Operator norm by ARPACK via ``scipy.sparse.linalg.svds``.

    Implicitly restarted Lanczos on T*T, with T and T* applied by FFTs, so
    no kernel is formed.  The grid weight is uniform, so sample-space
    euclidean algebra gives the same norm and the same adjoint.  The start
    vector is fixed, so reruns are bit-identical.
    """
    q = _coef_values(coef, fam)
    q_conj = np.conj(q)
    phi, psi = fam.phi[nu], fam.psi[mu]
    phi_psi = phi * psi
    n = fam.n_points

    T = LinearOperator(
        (n, n), dtype=complex,
        matvec=lambda v: _commutator_values(q, phi, psi, phi_psi, np.ravel(v)),
        rmatvec=lambda v: _adjoint_values(q_conj, phi, psi, phi_psi,
                                          np.ravel(v)))
    v0 = np.random.default_rng(0).standard_normal(n)
    if not np.any(T.rmatvec(T.matvec(v0))):
        return 0.0    # a generic start vector in the null space: T = 0
    try:
        return float(svds(T, k=1, tol=tol, v0=v0,
                          return_singular_vectors=False)[0])
    except ArpackNoConvergence as exc:
        raise PowerIterationError(
            f"ARPACK did not reach tol {tol:g} on (nu, mu) = ({nu}, {mu})"
        ) from exc


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


def scan(cs, t, fam: CutoffFamily, method="dense-svd") -> CommutatorScan:
    """Measure both coefficient commutator tables at time t."""
    norm = {"dense-svd": dense_norm, "power-iteration": power_norm}.get(method)
    if norm is None:
        raise ValueError(f"unknown method {method!r}")
    x = grid.grid_points(fam.n_points)
    beta_vals = np.asarray(cs.beta(t, x), dtype=complex)
    b_vals = np.asarray(cs.b(t, x), dtype=complex)
    n = fam.nu_max + 1
    norms_beta = np.zeros((n, n))
    norms_b = np.zeros((n, n))
    for nu in range(n):
        for mu in range(n):
            norms_beta[nu, mu] = norm(beta_vals, nu, mu, fam)
            norms_b[nu, mu] = norm(b_vals, nu, mu, fam)
    return CommutatorScan(float(t), norms_beta, norms_b, method, POWER_TOL,
                          fam.nu_max, fam.n_points)


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
    near_argmax: list               # (nu, mu) of every entry tied with it
    far_slope: Optional[float]      # log2(norm) per unit max(nu, mu)
    far_points: int
    far_exact_zero: bool
    bounded_constants: dict         # order -> max norm * 2^(order*max(nu,mu))
    fit_residual: Optional[float]
    note: str = ""

    def to_dict(self):
        return asdict(self)


def verify_decay(s: CommutatorScan) -> DecayReport:
    """Check the two decay regimes of the beta-commutator table.

    Near diagonal (|nu-mu| <= 2): reports sup 2^nu * norm and, row-major,
    every (nu, mu) tied with it to NEAR_TIE_RTOL (none if it is 0).
    Far regime (|nu-mu| >= 3): least-squares slope of log2(norm) against
    max(nu, mu) over entries above DECAY_FLOOR, plus the fitted constants
    norm * 2^(order * max(nu,mu)) for each order in DECAY_ORDERS.
    """
    v = s.norms_beta
    n = s.nu_max + 1
    nu, mu = np.indices((n, n))
    near = np.abs(nu - mu) <= 2
    far = ~near
    top = np.maximum(nu, mu)
    # ldexp scales by exact powers of two, as 2.0 ** k * v does
    scaled = np.where(near, np.ldexp(v, nu), 0.0)
    near_best = float(np.max(scaled))
    tied = (scaled > 0.0) & (near_best - scaled <= NEAR_TIE_RTOL * near_best)
    near_arg = [(int(i), int(j)) for i, j in np.argwhere(tied)]
    consts = {order: float(np.max(np.ldexp(v[far], order * top[far]),
                                  initial=0.0))
              for order in DECAY_ORDERS}
    above = far & (v > DECAY_FLOOR)           # boolean masks read row-major
    far_pts = int(np.count_nonzero(above))
    if not far_pts:
        return DecayReport(near_best, near_arg, None, 0, True, consts, None,
                           note="all far entries at or below the floor")
    if far_pts < 3:
        return DecayReport(near_best, near_arg, None, far_pts, False,
                           consts, None,
                           note="too few far entries above the floor to fit")
    xs = top[above].astype(float)
    ys = np.log2(v[above])
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, _), res, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    residual = float(np.sqrt(res[0] / far_pts)) if res.size else 0.0
    return DecayReport(near_best, near_arg, float(slope), far_pts, False,
                       consts, residual)


def decay_report_to_json(report: DecayReport, path):
    grid.write_json(path, report.to_dict())
