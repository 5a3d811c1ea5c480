"""Commutators of band cutoffs with multiplication operators.

For a spatial coefficient q the operator studied here is

    w  ->  phi_nu(D)(q * psi_mu(D) w) - q * phi_nu(D) psi_mu(D) w,

small when q is smooth and nu is large.  In frequency space its kernel is
K[xi, eta] = qhat(xi - eta) * (phi_nu(xi) - phi_nu(eta)) * psi_mu(eta).
The cutoffs have exact zeros, so K has two blocks that can be non-zero:
A on the rows where phi_nu != 0 (over the psi_mu columns), and B on the
other rows and the psi_mu columns where phi_nu != 0.  The dense norm is
the top singular value of K from the smaller Gram matrix of one stacked
matrix: A's live rows on B's, or on the R factor of B's QR when that is
smaller (K^H K = A^H A + B^H B = A^H A + R^H R).  ARPACK via
``scipy.sparse.linalg.svds`` on the FFT-applied operator provides the
second, independent route.  Both norms are homogeneous in q, so both
measure q scaled by a power of two to unit size (:func:`_unit_scaled`) and
scale the norm back: the Gram matrix squares the kernel's entries, and
would overflow or underflow for a q far from unit size.  Each norm
imports the scipy modules it calls (``scipy.linalg``,
``scipy.sparse.linalg``) itself, so importing this module loads neither.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from numpy.linalg import qr

from . import grid
from .dyadic import CutoffFamily
from .errors import GridMismatchError, PowerIterationError
from .grid import GridFunction

POWER_TOL = 1e-8        # svds tolerance of power_norm
DECAY_FLOOR = 1e-14     # far entries at or below this count as exact zeros
DECAY_ORDERS = (2, 4)   # q of the fitted constants norm * 2^(q*max(nu, mu))
NEAR_TIE_RTOL = 1e-12   # near entries this close to the maximum tie with it
# smallest grid whose scan splits its norms across CPUs (see scan): on a
# 2-core x86 VM with BLAS pinned to one thread, a split k4 dense scan took
# 0.22-0.28 s against 0.42-0.48 s serially at N = 512, but 18-47 ms against
# 21-40 ms at N = 128: no gain to count on
SPLIT_MIN_POINTS = 256


def _coef_values(coef, fam: CutoffFamily) -> np.ndarray:
    if isinstance(coef, GridFunction):
        if coef.n_points != fam.n_points:
            raise GridMismatchError("coefficient grid differs from family grid")
        return coef.values
    vals = np.asarray(coef, dtype=complex)
    if vals.shape != (fam.n_points,):
        raise GridMismatchError("coefficient samples do not match the grid")
    return vals


def _unit_scaled(coef, fam: CutoffFamily):
    """(coef's samples times 2^-e, e), e the binary exponent of their
    largest real or imaginary part, so those parts lie in (-1, 1).  A
    power of two scales every entry exactly, so the norm of the scaled
    samples times 2^e, by ``np.ldexp``, is the norm of coef."""
    q = np.ascontiguousarray(_coef_values(coef, fam)).view(float)
    e = int(np.frexp(np.max(np.abs(q), initial=0.0))[1])
    return np.ldexp(q, -e).view(complex), e


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
    return _KernelBlocks(s1, s0, cols, c1,
                         _kernel_block(qhat, phi, psi, s1, cols),
                         _kernel_block(qhat, phi, psi, s0, cols[c1]))


def _gram_input(coef, nu, mu, fam: CutoffFamily) -> Optional[np.ndarray]:
    """A matrix M with M^H M = K^H K, None when K has no non-zero entry.

    M is A's live (not all-zero) rows on B's live rows, in the c1 columns.
    K^H K = A^H A + R^H R for the R factor of B = QR, so R replaces B's
    rows when that makes the Gram matrix smaller:
    n_a + |c1| < min(n_a + n_b, |cols|).
    """
    k = _kernel_blocks(coef, nu, mu, fam)
    live_a, live_b = np.any(k.a != 0, axis=1), np.any(k.b != 0, axis=1)
    n_a, n_b = np.count_nonzero(live_a), np.count_nonzero(live_b)
    if not n_a + n_b:
        return None
    use_r = n_a + np.count_nonzero(k.c1) < min(n_a + n_b, k.cols.size)
    lower = qr(k.b, mode="r") if use_r else k.b[live_b]
    stacked = np.zeros((n_a + lower.shape[0], k.cols.size), dtype=complex)
    np.compress(live_a, k.a, axis=0, out=stacked[:n_a])
    stacked[n_a:, k.c1] = lower
    return stacked


def dense_norm(coef, nu, mu, fam: CutoffFamily) -> float:
    """Operator norm as the top singular value of the frequency kernel,
    from the smaller Gram matrix of :func:`_gram_input`.

    The physical-space operator is unitarily similar to the kernel, so its
    largest singular value is the exact discrete L2 operator norm.  It is
    the square root of the largest eigenvalue of M^H M, or of M M^H when M
    has fewer rows than columns, found directly by LAPACK, for coef
    scaled to unit size by :func:`_unit_scaled` and scaled back, so the
    relative error is O(machine epsilon) at every scale of coef that has
    a finite norm.
    """
    from scipy.linalg import eigvalsh, get_blas_funcs

    q, e = _unit_scaled(coef, fam)
    m_in = _gram_input(q, nu, mu, fam)
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
    return float(np.ldexp(np.sqrt(max(top, 0.0)), e))


def power_norm(coef, nu, mu, fam: CutoffFamily, tol=POWER_TOL) -> float:
    """Operator norm by ARPACK via ``scipy.sparse.linalg.svds``.

    Implicitly restarted Lanczos on T*T, with T and T* applied by FFTs, so
    no kernel is formed.  The grid weight is uniform, so sample-space
    euclidean algebra gives the same norm and the same adjoint.  The start
    vector is fixed, so reruns are bit-identical.  As :func:`dense_norm`,
    it measures coef scaled to unit size by :func:`_unit_scaled`.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, svds

    q, e = _unit_scaled(coef, fam)
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
        top = svds(T, k=1, tol=tol, v0=v0, return_singular_vectors=False)[0]
    except ArpackNoConvergence as exc:
        raise PowerIterationError(
            f"ARPACK did not reach tol {tol:g} on (nu, mu) = ({nu}, {mu})"
        ) from exc
    return float(np.ldexp(top, e))


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
    nu_max: int
    n_points: int


def _may_split(n_points) -> bool:
    """Whether :func:`scan` may fork: N >= SPLIT_MIN_POINTS, and this
    process runs one OS thread (``/proc/self/task``; never where that
    cannot be read).  One thread is what BLAS pinned to one thread leaves;
    unpinned, numpy's and scipy's OpenBLAS pools are threads too, and a
    split N = 512 dense scan took 6.8-12.3 s against 0.93-1.23 s serially."""
    if n_points < SPLIT_MIN_POINTS:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def scan(cs, t, fam: CutoffFamily, method="dense-svd") -> CommutatorScan:
    """Measure both coefficient commutator tables at time t.

    When :func:`_may_split`, each (coefficient, nu, mu) norm is one item
    of ``grid.for_each_chunk``'s queue, the largest bands first: at
    N = 512 a dense (6-7, 6-7) pair took 70-139 ms for both coefficients,
    most other pairs under 3 ms.  Else the norms run here, row by row:
    with BLAS unpinned, the largest first made a serial N = 512 scan about
    10% slower.  Every norm is the same call on the same inputs either
    way, so the tables are bit-identical whatever the CPU count.
    """
    norm = {"dense-svd": dense_norm, "power-iteration": power_norm}.get(method)
    if norm is None:
        raise ValueError(f"unknown method {method!r}")
    x = grid.grid_points(fam.n_points)
    coefs = [np.asarray(cs.beta(t, x), dtype=complex),
             np.asarray(cs.b(t, x), dtype=complex)]
    n = fam.nu_max + 1
    split = _may_split(fam.n_points)
    pairs = itertools.product(range(n), repeat=2)
    if split:
        pairs = sorted(pairs, key=lambda p: (min(p), max(p)), reverse=True)
    items = [(which, nu, mu) for nu, mu in pairs for which in (0, 1)]
    table = grid.shared_empty((2, n, n), float) if split \
        else np.empty((2, n, n))

    def work(rows):
        for which, nu, mu in items[rows]:
            table[which, nu, mu] = norm(coefs[which], nu, mu, fam)

    if split:   # a row as wide as a chunk: each chunk is one item
        grid.for_each_chunk(len(items), grid.CHUNK_VALUES, work)
    else:
        work(slice(None))
    norms_beta, norms_b = np.array(table)
    return CommutatorScan(float(t), norms_beta, norms_b, method, fam.nu_max,
                          fam.n_points)


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


def schur_kernel(h, norms, rows=1.0, cols=1.0) -> SchurKernel:
    """Kernel e^{-(h_nu - h_mu)/2} * rows * norms / cols and its Schur sums.

    ``h`` is the weight column at the scan time; ``rows`` (e.g. 2^nu as a
    column) and ``cols`` (e.g. eps_mu as a row) broadcast against ``norms``.
    Every factor is non-negative, so plain sums are the Schur test's sums.
    """
    damp = np.exp(-(h[:, None] - h[None, :]) / 2.0)
    kernel = damp * rows * norms / cols
    return SchurKernel(kernel, float(np.max(np.sum(kernel, axis=1))),
                       float(np.max(np.sum(kernel, axis=0))))


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
