import dataclasses
import functools
import json
import os

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, svds

from lpwave import commutator, experiment, grid
from lpwave.coefficients import builtin_family, constant_coefficients
from lpwave.commutator import (DECAY_FLOOR, DECAY_ORDERS, NEAR_TIE_RTOL,
                               POWER_TOL, CommutatorScan, DecayReport,
                               _gram_input, _kernel_blocks, apply_commutator,
                               apply_commutator_adjoint, dense_norm,
                               power_norm, scan, schur_kernel, verify_decay)
from lpwave.dyadic import build_cutoffs
from lpwave.errors import GridMismatchError, PowerIterationError
from lpwave.grid import GridFunction

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def poisson_coefficient(n_points, r=0.75, amplitude=0.25):
    """Smooth positive coefficient with |m|-th Fourier mode ~ r^|m|."""
    x = grid.grid_points(n_points)
    return 1.0 + amplitude * (1 - r ** 2) / (1 - 2 * r * np.cos(x) + r ** 2)


def physical_matrix(coef, nu, mu, fam):
    """Assemble the operator column by column in physical space."""
    n = fam.n_points
    A = np.empty((n, n), dtype=complex)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        A[:, j] = apply_commutator(coef, nu, mu, GridFunction(e), fam).values
    return A


def test_constant_coefficient_commutes():
    fam = build_cutoffs(64)
    w = grid.random_band_limited(64, rng=0)
    ones = np.ones(64, dtype=complex)
    out = apply_commutator(ones, 2, 2, w, fam)
    assert grid.norm(out) < 1e-14 * grid.norm(w)
    assert dense_norm(ones, 2, 2, fam) == 0.0
    assert power_norm(ones, 2, 2, fam) < 1e-14


def test_zero_coefficient_norm_is_zero():
    fam = build_cutoffs(64)
    zero = np.zeros(64, dtype=complex)
    assert dense_norm(zero, 2, 3, fam) == 0.0
    assert power_norm(zero, 2, 3, fam) == 0.0


def test_single_mode_shift_identity():
    # coef = e^{ix} on w = e^{i xi0 x}:
    # output (phi_nu(xi0+1) - phi_nu(xi0)) * psi_mu(xi0) * e^{i(xi0+1)x}
    fam = build_cutoffs(128)
    coef = grid.from_callable(lambda x: np.exp(1j * x), 128).values
    for nu, mu, xi0 in ((2, 2, 5), (3, 3, 7), (2, 3, 6)):
        w = grid.from_callable(lambda x, f=xi0: np.exp(1j * f * x), 128)
        out = apply_commutator(coef, nu, mu, w, fam)
        from lpwave.dyadic import band_cutoff
        psi = (band_cutoff(mu - 1, xi0) if mu >= 1 else 0.0) \
            + band_cutoff(mu, xi0) + band_cutoff(mu + 1, xi0)
        factor = (band_cutoff(nu, xi0 + 1) - band_cutoff(nu, xi0)) * psi
        expect = grid.from_callable(
            lambda x, f=xi0 + 1: factor * np.exp(1j * f * x), 128)
        assert grid.norm(out - expect) < 1e-12 * max(grid.norm(w), 1.0)


def test_single_harmonic_norm_oracle():
    # for coef = e^{ix} the kernel is a one-sided weighted shift whose
    # norm is the largest weight: max_xi |phi_nu(xi+1)-phi_nu(xi)|*psi_mu(xi)
    fam = build_cutoffs(128)
    coef = grid.from_callable(lambda x: np.exp(1j * x), 128).values
    xi = fam.xi
    from lpwave.dyadic import band_cutoff
    for nu, mu in ((2, 2), (3, 4), (4, 4), (1, 2)):
        phi_here = fam.phi[nu]
        phi_up = band_cutoff(nu, xi + 1.0)
        oracle = float(np.max(np.abs(phi_up - phi_here) * fam.psi[mu]))
        assert abs(dense_norm(coef, nu, mu, fam) - oracle) < 1e-12
        if oracle > 1e-8:
            assert abs(power_norm(coef, nu, mu, fam, tol=1e-10) - oracle) \
                < 1e-6 * oracle


def test_apply_matches_dense_assembly():
    fam = build_cutoffs(128)
    coef = 1.0 + 0.5 * np.sin(grid.grid_points(128))
    A = physical_matrix(coef, 3, 3, fam)
    rng = np.random.default_rng(5)
    for _ in range(3):
        w = grid.random_band_limited(128, rng=rng)
        fast = apply_commutator(coef, 3, 3, w, fam).values
        assert np.max(np.abs(fast - A @ w.values)) < 1e-11 * grid.norm(w)


def test_adjoint_consistency():
    fam = build_cutoffs(64)
    coef = (1.0 + 0.5 * np.sin(grid.grid_points(64))
            + 0.25j * np.cos(grid.grid_points(64)))
    rng = np.random.default_rng(6)
    v = grid.random_band_limited(64, rng=rng)
    w = grid.random_band_limited(64, rng=rng)
    lhs = grid.inner(apply_commutator(coef, 2, 3, v, fam), w)
    rhs = grid.inner(v, apply_commutator_adjoint(coef, 2, 3, w, fam))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs + 1e-30)


@pytest.mark.parametrize("apply", [apply_commutator,
                                   apply_commutator_adjoint])
def test_commutator_refuses_a_function_on_another_grid(apply):
    fam = build_cutoffs(64)
    coef = np.ones(64)
    w = grid.random_band_limited(128, rng=0)
    with pytest.raises(GridMismatchError):
        apply(coef, 2, 3, w, fam)


def test_dense_vs_power_agreement():
    fam = build_cutoffs(256)
    coef = 1.0 + 0.5 * np.sin(grid.grid_points(256))
    for nu, mu in ((1, 1), (2, 3), (4, 4), (5, 4), (6, 6)):
        d = dense_norm(coef, nu, mu, fam)
        p = power_norm(coef, nu, mu, fam, tol=1e-10)
        assert abs(d - p) < 1e-6 * max(d, 1e-8), (nu, mu, d, p)


def test_near_diagonal_scaling():
    # 2^nu * ||[phi_nu, beta] psi_mu|| is uniformly bounded near the diagonal
    fam = build_cutoffs(256)
    coef = 1.0 + 0.5 * np.sin(grid.grid_points(256))
    val = dense_norm(coef, 4, 4, fam)
    assert 2.0 ** 4 * val < 2.5


def test_scan_zero_for_constant_beta():
    cs = builtin_family("monomial", k=2).with_params(
        beta_time_derivative=constant_coefficients().beta_time_derivative)
    fam = build_cutoffs(64)
    s = scan(cs, 0.5, fam)
    assert np.max(s.norms_beta) < 1e-12


def test_scan_zero_at_time_zero():
    # beta = 1 + sin(x)sin(t)/2 is x-constant at t = 0
    cs = builtin_family("monomial", k=2)
    fam = build_cutoffs(64)
    s = scan(cs, 0.0, fam)
    assert np.max(s.norms_beta) < 1e-12


def test_frequency_shift_exact_zeros():
    # coefficient modes within [-1, 1]: pairs whose supports cannot be
    # bridged by a one-unit shift vanish (up to the fft of the sampled
    # coefficient, whose out-of-band coefficients are roundoff)
    fam = build_cutoffs(256)
    coef = 1.0 + 0.5 * np.sin(grid.grid_points(256))
    for nu in range(fam.nu_max + 1):
        for mu in range(fam.nu_max + 1):
            lo, hi = min(nu, mu), max(nu, mu)
            if 2.0 ** (lo + 1) + 1 < 2.0 ** (hi - 1):
                assert dense_norm(coef, nu, mu, fam) < 1e-15, (nu, mu)


def test_verify_decay_single_harmonic_reports_exact_zero():
    fam = build_cutoffs(256)
    cs = builtin_family("monomial", k=2)
    s = scan(cs, 1.0, fam)   # beta modes in [-1, 1]
    report = verify_decay(s)
    assert report.far_exact_zero
    assert report.far_slope is None
    assert report.near_constant > 0


def test_verify_decay_broad_spectrum_slope():
    fam = build_cutoffs(512)
    coef = poisson_coefficient(512)
    n = fam.nu_max + 1
    norms = np.zeros((n, n))
    for nu in range(n):
        for mu in range(n):
            norms[nu, mu] = dense_norm(coef, nu, mu, fam)
    s = CommutatorScan(0.0, norms, np.zeros_like(norms), "dense-svd", 1e-8,
                       fam.nu_max, 512)
    report = verify_decay(s)
    assert not report.far_exact_zero
    assert report.far_points >= 10
    assert report.far_slope <= -4.0


def test_schur_kernel_zero_for_constant_beta():
    cs = builtin_family("monomial", k=2)
    n = 7
    s = CommutatorScan(0.5, np.zeros((n, n)), np.zeros((n, n)), "dense-svd",
                       1e-8, n - 1, 256)
    k = schur_kernel(s, np.zeros(n), 0.5, cs)
    assert k.row_sum == 0.0 and k.col_sum == 0.0


def test_schur_kernel_diagonal_toy():
    # norms 2^-nu on the diagonal with flat weights: row/col sums equal C
    cs = builtin_family("nondegenerate", k=1)
    n = 8
    C = 0.7
    norms = np.diag([C * 2.0 ** -nu for nu in range(n)])
    s = CommutatorScan(0.0, norms, np.zeros((n, n)), "dense-svd", 1e-8,
                       n - 1, 256)
    k = schur_kernel(s, np.zeros(n), 0.0, cs)   # alpha(0) = 1 for this family
    assert abs(k.row_sum - C) < 1e-12
    assert abs(k.col_sum - C) < 1e-12
    # banded version with linear-in-nu weights stays below 5*C*e^(spread)
    h = 0.3 * np.arange(n)
    norms_band = np.zeros((n, n))
    for nu in range(n):
        for mu in range(max(0, nu - 2), min(n, nu + 3)):
            norms_band[nu, mu] = C * 2.0 ** -nu
    s2 = CommutatorScan(0.0, norms_band, np.zeros((n, n)), "dense-svd", 1e-8,
                        n - 1, 256)
    k2 = schur_kernel(s2, h, 0.0, cs)
    assert k2.row_sum <= 5.0 * C * np.exp(0.3)
    assert k2.col_sum <= 5.0 * C * np.exp(0.3)


def test_schur_sums_bounded_under_more_bands():
    # adding bands must not grow the sums without bound: entries scale
    # like 2^-nu, so the sums converge with geometrically decaying
    # increments (the remaining growth from nu_max=8 on is a few percent)
    from lpwave.energy import decay_weight

    cs = builtin_family("monomial", k=2)
    t = 0.5
    sums = {}
    for n_pts in (64, 256, 1024):
        fam = build_cutoffs(n_pts)
        s = scan(cs, t, fam)
        h = np.array([decay_weight(nu, t, cs) for nu in range(fam.nu_max + 1)])
        k = schur_kernel(s, h, t, cs)
        sums[fam.nu_max] = (k.row_sum, k.col_sum)
    for side in (0, 1):
        s4, s6, s8 = sums[4][side], sums[6][side], sums[8][side]
        assert s8 < 1.25                      # single bound over all sizes
        assert s8 / s6 < s6 / s4              # increments are shrinking
        assert s8 / s6 - 1.0 < 0.30


def test_b_kernel_uses_epsilon_column():
    cs = builtin_family("monomial", k=2, gamma=0.25)
    n = 4
    norms_b = np.full((n, n), 0.1)
    s = CommutatorScan(0.5, np.zeros((n, n)), norms_b, "dense-svd", 1e-8,
                       n - 1, 64)
    eps = np.array([1.0, 0.5, 0.25, 0.125])
    k = schur_kernel(s, np.zeros(n), 0.5, cs, which="b", epsilons=eps)
    expect_row = 0.1 * np.sum(1.0 / eps)
    assert abs(k.row_sum - expect_row) < 1e-12
    with pytest.raises(ValueError):
        schur_kernel(s, np.zeros(n), 0.5, cs, which="b")


def test_power_norm_reruns_bit_identical():
    fam = build_cutoffs(128)
    coef = poisson_coefficient(128)
    first = [power_norm(coef, nu, mu, fam) for nu, mu in ((2, 2), (4, 3))]
    again = [power_norm(coef, nu, mu, fam) for nu, mu in ((2, 2), (4, 3))]
    assert first == again


def test_arpack_no_convergence_is_power_iteration_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0),
                                  np.zeros((64, 0)))

    monkeypatch.setattr("lpwave.commutator.svds", no_convergence)
    fam = build_cutoffs(64)
    with pytest.raises(PowerIterationError):
        power_norm(np.ones(64, dtype=complex), 2, 2, fam)


def _decay_report_loop(s):
    """Reference: the per-entry loop over (nu, mu, order)."""
    n = s.nu_max + 1
    near = [(nu, mu, 2.0 ** nu * s.norms_beta[nu, mu]) for nu in range(n)
            for mu in range(n) if abs(nu - mu) <= 2]
    near_best = float(max(scaled for _, _, scaled in near))
    near_arg = [(nu, mu) for nu, mu, scaled in near
                if near_best - scaled <= NEAR_TIE_RTOL * near_best] \
        if near_best > 0.0 else []
    far_pts = []
    consts = {order: 0.0 for order in DECAY_ORDERS}
    for nu in range(n):
        for mu in range(n):
            v = s.norms_beta[nu, mu]
            if abs(nu - mu) > 2:
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


def _table_scan(norms):
    n = norms.shape[0]
    return CommutatorScan(0.0, norms, np.zeros_like(norms), "dense-svd", 1e-8,
                          n - 1, 256)


def _shipped_scan(cfg_name, n_points):
    cfg = experiment.read_config(os.path.join(CONFIG_DIR, cfg_name))
    cs = experiment.coefficient_set(cfg)
    return scan(cs, experiment.scan_time(cs), build_cutoffs(n_points))


def _broad_scan(n_points):
    fam = build_cutoffs(n_points)
    coef = poisson_coefficient(n_points)
    n = fam.nu_max + 1
    return _table_scan(np.array([[dense_norm(coef, nu, mu, fam)
                                  for mu in range(n)] for nu in range(n)]))


_RNG_TABLE = np.random.default_rng(11).random((7, 7)) \
    * 10.0 ** -np.random.default_rng(12).integers(0, 18, (7, 7))

DECAY_CASES = {
    **{f"{name}-{n_points}": functools.partial(_shipped_scan, f"{name}.cfg",
                                               n_points)
       for name in ("k2-gamma0", "k4-gamma0.3", "nondegenerate")
       for n_points in (128, 256)},
    "broad-256": functools.partial(_broad_scan, 256),
    "all-zero": lambda: _table_scan(np.zeros((6, 6))),
    "no-far-entries": lambda: _table_scan(np.full((3, 3), 0.5)),
    "two-far-points": lambda: _table_scan(
        np.where(np.eye(6, k=4) > 0, 1e-3, 1e-16)),
    "tied-near-max": lambda: _table_scan(
        np.diag(np.r_[0.1, 0.7 * 2.0 ** -np.arange(1.0, 6.0)])),
    "random": lambda: _table_scan(_RNG_TABLE),
}


@pytest.mark.parametrize("case", sorted(DECAY_CASES))
def test_verify_decay_matches_per_entry_loop(case):
    # exact equality of every field, and the same lemma2_report.json text
    s = DECAY_CASES[case]()
    fast, ref = verify_decay(s), _decay_report_loop(s)
    for field in dataclasses.fields(DecayReport):
        got, want = getattr(fast, field.name), getattr(ref, field.name)
        assert got == want, (field.name, got, want)
    assert json.dumps(fast.to_dict(), indent=1, sort_keys=True) \
        == json.dumps(ref.to_dict(), indent=1, sort_keys=True)


def test_near_argmax_lists_ties_whatever_the_rounding():
    # (5, 4) and (5, 5) tie; nudging one by a few ulp either way must not
    # pick between them, and an entry 1e-9 below the maximum is no tie
    table = np.full((6, 6), 1e-3)
    table[5, 4] = table[5, 5] = 0.7 * 2.0 ** -5
    table[4, 4] = 0.7 * 2.0 ** -4 * (1.0 - 1e-9)
    assert 1e-9 > 100 * NEAR_TIE_RTOL
    for ulps in (-3, -1, 0, 1, 3):
        nudged = table.copy()
        for _ in range(abs(ulps)):
            nudged[5, 4] = np.nextafter(nudged[5, 4], np.sign(ulps) * np.inf)
        report = verify_decay(_table_scan(nudged))
        assert report.near_argmax == [(5, 4), (5, 5)], ulps
        assert report == _decay_report_loop(_table_scan(nudged))
    assert verify_decay(_table_scan(np.zeros((4, 4)))).near_argmax == []


# --- property tests: random trigonometric-polynomial coefficients ----------

_FAMILIES = {n: build_cutoffs(n) for n in (64, 128)}

_amplitudes = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def commutator_cases(draw):
    """(coefficient samples, nu, mu, family, seed) for a random q.

    q(x) = sum over |m| <= degree of c_m e^{imx}; a real q has
    c_{-m} = conj(c_m).
    """
    fam = _FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))]
    degree = draw(st.integers(0, 4))
    c = np.array([complex(draw(_amplitudes), draw(_amplitudes))
                  for _ in range(2 * degree + 1)])
    real = draw(st.booleans())
    if real:
        c = (c + np.conj(c[::-1])) / 2.0
    x = grid.grid_points(fam.n_points)
    q = np.exp(1j * np.outer(x, np.arange(-degree, degree + 1))) @ c
    q = (q.real if real else q).astype(complex)
    nu = draw(st.integers(0, fam.nu_max))
    mu = draw(st.integers(0, fam.nu_max))
    return q, nu, mu, fam, draw(st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(commutator_cases())
def test_property_adjoint_consistency(case):
    # relative to sup|q| ||v|| ||w||, which bounds both sides up to a
    # factor 2; the commutator cancels to roundoff when q is nearly constant
    q, nu, mu, fam, seed = case
    rng = np.random.default_rng(seed)
    v = grid.random_band_limited(fam.n_points, rng=rng)
    w = grid.random_band_limited(fam.n_points, rng=rng)
    lhs = grid.inner(apply_commutator(q, nu, mu, v, fam), w)
    rhs = grid.inner(v, apply_commutator_adjoint(q, nu, mu, w, fam))
    scale = np.max(np.abs(q)) * grid.norm(v) * grid.norm(w)
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(commutator_cases())
def test_property_power_norm_matches_dense(case):
    q, nu, mu, fam, _ = case
    d = dense_norm(q, nu, mu, fam)
    p = power_norm(q, nu, mu, fam)
    if d > 1e-8:
        assert abs(p - d) <= 1e-6 * d, (nu, mu, d, p)


# --- dense norm against the full-kernel SVD it replaced ----------------------


def _reference_full_kernel(q, nu, mu, fam):
    """Reference: the full N x N kernel, every entry by the formula."""
    qhat = scipy.fft.fft(np.asarray(q, dtype=complex)) / fam.n_points
    idx = np.arange(fam.n_points)
    shift = (idx[:, None] - idx[None, :]) % fam.n_points
    return qhat[shift] * (fam.phi[nu][:, None] - fam.phi[nu][None, :]) \
        * fam.psi[mu][None, :]


def _reference_kernel(kernel):
    """Reference: the full kernel with its all-zero rows and columns
    trimmed, None when no entry is non-zero."""
    rows = np.flatnonzero(np.any(kernel != 0, axis=1))
    cols = np.flatnonzero(np.any(kernel != 0, axis=0))
    if rows.size == 0 or cols.size == 0:
        return None
    return kernel[np.ix_(rows, cols)]


def _reference_norm(kernel):
    """Reference: the largest singular value from a full SVD."""
    return 0.0 if kernel is None else float(svdvals(kernel)[0])


def _assert_matches_reference(q, nu, mu, fam):
    full = _reference_full_kernel(q, nu, mu, fam)
    ref_kernel = _reference_kernel(full)
    blocks = _kernel_blocks(q, nu, mu, fam)
    s1, s0, cols, c1 = blocks.s1, blocks.s0, blocks.cols, blocks.c1
    # A and B are the reference's entries byte for byte, and every entry
    # outside them is exactly zero
    assert blocks.a.tobytes() == full[np.ix_(s1, cols)].tobytes(), (nu, mu)
    assert blocks.b.tobytes() == full[np.ix_(s0, cols[c1])].tobytes(), \
        (nu, mu)
    assert not np.any(full[np.ix_(s0, cols[~c1])]), (nu, mu)
    assert not np.any(np.delete(full, cols, axis=1)), (nu, mu)
    matrix = _gram_input(q, nu, mu, fam)
    ref, got = _reference_norm(ref_kernel), dense_norm(q, nu, mu, fam)
    if ref_kernel is None:
        assert matrix is None and got == 0.0, (nu, mu, got)
        return
    short = s1.size + np.count_nonzero(c1)
    if short < min(ref_kernel.shape):
        # the QR route: A stacked on the R factor of B
        assert matrix.shape == (s1.size + min(s0.size, np.count_nonzero(c1)),
                                cols.size), (nu, mu)
    else:
        # the uncompressed route: the trimmed kernel itself, byte for byte
        assert matrix.shape == ref_kernel.shape, (nu, mu)
        assert matrix.tobytes() == ref_kernel.tobytes(), (nu, mu)
    if ref == 0.0:
        assert got == 0.0, (nu, mu, got)
    else:
        assert abs(got - ref) <= 1e-13 * ref, (nu, mu, got, ref)


def _shipped_coefficient(cfg_name, which, n_points):
    cfg = experiment.read_config(os.path.join(CONFIG_DIR, cfg_name))
    cs = experiment.coefficient_set(cfg)
    coef = getattr(cs, which)(experiment.scan_time(cs),
                              grid.grid_points(n_points))
    return np.asarray(coef, dtype=complex)


DENSE_CASES = {
    **{f"{name}-{which}-{n_points}": functools.partial(
        _shipped_coefficient, f"{name}.cfg", which, n_points)
       for name in ("k2-gamma0", "k4-gamma0.3", "nondegenerate")
       for which in ("beta", "b") for n_points in (128, 256)},
    **{f"poisson-{n_points}": functools.partial(poisson_coefficient, n_points)
       for n_points in (256, 512)},
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_dense_norm_matches_full_kernel_svd(case):
    # the same kernel entries, byte for byte, and the same norm to 1e-13
    # relative (exactly 0.0 where the reference is exactly 0.0)
    q = DENSE_CASES[case]()
    fam = build_cutoffs(q.size)
    for nu in range(fam.nu_max + 1):
        for mu in range(fam.nu_max + 1):
            _assert_matches_reference(q, nu, mu, fam)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(commutator_cases())
def test_property_dense_norm_matches_full_kernel_svd(case):
    q, nu, mu, fam, _ = case
    _assert_matches_reference(q, nu, mu, fam)


def test_dense_norm_k4_near_diagonal_tie():
    # (7, 6) and (7, 7) at N = 512 are the same norm mathematically, so
    # verify_decay's near_argmax between them is decided by rounding
    q = _shipped_coefficient("k4-gamma0.3.cfg", "beta", 512)
    fam = build_cutoffs(512)
    for mu in (6, 7):
        _assert_matches_reference(q, 7, mu, fam)
    a, b = dense_norm(q, 7, 6, fam), dense_norm(q, 7, 7, fam)
    assert a > 0.0 and abs(a - b) <= 1e-15 * b, (a, b)


def test_dense_norm_hands_lapack_the_compressed_blocks(monkeypatch):
    # (4, 6) at N = 512: a rank of at most |s1| + |c1| = 76 against a
    # 478-column psi_6 support, so herk and eigvalsh see 76 rows
    q = _shipped_coefficient("k4-gamma0.3.cfg", "beta", 512)
    fam = build_cutoffs(512)
    blocks = _kernel_blocks(q, 4, 6, fam)
    short = blocks.s1.size + np.count_nonzero(blocks.c1)
    seen = []
    get_blas_funcs, eigvalsh = commutator.get_blas_funcs, commutator.eigvalsh

    def recording_blas(names, arrays):
        seen.append(("herk", arrays[0].shape))
        return get_blas_funcs(names, arrays)

    def recording_eigvalsh(a, **kwargs):
        seen.append(("eigvalsh", a.shape))
        return eigvalsh(a, **kwargs)

    monkeypatch.setattr(commutator, "get_blas_funcs", recording_blas)
    monkeypatch.setattr(commutator, "eigvalsh", recording_eigvalsh)
    got = dense_norm(q, 4, 6, fam)
    assert short == 76 and blocks.cols.size == 478
    assert seen == [("herk", (short, 478)), ("eigvalsh", (short, short))]
    ref = _reference_norm(_reference_kernel(_reference_full_kernel(q, 4, 6,
                                                                   fam)))
    assert abs(got - ref) <= 1e-13 * ref


def test_reference_check_fails_with_r_zeroed(monkeypatch):
    # negative control: B's contribution R^H R is what closes the gap
    # between A^H A and K^H K on a coefficient with full Fourier support
    def zero_r(b, mode):
        return np.zeros((min(b.shape), b.shape[1]), dtype=complex)

    monkeypatch.setattr(commutator, "qr", zero_r)
    q = DENSE_CASES["k4-gamma0.3-b-128"]()
    fam = build_cutoffs(q.size)
    failed = []
    for nu in range(fam.nu_max + 1):
        for mu in range(fam.nu_max + 1):
            try:
                _assert_matches_reference(q, nu, mu, fam)
            except AssertionError:
                failed.append((nu, mu))
    assert failed


def _power_norm_through_wrappers(coef, nu, mu, fam, tol=POWER_TOL):
    """Reference: power_norm's svds call on the public GridFunction API."""
    n = fam.n_points

    def applied(op):
        return lambda v: op(coef, nu, mu, GridFunction(np.ravel(v)),
                            fam).values

    T = LinearOperator((n, n), matvec=applied(apply_commutator),
                       rmatvec=applied(apply_commutator_adjoint),
                       dtype=complex)
    v0 = np.random.default_rng(0).standard_normal(n)
    if not np.any(T.rmatvec(T.matvec(v0))):
        return 0.0
    return float(svds(T, k=1, tol=tol, v0=v0,
                      return_singular_vectors=False)[0])


@pytest.mark.parametrize("case", ["k4-gamma0.3-beta-128", "k4-gamma0.3-b-128",
                                  "k2-gamma0-b-128", "poisson-256"])
def test_power_norm_matches_public_wrappers_bit_for_bit(case):
    q = DENSE_CASES[case]()
    fam = build_cutoffs(q.size)
    for nu in range(fam.nu_max + 1):
        for mu in range(max(0, nu - 2), min(fam.nu_max, nu + 2) + 1):
            assert power_norm(q, nu, mu, fam) \
                == _power_norm_through_wrappers(q, nu, mu, fam), (nu, mu)
