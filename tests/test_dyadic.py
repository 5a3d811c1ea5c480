import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpwave import dyadic, grid
from lpwave.dyadic import (band_cutoff, band_norms_sq, bernstein_ratio,
                           build_cutoffs, decompose, low_cutoff, reconstruct,
                           sobolev_norm, sobolev_norm_multiplier,
                           sobolev_norms)
from lpwave.errors import ConfigurationError, ZeroBlockError
from lpwave.grid import GridFunction


def naive_block(w, fam, nu):
    """Block nu via O(N^2) DFT sums, independent of the FFT path."""
    n = w.n_points
    j = np.arange(n)
    coeffs = np.array([np.sum(w.values * np.exp(-2j * np.pi * m * j / n)) / n
                       for m in range(n)])
    vals = np.zeros(n, dtype=complex)
    for m in range(n):
        vals += fam.phi[nu, m] * coeffs[m] * np.exp(2j * np.pi * m * j / n)
    return GridFunction(vals)


def test_profile_plateaus_and_monotonicity():
    assert low_cutoff(0.0) == 1.0
    assert low_cutoff(1.0) == 1.0
    assert low_cutoff(2.0) == 0.0
    assert low_cutoff(5.0) == 0.0
    xs = np.linspace(0.0, 3.0, 301)
    vals = low_cutoff(xs)
    assert np.all(np.diff(vals) <= 1e-15)          # non-increasing in |xi|
    assert np.allclose(low_cutoff(-xs), vals)      # radial
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_nu_max_formula():
    assert build_cutoffs(256).nu_max == 6
    assert build_cutoffs(128).nu_max == 5
    assert build_cutoffs(1024).nu_max == 8


def test_small_grid_rejected():
    with pytest.raises(ConfigurationError):
        build_cutoffs(8)  # would give nu_max < 2


def test_band_telescoping_at_xi_3():
    total = band_cutoff(1, 3.0) + band_cutoff(2, 3.0)
    assert abs(total - 1.0) < 1e-15
    for nu in (0, 3, 4, 5):
        assert band_cutoff(nu, 3.0) == 0.0


def test_partition_of_unity():
    for n in (64, 256):
        fam = build_cutoffs(n)
        xi = fam.xi
        total = fam.phi.sum(axis=0)
        covered = np.abs(xi) <= 2.0 ** fam.nu_max
        assert np.max(np.abs(total[covered] - 1.0)) < 1e-13


def test_band_supports_exact():
    fam = build_cutoffs(256)
    xi = np.abs(fam.xi)
    assert np.all(fam.phi[0][xi > 2.0] == 0.0)
    for nu in range(1, fam.nu_max + 1):
        outside = (xi < 2.0 ** (nu - 1)) | (xi > 2.0 ** (nu + 1))
        assert np.all(fam.phi[nu][outside] == 0.0)


def test_psi_is_one_on_band_support():
    fam = build_cutoffs(256)
    for mu in range(fam.nu_max + 1):
        on = fam.phi[mu] > 0.0
        assert np.max(np.abs(fam.psi[mu][on] - 1.0)) < 1e-15


def test_decompose_constant():
    fam = build_cutoffs(64)
    w = GridFunction(np.ones(64, dtype=complex))
    blocks = decompose(w, fam)
    assert grid.norm(blocks.block(0) - w) < 1e-14
    for nu in range(1, len(blocks)):
        assert blocks.block_norm(nu) == 0.0


def test_decompose_single_mode():
    fam = build_cutoffs(64)
    w = grid.from_callable(lambda x: np.exp(3j * x), 64)
    blocks = decompose(w, fam)
    pair = blocks.block(1) + blocks.block(2)
    assert grid.norm(pair - w) < 1e-13 * grid.norm(w)
    for nu in (0, 3, 4):
        # down at FFT roundoff of the sampled mode
        assert blocks.block_norm(nu) < 1e-14 * grid.norm(w)


def test_reconstruction_against_naive_oracle():
    fam = build_cutoffs(64)
    w = grid.random_band_limited(64, rng=11)
    blocks = decompose(w, fam)
    total = GridFunction(np.zeros(64, dtype=complex))
    for nu in range(len(blocks)):
        fast = blocks.block(nu)
        slow = naive_block(w, fam, nu)
        assert grid.norm(fast - slow) < 1e-11 * max(grid.norm(w), 1.0)
        total = total + slow
    assert grid.norm(total - w) < 1e-12 * grid.norm(w)
    assert grid.norm(reconstruct(blocks) - w) < 1e-12 * grid.norm(w)


def test_reconstruct_is_the_band_by_band_sum_bit_for_bit():
    # one batched inverse FFT summed over the bands, band 0 first, gives
    # the bits of adding the blocks one at a time
    for n in (16, 128, 2048):
        fam = build_cutoffs(n)
        for seed in range(5):
            w = grid.random_band_limited(n, xi_max=n // 2, rng=seed)
            blocks = decompose(w, fam)
            total = np.zeros(n, dtype=complex)
            for nu in range(len(blocks)):
                total = total + blocks.block(nu).values
            assert reconstruct(blocks).values.tobytes() == total.tobytes()
    empty = dyadic.DyadicBlocks(np.empty((0, 16), complex), 16, "")
    with pytest.raises(ValueError, match="no blocks"):
        reconstruct(empty)


def test_reconstruction_random_corpus():
    rng = np.random.default_rng(12)
    for n in (256, 1024):
        fam = build_cutoffs(n)
        for _ in range(5):
            w = grid.random_band_limited(n, rng=rng)
            err = grid.norm(reconstruct(decompose(w, fam)) - w)
            assert err < 1e-12 * grid.norm(w)


def test_block_spectrum_exact_zeros():
    fam = build_cutoffs(256)
    w = grid.random_band_limited(256, rng=13)
    blocks = decompose(w, fam)
    xi = np.abs(fam.xi)
    for nu in range(1, len(blocks)):
        outside = (xi < 2.0 ** (nu - 1)) | (xi > 2.0 ** (nu + 1))
        assert np.all(blocks.spectrum(nu)[outside] == 0.0)
    assert np.all(blocks.spectrum(0)[xi > 2.0] == 0.0)


def test_almost_orthogonality():
    fam = build_cutoffs(256)
    w = grid.random_band_limited(256, rng=14)
    blocks = decompose(w, fam)
    bound = 1e-13 * grid.norm(w) ** 2
    for nu in range(len(blocks)):
        for mu in range(nu + 2, len(blocks)):
            ip = abs(grid.inner(blocks.block(nu), blocks.block(mu)))
            assert ip < bound


def test_sobolev_norm_zero():
    fam = build_cutoffs(64)
    assert sobolev_norm(GridFunction(np.zeros(64, dtype=complex)), 2.0, fam) == 0.0


def test_sobolev_norm_single_mode_band():
    fam = build_cutoffs(64)
    w = grid.from_callable(lambda x: np.exp(3j * x), 64)
    value = sobolev_norm(w, 0.0, fam)
    base = grid.norm(w)
    assert base / np.sqrt(3.0) <= value <= np.sqrt(3.0) * base


def test_sobolev_norm_vs_multiplier():
    # ratio to the multiplier norm stays in a fixed band; the observed
    # band for m=2 on this corpus is well inside [1/6, 6]
    fam = build_cutoffs(256)
    rng = np.random.default_rng(15)
    for _ in range(10):
        w = grid.random_band_limited(256, rng=rng)
        ratio = sobolev_norm(w, 2.0, fam) / sobolev_norm_multiplier(w, 2.0)
        assert 1.0 / 6.0 <= ratio <= 6.0


@pytest.mark.parametrize("n_points", [16, 64, 256, 2048])
def test_sobolev_norm_matches_decompose_route(n_points):
    # reference: the block norms of the stored band spectra, as before
    # sobolev_norm took them straight from band_norms_sq
    fam = build_cutoffs(n_points)
    rng = np.random.default_rng(n_points)
    for m in (-1.0, 0.0, 0.5, 2.0, 3.7):
        w = grid.random_band_limited(n_points, rng=rng)
        total = 0.0
        for nu, norm in enumerate(decompose(w, fam).block_norms().tolist()):
            total += 4.0 ** (m * nu) * norm ** 2
        assert sobolev_norm(w, m, fam) == float(np.sqrt(total))
    with pytest.raises(grid.GridMismatchError):
        sobolev_norm(grid.random_band_limited(2 * n_points, rng=0), 1.0, fam)


# rows per chunk of band_norms_sq: 25 at N = 64, 2 at 512 (8 bands, where
# a pairwise band sum would show) and 1 at 2048
@pytest.mark.parametrize("n_points, n_rows", [(64, 30), (512, 5), (2048, 3)])
def test_stacked_calls_match_per_row_and_per_order(n_points, n_rows):
    fam = build_cutoffs(n_points)
    rng = np.random.default_rng(n_points + 1)
    rows = np.stack([grid.random_band_limited(n_points, rng=rng,
                                              decay=0.5).values
                     for _ in range(n_rows)])
    orders = np.array([-1.0, 0.0, 0.5, 2.0, 3.7])
    sq = band_norms_sq(fam, rows)
    norms = sobolev_norms(fam, rows, orders)
    assert sq.shape == (n_rows, fam.nu_max + 1)
    assert norms.shape == (n_rows, orders.size)
    for i, row in enumerate(rows):
        coeffs = np.fft.fft(row) / n_points
        want = grid.TWO_PI * np.sum(np.abs(fam.phi * coeffs) ** 2, axis=1)
        assert band_norms_sq(fam, row[None])[0].tobytes() == want.tobytes()
        assert sq[i].tobytes() == want.tobytes()
        for j, m in enumerate(orders.tolist()):
            one = sobolev_norms(fam, row[None], [m])
            assert one.tobytes() == norms[i:i + 1, j:j + 1].tobytes()
            assert sobolev_norm(GridFunction(row), m, fam) == norms[i, j]
            total = 0.0     # bands summed in order, as the proxy promises
            for nu, band_sq in enumerate(want.tolist()):
                total += 4.0 ** (m * nu) * math.sqrt(band_sq) ** 2
            assert norms[i, j] == math.sqrt(total)


def test_sobolev_norm_refuses_other_grids():
    fam = build_cutoffs(64)
    with pytest.raises(grid.GridMismatchError):
        sobolev_norm(grid.random_band_limited(128, rng=0), 1.0, fam)


def test_l2_equivalence_band():
    # m = 0 proxy against the true L2 norm: K_0 <= 3
    fam = build_cutoffs(256)
    rng = np.random.default_rng(16)
    for _ in range(10):
        w = grid.random_band_limited(256, rng=rng)
        ratio = sobolev_norm(w, 0.0, fam) / grid.norm(w)
        assert 3.0 ** -0.5 <= ratio <= 3.0 ** 0.5


def test_bernstein_pure_mode_exact():
    fam = build_cutoffs(256)
    for nu in (2, 4, 5):
        w = grid.from_callable(lambda x, f=2 ** nu: np.exp(1j * f * x), 256)
        ratio = bernstein_ratio(decompose(w, fam), nu)
        assert abs(ratio - 2.0 ** nu) < 1e-12 * 2.0 ** nu


def test_bernstein_mode_three():
    fam = build_cutoffs(64)
    w = grid.from_callable(lambda x: np.exp(3j * x), 64)
    ratio = bernstein_ratio(decompose(w, fam), 1)
    assert abs(ratio - 3.0) < 1e-12
    assert 1.0 <= ratio <= 4.0


def test_bernstein_random_blocks():
    fam = build_cutoffs(256)
    rng = np.random.default_rng(17)
    for _ in range(10):
        blocks = decompose(grid.random_band_limited(256, rng=rng), fam)
        for nu in range(1, len(blocks)):
            if blocks.block_norm(nu) == 0.0:
                continue
            ratio = bernstein_ratio(blocks, nu)
            assert 2.0 ** (nu - 1) <= ratio <= 2.0 ** (nu + 1)


def test_bernstein_zero_block_raises():
    fam = build_cutoffs(64)
    blocks = decompose(GridFunction(np.ones(64, dtype=complex)), fam)
    with pytest.raises(ZeroBlockError):
        bernstein_ratio(blocks, 3)


def test_grid_mismatch():
    fam = build_cutoffs(64)
    with pytest.raises(grid.GridMismatchError):
        decompose(grid.random_band_limited(128, rng=0), fam)


def test_cutoff_csv_export(tmp_path):
    fam = build_cutoffs(64)
    path = tmp_path / "cutoffs.csv"
    dyadic.cutoffs_to_csv(fam, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "nu,xi,phi"
    assert len(lines) == 1 + (fam.nu_max + 1) * 64


# Property tests of the exactness claims, on every grid size 16..1024.
# Plateaus and supports are exact zeros and ones; sums of
# cutoffs telescope to one up to rounding.

GRIDS = st.sampled_from([2 ** p for p in range(4, 11)])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(GRIDS)
def test_property_partition_of_unity(n):
    fam = build_cutoffs(n)
    covered = np.abs(fam.xi) <= 2.0 ** fam.nu_max
    assert np.any(covered)
    total = fam.phi.sum(axis=0)
    assert np.max(np.abs(total[covered] - 1.0)) < 1e-15


@settings(derandomize=True, deadline=None, max_examples=30)
@given(GRIDS)
def test_property_psi_is_one_on_band_support(n):
    fam = build_cutoffs(n)
    for mu in range(fam.nu_max + 1):
        on = fam.phi[mu] > 0.0
        assert np.all(fam.psi[mu][on] == 1.0), mu


@settings(derandomize=True, deadline=None, max_examples=30)
@given(GRIDS)
def test_property_band_support_is_exact(n):
    # the annulus of the Bernstein bracket, 2^(nu-1) <= |xi| <= 2^(nu+1)
    fam = build_cutoffs(n)
    xi = np.abs(fam.xi)
    for nu in range(1, fam.nu_max + 1):
        outside = (xi < 2.0 ** (nu - 1)) | (xi > 2.0 ** (nu + 1))
        assert np.all(fam.phi[nu][outside] == 0.0), nu


@settings(derandomize=True, deadline=None, max_examples=30)
@given(GRIDS, st.integers(0, 2 ** 32 - 1))
def test_property_reconstruction_of_band_limited(n, seed):
    fam = build_cutoffs(n)
    w = grid.random_band_limited(n, xi_max=2.0 ** fam.nu_max, rng=seed)
    back = reconstruct(decompose(w, fam))
    assert np.max(np.abs(back.values - w.values)) \
        <= 1e-14 * np.max(np.abs(w.values))
    blocks = decompose(w, fam)
    for nu in range(1, fam.nu_max + 1):
        ratio = bernstein_ratio(blocks, nu)
        assert 2.0 ** (nu - 1) <= ratio <= 2.0 ** (nu + 1)
