"""Dyadic frequency cutoffs and block decomposition.

The cutoff family starts from a radial profile phi0 that is exactly 1 on
|xi| <= 1 and exactly 0 on |xi| >= 2, with a smooth bump-quotient
transition in between.  Band ``nu >= 1`` uses phi(xi) = phi0(xi) -
phi0(2*xi) rescaled by 2**-nu, so the bands telescope to an exact
partition of unity on |xi| <= 2**nu_max and every support statement holds
with exact zeros, not small numbers.  Block nu of a grid function is the
inverse transform of its coefficients multiplied by band nu's cutoff.
Frequencies are those of the 2*pi torus, xi_m = m, so band norms are
2*pi times coefficient sums by Plancherel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid
from .errors import ConfigurationError, ZeroBlockError
from .grid import GridFunction, TWO_PI


def transition(s):
    """Smooth monotone step: 1 for s <= 0, 0 for s >= 1."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    out[s <= 0.0] = 1.0
    out[s >= 1.0] = 0.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    lo = np.exp(-1.0 / sm)
    hi = np.exp(-1.0 / (1.0 - sm))
    out[mid] = hi / (lo + hi)
    return out


def low_cutoff(xi):
    """phi0: 1 on |xi| <= 1, 0 on |xi| >= 2, radial and non-increasing."""
    return transition(np.abs(xi) - 1.0)


def band_cutoff(nu, xi):
    """phi_nu, supported in the annulus 2**(nu-1) <= |xi| <= 2**(nu+1)."""
    xi = np.asarray(xi, dtype=float)
    if nu == 0:
        return low_cutoff(xi)
    scaled = xi / 2.0 ** nu
    return low_cutoff(scaled) - low_cutoff(2.0 * scaled)


@dataclass(frozen=True)
class CutoffFamily:
    """Tabulated dyadic cutoffs on a grid's discrete frequencies.

    ``phi[nu]`` is band nu evaluated at the FFT-ordered frequencies and
    ``psi[mu] = phi[mu-1] + phi[mu] + phi[mu+1]`` (with phi_{-1} = 0 and
    the row above nu_max tabulated internally so psi[nu_max] is complete).
    psi_mu is identically 1 on the support of phi_mu.
    """

    n_points: int
    nu_max: int
    phi: np.ndarray   # shape (nu_max+1, n_points)
    psi: np.ndarray   # shape (nu_max+1, n_points)

    @property
    def xi(self) -> np.ndarray:
        return grid.frequencies(self.n_points)


def build_cutoffs(n_points, nu_max=None) -> CutoffFamily:
    """Tabulate the cutoff family for a grid.

    ``nu_max`` defaults to the largest band the grid can host; passing a
    smaller value truncates the family (the partition of unity then holds
    on the correspondingly smaller ball).
    """
    if n_points < 8 or not grid._is_pow2(n_points):
        raise ConfigurationError("grid size must be a power of two >= 8")
    cap = grid.max_band_index(n_points)
    if nu_max is None:
        nu_max = cap
    if nu_max > cap:
        raise ConfigurationError(
            f"nu_max={nu_max} does not fit under Nyquist (max {cap})")
    if nu_max < 2:
        raise ConfigurationError(
            f"grid too small: would give nu_max={nu_max} < 2")
    xi = grid.frequencies(n_points)
    rows = np.stack([band_cutoff(nu, xi) for nu in range(nu_max + 2)])
    phi = rows[: nu_max + 1]
    psi = rows[: nu_max + 1].copy()
    psi[1:] += rows[: nu_max]          # phi_{mu-1}
    psi[: nu_max + 1] += rows[1:]      # phi_{mu+1}
    return CutoffFamily(n_points, nu_max, phi, psi)


@dataclass(frozen=True)
class DyadicBlocks:
    """Frequency-localized pieces of one grid function.

    Spectra are stored directly (band cutoff times source coefficients),
    so coefficients outside each band's support are exactly zero.
    """

    spectra: np.ndarray   # shape (nu_max+1, n_points), FFT order
    n_points: int
    source_hash: str

    @property
    def nu_max(self) -> int:
        return self.spectra.shape[0] - 1

    def __len__(self):
        return self.spectra.shape[0]

    def spectrum(self, nu) -> np.ndarray:
        return self.spectra[nu]

    def block(self, nu) -> GridFunction:
        return grid.from_coefficients(self.spectra[nu])

    def block_norms(self) -> np.ndarray:
        # Plancherel on the stored spectra; exact for band data
        return np.sqrt(TWO_PI * np.sum(np.abs(self.spectra) ** 2, axis=1))

    def block_norm(self, nu) -> float:
        return float(self.block_norms()[nu])


@np.errstate(over="ignore")      # callers refuse a non-finite result
def band_norms_sq(fam: CutoffFamily, values) -> np.ndarray:
    """(rows, bands) squared L2 norms of the bands of each row of grid
    ``values``: 2*pi * sum |phi_nu c|^2 with c = fft(row) / N, by
    Plancherel.  Rows go a ``grid.row_chunks`` chunk at a time."""
    n, bands = fam.n_points, fam.nu_max + 1
    out = np.empty((len(values), bands))
    for rows in grid.row_chunks(len(values), n * bands):
        coeffs = grid.fft(values[rows]) / n
        out[rows] = TWO_PI * np.sum(
            np.abs(fam.phi * coeffs[:, None, :]) ** 2, axis=-1)
    return out


@np.errstate(over="ignore", invalid="ignore")   # as band_norms_sq
def sobolev_norms(fam: CutoffFamily, values, orders) -> np.ndarray:
    """(rows, orders) dyadic H^s proxies sqrt(sum_nu 4**(s*nu) |w_nu|^2)
    of the rows of ``values``, as in :func:`band_norms_sq`.

    float_power is libm pow, as Python's **.  Bands are summed in order,
    nu = 0 first: np.sum pairs them from 8 bands on (another last bit).
    """
    nus = np.arange(fam.nu_max + 1)
    weights = np.float_power(4.0, np.multiply.outer(orders, nus))
    sq = np.float_power(np.sqrt(band_norms_sq(fam, values)), 2)
    return np.sqrt(np.cumsum(weights * sq[:, None, :], axis=-1)[..., -1])


def _check_grid(w: GridFunction, fam: CutoffFamily):
    if w.n_points != fam.n_points:
        raise grid.GridMismatchError("function and cutoff family grids differ")


def decompose(w: GridFunction, fam: CutoffFamily) -> DyadicBlocks:
    _check_grid(w, fam)
    coeffs = grid.coefficients(w)
    return DyadicBlocks(fam.phi * coeffs[None, :], w.n_points,
                        grid.content_hash(w))


def reconstruct(blocks: DyadicBlocks) -> GridFunction:
    """Pointwise sum of the blocks, band 0 first."""
    if len(blocks) == 0:
        raise ValueError("no blocks to reconstruct")
    return GridFunction(grid.ifft(blocks.spectra * blocks.n_points).sum(0))


def sobolev_norm(w: GridFunction, m, fam: CutoffFamily) -> float:
    """Dyadic proxy for the H^m norm: sqrt(sum_nu 4**(m*nu) * |w_nu|^2).

    One row and order of :func:`sobolev_norms`.  Equivalent to the
    multiplier norm within a fixed factor; see
    :func:`sobolev_norm_multiplier` for the direct route.
    """
    _check_grid(w, fam)
    return float(sobolev_norms(fam, w.values[None], [m])[0, 0])


def sobolev_norm_multiplier(w: GridFunction, m) -> float:
    """H^m norm via the Fourier multiplier (1+|xi|^2)^(m/2)."""
    xi = grid.frequencies(w.n_points)
    coeffs = grid.coefficients(w)
    return float(np.sqrt(TWO_PI * np.sum((1.0 + xi ** 2) ** m
                                         * np.abs(coeffs) ** 2)))


def bernstein_ratio(blocks: DyadicBlocks, nu) -> float:
    """Gradient-to-function norm ratio of block nu.

    For nu >= 1 the ratio lies in [2**(nu-1), 2**(nu+1)]; the caller
    asserts the bracket.  Raises ZeroBlockError on a vanishing block.
    """
    spec = blocks.spectrum(nu)
    base = np.sqrt(TWO_PI * np.sum(np.abs(spec) ** 2))
    if not base > 0.0:
        raise ZeroBlockError(f"block {nu} is zero; ratio undefined")
    xi = grid.frequencies(blocks.n_points)
    grad = np.sqrt(TWO_PI * np.sum(np.abs(xi * spec) ** 2))
    return float(grad / base)


def cutoffs_to_csv(fam: CutoffFamily, path):
    """Export the table as rows (nu, xi, phi_nu(xi)) for plotting."""
    order = np.argsort(fam.xi)
    xi = fam.xi[order].tolist()
    grid.write_csv(path, ["nu", "xi", "phi"],
                   ((nu, x, p) for nu in range(fam.nu_max + 1)
                    for x, p in zip(xi, fam.phi[nu, order].tolist())))
