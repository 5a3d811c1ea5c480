"""Periodic grid functions and basic spectral operations.

Everything in this package lives on a uniform 1-D periodic grid with N a
power of two.  A :class:`GridFunction` stores complex samples at
x_j = j*period/N.  Fourier coefficients use the convention

    w(x) = sum_m  c_m * exp(i*xi_m*x),     xi_m = (2*pi/period)*m,

so ``coefficients(w) == fft(w.values)/N`` and the discrete L2 norm
``sqrt(dx * sum |w_j|^2)`` satisfies Plancherel exactly:
``norm(w)^2 == period * sum |c_m|^2``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

TWO_PI = 2.0 * np.pi


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a periodic function on a uniform grid."""

    values: np.ndarray
    period: float = TWO_PI

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        n = vals.shape[0]
        if n < 8 or not _is_pow2(n):
            raise ValueError(f"grid size must be a power of two >= 8, got {n}")
        if not self.period > 0:
            raise ValueError("period must be positive")

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def dx(self) -> float:
        return self.period / self.n_points

    @property
    def x(self) -> np.ndarray:
        return grid_points(self.n_points, self.period)

    def __add__(self, other):
        same_grid(self, other)
        return GridFunction(self.values + other.values, self.period)

    def __sub__(self, other):
        same_grid(self, other)
        return GridFunction(self.values - other.values, self.period)

    def __mul__(self, scalar):
        return GridFunction(self.values * scalar, self.period)

    __rmul__ = __mul__


def grid_points(n_points, period=TWO_PI):
    return np.arange(n_points) * (period / n_points)


def frequencies(n_points, period=TWO_PI):
    """Angular frequencies xi_m in FFT order (integers when period=2*pi)."""
    return np.fft.fftfreq(n_points, d=1.0 / n_points) * (TWO_PI / period)


def coefficients(w: GridFunction) -> np.ndarray:
    """Fourier coefficients c_m in FFT order."""
    return np.fft.fft(w.values) / w.n_points


def from_coefficients(coeffs, period=TWO_PI) -> GridFunction:
    coeffs = np.asarray(coeffs, dtype=complex)
    return GridFunction(np.fft.ifft(coeffs * coeffs.shape[0]), period)


def from_callable(fn, n_points, period=TWO_PI) -> GridFunction:
    """Sample ``fn(x)`` on the grid; fn must accept an array."""
    x = grid_points(n_points, period)
    return GridFunction(np.asarray(fn(x), dtype=complex), period)


def same_grid(f: GridFunction, g: GridFunction):
    if f.n_points != g.n_points or f.period != g.period:
        raise GridMismatchError(
            f"grids differ: ({f.n_points}, {f.period}) vs ({g.n_points}, {g.period})"
        )


def norm(w: GridFunction) -> float:
    """Discrete L2 norm, sqrt(dx * sum |w_j|^2)."""
    return float(np.sqrt(w.dx * np.sum(np.abs(w.values) ** 2)))


def inner(f: GridFunction, g: GridFunction) -> complex:
    """Discrete L2 inner product <f, g> = dx * sum f * conj(g)."""
    same_grid(f, g)
    return complex(f.dx * np.sum(f.values * np.conj(g.values)))


def derivative(w: GridFunction, order: int = 1) -> GridFunction:
    """Spectral derivative: multiply coefficients by (i*xi)^order."""
    return GridFunction(derivative_values(w.values, w.period, order), w.period)


def derivative_values(values, period=TWO_PI, order=1):
    """Array version of :func:`derivative` for hot loops."""
    n = values.shape[0]
    xi = frequencies(n, period)
    return np.fft.ifft((1j * xi) ** order * np.fft.fft(values))


def random_band_limited(n_points, period=TWO_PI, xi_max=None, rng=None,
                        decay=0.0) -> GridFunction:
    """Random function with Fourier support in |xi| <= xi_max.

    Coefficients are complex standard normals scaled by (1+|xi|)^(-decay).
    When ``xi_max`` is omitted it defaults to 2**nu_max of the grid, the
    largest band the dyadic decomposition reproduces exactly.
    """
    if rng is None:
        rng = np.random.default_rng()
    elif isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    xi = frequencies(n_points, period)
    if xi_max is None:
        nyquist = (TWO_PI / period) * (n_points // 2)
        xi_max = 2.0 ** (int(np.floor(np.log2(nyquist))) - 1)
    coeffs = (rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points))
    coeffs *= (1.0 + np.abs(xi)) ** (-decay)
    coeffs[np.abs(xi) > xi_max] = 0.0
    return from_coefficients(coeffs, period)


def content_hash(w: GridFunction) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(w.values).tobytes())
    h.update(repr(float(w.period)).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# serialization: CSV columns are (index, x, re, im); JSON is binary-free


def write_csv(path, header, rows):
    """Write a header line, then rows of str, int and float cells.

    Floats come out as their shortest round-trip decimal, so output is
    reproducible; ``ndarray.tolist()`` columns are the fast way to build rows.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj):
    """Indented JSON with sorted keys, so reruns give identical bytes."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def to_csv(w: GridFunction, path):
    write_csv(path, ["index", "x", "re", "im"],
              zip(range(w.n_points), w.x.tolist(), w.values.real.tolist(),
                  w.values.imag.tolist()))


def from_csv(path, period=TWO_PI) -> GridFunction:
    re, im = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2, 3),
                        unpack=True)
    return GridFunction(re + 1j * im, period)


def to_json_dict(w: GridFunction) -> dict:
    return {
        "n_points": w.n_points,
        "period": w.period,
        "re": [float(v) for v in w.values.real],
        "im": [float(v) for v in w.values.imag],
    }


def from_json_dict(d) -> GridFunction:
    return GridFunction(np.array(d["re"]) + 1j * np.array(d["im"]), d["period"])
