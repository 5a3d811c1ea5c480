import numpy as np
import pytest
import scipy.fft

from lpwave import grid
from lpwave.errors import GridMismatchError
from lpwave.grid import GridFunction


def naive_dft(values):
    """O(N^2) Fourier coefficients, independent of numpy's FFT path."""
    n = values.shape[0]
    j = np.arange(n)
    out = np.empty(n, dtype=complex)
    for m in range(n):
        out[m] = np.sum(values * np.exp(-2j * np.pi * m * j / n)) / n
    return out


def test_grid_size_validation():
    with pytest.raises(ValueError):
        GridFunction(np.zeros(7, dtype=complex))
    with pytest.raises(ValueError):
        GridFunction(np.zeros(12, dtype=complex))
    GridFunction(np.zeros(8, dtype=complex))  # smallest legal grid


def test_fft_roundtrip_identity():
    rng = np.random.default_rng(1)
    for n in (8, 64, 256):
        w = GridFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        back = grid.from_coefficients(grid.coefficients(w))
        err = grid.norm(back - w) / grid.norm(w)
        assert err < 1e-13


def test_plancherel_against_naive_dft():
    rng = np.random.default_rng(2)
    w = grid.random_band_limited(64, rng=rng)
    coeffs = naive_dft(w.values)
    freq_norm = np.sqrt(grid.TWO_PI * np.sum(np.abs(coeffs) ** 2))
    assert abs(freq_norm - grid.norm(w)) / grid.norm(w) < 1e-12
    # and the fast coefficients agree with the naive ones
    assert np.max(np.abs(coeffs - grid.coefficients(w))) < 1e-12


def test_norm_is_quadrature():
    # pure mode: ||exp(i x)||^2 over [0, 2pi) is exactly 2*pi
    w = grid.from_callable(lambda x: np.exp(1j * x), 64)
    assert abs(grid.norm(w) ** 2 - 2.0 * np.pi) < 1e-12


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(3)
    f = grid.random_band_limited(32, rng=rng)
    g = grid.random_band_limited(32, rng=rng)
    assert abs(grid.inner(f, g) - np.conj(grid.inner(g, f))) < 1e-12
    assert abs(grid.inner(f, f).imag) < 1e-14


def test_derivative_pure_mode():
    w = grid.from_callable(lambda x: np.exp(3j * x), 32)
    dw = grid.derivative(w)
    expect = grid.from_callable(lambda x: 3j * np.exp(3j * x), 32)
    assert grid.norm(dw - expect) < 1e-12 * grid.norm(w)


def test_grid_mismatch_raises():
    f = GridFunction(np.zeros(16, dtype=complex))
    g = GridFunction(np.zeros(32, dtype=complex))
    with pytest.raises(GridMismatchError):
        grid.inner(f, g)
    with pytest.raises(GridMismatchError):
        grid.same_grid(f, g)


def test_random_band_limited_respects_band():
    w = grid.random_band_limited(128, xi_max=8, rng=5)
    coeffs = grid.coefficients(w)
    xi = grid.frequencies(128)
    # recomputed through fft/ifft, so zero up to roundoff
    assert np.max(np.abs(coeffs[np.abs(xi) > 8])) < 1e-14 * grid.norm(w)
    assert grid.norm(w) > 0


def test_csv_roundtrip(tmp_path):
    w = grid.random_band_limited(32, rng=7)
    path = tmp_path / "w.csv"
    grid.to_csv(w, path)
    back = grid.from_csv(path, 32)
    assert np.array_equal(back.values, w.values)  # repr round-trips floats


@pytest.mark.parametrize("n", [2 ** p for p in range(3, 13)])
def test_scipy_fft_matches_numpy_on_complex_input(n):
    # the package transforms with grid.fft/ifft, pocketfft called directly;
    # on complex input they, and public scipy.fft, must give numpy's bits:
    # one row, batches, strided slices, broadcast rows like the solver's
    # coefficient tables and (states, bands, N) stacks like energy_table's
    rng = np.random.default_rng(n)
    z = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    cube = rng.standard_normal((3, 4, n)) + 1j * rng.standard_normal((3, 4, n))
    wide = rng.standard_normal((6, 2 * n)) + 1j * rng.standard_normal((6, 2 * n))
    inputs = (z, z[0], wide[::2, ::2], wide[1, 1::2],
              np.broadcast_to(z[0], (5, n)), cube, cube[:, ::2])
    for ours, public, reference in ((grid.fft, scipy.fft.fft, np.fft.fft),
                                    (grid.ifft, scipy.fft.ifft, np.fft.ifft)):
        for values in inputs:
            expect = reference(values).tobytes()
            assert ours(values).tobytes() == expect
            assert public(values).tobytes() == expect
        assert (public(z.T, axis=0).tobytes()
                == reference(z.T, axis=0).tobytes())


@pytest.mark.parametrize("n", [8, 128, 4096])
def test_grid_fft_of_real_input_is_that_of_its_complex_cast(n):
    # pocketfft's real-to-complex route would give other bits
    x = np.random.default_rng(n).standard_normal((5, n))
    for ours, reference in ((grid.fft, np.fft.fft), (grid.ifft, np.fft.ifft)):
        expect = reference(x.astype(complex))
        assert ours(x).tobytes() == expect.tobytes()
        assert ours(x[2]).tobytes() == expect[2].tobytes()


@pytest.mark.parametrize("n", [2 ** p for p in range(3, 12)])
def test_rfft_and_irfft_match_numpy_row_by_row(n):
    # the solver's real transforms, pocketfft's r2c and c2r called
    # directly, give numpy's bits, on a batch and on each of its rows, and
    # into an out buffer as well
    rng = np.random.default_rng(n)
    x = rng.standard_normal((5, n))
    cube = rng.standard_normal((3, 2, n))
    for values in (x, x[1], x[:, ::-1], cube, np.broadcast_to(x[0], (4, n))):
        spectrum = grid.rfft(values)
        assert spectrum.tobytes() == np.fft.rfft(values).tobytes()
        back = grid.irfft(spectrum)
        assert back.tobytes() == np.fft.irfft(spectrum, n).tobytes()
    spectrum, back = np.empty((5, n // 2 + 1), complex), np.empty((5, n))
    assert grid.rfft(x, spectrum) is spectrum
    assert grid.irfft(spectrum, back) is back
    for row in range(5):
        assert grid.rfft(x[row]).tobytes() == spectrum[row].tobytes()
        assert grid.irfft(spectrum[row]).tobytes() == back[row].tobytes()


def test_derivative_values_of_real_input_matches_numpy():
    # real input is cast to complex before the transform, whose
    # real-input route would give other bits than numpy's; the multiplier
    # is 1j*xi with the Nyquist entry 0
    values = np.random.default_rng(8).standard_normal(64)
    ik = 1j * grid.frequencies(64)
    ik[32] = 0.0
    expect = np.fft.ifft(ik * np.fft.fft(values))
    assert grid.derivative_values(values).tobytes() == expect.tobytes()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite_floats(tmp_path, value):
    # strict JSON has no NaN or Infinity; nothing is written
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        grid.write_json(path, {"ok": [1.5], "bad": [value]})
    assert not path.exists()


def test_ik_is_a_shared_read_only_1j_xi():
    # the Nyquist entry N/2 is 0
    for n in (8, 64, 1024):
        ik = grid.ik(n)
        expect = 1j * grid.frequencies(n)
        expect[n // 2] = 0.0
        assert ik.tobytes() == expect.tobytes()
        assert grid.ik(n) is ik
        with pytest.raises(ValueError):
            ik[1] = 0.0


def test_rik_is_a_shared_read_only_1j_m_without_nyquist():
    # the multiplier of rfft spectra is the first N/2 + 1 entries of
    # grid.ik: 1j*m for m = 0 ... N/2 - 1, then 0, a read-only view of
    # the one cached array
    for n in (8, 64, 1024):
        rik = grid.ik(n)[:n // 2 + 1]
        expect = 1j * np.arange(n // 2 + 1.0)
        expect[-1] = 0.0
        assert rik.tobytes() == expect.tobytes()
        assert rik.base is grid.ik(n)
        with pytest.raises(ValueError):
            rik[1] = 0.0
