"""Periodic grid functions and basic spectral operations.

Everything in this package lives on the torus [0, 2*pi), sampled on a
uniform grid with N a power of two.  A :class:`GridFunction` stores
complex samples at x_j = 2*pi*j/N.  Fourier coefficients use the convention

    w(x) = sum_m  c_m * exp(i*xi_m*x),     xi_m = m,

so ``coefficients(w) == fft(w.values)/N`` and the discrete L2 norm
``sqrt(dx * sum |w_j|^2)`` satisfies Plancherel exactly:
``norm(w)^2 == 2*pi * sum |c_m|^2``.

Every transform in the package goes through :func:`fft` and :func:`ifft`
here, along the last axis, or, for real rows, :func:`rfft` and
:func:`irfft`.  They call scipy's pocketfft binding (``c2c``, ``r2c``,
``c2r``) directly, each bound by its first call so that ``import lpwave``
loads no scipy, with the arguments ``scipy.fft`` itself passes, so the
bits are those of ``np.fft`` and of ``scipy.fft``, without the per-call
backend dispatch: on a 2-core x86 VM one call at N = 128 took 1.9 us
against 6.9 us for ``scipy.fft.fft`` (4.3 against 13.2 us at N = 512).
:func:`fft` and :func:`ifft` cast their input to complex first (no copy
for complex128): on real input the binding takes its real-to-complex
route, whose bits differ from the complex transform's.  The solver
differentiates real rows through :func:`rfft`, the half-spectrum
multiplier :func:`rik` and :func:`irfft`, with an ``out`` buffer each.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import mmap
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GridMismatchError

TWO_PI = 2.0 * np.pi
CHUNK_VALUES = 8192  # values per chunk of rows: see row_chunks
_TOKEN_BYTES = 4     # a chunk index in for_each_chunk's queue


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a 2*pi-periodic function on a uniform grid."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        n = vals.shape[0]
        if n < 8 or not _is_pow2(n):
            raise ValueError(f"grid size must be a power of two >= 8, got {n}")

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def dx(self) -> float:
        return TWO_PI / self.n_points

    @property
    def x(self) -> np.ndarray:
        return grid_points(self.n_points)

    def __add__(self, other):
        same_grid(self, other)
        return GridFunction(self.values + other.values)

    def __sub__(self, other):
        same_grid(self, other)
        return GridFunction(self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction(self.values * scalar)

    __rmul__ = __mul__


def _binding(name):
    """pocketfft's transform ``name``: the first call imports the binding
    (and with it ``scipy.fft``) and rebinds the module name ``_<name>`` to
    the binding's function."""
    def bind(*args):
        from scipy.fft._pocketfft import pypocketfft
        transform = globals()["_" + name] = getattr(pypocketfft, name)
        return transform(*args)
    return bind


_c2c, _r2c, _c2r = map(_binding, ("c2c", "r2c", "c2r"))


def fft(values) -> np.ndarray:
    """Unnormalised forward DFT along the last axis, of the complex cast."""
    a = np.asarray(values, dtype=complex)
    return _c2c(a, (a.ndim - 1,), True, 0, None, 1)


def ifft(values) -> np.ndarray:
    """Inverse DFT along the last axis, scaled by 1/N, of the complex cast."""
    a = np.asarray(values, dtype=complex)
    return _c2c(a, (a.ndim - 1,), False, 2, None, 1)


def rfft(values, out=None) -> np.ndarray:
    """Unnormalised forward DFT along the last axis of real rows of N
    values: the entries m = 0 ... N/2, into ``out`` when it is given."""
    a = np.asarray(values, dtype=float)
    return _r2c(a, (a.ndim - 1,), True, 0, out, 1)


def irfft(spectrum, out=None) -> np.ndarray:
    """The real rows of N = 2 (M - 1) values whose :func:`rfft` is the M
    entries of ``spectrum`` along the last axis (scaled by 1/N), into
    ``out`` when it is given; the imaginary parts of entries 0 and N/2
    are ignored."""
    a = np.asarray(spectrum, dtype=complex)
    return _c2r(a, (a.ndim - 1,), 2 * (a.shape[-1] - 1), False, 2, out, 1)


def row_chunks(n_rows, row_width):
    """Slices of consecutive rows, about CHUNK_VALUES values each: every
    table over times or states is built a chunk at a time."""
    size = max(1, CHUNK_VALUES // row_width)
    for start in range(0, n_rows, size):
        yield slice(start, min(start + size, n_rows))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform
    has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def for_each_chunk(n_rows, row_width, work, produce=()):
    """Call ``work(rows)`` on every :func:`row_chunks` slice, the chunks
    taken from one queue by min(usable CPUs, chunks) processes side by side.

    Items of ``produce`` count the leading rows ready so far; all rows are
    ready when it ends.  This process forks the others, runs ``produce``,
    queueing each chunk on a pipe once its last row is ready (and running
    the head of the queue itself whenever the pipe is full), then closes
    the queue and takes chunks from it until it is empty.  With one chunk
    or no ``os.fork`` it runs ``produce``, then every chunk, alone.  A
    child reports only its exit status, so the rows it reads or fills must
    be in :func:`shared_empty` arrays, filled before their chunk is queued.
    Every child is waited for, on every path, an error of ``produce``
    included; then, if any failed, every chunk is run again here, so
    ``work`` must be idempotent, and an error of that rerun is raised as
    ``work`` raised it.
    """
    chunks = list(row_chunks(n_rows, row_width))
    n_children = (min(usable_cpus(), len(chunks)) - 1
                  if hasattr(os, "fork") else 0)
    if n_children < 1:
        for _ in produce:
            pass
        for rows in chunks:
            work(rows)
        return
    take, post = os.pipe()
    os.set_blocking(post, False)

    def run_next():
        """Run the chunk at the head of the queue; False once it is closed
        and empty."""
        token = os.read(take, _TOKEN_BYTES)
        if token:
            work(chunks[int.from_bytes(token, "little")])
        return bool(token)

    children = []
    try:
        for _ in range(n_children):
            pid = os.fork()
            if pid == 0:        # a child ends only through os._exit
                code = 1
                try:
                    os.close(post)
                    while run_next():
                        pass
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        queued = 0
        for ready in itertools.chain(produce, [n_rows]):
            while queued < len(chunks) and chunks[queued].stop <= ready:
                try:
                    os.write(post, queued.to_bytes(_TOKEN_BYTES, "little"))
                    queued += 1
                except BlockingIOError:     # full: take the head here
                    run_next()
        os.close(post)
        post = None
        while run_next():
            pass
    finally:
        if post is not None:    # the children drain the queue and exit
            os.close(post)
        os.close(take)
        failed = [pid for pid in children if os.waitpid(pid, 0)[1]]
    if failed:
        for rows in chunks:
            work(rows)


def shared_empty(shape, dtype) -> np.ndarray:
    """An array in anonymous shared memory, for :func:`for_each_chunk`."""
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def grid_points(n_points):
    return np.arange(n_points) * (TWO_PI / n_points)


def frequencies(n_points):
    """Angular frequencies xi_m = m in FFT order, as floats."""
    return np.fft.fftfreq(n_points, d=1.0 / n_points)


@functools.lru_cache(maxsize=32)
def ik(n_points):
    """The spectral d_x multiplier 1j*xi of one grid, shared read-only."""
    out = 1j * frequencies(n_points)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=32)
def rik(n_points):
    """The real-row d_x multiplier of :func:`rfft` spectra, 1j*m for
    m = 0 ... N/2 with the Nyquist entry N/2 set to 0, shared read-only.
    A real grid function's Nyquist mode cos(N x/2) has the derivative
    -N/2 sin(N x/2), which vanishes on the grid; 1j*xi would give it the
    imaginary one -1j*N/2 cos(N x/2) (Johnson, "Notes on FFT-based
    differentiation", 2011)."""
    out = 1j * np.arange(n_points // 2 + 1, dtype=float)
    out[-1] = 0.0
    out.flags.writeable = False
    return out


def max_band_index(n_points) -> int:
    """Highest band whose support fits under the Nyquist frequency N/2."""
    return int(np.floor(np.log2(n_points // 2))) - 1


def coefficients(w: GridFunction) -> np.ndarray:
    """Fourier coefficients c_m in FFT order."""
    return fft(w.values) / w.n_points


def from_coefficients(coeffs) -> GridFunction:
    coeffs = np.asarray(coeffs)
    return GridFunction(ifft(coeffs * coeffs.shape[0]))


def from_callable(fn, n_points) -> GridFunction:
    """Sample ``fn(x)`` on the grid; fn must accept an array."""
    return GridFunction(np.asarray(fn(grid_points(n_points)), dtype=complex))


def same_grid(f: GridFunction, g: GridFunction):
    if f.n_points != g.n_points:
        raise GridMismatchError(
            f"grids differ: N = {f.n_points} vs {g.n_points}")


def norm(w: GridFunction) -> float:
    """Discrete L2 norm, sqrt(dx * sum |w_j|^2)."""
    return float(np.sqrt(w.dx * np.sum(np.abs(w.values) ** 2)))


def inner(f: GridFunction, g: GridFunction) -> complex:
    """Discrete L2 inner product <f, g> = dx * sum f * conj(g)."""
    same_grid(f, g)
    return complex(f.dx * np.sum(f.values * np.conj(g.values)))


def derivative(w: GridFunction, order: int = 1) -> GridFunction:
    """Spectral derivative: multiply coefficients by (i*xi)^order."""
    return GridFunction(derivative_values(w.values, order))


def derivative_values(values, order=1):
    """Array version of :func:`derivative` for hot loops."""
    return ifft(ik(values.shape[0]) ** order * fft(values))


def random_band_limited(n_points, xi_max=None, rng=None,
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
    xi = frequencies(n_points)
    if xi_max is None:
        xi_max = 2.0 ** max_band_index(n_points)
    coeffs = (rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points))
    coeffs *= (1.0 + np.abs(xi)) ** (-decay)
    coeffs[np.abs(xi) > xi_max] = 0.0
    return from_coefficients(coeffs)


def content_hash(w: GridFunction) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(w.values).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# serialization: CSV columns are (index, x, re, im); JSON is binary-free


CSV_BLOCK_ROWS = 1024  # rows formatted and written at a time by write_csv


def write_csv(path, header, rows):
    """Write a header line, then rows of str, int and float cells.

    The bytes are those of ``csv.writer`` with its defaults: each cell is
    ``str()`` of its value, so floats come out as their shortest round-trip
    decimal and output is reproducible; cells are joined by ``,`` and each
    line ends in ``\r\n``.  Rows are taken, formatted column by column and
    written CSV_BLOCK_ROWS at a time, so memory stays bounded however many
    rows the iterable yields.  ``ndarray.tolist()`` columns are the fast
    way to build rows, and ``str`` cells are written as they are.  Raises
    ValueError on a row whose length differs from the header's and on a
    cell csv would quote (a comma, a double quote or a line break in it,
    or an empty cell alone on its line).
    """
    width = len(header)
    lines = itertools.chain([header], rows)
    with open(path, "w", newline="") as fh:
        while block := list(itertools.islice(lines, CSV_BLOCK_ROWS)):
            fh.write(_csv_block(block, width))


def _csv_block(block, width) -> str:
    """The CSV text of rows that all have ``width`` cells."""
    if set(map(len, block)) != {width}:
        raise ValueError(f"every CSV row needs {width} cells")
    columns = [list(map(str, column)) for column in zip(*block)]
    text = "\r\n".join(map(",".join, zip(*columns))) + "\r\n"
    n = len(block)
    if (text.count(",") != n * (width - 1) or '"' in text
            or text.count("\r") != n or text.count("\n") != n
            or (width == 1 and "" in columns[0])):
        raise ValueError("a CSV cell would need quoting")
    return text


def write_json(path, obj):
    """Indented JSON with sorted keys, so reruns give identical bytes.

    A NaN or infinite float raises ValueError before the file is opened:
    strict JSON has no such values.
    """
    text = json.dumps(obj, indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text)


def read_text(path) -> str:
    """The UTF-8 text of the file ``path``; a directory, a path through a
    file, or bytes that are not UTF-8 are a ConfigurationError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (IsADirectoryError, NotADirectoryError, UnicodeDecodeError):
        raise ConfigurationError(f"{path} is not a UTF-8 text file") from None


def make_dirs(path) -> list:
    """Make the directory ``path`` and its missing parents, returned deepest
    first; a path that is, or runs through, something other than a
    directory is a ConfigurationError naming it, and nothing is made."""
    missing, at = [], os.path.abspath(path)
    while not os.path.isdir(at):
        if os.path.lexists(at):
            raise ConfigurationError(f"cannot make the directory {path}: "
                                     f"{at} is not a directory")
        missing.append(at)
        at = os.path.dirname(at)
    os.makedirs(path, exist_ok=True)
    return missing


@functools.lru_cache(maxsize=8)
def _grid_cells(n_points):
    return (tuple(map(str, range(n_points))),
            tuple(map(str, grid_points(n_points).tolist())))


def write_grid_csv(path, names, columns):
    """The grid CSV layout: index and x cells (formatted once per N), then
    the real ``columns`` of N values, headed by ``names``."""
    index, x = _grid_cells(len(columns[0]))
    write_csv(path, ["index", "x", *names],
              zip(index, x, *(column.tolist() for column in columns)))


def read_grid_csvs(paths, n_points, names):
    """The (files, n_points, names) values of :func:`write_grid_csv` files,
    parsed in one ``np.loadtxt`` call.  A file is refused, with a
    ConfigurationError naming it, unless it is UTF-8 text with the header
    index, x, ``names`` and n_points rows of numbers, index and x exactly
    0 ... N-1 and ``grid_points(N)``, and finite values: ``np.loadtxt``
    parses ``nan`` and ``inf`` as numbers.  Each file's rows are counted
    first, so a short one cannot shift the rows after it.
    """
    header = ",".join(["index", "x", *names])
    lines = []
    for path in paths:
        file_lines = read_text(path).splitlines(keepends=True)
        if file_lines[:1] != [header + "\n"]:
            raise ConfigurationError(
                f"{path} does not start with the header {header!r}")
        if len(file_lines) != n_points + 1:
            raise ConfigurationError(
                f"{path} holds {len(file_lines) - 1} rows, the grid has "
                f"N = {n_points}")
        lines += file_lines[1:]
    width = len(names) + 2
    try:
        cells = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        problem = str(exc)
    else:
        if cells.shape == (len(lines), width):
            cells = cells.reshape(len(paths), n_points, width)
            off_grid = np.any((cells[..., 0] != np.arange(n_points))
                              | (cells[..., 1] != grid_points(n_points)), 1)
            if off_grid.any():
                raise ConfigurationError(
                    f"{paths[np.argmax(off_grid)]} is not sampled at "
                    f"x_j = 2*pi*j/{n_points}, j = 0 ... {n_points - 1}")
            values = cells[..., 2:]
            not_finite = ~np.isfinite(values).all(axis=(1, 2))
            if not_finite.any():
                raise ConfigurationError(
                    f"{paths[np.argmax(not_finite)]} holds a value that is "
                    f"not finite")
            return values
        problem = "parsed as {} rows of {} numbers".format(*cells.shape)
    if len(paths) > 1:          # parse one file at a time to name the bad one
        for path in paths:
            read_grid_csvs([path], n_points, names)
    raise ConfigurationError(
        f"{paths[0]} is not {n_points} rows of {width} numbers: {problem}")


def to_csv(w: GridFunction, path):
    write_grid_csv(path, ["re", "im"], [w.values.real, w.values.imag])


def from_csv(path, n_points) -> GridFunction:
    """Read a :func:`to_csv` file of a function on the n_points grid; one
    :func:`read_grid_csvs` refuses is a ConfigurationError."""
    re, im = read_grid_csvs([path], n_points, ["re", "im"])[0].T
    return GridFunction(re + 1j * im)
