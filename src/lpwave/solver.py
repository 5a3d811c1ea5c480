"""Pseudospectral time-domain solver for the degenerate wave operator.

The operator has real coefficients, so the solver works in real
arithmetic.  One array-level kernel, ``_terms``, holds the spatial part
A u = d_x(a d_x u) - b d_x u - c u of L u = d_t^2 u - A u on real rows
on the 2*pi torus: spectral x-derivatives through ``grid.rfft``, the
half-spectrum multiplier ``grid.rik`` (whose Nyquist entry is 0, so real
rows stay real) and ``grid.irfft``, pointwise coefficient products, and
the divergence-form term evaluated as d_x(a * d_x u) so the structure the
energy analysis integrates by parts against is preserved exactly.  The
RK4 right-hand side, the solve's forcing L[exact] and ``_operator`` (the
L u of ``apply_L`` and of the energy check's source) all call it, so they
share one discrete operator; complex data go through it as their real and
imaginary parts, by linearity.  Coefficients that are not real are
refused with a ConfigurationError.

Time stepping is classical fourth-order Runge-Kutta on the first-order
system, one real state y = (u, d_t u) of shape (2, B, N): B = 1 when the
data and the forcing are real, B = 2 (real and imaginary parts) when
not.  The step loop writes into buffers made once per solve, sized by
one chunk of steps, with an explicit CFL bound tied to sup a.  The work
that depends on time alone is taken out of the step loop: for a chunk of
steps the stage times t, t + dt/2 and t + dt form one column, a, b, c,
``exact.u`` and ``exact.utt`` are tabulated on it in one call each, and
the forcing is built from those tables, so the loop itself only makes
the four operator FFTs per stage; all five must accept a column of
times, (S, 1), as well as a scalar.  Saved states are complex rows,
re + 1j*im, whose imaginary parts are exactly 0.0 for real data.  Given
an output directory, the solve also saves its trajectory as it runs,
through ``save_trajectory``'s writer: forked writers take each finished
chunk of saved states from its queue.  The trajectory keeps the
``exact`` whose L[exact] forced it, in memory only: a loaded one has
none.  The coefficient hypothesis checks are the caller's
(``experiment.run_solve``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import grid
from .coefficients import (CoefficientSet, builtin_family, scan_grids,
                           tensor_scan)
from .errors import CFLError, ConfigurationError, NumericalBlowupError
from .grid import GridFunction, TWO_PI, same_grid

C_CFL = 0.5         # Courant factor of the solver's step bound


@dataclass(frozen=True)
class Trajectory:
    """Saved states (u, d_t u) of one solve at uniformly spaced times."""

    times: np.ndarray          # (n_saved,)
    u: np.ndarray              # (n_saved, N) complex
    ut: np.ndarray             # (n_saved, N) complex
    dt: float                  # spacing of `times`
    coeffs: CoefficientSet
    solver_dt: float           # integrator step (dt = save_every * solver_dt)
    exact: Optional[SpaceTimeFunction] = None   # L[exact] is the forcing

    @property
    def n_saved(self) -> int:
        return self.times.shape[0]

    @property
    def n_points(self) -> int:
        return self.u.shape[1]


def _terms(a, b, c, rik, u, out, ux, spec):
    """A u = d_x(a d_x u) - b d_x u - c u of real rows u, into ``out``.

    Plain real arrays, the FFTs along the last axis, so rows of u may be
    states at different times with matching coefficient rows; ``rik`` is
    ``grid.rik(N)`` of the grid.  ``ux`` (u's shape) and ``spec`` (N/2 + 1
    complex entries a row) are scratch; neither they nor ``out`` may be u.
    """
    grid.rfft(u, spec)
    spec *= rik
    grid.irfft(spec, ux)                            # d_x u
    grid.rfft(np.multiply(a, ux, out), spec)
    spec *= rik
    grid.irfft(spec, out)                           # d_x(a d_x u)
    out -= np.multiply(b, ux, ux)
    out -= np.multiply(c, u, ux)
    return out


def _coefficients(cs: CoefficientSet, t, x):
    """a, b and c at time t on x; a table that is not real is refused."""
    tables = cs.a(t, x), cs.b(t, x), cs.c(t, x)
    for name, table in zip("abc", tables):
        if np.iscomplexobj(table):
            raise ConfigurationError(
                f"the coefficient {name} of {cs.name!r} takes complex "
                f"values; the wave operator's coefficients are real")
    return tables


def _operator(cs: CoefficientSet, t, x, u, utt):
    """L u = utt - A u on plain arrays, with the coefficients at time t, a
    scalar or an (S, 1) column whose rows match those of u and utt, on
    the grid x.  Complex u and utt are taken as their real and imaginary
    parts, each through :func:`_terms`."""
    if np.iscomplexobj(u) or np.iscomplexobj(utt):
        re = _operator(cs, t, x, np.real(u), np.real(utt))
        out = np.empty(re.shape, complex)
        out.real = re
        out.imag = _operator(cs, t, x, np.imag(u), np.imag(utt))
        return out
    a, b, c = _coefficients(cs, t, x)
    shape = np.broadcast_shapes(*map(np.shape, (u, a, b, c)))
    au, ux = np.empty(shape), np.empty(shape)
    spec = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), complex)
    return utt - _terms(a, b, c, grid.rik(shape[-1]),
                        np.broadcast_to(u, shape), au, ux, spec)


def apply_L(cs: CoefficientSet, u: GridFunction, ut2: GridFunction,
            t: float) -> GridFunction:
    """Apply the operator to u(t, .) given its supplied second time derivative.

    Returns ut2 - d_x(a d_x u) + b d_x u + c u with spectral derivatives.
    """
    same_grid(u, ut2)
    return GridFunction(_operator(cs, t, u.x, u.values, ut2.values))


@dataclass(frozen=True)
class SpaceTimeFunction:
    """Closed-form u(t, x) with its first and second time derivatives."""

    u: Callable      # (t, x array) -> array
    ut: Callable
    utt: Callable

    def initial_data(self, n_points):
        x = grid.grid_points(n_points)
        return GridFunction(self.u(0.0, x)), GridFunction(self.ut(0.0, x))


def cosine_mode() -> SpaceTimeFunction:
    """u(t,x) = cos(t) cos(x), the workhorse manufactured solution."""
    return SpaceTimeFunction(
        u=lambda t, x: np.cos(t) * np.cos(x),
        ut=lambda t, x: -np.sin(t) * np.cos(x),
        utt=lambda t, x: -np.cos(t) * np.cos(x),
    )


@functools.lru_cache(maxsize=32)
def sup_a(cs: CoefficientSet, n_points) -> float:
    """max(0, sup a) over [0, T] x grid; memoised, because estimate_loss
    and solve_cauchy both ask for it on every grid."""
    t, x = scan_grids(cs, grid.grid_points(n_points))
    return max(0.0, float(np.max(tensor_scan(cs.a, t, x))))


def cfl_limit(cs: CoefficientSet, n_points, c_cfl=C_CFL) -> float:
    """Largest stable step: c_cfl * dx / sqrt(sup a + 1)."""
    dx = TWO_PI / n_points
    return c_cfl * dx / np.sqrt(sup_a(cs, n_points) + 1.0)


def _stage_times(start, stop, dt) -> np.ndarray:
    """RK4 stage times t, t + dt/2, t + dt of steps start..stop-1 as a
    (3S, 1) column, in step order; t = step*dt as the loop computes it."""
    t = np.arange(start, stop) * dt
    return np.stack([t, t + dt / 2, t + dt], axis=1).reshape(-1, 1)


def _has_imaginary_part(values) -> bool:
    return np.iscomplexobj(values) and bool(np.any(np.imag(values)))


def _put_rows(out, values):
    """values into the real rows out[..., 0, :] (its real part) and, when
    out has two, out[..., 1, :] (its imaginary part)."""
    out[..., 0, :] = np.real(values)
    if out.shape[-2] == 2:
        out[..., 1, :] = np.imag(values)
    elif _has_imaginary_part(values):
        raise ValueError("exact turned complex after the first chunk of "
                         "steps; the solve took it to be real")


def solve_cauchy(cs: CoefficientSet, u0: GridFunction, u1: GridFunction,
                 exact: Optional[SpaceTimeFunction] = None, M: int = 1000,
                 save_every: int = 1, out_dir=None) -> Trajectory:
    """Integrate the Cauchy problem from data (u0, u1), forced by L[exact]
    when ``exact`` is given: the operator the solver steps, so ``exact``
    solves the semi-discrete system identically and convergence studies
    see pure time-integration error.  The trajectory records ``exact``.

    ``M`` steps of size T/M, T the family's final time.  A step size
    above the CFL bound is refused outright, and so, with a
    ConfigurationError, are coefficients that are not real; the
    hypothesis checks are the caller's.  States are recorded every
    ``save_every`` steps, and M must be a multiple of save_every so the
    final time is always saved.

    The state is real: one row each for u and d_t u when the data and the
    first chunk's forcing have no imaginary part, their real and
    imaginary parts as two rows when they do.  The saved states are
    re + 1j*im, with an imaginary part of exactly 0.0 for real data.

    The steps run in ``grid.row_chunks(M, N)``.  Per chunk, a, b, c,
    ``exact.u`` and ``exact.utt`` are called once on the (3S, 1) column of
    its stage times, so each must accept such a column and return (3S, N)
    or (N,) values; a scalar time still works, as for ``apply_L``.

    With ``out_dir`` the trajectory is saved as the solve runs by
    :func:`_save`, the writer of :func:`save_trajectory`, which takes the
    step loop as the producer of its rows and cleans up if it raises.
    """
    same_grid(u0, u1)
    if M < 1:
        raise ValueError("need at least one step")
    if save_every < 1 or M % save_every != 0:
        raise ValueError(f"M = {M} is not a multiple of save_every = "
                         f"{save_every}")
    dt = cs.T / M
    limit = cfl_limit(cs, u0.n_points)
    if dt > limit * (1.0 + 1e-12):
        raise CFLError(f"dt = {dt:.3e} exceeds stability bound {limit:.3e}")

    n, x = u0.n_points, u0.x
    half, sixth = dt / 2, dt / 6
    n_saved = M // save_every + 1
    empty = np.empty if out_dir is None else grid.shared_empty
    times = np.empty(n_saved)
    us = empty((n_saved, n), complex)
    uts = empty((n_saved, n), complex)
    traj = Trajectory(times, us, uts, dt * save_every, cs, dt, exact)

    def save(i, y):
        times[i] = i * save_every * dt
        for states, rows in zip((us, uts), y):
            states.real[i] = rows[0]
            states.imag[i] = rows[1] if len(rows) == 2 else 0.0

    def steps_run():    # yields the count of saved states per chunk of steps
        y = None        # the state (u, d_t u) as (2, B, N) real rows
        saved = 1

        def rhs(r, state, k):
            """k = (d_t u, A u + f) at stage-time row r of the chunk."""
            np.copyto(k[0], state[1])
            _terms(a[r], b[r], c[r], rik, state[0], k[1], ux, spec)
            if forcing:
                k[1] += fs[r]

        for steps in grid.row_chunks(M, n):
            ts = _stage_times(steps.start, steps.stop, dt)
            rows = ts.shape[0]
            forcing = (() if exact is None
                       else (exact.u(ts, x), exact.utt(ts, x)))
            if y is None:       # the state and its buffers, made once
                parts = 2 if any(map(_has_imaginary_part, (
                    u0.values, u1.values, *forcing))) else 1
                y, ys, k, acc = np.empty((4, 2, parts, n))
                ux = np.empty((parts, n))
                spec = np.empty((parts, n // 2 + 1), complex)
                rik = np.tile(grid.rik(n), (parts, 1))
                if forcing:     # sized by the first, longest, chunk
                    ue, fs, uxs = np.empty((3, rows, parts, n))
                    specs = np.empty((rows, parts, n // 2 + 1), complex)
                _put_rows(y[0], u0.values)
                _put_rows(y[1], u1.values)
                save(0, y)
            # (3S, 1, N): a stage's (1, N) row meets a real state's rows
            # in their own shape, as rik does, where numpy's broadcasting
            # loops would cost about twice as much per call at N = 128
            a, b, c = (np.broadcast_to(table, (rows, n))[:, None]
                       for table in _coefficients(cs, ts, x))
            if forcing:     # L[exact] = utt - A[exact], as _operator
                f = fs[:rows]
                _put_rows(ue[:rows], forcing[0])
                _terms(a, b, c, rik, ue[:rows], f, uxs[:rows], specs[:rows])
                _put_rows(ue[:rows], forcing[1])
                np.subtract(ue[:rows], f, f)

            for step in range(steps.start, steps.stop):
                r = 3 * (step - steps.start)
                rhs(r, y, acc)              # acc = k1
                np.multiply(acc, half, ys)
                ys += y
                rhs(r + 1, ys, k)           # k = k2
                np.multiply(k, half, ys)
                ys += y
                k *= 2.0
                acc += k
                rhs(r + 1, ys, k)           # k = k3
                np.multiply(k, dt, ys)
                ys += y
                k *= 2.0
                acc += k
                rhs(r + 2, ys, k)           # k = k4
                acc += k
                acc *= sixth
                y += acc
                if (step % 25 == 24 or step == M - 1) and not np.all(
                        np.isfinite(y)):
                    raise NumericalBlowupError((step + 1) * dt)
                if (step + 1) % save_every == 0:
                    save(saved, y)
                    saved += 1
            yield saved

    if out_dir is None:
        for _ in steps_run():
            pass
    else:
        _save(traj, out_dir, steps_run())
    return traj


# ---------------------------------------------------------------------------
# persistence: one grid CSV per saved state plus trajectory.json (N, steps,
# period, coefficients, times), written last.  States are written a file at
# a time and parsed a grid.row_chunks chunk per call, the chunks taken from
# grid.for_each_chunk's queue by every usable CPU.  One writer, _save,
# serves solve_cauchy, which queues each chunk once the step loop has saved
# it, and save_trajectory, which queues all at once; load_trajectory reads
# all at once.  The bytes do not depend on which process took a chunk, loads
# fill shared arrays, and an error names the state file it is about.
STATE_COLUMNS = ("re_u", "im_u", "re_ut", "im_ut")
MANIFEST_KEYS = ("N", "dt", "solver_dt", "period", "coefficients", "times")
RECORD_KEYS = ("family", "k", "gamma", "C0", "lambda0", "Lambda0", "T")


def _coefficients_record(cs: CoefficientSet) -> dict:
    """The manifest's record of the coefficients a trajectory solves."""
    return dict(zip(RECORD_KEYS, (cs.name, cs.k, cs.gamma, cs.C0, cs.lambda0,
                                  cs.Lambda0, cs.T)))


def save_trajectory(traj: Trajectory, out_dir):
    """Save traj under out_dir through :func:`_save`, the solve's writer."""
    _save(traj, out_dir)


def _save(traj: Trajectory, out_dir, produce=()):
    """Write traj's state files, each chunk by the ``grid.for_each_chunk``
    process that takes it once ``produce`` counts its rows ready, remove
    the state files of an earlier, longer trajectory in out_dir, then
    write trajectory.json.  If ``produce`` or a write raises, those files
    and the directories made for them are removed once every writer has
    ended, and the error is raised."""
    made = grid.make_dirs(out_dir)
    try:
        grid.for_each_chunk(traj.n_saved, traj.n_points, functools.partial(
            _write_states, out_dir, traj.u, traj.ut), produce)
        for name in os.listdir(out_dir):
            index = re.fullmatch(r"state_(\d+)\.csv", name)
            if index and int(index[1]) >= traj.n_saved:
                os.remove(os.path.join(out_dir, name))
        grid.write_json(os.path.join(out_dir, "trajectory.json"), dict(zip(
            MANIFEST_KEYS, (traj.n_points, traj.dt, traj.solver_dt, TWO_PI,
                            _coefficients_record(traj.coeffs),
                            traj.times.tolist()))))
    except BaseException:       # best effort: the error raised is this one
        paths = [_state_path(out_dir, i) for i in range(traj.n_saved)]
        for path in [*paths, os.path.join(out_dir, "trajectory.json")]:
            with contextlib.suppress(OSError):
                os.remove(path)
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _write_states(out_dir, u, ut, rows):
    """The state files of saved states ``rows`` of u and d_t u."""
    for i in range(rows.start, rows.stop):
        grid.write_grid_csv(_state_path(out_dir, i), STATE_COLUMNS,
                            [u[i].real, u[i].imag, ut[i].real, ut[i].imag])


def load_trajectory(out_dir, cs: Optional[CoefficientSet] = None) -> Trajectory:
    """Load a saved trajectory; rebuilds built-in families from the manifest.

    A ``cs`` that differs from the manifest's coefficient record is refused
    with a ConfigurationError naming each differing key, and so is a
    manifest that :func:`_read_manifest` refuses or whose period is not
    2*pi, the only domain the package has, and a state file that
    :func:`lpwave.grid.read_grid_csvs` refuses.
    """
    manifest = _read_manifest(os.path.join(out_dir, "trajectory.json"))
    if manifest["period"] != TWO_PI:
        raise ConfigurationError(
            f"trajectory was saved with period {manifest['period']!r}, "
            f"not 2*pi")
    p = manifest["coefficients"]
    if cs is None:
        cs = builtin_family(p["family"], k=p["k"], gamma=p["gamma"],
                            C0=p["C0"], T=p["T"])
    differ = [f"{key} saved {p.get(key)!r}, given {value!r}"
              for key, value in _coefficients_record(cs).items()
              if p.get(key) != value]
    if differ:
        raise ConfigurationError(
            "trajectory was saved with other coefficients: "
            + "; ".join(differ))
    times, n = manifest["times"], manifest["N"]
    us = grid.shared_empty((times.size, n), complex)
    uts = grid.shared_empty((times.size, n), complex)

    def read(rows):
        cells = grid.read_grid_csvs([_state_path(out_dir, i)
                                     for i in range(rows.start, rows.stop)],
                                    n, STATE_COLUMNS)
        us[rows] = cells[..., 0] + 1j * cells[..., 1]
        uts[rows] = cells[..., 2] + 1j * cells[..., 3]

    grid.for_each_chunk(times.size, n, read)
    return Trajectory(times, us, uts, manifest["dt"], cs,
                      manifest["solver_dt"])


def _read_manifest(path) -> dict:
    """trajectory.json, refused with a ConfigurationError naming it unless
    it is UTF-8 text of a JSON object holding MANIFEST_KEYS with N a grid
    size, dt and solver_dt positive and dt / solver_dt whole to a relative
    1e-9 (the config's rule for T/dt), a coefficient record holding
    RECORD_KEYS with family a string, k an integer and the others finite
    numbers, and times that, unless there are none, are finite and 0, dt,
    2 dt, ... to a relative 1e-9."""
    try:
        manifest = json.loads(grid.read_text(path))
    except ValueError as exc:
        raise ConfigurationError(f"{path} is not JSON: {exc}") from None
    if not (isinstance(manifest, dict)
            and all(key in manifest for key in MANIFEST_KEYS)):
        raise ConfigurationError(f"{path} is not a JSON object holding "
                                 + ", ".join(MANIFEST_KEYS))
    n, dt, solver_dt = manifest["N"], manifest["dt"], manifest["solver_dt"]
    if type(n) is not int or n < 8 or not grid._is_pow2(n):
        raise ConfigurationError(f"{path}: N = {n!r} is not a power of two "
                                 f">= 8")
    if not all(type(v) in (int, float) and 0 < v < np.inf
               for v in (dt, solver_dt)):
        raise ConfigurationError(f"{path}: dt = {dt!r} and solver_dt = "
                                 f"{solver_dt!r} must be positive numbers")
    ratio = dt / solver_dt
    if not ratio < np.inf or abs(ratio - round(ratio)) > 1e-9 * ratio:
        raise ConfigurationError(f"{path}: dt / solver_dt = {ratio!r} is "
                                 f"not a whole number")
    record = manifest["coefficients"]
    if not isinstance(record, dict):
        raise ConfigurationError(f"{path}: coefficients is not an object")
    for key in RECORD_KEYS:
        if key not in record:
            raise ConfigurationError(f"{path}: coefficients has no {key!r}")
        value = record[key]
        if key == "family":
            ok, kind = type(value) is str, "a string"
        elif key == "k":
            ok, kind = type(value) is int, "an integer"
        else:
            ok, kind = (type(value) is int or type(value) is float
                        and np.isfinite(value)), "a finite number"
        if not ok:
            raise ConfigurationError(f"{path}: coefficients {key} = "
                                     f"{value!r} is not {kind}")
    try:
        times = np.array(manifest["times"], dtype=float)
    except (TypeError, ValueError):
        times = None
    if times is None or times.ndim != 1:
        raise ConfigurationError(f"{path}: times is not a list of numbers")
    steps = np.arange(times.size) * dt
    if not np.all(np.abs(times - steps) <= 1e-9 * steps):
        raise ConfigurationError(f"{path}: times are not 0, dt, 2 dt, ... "
                                 f"for dt = {dt!r}")
    manifest["times"] = times
    return manifest


def _state_path(out_dir, i):
    return os.path.join(out_dir, f"state_{i:06d}.csv")

