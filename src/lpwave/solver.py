"""Pseudospectral time-domain solver for the degenerate wave operator.

One array-level kernel, ``_terms``, holds the spatial operator on the 2*pi
torus: spectral x-derivatives through the 1j*xi multiplier ``grid.ik``,
pointwise coefficient products, and the divergence-form term evaluated as
d_x(a * d_x u) so the structure the energy analysis integrates by parts
against is preserved exactly.  ``_operator`` is the one assembly of L u
from it, which ``apply_L``, the manufactured forcing, ``operator_blocks``
and ``residual_norm`` call; the RK4 right-hand side calls ``_terms`` for
d_t^2 u.  Time stepping is classical fourth-order Runge-Kutta on the
first-order system, one (2, N) state y = (u, d_t u), with an explicit CFL
bound tied to sup a.  The work that depends on time alone is taken out of
the step loop: for a chunk of steps the stage times t, t + dt/2 and t + dt
form one column, and a, b, c and the forcing are tabulated on it in one
call each, so the loop itself only makes the four operator FFTs per stage.
Coefficient callables and forcings must therefore accept a column of
times, (S, 1), as well as a scalar.  Given an output directory, the solve
also saves its trajectory as it runs: forked writers take each finished
chunk of saved states from ``grid.for_each_chunk``'s queue.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import grid
from .coefficients import (SCAN_TIMES, CoefficientSet, builtin_family,
                           run_all_checks, tensor_scan)
from .errors import (CFLError, ConditionError, ConfigurationError,
                     NumericalBlowupError)
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

    @property
    def n_saved(self) -> int:
        return self.times.shape[0]

    @property
    def n_points(self) -> int:
        return self.u.shape[1]


def _terms(a, b, c, ik, u):
    """The spatial operator's terms (d_x(a d_x u), b d_x u, c u).

    Plain arrays in and out, the FFTs along the last axis, so rows of u
    may be states at different times with matching coefficient rows;
    ``ik`` is ``grid.ik(N)`` of the grid.  u may be real:
    :func:`lpwave.grid.fft` casts it to complex.
    """
    ux = grid.ifft(ik * grid.fft(u))
    div = grid.ifft(ik * grid.fft(a * ux))
    return div, b * ux, c * u


def _operator(cs: CoefficientSet, t, x, u, utt):
    """L u = utt - d_x(a d_x u) + b d_x u + c u on plain arrays, with the
    coefficients at time t, a scalar or an (S, 1) column whose rows match
    those of u and utt, on the grid x."""
    div, bux, cu = _terms(cs.a(t, x), cs.b(t, x), cs.c(t, x),
                          grid.ik(x.shape[0]), u)
    return utt - div + bux + cu


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


def cosine_mode(freq=1) -> SpaceTimeFunction:
    """u(t,x) = cos(t) cos(freq*x), the workhorse manufactured solution."""
    return SpaceTimeFunction(
        u=lambda t, x: np.cos(t) * np.cos(freq * x),
        ut=lambda t, x: -np.sin(t) * np.cos(freq * x),
        utt=lambda t, x: -np.cos(t) * np.cos(freq * x),
    )


def manufactured_rhs(cs: CoefficientSet, exact: SpaceTimeFunction) -> Callable:
    """Forcing f(t, x) = L[exact] so that `exact` solves Lu = f.

    The spatial part is the same discrete operator the solver steps, so
    the exact solution satisfies the semi-discrete system identically and
    convergence studies see pure time-integration error.  ``t`` may be a
    scalar or an (S, 1) column of times, giving one row per time.
    """
    def f(t, x):
        return _operator(cs, t, x, np.asarray(exact.u(t, x), dtype=complex),
                         np.asarray(exact.utt(t, x), dtype=complex))

    return f


@functools.lru_cache(maxsize=32)
def sup_a(cs: CoefficientSet, n_points) -> float:
    """max(0, sup a) over [0, T] x grid; memoised, because estimate_loss
    and solve_cauchy both ask for it on every grid."""
    x = grid.grid_points(n_points)
    t = np.linspace(0.0, cs.T, SCAN_TIMES)
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


def solve_cauchy(cs: CoefficientSet, u0: GridFunction, u1: GridFunction,
                 f: Optional[Callable] = None, M: int = 1000,
                 save_every: int = 1, check: bool = True,
                 out_dir=None) -> Trajectory:
    """Integrate the Cauchy problem from data (u0, u1) with forcing f.

    ``M`` steps of size T/M, T the family's final time.  The
    hypothesis checkers run first when ``check``; a step size above the
    CFL bound is refused outright.  States are recorded every
    ``save_every`` steps, and M must be a multiple of save_every so the
    final time is always saved.

    The steps run in ``grid.row_chunks(M, N)``.  Per chunk, a, b,
    c and f are called once on the (3S, 1) column of its stage times, so
    each must accept such a column and return (3S, N) or (N,) values; a
    scalar time still works, as for ``apply_L``.

    With ``out_dir`` the files of :func:`save_trajectory` are written
    while the solve runs, each chunk of saved states by the
    ``grid.for_each_chunk`` process that takes it once the loop has saved
    it.  If the solve or a write raises, they and the directories made for
    them are removed once every writer has ended, and the error is raised.
    """
    same_grid(u0, u1)
    if M < 1:
        raise ValueError("need at least one step")
    if save_every < 1 or M % save_every != 0:
        raise ValueError(f"M = {M} is not a multiple of save_every = "
                         f"{save_every}")
    if check:
        failures = [r for r in run_all_checks(cs, x=u0.x) if not r.verdict]
        if failures:
            ids = ", ".join(r.condition_id for r in failures)
            raise ConditionError(f"coefficient checks failed: {ids}")
    dt = cs.T / M
    limit = cfl_limit(cs, u0.n_points)
    if dt > limit * (1.0 + 1e-12):
        raise CFLError(f"dt = {dt:.3e} exceeds stability bound {limit:.3e}")

    n, x, ik = u0.n_points, u0.x, grid.ik(u0.n_points)
    half, sixth = dt / 2, dt / 6
    n_saved = M // save_every + 1
    empty = np.empty if out_dir is None else grid.shared_empty
    times = np.empty(n_saved)
    us = empty((n_saved, n), complex)
    uts = empty((n_saved, n), complex)
    traj = Trajectory(times, us, uts, dt * save_every, cs, dt)

    def steps_run():    # yields the count of saved states per chunk of steps
        y = np.stack((u0.values, u1.values))     # the state (u, d_t u)
        times[0], (us[0], uts[0]) = 0.0, y
        saved = 1

        def rhs(row, y):
            # a, b, c and fs are the tables of the current chunk
            div, bux, cu = _terms(a[row], b[row], c[row], ik, y[0])
            vdot = div - bux - cu
            return np.array((y[1], vdot if fs is None else vdot + fs[row]))

        for steps in grid.row_chunks(M, n):
            ts = _stage_times(steps.start, steps.stop, dt)
            shape = (ts.shape[0], n)
            a, b, c = (np.broadcast_to(vals, shape)
                       for vals in (cs.a(ts, x), cs.b(ts, x), cs.c(ts, x)))
            fs = None if f is None else np.broadcast_to(f(ts, x), shape)
            for step in range(steps.start, steps.stop):
                r = 3 * (step - steps.start)
                k1 = rhs(r, y)
                k2 = rhs(r + 1, y + half * k1)
                k3 = rhs(r + 1, y + half * k2)
                k4 = rhs(r + 2, y + dt * k3)
                y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
                if (step % 25 == 24 or step == M - 1) and not np.all(
                        np.isfinite(y)):
                    raise NumericalBlowupError((step + 1) * dt)
                if (step + 1) % save_every == 0:
                    times[saved] = (step + 1) * dt
                    us[saved], uts[saved] = y
                    saved += 1
            yield saved

    if out_dir is None:
        for _ in steps_run():
            pass
        return traj
    made = _missing_dirs(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    try:
        grid.for_each_chunk(n_saved, n, functools.partial(
            _write_states, out_dir, us, uts), steps_run())
        _write_manifest(traj, out_dir)
    except BaseException:       # best effort: the error raised is this one
        paths = [_state_path(out_dir, i) for i in range(n_saved)]
        for path in [*paths, os.path.join(out_dir, "trajectory.json")]:
            with contextlib.suppress(OSError):
                os.remove(path)
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    return traj


def second_time_derivative(traj: Trajectory, rows: slice) -> np.ndarray:
    """d_t^2 u at the saved times of ``rows``, differencing the saved d_t u.

    Central differences inside, one-sided second-order stencils at the
    ends; second-order in the save spacing.  One row per saved time.
    """
    d, ut, n = traj.dt, traj.ut, traj.n_saved
    if n < 3:
        raise ValueError("need at least three saved states")
    start, stop, _ = rows.indices(n)
    lo, hi = max(start, 1), min(stop, n - 1)
    out = np.empty((stop - start, traj.n_points), dtype=ut.dtype)
    out[lo - start:hi - start] = (ut[lo + 1:hi + 1] - ut[lo - 1:hi - 1]) \
        / (2 * d)
    if start == 0:
        out[0] = (-3 * ut[0] + 4 * ut[1] - ut[2]) / (2 * d)
    if stop == n:
        out[-1] = (3 * ut[-1] - 4 * ut[-2] + ut[-3]) / (2 * d)
    return out


def operator_blocks(cs: CoefficientSet, traj: Trajectory):
    """L u at every saved time, d_t^2 u by finite differences, as
    (rows, values) blocks of ``grid.row_chunks``: one coefficient call on
    the column of a block's times and one batched operator per block, so
    temporaries stay small for long trajectories."""
    x = grid.grid_points(traj.n_points)
    for rows in grid.row_chunks(traj.n_saved, traj.n_points):
        yield rows, _operator(cs, traj.times[rows, None], x, traj.u[rows],
                              second_time_derivative(traj, rows))


def residual_norm(traj: Trajectory, i, f: Optional[Callable] = None) -> float:
    """|| L u - f || at saved index i, with d_t^2 u by finite differences."""
    i = range(traj.n_saved)[i]
    t, x = float(traj.times[i]), grid.grid_points(traj.n_points)
    vals = _operator(traj.coeffs, t, x, traj.u[i],
                     second_time_derivative(traj, slice(i, i + 1))[0])
    if f is not None:
        vals = vals - f(t, x)
    return grid.norm(GridFunction(vals))


# ---------------------------------------------------------------------------
# persistence: one grid CSV per saved state plus trajectory.json (N, steps,
# period, coefficients, times).  States are written a file at a time and
# parsed a grid.row_chunks chunk per call, the chunks taken from
# grid.for_each_chunk's queue by every usable CPU: solve_cauchy queues each
# once the step loop has saved it, save_trajectory and load_trajectory all
# at once.  The bytes do not depend on which process took a chunk, loads
# fill shared arrays, and an error names the state file it is about.
STATE_COLUMNS = ("re_u", "im_u", "re_ut", "im_ut")
MANIFEST_KEYS = ("N", "dt", "solver_dt", "period", "coefficients", "times")
RECORD_KEYS = ("family", "k", "gamma", "C0", "lambda0", "Lambda0", "T")


def _coefficients_record(cs: CoefficientSet) -> dict:
    """The manifest's record of the coefficients a trajectory solves."""
    return dict(zip(RECORD_KEYS, (cs.name, cs.k, cs.gamma, cs.C0, cs.lambda0,
                                  cs.Lambda0, cs.T)))


def save_trajectory(traj: Trajectory, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    _write_manifest(traj, out_dir)
    grid.for_each_chunk(traj.n_saved, traj.n_points, functools.partial(
        _write_states, out_dir, traj.u, traj.ut))


def _write_manifest(traj: Trajectory, out_dir):
    grid.write_json(os.path.join(out_dir, "trajectory.json"), {
        "N": traj.n_points,
        "dt": traj.dt,
        "solver_dt": traj.solver_dt,
        "period": TWO_PI,
        "coefficients": _coefficients_record(traj.coeffs),
        "times": [float(t) for t in traj.times],
    })


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
    it is a JSON object holding MANIFEST_KEYS with N a grid size, dt and
    solver_dt positive and dt / solver_dt whole to a relative 1e-9 (the
    config's rule for T/dt), a coefficient record holding RECORD_KEYS with
    family a string, k an integer and the others finite numbers, and times
    that, unless there are none, are finite and 0, dt, 2 dt, ... to a
    relative 1e-9."""
    with open(path) as fh:
        try:
            manifest = json.load(fh)
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


def _missing_dirs(path) -> list:
    """``path`` and those of its parents that do not exist, deepest first."""
    path = os.path.abspath(path)
    return [] if os.path.isdir(path) else [path, *_missing_dirs(
        os.path.dirname(path))]
