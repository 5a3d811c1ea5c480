"""Pseudospectral time-domain solver for the degenerate wave operator.

One array-level kernel, ``_terms``, holds the spatial operator: spectral
x-derivatives through a 1j*xi multiplier built once per grid, pointwise
coefficient products, and the divergence-form term evaluated as
d_x(a * d_x u) so the structure the energy analysis integrates by parts
against is preserved exactly.  ``apply_L``, the RK4 right-hand side and
the manufactured forcing all call it.  Time stepping is classical
fourth-order Runge-Kutta on the first-order system (u, d_t u), with the
forcing evaluated once per distinct stage time and an explicit CFL bound
tied to sup a.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import grid
from .coefficients import CoefficientSet, run_all_checks, tensor_scan
from .errors import CFLError, ConditionError, NumericalBlowupError
from .grid import GridFunction, TWO_PI, same_grid

C_CFL = 0.5         # Courant factor of the solver's step bound
SUP_A_TIMES = 512   # time samples of the sup a scan behind that bound


@dataclass(frozen=True)
class Trajectory:
    """Saved states (u, d_t u) of one solve at uniformly spaced times."""

    times: np.ndarray          # (n_saved,)
    u: np.ndarray              # (n_saved, N) complex
    ut: np.ndarray             # (n_saved, N) complex
    dt: float                  # spacing of `times`
    period: float
    coeffs: CoefficientSet
    solver_dt: float           # integrator step (dt = save_every * solver_dt)

    @property
    def n_saved(self) -> int:
        return self.times.shape[0]

    @property
    def n_points(self) -> int:
        return self.u.shape[1]

    def u_at(self, i) -> GridFunction:
        return GridFunction(self.u[i], self.period)

    def ut_at(self, i) -> GridFunction:
        return GridFunction(self.ut[i], self.period)


@functools.lru_cache(maxsize=32)
def _ik(n_points, period):
    """The spectral d_x multiplier 1j*xi of one grid, shared read-only."""
    ik = 1j * grid.frequencies(n_points, period)
    ik.flags.writeable = False
    return ik


def _terms(cs: CoefficientSet, t, x, ik, u):
    """The spatial operator's terms (d_x(a d_x u), b d_x u, c u) at time t.

    Plain arrays in and out; ``ik`` is ``_ik(N, period)`` of the grid x.
    """
    ux = np.fft.ifft(ik * np.fft.fft(u))
    div = np.fft.ifft(ik * np.fft.fft(cs.a(t, x) * ux))
    return div, cs.b(t, x) * ux, cs.c(t, x) * u


def apply_L(cs: CoefficientSet, u: GridFunction, ut2: GridFunction,
            t: float) -> GridFunction:
    """Apply the operator to u(t, .) given its supplied second time derivative.

    Returns ut2 - d_x(a d_x u) + b d_x u + c u with spectral derivatives.
    """
    same_grid(u, ut2)
    div, bux, cu = _terms(cs, t, u.x, _ik(u.n_points, u.period), u.values)
    return GridFunction(ut2.values - div + bux + cu, u.period)


@dataclass(frozen=True)
class SpaceTimeFunction:
    """Closed-form u(t, x) with its first and second time derivatives."""

    u: Callable      # (t, x array) -> array
    ut: Callable
    utt: Callable

    def initial_data(self, n_points, period=TWO_PI):
        x = grid.grid_points(n_points, period)
        return (GridFunction(self.u(0.0, x), period),
                GridFunction(self.ut(0.0, x), period))


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
    convergence studies see pure time-integration error.
    """
    def f(t, x):
        n = x.shape[0]
        u = np.asarray(exact.u(t, x), dtype=complex)
        div, bux, cu = _terms(cs, t, x, _ik(n, float(x[1] - x[0]) * n), u)
        return np.asarray(exact.utt(t, x), dtype=complex) - div + bux + cu

    return f


def sup_a(cs: CoefficientSet, n_points, period=TWO_PI) -> float:
    x = grid.grid_points(n_points, period)
    t = np.linspace(0.0, cs.T, SUP_A_TIMES)
    return max(0.0, float(np.max(tensor_scan(cs.a, t, x))))


def cfl_limit(cs: CoefficientSet, n_points, period=TWO_PI,
              c_cfl=C_CFL) -> float:
    """Largest stable step: c_cfl * dx / sqrt(sup a + 1)."""
    dx = period / n_points
    return c_cfl * dx / np.sqrt(sup_a(cs, n_points, period) + 1.0)


def solve_cauchy(cs: CoefficientSet, u0: GridFunction, u1: GridFunction,
                 f: Optional[Callable] = None, M: int = 1000,
                 t_end: Optional[float] = None, save_every: int = 1,
                 check: bool = True) -> Trajectory:
    """Integrate the Cauchy problem from data (u0, u1) with forcing f.

    ``M`` steps of size t_end/M (t_end defaults to the family's T).  The
    hypothesis checkers run first when ``check``; a step size above the
    CFL bound is refused outright.  States are recorded every
    ``save_every`` steps, and M must be a multiple of save_every so the
    final time is always saved.
    """
    same_grid(u0, u1)
    if t_end is None:
        t_end = cs.T
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
    dt = t_end / M
    limit = cfl_limit(cs, u0.n_points, u0.period)
    if dt > limit * (1.0 + 1e-12):
        raise CFLError(f"dt = {dt:.3e} exceeds stability bound {limit:.3e}")

    x, ik = u0.x, _ik(u0.n_points, u0.period)

    def rhs(t, u, v, ft):
        div, bux, cu = _terms(cs, t, x, ik, u)
        vdot = div - bux - cu
        return v, (vdot if ft is None else vdot + ft)

    n_saved = M // save_every + 1
    times = np.empty(n_saved)
    us = np.empty((n_saved, u0.n_points), dtype=complex)
    uts = np.empty_like(us)
    u, v = u0.values.copy(), u1.values.copy()
    times[0], us[0], uts[0] = 0.0, u, v
    saved = 1
    for step in range(M):
        t = step * dt
        mid, end = t + dt / 2, t + dt
        fs = [None] * 3 if f is None else [f(s, x) for s in (t, mid, end)]
        k1u, k1v = rhs(t, u, v, fs[0])
        k2u, k2v = rhs(mid, u + dt / 2 * k1u, v + dt / 2 * k1v, fs[1])
        k3u, k3v = rhs(mid, u + dt / 2 * k2u, v + dt / 2 * k2v, fs[1])
        k4u, k4v = rhs(end, u + dt * k3u, v + dt * k3v, fs[2])
        u = u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if (step % 25 == 24 or step == M - 1) and not (
                np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NumericalBlowupError((step + 1) * dt)
        if (step + 1) % save_every == 0:
            times[saved], us[saved], uts[saved] = (step + 1) * dt, u, v
            saved += 1
    return Trajectory(times, us, uts, dt * save_every, u0.period, cs, dt)


def second_time_derivative(traj: Trajectory, i) -> np.ndarray:
    """d_t^2 u at saved index i, differencing the saved d_t u.

    Central differences inside, one-sided second-order stencils at the
    ends; second-order in the save spacing.
    """
    d = traj.dt
    if traj.n_saved < 3:
        raise ValueError("need at least three saved states")
    if i == 0:
        return (-3 * traj.ut[0] + 4 * traj.ut[1] - traj.ut[2]) / (2 * d)
    if i == traj.n_saved - 1:
        return (3 * traj.ut[i] - 4 * traj.ut[i - 1] + traj.ut[i - 2]) / (2 * d)
    return (traj.ut[i + 1] - traj.ut[i - 1]) / (2 * d)


def operator_at(cs: CoefficientSet, traj: Trajectory, i) -> np.ndarray:
    """L u at saved index i, with d_t^2 u by finite differences."""
    ut2 = GridFunction(second_time_derivative(traj, i), traj.period)
    return apply_L(cs, traj.u_at(i), ut2, float(traj.times[i])).values


def residual_norm(traj: Trajectory, i, f: Optional[Callable] = None) -> float:
    """|| L u - f || at saved index i, with d_t^2 u by finite differences."""
    vals = operator_at(traj.coeffs, traj, i)
    if f is not None:
        vals = vals - f(float(traj.times[i]), traj.u_at(i).x)
    return grid.norm(GridFunction(vals, traj.period))


# ---------------------------------------------------------------------------
# persistence: one CSV per saved state plus a JSON manifest


def save_trajectory(traj: Trajectory, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    cs = traj.coeffs
    manifest = {
        "N": traj.n_points,
        "dt": traj.dt,
        "solver_dt": traj.solver_dt,
        "M": traj.n_saved - 1,
        "period": traj.period,
        "coefficients": {"family": cs.name, "k": cs.k, "gamma": cs.gamma,
                         "C0": cs.C0, "lambda0": cs.lambda0,
                         "Lambda0": cs.Lambda0, "T": cs.T},
        "saved_indices": list(range(traj.n_saved)),
        "times": [float(t) for t in traj.times],
    }
    grid.write_json(os.path.join(out_dir, "trajectory.json"), manifest)
    index = range(traj.n_points)
    x = grid.grid_points(traj.n_points, traj.period).tolist()
    for i in range(traj.n_saved):
        grid.write_csv(os.path.join(out_dir, f"state_{i:06d}.csv"),
                       ["index", "x", "re_u", "im_u", "re_ut", "im_ut"],
                       zip(index, x, traj.u[i].real.tolist(),
                           traj.u[i].imag.tolist(), traj.ut[i].real.tolist(),
                           traj.ut[i].imag.tolist()))


def load_trajectory(out_dir, cs: Optional[CoefficientSet] = None) -> Trajectory:
    """Load a saved trajectory; rebuilds built-in families from the manifest."""
    from .coefficients import builtin_family

    with open(os.path.join(out_dir, "trajectory.json")) as fh:
        manifest = json.load(fh)
    if cs is None:
        p = manifest["coefficients"]
        cs = builtin_family(p["family"], k=p["k"], gamma=p["gamma"],
                            C0=p["C0"], T=p["T"])
    times = np.array(manifest["times"])
    n = manifest["N"]
    us = np.empty((times.size, n), dtype=complex)
    uts = np.empty_like(us)
    for i in range(times.size):
        re_u, im_u, re_ut, im_ut = np.loadtxt(
            os.path.join(out_dir, f"state_{i:06d}.csv"), delimiter=",",
            skiprows=1, usecols=(2, 3, 4, 5), unpack=True)
        us[i] = re_u + 1j * im_u
        uts[i] = re_ut + 1j * im_ut
    return Trajectory(times, us, uts, manifest["dt"], manifest["period"],
                      cs, manifest["solver_dt"])
