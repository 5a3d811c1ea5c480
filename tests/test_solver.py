import contextlib
import json
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpwave import experiment, grid
from lpwave.coefficients import (BUILTIN_FAMILIES, builtin_family,
                                 constant_coefficients)
from lpwave.errors import (CFLError, ConditionError, ConfigurationError,
                           GridMismatchError, NumericalBlowupError)
from lpwave.grid import CHUNK_VALUES, GridFunction
from lpwave.solver import (SpaceTimeFunction, apply_L, cfl_limit,
                           cosine_mode, load_trajectory, save_trajectory,
                           solve_cauchy)


def zero_field(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def fd_apply_L(cs, u, ut2, t):
    """4th-order central finite differences, independent of the FFT route."""
    n, dx = u.n_points, u.dx
    vals = u.values

    def d1(v):
        return (np.roll(v, 2) - 8 * np.roll(v, 1) + 8 * np.roll(v, -1)
                - np.roll(v, -2)) / (12 * dx)

    x = u.x
    a = cs.a(t, x)
    return ut2.values - d1(a * d1(vals)) + cs.b(t, x) * d1(vals) \
        + cs.c(t, x) * vals


def test_apply_L_constant_u_reduces_to_c():
    cs = builtin_family("monomial", k=2).with_params(b=zero_field)
    u = GridFunction(np.ones(64, dtype=complex))
    zero = GridFunction(np.zeros(64, dtype=complex))
    out = apply_L(cs, u, zero, t=0.7)
    expect = cs.c(0.7, u.x)
    assert np.max(np.abs(out.values - expect)) < 1e-13


def test_apply_L_single_mode_constant_coefficient():
    # -d_x(alpha d_x e^(ix)) = alpha e^(ix)
    cs = constant_coefficients(a0=0.3)
    u = grid.from_callable(lambda x: np.exp(1j * x), 64)
    zero = GridFunction(np.zeros(64, dtype=complex))
    out = apply_L(cs, u, zero, t=0.0)
    assert grid.norm(out - 0.3 * u) < 1e-13


def test_apply_L_zero_coefficients_returns_ut2():
    cs = constant_coefficients(a0=0.0)
    rng = np.random.default_rng(0)
    u = grid.random_band_limited(64, rng=rng)
    ut2 = grid.random_band_limited(64, rng=rng)
    out = apply_L(cs, u, ut2, t=0.1)
    assert grid.norm(out - ut2) < 1e-14 * grid.norm(ut2)


def test_apply_L_linearity():
    cs = builtin_family("monomial", k=2, gamma=0.25)
    rng = np.random.default_rng(1)
    u1, u2 = (grid.random_band_limited(64, rng=rng) for _ in range(2))
    w1, w2 = (grid.random_band_limited(64, rng=rng) for _ in range(2))
    lhs = apply_L(cs, GridFunction(2 * u1.values - 3j * u2.values),
                  GridFunction(2 * w1.values - 3j * w2.values), 0.4)
    rhs = (2 * apply_L(cs, u1, w1, 0.4).values
           - 3j * apply_L(cs, u2, w2, 0.4).values)
    scale = np.max(np.abs(lhs.values))
    assert np.max(np.abs(lhs.values - rhs)) < 1e-13 * scale


def test_apply_L_against_finite_differences():
    cs = builtin_family("monomial", k=2)
    u = grid.from_callable(np.cos, 256)
    zero = GridFunction(np.zeros(256, dtype=complex))
    spectral = apply_L(cs, u, zero, t=0.5)
    fd = fd_apply_L(cs, u, zero, t=0.5)
    err = grid.norm(GridFunction(spectral.values - fd)) / grid.norm(spectral)
    assert err < 1e-6


def test_apply_L_grid_mismatch():
    cs = constant_coefficients()
    with pytest.raises(GridMismatchError):
        apply_L(cs, GridFunction(np.zeros(64, dtype=complex)),
                GridFunction(np.zeros(128, dtype=complex)), 0.0)


def test_manufactured_rhs_zero_solution():
    # the forcing of the zero solution is exactly zero: so is the solve
    cs = builtin_family("monomial", k=2)
    exact = SpaceTimeFunction(u=zero_field, ut=zero_field, utt=zero_field)
    u0, u1 = exact.initial_data(64)
    traj = solve_cauchy(cs, u0, u1, exact=exact, M=100)
    assert np.all(traj.u == 0) and np.all(traj.ut == 0)


def test_manufactured_rhs_free_operator():
    # a = b = c = 0: the forcing is exactly utt = f(t) e^(ix), f = -cos,
    # and RK4 on u'' = f(t) is u += dt v + dt^2 (f(t) + 2 f(t + dt/2)) / 6,
    # v += dt (f(t) + 4 f(t + dt/2) + f(t + dt)) / 6
    cs = constant_coefficients(a0=0.0)
    exact = SpaceTimeFunction(
        u=lambda t, x: np.cos(t) * np.exp(1j * x),
        ut=lambda t, x: -np.sin(t) * np.exp(1j * x),
        utt=lambda t, x: -np.cos(t) * np.exp(1j * x))
    u0, u1 = exact.initial_data(64)
    M = 50
    traj = solve_cauchy(cs, u0, u1, exact=exact, M=M)
    dt, u, v, wave = cs.T / M, 1.0, 0.0, np.exp(1j * u0.x)
    for step in range(M):
        f0, fh, f1 = (-np.cos(step * dt + s) for s in (0, dt / 2, dt))
        u, v = (u + dt * v + dt ** 2 * (f0 + 2 * fh) / 6,
                v + dt * (f0 + 4 * fh + f1) / 6)
        assert np.max(np.abs(traj.u[step + 1] - u * wave)) < 1e-13
        assert np.max(np.abs(traj.ut[step + 1] - v * wave)) < 1e-13
    assert abs(u - np.cos(cs.T)) < 1e-8


def test_solve_zero_data_stays_zero():
    cs = builtin_family("monomial", k=2)
    zero = GridFunction(np.zeros(64, dtype=complex))
    traj = solve_cauchy(cs, zero, zero, M=100)
    assert np.all(traj.u == 0) and np.all(traj.ut == 0)


def test_solve_dalembert_mode():
    # a = 1, b = c = 0, u0 = cos x, u1 = 0  ->  u = cos t cos x
    cs = constant_coefficients(a0=1.0)
    u0 = grid.from_callable(np.cos, 128)
    u1 = GridFunction(np.zeros(128, dtype=complex))
    traj = solve_cauchy(cs, u0, u1, M=4000, save_every=400)
    x = u0.x
    worst = max(
        grid.norm(GridFunction(traj.u[i] - np.cos(traj.times[i]) * np.cos(x)))
        for i in range(traj.n_saved))
    assert worst < 1e-8


def test_solve_manufactured_accuracy_and_order():
    cs = builtin_family("monomial", k=2)
    exact = SpaceTimeFunction(
        u=lambda t, x: np.cos(3 * t) * np.cos(x),
        ut=lambda t, x: -3 * np.sin(3 * t) * np.cos(x),
        utt=lambda t, x: -9 * np.cos(3 * t) * np.cos(x))
    u0, u1 = exact.initial_data(128)
    x = u0.x
    errs = []
    for steps in (125, 250, 500):
        traj = solve_cauchy(cs, u0, u1, exact=exact, M=steps,
                            save_every=steps // 5)
        worst = max(
            grid.norm(GridFunction(traj.u[i]
                                   - exact.u(float(traj.times[i]), x)))
            for i in range(traj.n_saved))
        errs.append(worst)
    assert errs[-1] < 1e-6
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_solver_linearity():
    cs = builtin_family("monomial", k=2, gamma=0.25)
    rng = np.random.default_rng(2)
    d1 = (grid.random_band_limited(64, rng=rng, decay=1.0),
          grid.random_band_limited(64, rng=rng, decay=1.0))
    d2 = (grid.random_band_limited(64, rng=rng, decay=1.0),
          grid.random_band_limited(64, rng=rng, decay=1.0))
    mix = (GridFunction(0.5 * d1[0].values + 2.0 * d2[0].values),
           GridFunction(0.5 * d1[1].values + 2.0 * d2[1].values))
    out = [solve_cauchy(cs, u0, u1, M=400)
           for u0, u1 in (d1, d2, mix)]
    combo = 0.5 * out[0].u[-1] + 2.0 * out[1].u[-1]
    scale = grid.norm(GridFunction(out[2].u[-1]))
    assert grid.norm(GridFunction(out[2].u[-1] - combo)) < 1e-10 * scale


def test_energy_conservation_frozen_case():
    cs = constant_coefficients(a0=1.0)
    rng = np.random.default_rng(3)
    u0 = grid.random_band_limited(128, xi_max=4, rng=rng)
    u1 = grid.random_band_limited(128, xi_max=4, rng=rng)
    traj = solve_cauchy(cs, u0, u1, M=10000, save_every=1000)
    energies = []
    for i in range(traj.n_saved):
        du = grid.derivative(GridFunction(traj.u[i]))
        energies.append(grid.norm(GridFunction(traj.ut[i])) ** 2
                        + grid.norm(du) ** 2)
    drift = (max(energies) - min(energies)) / energies[0]
    assert drift < 1e-8


def test_spectral_support_preserved():
    # x-independent coefficients: band-limited data stays band-limited
    def alpha_derivative(j, t):   # alpha = 1 + sin(t)/2
        t = np.asarray(t, dtype=float)
        return float(j == 0) + 0.5 * np.sin(t + 0.5 * j * np.pi)

    cs = constant_coefficients(a0=1.0).with_params(
        alpha_derivative=alpha_derivative)
    rng = np.random.default_rng(4)
    u0 = grid.random_band_limited(128, xi_max=8, rng=rng)
    u1 = grid.random_band_limited(128, xi_max=8, rng=rng)
    traj = solve_cauchy(cs, u0, u1, M=2000, save_every=2000)
    coeffs = grid.coefficients(GridFunction(traj.u[-1]))
    xi = grid.frequencies(128)
    outside = np.max(np.abs(coeffs[np.abs(xi) > 8]))
    assert outside < 1e-12 * grid.norm(GridFunction(traj.u[-1]))


def test_cfl_refusal():
    cs = builtin_family("monomial", k=2)
    u0 = grid.from_callable(np.cos, 64)
    u1 = GridFunction(np.zeros(64, dtype=complex))
    limit = cfl_limit(cs, 64)
    steps_too_few = int(cs.T / limit * 0.5)
    with pytest.raises(CFLError):
        solve_cauchy(cs, u0, u1, M=steps_too_few)


def test_condition_gate_and_force():
    # the hypothesis checks are run_solve's; the flat family fails finite
    # degeneration, and force solves it anyway
    cfg = experiment.ExperimentConfig(family="flat", k=2, N=64, dt=0.0025)
    with pytest.raises(ConditionError):
        experiment.run_solve(cfg, None)
    traj = experiment.run_solve(cfg, None, force=True)
    assert traj.n_saved == 401


def test_save_every_must_divide_steps():
    # otherwise the final time would not be saved
    cs = constant_coefficients(a0=1.0)
    u0 = grid.from_callable(np.cos, 64)
    u1 = GridFunction(np.zeros(64, dtype=complex))
    with pytest.raises(ValueError):
        solve_cauchy(cs, u0, u1, M=40, save_every=3)
    traj = solve_cauchy(cs, u0, u1, M=40, save_every=4)
    assert traj.n_saved == 11 and traj.times[-1] == cs.T


def test_blowup_detection():
    cs = constant_coefficients(a0=1.0)
    bad = GridFunction(np.full(64, np.nan, dtype=complex))
    u1 = GridFunction(np.zeros(64, dtype=complex))
    with pytest.raises(NumericalBlowupError) as info:
        solve_cauchy(cs, bad, u1, M=400)
    assert info.value.t > 0


def test_save_load_roundtrip(tmp_path):
    cs = builtin_family("monomial", k=2)
    exact = cosine_mode()
    u0, u1 = exact.initial_data(64)
    traj = solve_cauchy(cs, u0, u1, exact=exact, M=100, save_every=20)
    save_trajectory(traj, tmp_path / "run")
    back = load_trajectory(tmp_path / "run")
    assert np.array_equal(back.u, traj.u)
    assert np.array_equal(back.ut, traj.ut)
    assert np.array_equal(back.times, traj.times)
    assert back.coeffs.name == "monomial"


# The operator as written before it moved into one kernel: an inline RK4
# right-hand side, and a forcing that wraps GridFunctions and applies the
# operator again, evaluated at every one of the four stages.

def _old_dx(values):
    return grid.derivative_values(values, order=1)


def _old_apply_L(cs, u, ut2, t):
    x = u.x
    a = cs.a(t, x)
    ux = _old_dx(u.values)
    div = _old_dx(a * ux)
    vals = ut2.values - div + cs.b(t, x) * ux + cs.c(t, x) * u.values
    return GridFunction(vals)


def _old_manufactured_rhs(cs, exact):
    def f(t, x):
        uf = GridFunction(np.asarray(exact.u(t, x), dtype=complex))
        utt = GridFunction(np.asarray(exact.utt(t, x), dtype=complex))
        return _old_apply_L(cs, uf, utt, t).values
    return f


def _old_solve(cs, u0, u1, f, M, save_every):
    """The old step loop with forcing f(t, x), or unforced if f is None."""
    dt, x = cs.T / M, u0.x

    def rhs(t, u, v):
        a = cs.a(t, x)
        ux = _old_dx(u)
        vdot = _old_dx(a * ux) - cs.b(t, x) * ux - cs.c(t, x) * u
        if f is not None:
            vdot = vdot + f(t, x)
        return v, vdot

    us, uts = [u0.values.copy()], [u1.values.copy()]
    u, v = us[0], uts[0]
    for step in range(M):
        t = step * dt
        k1u, k1v = rhs(t, u, v)
        k2u, k2v = rhs(t + dt / 2, u + dt / 2 * k1u, v + dt / 2 * k1v)
        k3u, k3v = rhs(t + dt / 2, u + dt / 2 * k2u, v + dt / 2 * k2v)
        k4u, k4v = rhs(t + dt, u + dt * k3u, v + dt * k3v)
        u = u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if (step + 1) % save_every == 0:
            us.append(u)
            uts.append(v)
    return np.array(us), np.array(uts)


def _forced_k4():
    cs = builtin_family("monomial", k=4, gamma=0.3)
    exact = cosine_mode()
    u0, u1 = exact.initial_data(128)
    return cs, u0, u1, exact, _old_manufactured_rhs(cs, exact)


def _random_k2():
    cs = builtin_family("monomial", k=2)
    rng = np.random.default_rng(7)
    u0 = grid.random_band_limited(128, rng=rng, decay=1.0)
    u1 = grid.random_band_limited(128, rng=rng, decay=0.5)
    return cs, u0, u1, None, None


@pytest.mark.parametrize("case", [_forced_k4, _random_k2])
def test_solve_matches_old_rhs_bit_for_bit(case):
    cs, u0, u1, exact, old_f = case()
    traj = solve_cauchy(cs, u0, u1, exact=exact, M=300, save_every=20)
    us, uts = _old_solve(cs, u0, u1, old_f, M=300, save_every=20)
    assert traj.u.tobytes() == us.tobytes()
    assert traj.ut.tobytes() == uts.tobytes()


def test_apply_L_and_forcing_match_old_bit_for_bit():
    # the forcing of the old solve is apply_L of the exact solution
    cs, u0, u1, exact, old_f = _forced_k4()
    ut2 = grid.random_band_limited(128, rng=3)
    x = u0.x
    for t in (0.0, 0.37, 1.0):
        assert (apply_L(cs, u0, ut2, t).values.tobytes()
                == _old_apply_L(cs, u0, ut2, t).values.tobytes())
        forcing = apply_L(cs, GridFunction(exact.u(t, x)),
                          GridFunction(exact.utt(t, x)), t)
        assert forcing.values.tobytes() == old_f(t, x).tobytes()


def test_forcing_evaluated_once_per_stage_time():
    # exact.u and exact.utt are tabulated on columns of stage times, chunk
    # by chunk; flattened, each one's columns are the loop's stage times in
    # order, each once
    cs, u0, u1, exact, _ = _forced_k4()
    received = {"u": [], "utt": []}

    def counted(name):
        def call(t, x):
            received[name].append(np.asarray(t, dtype=float).ravel())
            return getattr(exact, name)(t, x)
        return call

    M = 100
    solve_cauchy(cs, u0, u1, exact=SpaceTimeFunction(
        u=counted("u"), ut=exact.ut, utt=counted("utt")), M=M)
    dt = cs.T / M
    expected = [s for step in range(M)
                for s in (step * dt, step * dt + dt / 2, step * dt + dt)]
    for name in ("u", "utt"):
        assert np.concatenate(received[name]).tolist() == expected


CHUNK = CHUNK_VALUES // 128   # steps per tabulated chunk at N = 128


@pytest.mark.parametrize("case", [_forced_k4, _random_k2])
@pytest.mark.parametrize("M, save_every", [
    (1, 1), (CHUNK - 1, 9), (CHUNK, 16), (CHUNK + 1, 13),
    (3 * CHUNK + 7, 1), (3 * CHUNK + 7, 3 * CHUNK + 7)])
def test_chunk_boundaries_match_old_solve_bit_for_bit(case, M, save_every):
    cs, u0, u1, exact, old_f = case()
    cs = cs.with_params(T=min(cs.T, 0.01 * M))   # dt within the CFL bound
    traj = solve_cauchy(cs, u0, u1, exact=exact, M=M, save_every=save_every)
    us, uts = _old_solve(cs, u0, u1, old_f, M=M, save_every=save_every)
    assert traj.u.tobytes() == us.tobytes()
    assert traj.ut.tobytes() == uts.tobytes()
    dt = cs.T / M
    assert traj.times.tolist() == [i * save_every * dt
                                   for i in range(M // save_every + 1)]


def test_forced_k4_large_grid_matches_old_solve_bit_for_bit():
    # N = 2048: four steps per chunk; a short T keeps the reference quick
    cs = builtin_family("monomial", k=4, gamma=0.3, T=0.05)
    exact = cosine_mode()
    u0, u1 = exact.initial_data(2048)
    M = int(np.ceil(cs.T / cfl_limit(cs, 2048)))
    assert M > 3 * (CHUNK_VALUES // 2048)
    traj = solve_cauchy(cs, u0, u1, exact=exact, M=M)
    us, uts = _old_solve(cs, u0, u1, _old_manufactured_rhs(cs, exact), M=M,
                         save_every=1)
    assert traj.u.tobytes() == us.tobytes()
    assert traj.ut.tobytes() == uts.tobytes()


def _infinite_from(t_bad):
    """Zero u, with a utt that is infinite from t_bad on."""
    return SpaceTimeFunction(
        u=zero_field, ut=zero_field,
        utt=lambda t, x: np.where(np.asarray(t) >= t_bad, np.inf, 0.0)
        * np.ones_like(x))


def _blowup_step(M, first_bad):
    """The step at which the loop's every-25-steps check sees the state."""
    return next(s for s in range(first_bad, M) if s % 25 == 24 or s == M - 1)


@pytest.mark.parametrize("M, t_bad", [(400, 0.0), (400, 0.3), (110, 0.95)])
def test_blowup_raised_at_the_checked_step(M, t_bad):
    # an exact solution whose utt, so the forcing, turns infinite from
    # t_bad on; the first step whose stage times reach it goes non-finite,
    # and the check after it raises
    cs = constant_coefficients(a0=1.0)
    u0 = grid.from_callable(np.cos, 64)
    u1 = GridFunction(np.zeros(64, dtype=complex))
    dt = cs.T / M
    first_bad = next(s for s in range(M) if s * dt + dt >= t_bad)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericalBlowupError) as info:
            solve_cauchy(cs, u0, u1, exact=_infinite_from(t_bad), M=M)
    assert info.value.t == (_blowup_step(M, first_bad) + 1) * dt


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(BUILTIN_FAMILIES), st.integers(1, 12),
       st.floats(0.0, 2.0), st.sampled_from([16, 128]),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_property_coefficient_rows_match_scalar_calls(name, k, gamma, n,
                                                      times):
    if name == "interior_zero":
        k += k % 2
    cs = builtin_family(name, k=k, gamma=gamma)
    x = grid.grid_points(n)
    t = np.array(times)
    for fn in (cs.a, cs.b, cs.c):
        table = np.broadcast_to(fn(t[:, None], x), (t.size, n))
        for row, s in zip(table, times):
            assert row.tobytes() == np.broadcast_to(fn(s, x), (n,)).tobytes()


def test_load_matches_csv_module_parse(tmp_path):
    import csv
    cs, u0, u1, _, _ = _random_k2()
    traj = solve_cauchy(cs, u0, u1, M=100, save_every=50)
    traj.u[1, :4] = [complex(-0.0, -0.0), complex(0.0, -0.0),
                     complex(-0.0, 0.0), complex(-1.5, -0.0)]
    save_trajectory(traj, tmp_path / "run")
    back = load_trajectory(tmp_path / "run")
    for i in range(traj.n_saved):
        with open(tmp_path / "run" / f"state_{i:06d}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        u = np.array([float(r["re_u"]) + 1j * float(r["im_u"]) for r in rows])
        ut = np.array([float(r["re_ut"]) + 1j * float(r["im_ut"])
                       for r in rows])
        assert back.u[i].tobytes() == u.tobytes()
        assert back.ut[i].tobytes() == ut.tobytes()


# ---------------------------------------------------------------------------
# the split save and load: for_each_chunk over a trajectory of three chunks


def _three_chunk_solve(out_dir=None, exact=None):
    """A random-k2 solve at N = 64 with 301 saved states: three row chunks."""
    cs = builtin_family("monomial", k=2)
    rng = np.random.default_rng(11)
    u0 = grid.random_band_limited(64, rng=rng, decay=1.0)
    u1 = grid.random_band_limited(64, rng=rng, decay=0.5)
    return solve_cauchy(cs, u0, u1, exact=exact, M=300,
                        out_dir=out_dir)


def _three_chunk_trajectory():
    traj = _three_chunk_solve()
    assert len(list(grid.row_chunks(traj.n_saved, 64))) == 3
    return traj


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _wall_clock_guard(seconds):
    """Raise TimeoutError in the test if the block runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_split_save_and_load_do_not_depend_on_the_cpu_count(tmp_path,
                                                            monkeypatch):
    traj = _three_chunk_trajectory()
    written = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(grid, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        save_trajectory(traj, out)
        written[cpus] = _dir_bytes(out)
        assert len(written[cpus]) == 302
        back = load_trajectory(out)
        assert back.u.tobytes() == traj.u.tobytes()
        assert back.ut.tobytes() == traj.ut.tobytes()
        _assert_no_child_left()
    assert written[2] == written[1] and written[3] == written[1]
    monkeypatch.delattr(os, "fork")     # as on Windows: one part, here
    save_trajectory(traj, tmp_path / "no-fork")
    assert _dir_bytes(tmp_path / "no-fork") == written[1]
    back = load_trajectory(tmp_path / "no-fork")
    assert back.u.tobytes() == traj.u.tobytes()


def test_split_save_raises_what_a_child_raised(tmp_path, monkeypatch):
    traj = _three_chunk_trajectory()
    write_csv = grid.write_csv

    def failing_write_csv(path, header, rows):
        if str(path).endswith("state_000200.csv"):   # the last chunk
            raise OSError("disk full")
        write_csv(path, header, rows)

    monkeypatch.setattr(grid, "write_csv", failing_write_csv)
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    with pytest.raises(OSError, match=r"disk full"):
        save_trajectory(traj, tmp_path / "run")
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, None], ids=["1", "2", "no-fork"])
def test_failed_save_leaves_nothing_behind(tmp_path, monkeypatch, cpus):
    # the write of state 150 fails: save_trajectory raises its error and
    # removes the state files, trajectory.json and the directories it made
    traj = _three_chunk_trajectory()
    write_csv = grid.write_csv

    def failing_write_csv(path, header, rows):
        if str(path).endswith("state_000150.csv"):
            raise OSError("disk full")
        write_csv(path, header, rows)

    monkeypatch.setattr(grid, "write_csv", failing_write_csv)
    if cpus is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(grid, "usable_cpus", lambda: cpus)
    with _wall_clock_guard(60.0):
        with pytest.raises(OSError, match=r"disk full"):
            save_trajectory(traj, tmp_path / "made" / "run")
    _assert_no_child_left()
    assert list(tmp_path.iterdir()) == []


def test_split_load_fails_promptly_in_its_own_part(tmp_path, monkeypatch):
    # the process that takes state 50's chunk fails: the caller waits for
    # every child and raises the error without hanging
    traj = _three_chunk_trajectory()
    save_trajectory(traj, tmp_path / "run")
    path = tmp_path / "run" / "state_000050.csv"
    path.write_bytes(b"".join(path.read_bytes().splitlines(True)[:40]))
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    with _wall_clock_guard(20.0):
        with pytest.raises(ConfigurationError, match="state_000050.csv"):
            load_trajectory(tmp_path / "run")
    _assert_no_child_left()


def test_for_each_chunk_redoes_the_part_of_a_child_that_died(monkeypatch):
    # a child reports only its exit status: the one that dies has its part
    # redone here, the other's rows come back through shared memory
    parent = os.getpid()
    filled = {}
    for cpus in (1, 3):
        monkeypatch.setattr(grid, "usable_cpus", lambda cpus=cpus: cpus)
        out = grid.shared_empty((3, CHUNK_VALUES), float)   # a row a chunk

        def work(rows):
            if os.getpid() != parent and rows.start == 1:
                os._exit(3)
            out[rows] = rows.start + 0.5

        grid.for_each_chunk(3, CHUNK_VALUES, work)
        filled[cpus] = out.tobytes()
        _assert_no_child_left()
    assert filled[3] == filled[1]


def _damage_state_file(path, damage):
    """Rewrite a state file with its header's u and ut swapped, or with one
    index or x in every row."""
    lines = path.read_bytes().split(b"\r\n")[:-1]
    if damage == "header":
        lines[0] = b"index,x,re_ut,im_ut,re_u,im_u"
    else:
        column, cell = {"index": (0, b"7"), "x": (1, b"0.5")}[damage]
        for i, line in enumerate(lines[1:], 1):
            cells = line.split(b",")
            cells[column] = cell
            lines[i] = b",".join(cells)
    path.write_bytes(b"".join(line + b"\r\n" for line in lines))


@pytest.mark.parametrize("state", [50, 200], ids=["caller", "child"])
@pytest.mark.parametrize("damage", ["header", "index", "x"])
def test_split_load_refuses_a_state_file_off_the_grid_layout(
        tmp_path, monkeypatch, damage, state):
    # states 50 and 200 are in the first and the last chunk, which with
    # two CPUs the caller or the child may take
    traj = _three_chunk_trajectory()
    save_trajectory(traj, tmp_path / "run")
    name = f"state_{state:06d}.csv"
    _damage_state_file(tmp_path / "run" / name, damage)
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    with pytest.raises(ConfigurationError, match=name):
        load_trajectory(tmp_path / "run")
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# the save that runs with the solve: solve_cauchy(out_dir=...)


def test_solve_with_out_dir_writes_the_bytes_of_save_trajectory(
        tmp_path, monkeypatch):
    traj = _three_chunk_trajectory()
    save_trajectory(traj, tmp_path / "saved")
    saved = _dir_bytes(tmp_path / "saved")
    for cpus in (1, 2, 3, None):
        if cpus is None:
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(grid, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        solved = _three_chunk_solve(out)
        assert solved.u.tobytes() == traj.u.tobytes()
        assert _dir_bytes(out) == saved
        back = load_trajectory(out)
        assert back.u.tobytes() == traj.u.tobytes()
        assert back.ut.tobytes() == traj.ut.tobytes()
        _assert_no_child_left()


@pytest.mark.parametrize("t_bad", [0.0, 0.95])
def test_blowup_with_out_dir_leaves_no_trajectory(tmp_path, monkeypatch,
                                                  t_bad):
    # at t_bad = 0.95 two chunks of states are written before the blowup
    exact = _infinite_from(t_bad)
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericalBlowupError) as plain:
            _three_chunk_solve(exact=exact)
        (tmp_path / "kept").mkdir()
        for out in (tmp_path / "made" / "traj", tmp_path / "kept"):
            with pytest.raises(NumericalBlowupError) as saving:
                _three_chunk_solve(out, exact=exact)
            assert saving.value.t == plain.value.t
            _assert_no_child_left()
    assert not (tmp_path / "made").exists()
    assert list((tmp_path / "kept").iterdir()) == []


def test_solve_with_out_dir_raises_what_a_writer_raised(tmp_path,
                                                        monkeypatch):
    write_csv = grid.write_csv

    def failing_write_csv(path, header, rows):
        if str(path).endswith("state_000150.csv"):
            raise OSError("disk full")
        write_csv(path, header, rows)

    monkeypatch.setattr(grid, "write_csv", failing_write_csv)
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    with _wall_clock_guard(60.0):
        with pytest.raises(OSError, match=r"disk full"):
            _three_chunk_solve(tmp_path / "run")
    _assert_no_child_left()
    assert not (tmp_path / "run").exists()


def test_solve_with_out_dir_redoes_the_chunks_of_a_writer_that_died(
        tmp_path, monkeypatch):
    traj = _three_chunk_trajectory()
    save_trajectory(traj, tmp_path / "saved")
    parent = os.getpid()
    write_csv = grid.write_csv

    def dying_write_csv(path, header, rows):
        if os.getpid() != parent and str(path).endswith("state_000150.csv"):
            os._exit(3)
        write_csv(path, header, rows)

    monkeypatch.setattr(grid, "write_csv", dying_write_csv)
    monkeypatch.setattr(grid, "usable_cpus", lambda: 3)
    _three_chunk_solve(tmp_path / "run")
    _assert_no_child_left()
    assert _dir_bytes(tmp_path / "run") == _dir_bytes(tmp_path / "saved")


def test_for_each_chunk_runs_each_chunk_once_from_the_shared_queue(
        monkeypatch):
    # three processes on the queue of 40 000 one-row chunks: no index is
    # lost or taken twice
    monkeypatch.setattr(grid, "usable_cpus", lambda: 3)
    runs = grid.shared_empty((40_000,), np.int64)
    runs[:] = 0

    def work(rows):
        runs[rows] += 1

    with _wall_clock_guard(60.0):
        grid.for_each_chunk(runs.size, CHUNK_VALUES, work)
    _assert_no_child_left()
    assert np.all(runs == 1)


def test_for_each_chunk_takes_chunks_itself_while_the_queue_is_full(
        monkeypatch):
    # the only child dies on its first chunk, so 160 kB of queued indices
    # fill the pipe: the caller runs chunks as it queues, then all again
    parent = os.getpid()
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    runs = grid.shared_empty((40_000,), np.int64)
    runs[:] = 0

    def work(rows):
        if os.getpid() != parent:
            os._exit(3)
        runs[rows] += 1

    with _wall_clock_guard(60.0):
        grid.for_each_chunk(runs.size, CHUNK_VALUES, work)
    _assert_no_child_left()
    assert np.sum(runs == 1) == 1 and np.sum(runs == 2) == runs.size - 1


def test_for_each_chunk_queues_a_chunk_once_its_rows_are_ready(monkeypatch):
    # produce fills rows a few at a time; every chunk that work sees is
    # already whole, in this process or a child
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    n = 10
    rows_in = grid.shared_empty((n, CHUNK_VALUES // 2), float)
    seen = grid.shared_empty((n,), float)

    def produce():
        for i in range(n):
            rows_in[i] = i + 1
            yield i + 1

    def work(rows):
        seen[rows] = rows_in[rows].min(axis=1)

    grid.for_each_chunk(n, CHUNK_VALUES // 2, work, produce())
    _assert_no_child_left()
    assert seen.tolist() == list(range(1, n + 1))


def test_for_each_chunk_waits_for_its_children_when_produce_raises(
        monkeypatch):
    monkeypatch.setattr(grid, "usable_cpus", lambda: 3)

    def produce():
        yield 1
        raise ValueError("stop")

    with _wall_clock_guard(20.0):
        with pytest.raises(ValueError, match="stop"):
            grid.for_each_chunk(4, CHUNK_VALUES, lambda rows: None,
                                produce())
    _assert_no_child_left()


def _saved_manifest(tmp_path):
    cs, u0, u1, _, _ = _random_k2()
    traj = solve_cauchy(cs, u0, u1, M=100, save_every=50)
    save_trajectory(traj, tmp_path / "run")
    path = tmp_path / "run" / "trajectory.json"
    return traj, path, json.loads(path.read_text())


@pytest.mark.parametrize("key", ["family", "k", "T"])
def test_load_refuses_a_coefficient_record_without_a_key(tmp_path, key):
    _, path, manifest = _saved_manifest(tmp_path)
    del manifest["coefficients"][key]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError,
                       match=f"trajectory.json: coefficients has no '{key}'"):
        load_trajectory(tmp_path / "run")


@pytest.mark.parametrize("key, value", [
    ("k", "2"), ("k", 2.0), ("family", 1), ("gamma", True),
    ("C0", float("inf")), ("T", None)])
def test_load_refuses_a_coefficient_record_of_the_wrong_type(tmp_path, key,
                                                             value):
    _, path, manifest = _saved_manifest(tmp_path)
    manifest["coefficients"][key] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError,
                       match=f"trajectory.json: coefficients {key} = "):
        load_trajectory(tmp_path / "run")
