import dataclasses
import os

import numpy as np
import pytest
from scipy.integrate import quad

from lpwave import coefficients, experiment, grid
from lpwave.coefficients import (builtin_family, constant_coefficients,
                                 tensor_scan)
from lpwave.commutator import scan
from lpwave.dyadic import build_cutoffs, sobolev_norm
from lpwave.energy import (block_epsilon, build_ledger, calibrate_constants,
                           energy_table, estimate_loss, loss_ratio_curve,
                           verify_energy_inequality, weight_integrand,
                           weight_table)
from lpwave.grid import GridFunction
from lpwave.solver import (Trajectory, apply_L, cosine_mode, solve_cauchy,
                           sup_a)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def frozen_trajectory(u: GridFunction, ut: GridFunction, cs, times=(0.0,)):
    """A hand-built trajectory holding the same state at every time."""
    times = np.asarray(times, dtype=float)
    us = np.tile(u.values, (times.size, 1))
    uts = np.tile(ut.values, (times.size, 1))
    dt = times[1] - times[0] if times.size > 1 else 1.0
    return Trajectory(times, us, uts, float(dt), cs, float(dt))


def zero_field(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def naive_band_energy(traj, i, nu, fam, cs):
    """Direct quadrature of the defining inner products via an O(N^2) DFT."""
    n = traj.n_points
    j = np.arange(n)
    x = grid.grid_points(n)
    t = float(traj.times[i])

    def coeffs(vals):
        return np.array([np.sum(vals * np.exp(-2j * np.pi * m * j / n)) / n
                         for m in range(n)])

    xi = grid.frequencies(n)
    cu = coeffs(traj.u[i])
    cut = coeffs(traj.ut[i])
    ut_nu = sum(fam.phi[nu, m] * cut[m] * np.exp(2j * np.pi * m * j / n)
                for m in range(n))
    ux_nu = sum(fam.phi[nu, m] * 1j * xi[m] * cu[m]
                * np.exp(2j * np.pi * m * j / n) for m in range(n))
    dx = grid.TWO_PI / n
    eps = block_epsilon(cs.k, nu)
    a_vals = np.real(cs.a(t, x))
    return (dx * np.sum(np.abs(ut_nu) ** 2)
            + dx * np.sum((a_vals + eps) * np.abs(ux_nu) ** 2))


def test_block_epsilon_values():
    assert block_epsilon(2, 3) == 0.125
    assert block_epsilon(6, 4) == 0.015625
    for k in (1, 2, 3, 6, 9):
        assert block_epsilon(k, 0) == 1.0
        for nu in range(0, 14):
            eps = block_epsilon(k, nu)
            assert 0.0 < eps <= 1.0
            assert np.sqrt(eps) * 2.0 ** nu >= 1.0 - 1e-15


def test_block_epsilon_takes_an_array_of_bands():
    bands = np.arange(64)
    for k in range(1, 13):
        scalars = np.array([block_epsilon(k, nu) for nu in range(64)])
        assert block_epsilon(k, bands).tobytes() == scalars.tobytes()


def test_block_epsilon_validation():
    with pytest.raises(ValueError):
        block_epsilon(0, 1)
    with pytest.raises(ValueError):
        block_epsilon(2, -1)


def test_block_energy_zero_trajectory():
    cs = builtin_family("monomial", k=2)
    fam = build_cutoffs(64)
    zero = GridFunction(np.zeros(64, dtype=complex))
    traj = frozen_trajectory(zero, zero, cs, times=(0.0, 0.5))
    table = energy_table(traj, fam, cs)
    assert np.all(table == 0.0)


def test_block_energy_pure_band_regularization_term():
    # a = 0 and frozen d_t u = 0: only the regularization term survives;
    # cos(2x) lives entirely in band 1, so E_1 = eps_1 * ||2 sin(2x)||^2
    cs = constant_coefficients(a0=0.0, k=2)
    u = grid.from_callable(lambda x: np.cos(2 * x), 64)
    zero = GridFunction(np.zeros(64, dtype=complex))
    traj = frozen_trajectory(u, zero, cs)
    fam = build_cutoffs(64)
    eps1 = block_epsilon(2, 1)
    expect = eps1 * 4.0 * np.pi   # ||2 sin(2x)||^2 = 4*pi on [0, 2*pi)
    table = energy_table(traj, fam, cs)
    assert abs(table[1, 0] - expect) < 1e-12
    for nu in (0, 2, 3):
        assert table[nu, 0] < 1e-28


def test_block_energy_against_naive_quadrature():
    cs = builtin_family("monomial", k=2)
    exact = cosine_mode()
    u0, u1 = exact.initial_data(64)
    traj = solve_cauchy(cs, u0, u1, exact=exact, M=500, save_every=250)
    fam = build_cutoffs(64)
    i = 1   # t = 0.5
    table = energy_table(traj, fam, cs)
    for nu in range(fam.nu_max + 1):
        fast = table[nu, i]
        slow = naive_band_energy(traj, i, nu, fam, cs)
        assert abs(fast - slow) <= 1e-10 * max(slow, 1e-12)


def test_energy_table_matches_per_band_loop():
    cs = builtin_family("monomial", k=4, gamma=0.3)
    rng = np.random.default_rng(11)
    u0 = grid.random_band_limited(128, rng=rng, decay=1.0)
    u1 = grid.random_band_limited(128, rng=rng, decay=0.5)
    traj = solve_cauchy(cs, u0, u1, M=100, save_every=10)
    fam = build_cutoffs(128)
    xi = grid.frequencies(128)
    x = grid.grid_points(128)
    eps = block_epsilon(cs.k, np.arange(fam.nu_max + 1))
    expect = np.empty((fam.nu_max + 1, traj.n_saved))
    for i in range(traj.n_saved):
        a_vals = np.real(cs.a(float(traj.times[i]), x))
        uhat = np.fft.fft(traj.u[i]) / 128
        uthat = np.fft.fft(traj.ut[i]) / 128
        for nu in range(fam.nu_max + 1):
            band = fam.phi[nu]
            kinetic = grid.TWO_PI * np.sum(np.abs(band * uthat) ** 2)
            ux_nu = np.fft.ifft(1j * xi * band * uhat) * 128
            expect[nu, i] = kinetic + grid.TWO_PI / 128 * np.sum(
                (a_vals + eps[nu]) * np.abs(ux_nu) ** 2)
    assert energy_table(traj, fam, cs).tobytes() == expect.tobytes()


def test_energy_lower_bounds():
    # E >= eps*||d_x u_nu||^2 and E >= ||d_t u_nu||^2, band by band
    cs = builtin_family("monomial", k=2, gamma=0.25)
    rng = np.random.default_rng(21)
    u = grid.random_band_limited(128, rng=rng)
    ut = grid.random_band_limited(128, rng=rng)
    traj = frozen_trajectory(u, ut, cs, times=(0.3,))
    fam = build_cutoffs(128)
    table = energy_table(traj, fam, cs)
    xi = grid.frequencies(128)
    eps = block_epsilon(cs.k, np.arange(fam.nu_max + 1))
    cu = grid.coefficients(u)
    cut = grid.coefficients(ut)
    for nu in range(fam.nu_max + 1):
        gx = 2 * np.pi * np.sum(np.abs(xi * fam.phi[nu] * cu) ** 2)
        kin = 2 * np.pi * np.sum(np.abs(fam.phi[nu] * cut) ** 2)
        assert table[nu, 0] >= eps[nu] * gx - 1e-12
        assert table[nu, 0] >= kin - 1e-12


def test_energy_quadratic_form_equivalence():
    # lambda0*(alpha+eps)*||d_x u_nu||^2 <= form <= (Lambda0*alpha+eps)*||.||^2
    cs = builtin_family("monomial", k=2)
    rng = np.random.default_rng(22)
    u = grid.random_band_limited(128, rng=rng)
    zero = GridFunction(np.zeros(128, dtype=complex))
    t = 0.7
    traj = frozen_trajectory(u, zero, cs, times=(t,))
    fam = build_cutoffs(128)
    table = energy_table(traj, fam, cs)
    alpha_t = float(cs.alpha(t))
    xi = grid.frequencies(128)
    cu = grid.coefficients(u)
    eps = block_epsilon(cs.k, np.arange(fam.nu_max + 1))
    for nu in range(fam.nu_max + 1):
        gx = 2 * np.pi * np.sum(np.abs(xi * fam.phi[nu] * cu) ** 2)
        lo = min(cs.lambda0, 1.0) * (alpha_t + eps[nu]) * gx
        hi = (cs.Lambda0 * alpha_t + eps[nu]) * gx
        assert lo - 1e-10 <= table[nu, 0] <= hi + 1e-10


def quad_weight(nu, t, cs, scale=1.0):
    """h(nu, t) by one scalar quad call from 0 to t: the pointwise
    reference of the weight table."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    return float(scale * quad(weight_integrand(cs, nu), 0.0, t, epsabs=1e-10,
                              epsrel=1e-10, limit=400)[0])


def test_decay_weight_zero_at_start_and_monotone():
    cs = builtin_family("monomial", k=2)
    vals = weight_table(3, [0.0, 0.1, 0.3, 0.6, 1.0], cs)[3]
    assert vals[0] == 0.0
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_decay_weight_constant_integrand_closed_form():
    # alpha = 1, gamma = 1/2: integrand is constant in time
    cs = constant_coefficients(a0=1.0, k=2).with_params(gamma=0.5)
    times = [0.25, 1.0]
    table = weight_table(5, times, cs)
    for nu in (0, 2, 5):
        eps = block_epsilon(2, nu)
        rate = eps * 2.0 ** nu / np.sqrt(1 + eps) + 1.0 + 1.0
        for i, t in enumerate(times):
            assert abs(table[nu, i] - rate * t) < 1e-10


def test_decay_weight_middle_term_log_closed_form():
    # alpha = t^2, k = 2, nu = 10: the |alpha'|/(alpha+eps) term alone
    # integrates to log((1 + eps)/eps) = log(1025)
    cs = builtin_family("monomial", k=2)
    eps = block_epsilon(2, 10)
    val, _ = quad(lambda s: abs(cs.alpha_derivative(1, s))
                  / (cs.alpha(s) + eps),
                  0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=400)
    assert abs(val - np.log(1025.0)) < 1e-8


def test_decay_weight_table_matches_pointwise():
    cs = builtin_family("monomial", k=2)
    times = np.linspace(0.0, 1.0, 9)
    table = weight_table(5, times, cs, scale=2.0)
    for nu in (0, 3, 5):
        for i, t in enumerate(times):
            assert abs(table[nu, i] - quad_weight(nu, t, cs, scale=2.0)) < 1e-8


def test_weight_table_first_column_is_decay_weight():
    cs = builtin_family("monomial", k=2)
    table = weight_table(4, [0.3, 0.5], cs)
    for nu in range(5):
        assert table[nu, 0] == quad_weight(nu, 0.3, cs)
    with pytest.raises(ValueError):
        weight_table(4, [-0.1, 0.5], cs)


def _old_weight_table(nu_max, times, cs, scale=1.0):
    """The table as one scalar quad call per band and interval."""
    times = np.asarray(times, dtype=float)
    out = np.zeros((nu_max + 1, times.size))
    for nu in range(nu_max + 1):
        f = weight_integrand(cs, nu)
        acc = out[nu, 0] = quad_weight(nu, times[0], cs)
        for i in range(1, times.size):
            inc, _ = quad(f, times[i - 1], times[i], epsabs=1e-10,
                          epsrel=1e-10, limit=200)
            acc += inc
            out[nu, i] = acc
    return scale * out


def _counting_quad(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr("scipy.integrate.quad", counted)
    return calls


@pytest.mark.parametrize("cfg_name",
                         ["k2-gamma0", "k4-gamma0.3", "nondegenerate"])
def test_weight_table_matches_quad_loop_on_shipped_grids(monkeypatch,
                                                         cfg_name):
    # the saved times of the shipped runs: 1 001 of them; the vectorised
    # Gauss-Kronrod step is accepted on every interval, so quad is not called
    cfg = experiment.read_config(os.path.join(CONFIG_DIR, cfg_name + ".cfg"))
    cs = experiment.coefficient_set(cfg)
    nu_max = experiment.cutoff_family(cfg).nu_max
    times = np.arange(0, cfg.steps + 1, cfg.save_every) * (cs.T / cfg.steps)
    assert times.size == 1001
    expected = _old_weight_table(nu_max, times, cs, scale=6.0)
    calls = _counting_quad(monkeypatch)
    table = weight_table(nu_max, times, cs, scale=6.0)
    assert table.tobytes() == expected.tobytes()
    assert calls == []


def test_weight_table_falls_back_to_quad(monkeypatch):
    # coarse intervals and high bands: the sharp |alpha'|/(alpha+eps) peak
    # near t = 0 fails the first-step error test, and quad takes over; the
    # flat and interior-zero families and a grid from t = 0.3 match too
    calls = _counting_quad(monkeypatch)
    for family in ("monomial", "flat", "interior_zero"):
        cs = builtin_family(family, k=2)
        for start in (0.0, 0.3):
            times = np.linspace(start, 1.0, 9)
            expected = _old_weight_table(10, times, cs)
            calls.clear()
            table = weight_table(10, times, cs)
            if family == "monomial" and start == 0.0:
                assert len(calls) >= 1
            assert table.tobytes() == expected.tobytes()


def test_weight_integrand_takes_arrays():
    cs = builtin_family("monomial", k=4, gamma=0.3)
    s = np.linspace(0.0, 1.0, 33)
    for nu in (0, 3, 7):
        f = weight_integrand(cs, nu)
        values = f(s)
        assert values.tobytes() == np.array([f(v) for v in s.tolist()]
                                            ).tobytes()
    bands = np.array([0, 3, 7, 40])
    values = weight_integrand(cs, bands[:, None])(s)
    assert values.tobytes() == np.array([weight_integrand(cs, nu)(s)
                                         for nu in bands.tolist()]).tobytes()


def test_decay_weight_linear_growth_in_band_index():
    # h(nu, T)/nu bounded for the quadratic family; neighbor gaps level off
    cs = builtin_family("monomial", k=2)
    h = weight_table(13, [1.0], cs)[1:, 0]
    slopes = h / np.arange(1, 14)
    assert slopes.max() / slopes.min() < 3.0
    gaps = np.diff(h)
    tail = gaps[5:]
    assert tail.max() / tail.min() < 1.10


def test_calibration_zero_lower_order_terms():
    cs = builtin_family("monomial", k=2).with_params(b=zero_field,
                                                     c=zero_field)
    fam = build_cutoffs(64)
    s = scan(cs, 1.0, fam)
    const = calibrate_constants(cs, fam, s)
    assert const.C3 == 0.0
    assert const.C4 == 0.0
    assert const.Ctilde == max(const.C1, const.components["C2_alpha"],
                               const.components["C2_beta"])


def test_calibration_constant_beta_drops_beta_term():
    cs = constant_coefficients(a0=1.0).with_params(lambda0=1.0, Lambda0=1.0)
    fam = build_cutoffs(64)
    s = scan(cs, 0.5, fam)
    const = calibrate_constants(cs, fam, s)
    assert const.components["C2_beta"] == 0.0
    assert const.components["C_A"] == 0.0   # multipliers commute with 1
    assert const.components["C_B"] == 0.0


def test_calibration_sup_norms_stable_under_denser_scan(monkeypatch):
    cs = builtin_family("monomial", k=2)
    fam = build_cutoffs(64)
    s = scan(cs, 1.0, fam)
    coarse = calibrate_constants(cs, fam, s)
    # the one scan grid, four times denser; sup_a must not keep its values
    monkeypatch.setattr(coefficients, "SCAN_TIMES",
                        4 * coefficients.SCAN_TIMES)
    try:
        fine = calibrate_constants(cs, fam, s)
    finally:
        sup_a.cache_clear()
    for name in ("C1", "C2", "C3", "C4", "Ctilde", "C_schur"):
        a, b = getattr(coarse, name), getattr(fine, name)
        assert abs(a - b) <= 0.01 * max(abs(b), 1e-12), name


def test_total_energy_t0_is_plain_sum():
    cs = builtin_family("monomial", k=2)
    rng = np.random.default_rng(23)
    u = grid.random_band_limited(128, rng=rng)
    ut = grid.random_band_limited(128, rng=rng)
    traj = frozen_trajectory(u, ut, cs, times=(0.0, 0.5))
    fam = build_cutoffs(128)
    s = scan(cs, 1.0, fam)
    const = calibrate_constants(cs, fam, s)
    ledger = build_ledger(traj, fam, cs, const)
    assert abs(ledger.Etot[0] - ledger.E[:, 0].sum()) \
        < 1e-12 * ledger.E[:, 0].sum()
    w = np.exp(-ledger.h[:, 0] - 2.0 * const.sigma * traj.times[0])
    assert np.sum(w * ledger.E[:, 0]) == ledger.Etot[0]


def test_total_energy_mode_packet_concentrates():
    # data around frequency 8: bands 2..4 carry essentially everything
    cs = builtin_family("monomial", k=2)
    n = 128
    coeffs = np.zeros(n, dtype=complex)
    xi = grid.frequencies(n)
    rng = np.random.default_rng(24)
    for m in range(6, 11):
        coeffs[np.argmin(np.abs(xi - m))] = rng.standard_normal() \
            + 1j * rng.standard_normal()
    u = grid.from_coefficients(coeffs)
    traj = frozen_trajectory(u, GridFunction(np.zeros(n, dtype=complex)), cs)
    fam = build_cutoffs(n)
    table = energy_table(traj, fam, cs)
    core = table[2:5, 0].sum()
    assert core > 0.999 * table[:, 0].sum()
    # direct-summation oracle over the defining quantities
    oracle = sum(naive_band_energy(traj, 0, nu, fam, cs)
                 for nu in range(fam.nu_max + 1))
    assert abs(table[:, 0].sum() - oracle) < 1e-10 * oracle


def test_total_energy_scaling_is_quadratic():
    cs = builtin_family("monomial", k=2)
    rng = np.random.default_rng(25)
    u = grid.random_band_limited(64, rng=rng)
    ut = grid.random_band_limited(64, rng=rng)
    fam = build_cutoffs(64)
    s = scan(cs, 1.0, fam)
    const = calibrate_constants(cs, fam, s)
    base = build_ledger(frozen_trajectory(u, ut, cs), fam, cs, const)
    scaled = build_ledger(frozen_trajectory(3.0 * u, 3.0 * ut, cs), fam, cs,
                          const)
    assert np.allclose(scaled.Etot, 9.0 * base.Etot, rtol=1e-12)


def _pipeline(cs, n=64, steps=1000, save_every=10, data=None):
    if data is None:
        exact = cosine_mode()
        u0, u1 = exact.initial_data(n)
    else:
        u0, u1, exact = data
    traj = solve_cauchy(cs, u0, u1, exact=exact, M=steps,
                        save_every=save_every)
    fam = build_cutoffs(n)
    s = scan(cs, 1.0, fam)
    const = calibrate_constants(cs, fam, s)
    ledger = build_ledger(traj, fam, cs, const)
    report = verify_energy_inequality(traj, fam, cs, ledger)
    return traj, ledger, report


@pytest.mark.parametrize("forced", [True, False], ids=["forced_k4",
                                                        "random_k2"])
@pytest.mark.parametrize("zeroed", [False, True], ids=["calibrated",
                                                       "zeroed"])
def test_inequality_matches_per_state_loop(forced, zeroed):
    # reference: per saved state, apply_L of the exact solution (the
    # forcing) or zero (random data), and one FFT; zeroed constants keep
    # every weight alive
    if forced:
        cs = builtin_family("monomial", k=4, gamma=0.3)
        data = None
    else:
        cs = builtin_family("monomial", k=2)
        rng = np.random.default_rng(5)
        data = (grid.random_band_limited(128, rng=rng, decay=1.0),
                grid.random_band_limited(128, rng=rng, decay=0.5), None)
    traj, ledger, report = _pipeline(cs, n=128, steps=400, save_every=2,
                                     data=data)
    fam = build_cutoffs(128)
    if zeroed:
        const = dataclasses.replace(ledger.constants, sigma=0.0, Ctilde=0.0)
        ledger = build_ledger(traj, fam, cs, const)
        report = verify_energy_inequality(traj, fam, cs, ledger)
    weights = np.exp(-ledger.h - 2.0 * ledger.constants.sigma
                     * traj.times[None, :])
    rhs = np.empty(traj.n_saved)
    x = grid.grid_points(traj.n_points)
    exact = cosine_mode() if forced else None
    for i, t in enumerate(traj.times.tolist()):
        lu = np.zeros(traj.n_points, dtype=complex)
        if forced:
            lu = apply_L(cs, GridFunction(exact.u(t, x)),
                         GridFunction(exact.utt(t, x)), t).values
        lu_hat = np.fft.fft(lu) / traj.n_points
        band_norms_sq = grid.TWO_PI * np.sum(
            np.abs(fam.phi * lu_hat[None, :]) ** 2, axis=1)
        rhs[i] = np.sum(weights[:, i] * band_norms_sq)
    cumulative = np.concatenate(
        [[0.0], np.cumsum((rhs[1:] + rhs[:-1]) / 2.0 * traj.dt)])
    assert report.rhs_cumulative.tobytes() == cumulative.tobytes()
    assert (cumulative[-1] > 0.0) == forced


def test_dropped_forcing_fails_the_check():
    # negative control: the forced k2 solve checked without its forcing,
    # and with sigma = Ctilde = 0 so no weight hides the growth, counts
    # the energy the forcing puts in as a violation
    cfg = dataclasses.replace(experiment.read_config(
        os.path.join(CONFIG_DIR, "k2-gamma0.cfg")), dt=1e-3)
    cs = experiment.coefficient_set(cfg)
    traj = experiment.run_solve(cfg, None)
    assert traj.exact is not None
    fam = build_cutoffs(cfg.N)
    const = dataclasses.replace(
        calibrate_constants(cs, fam, scan(cs, experiment.scan_time(cs), fam)),
        sigma=0.0, Ctilde=0.0)
    ledger = build_ledger(traj, fam, cs, const)
    kept = verify_energy_inequality(traj, fam, cs, ledger)
    dropped = verify_energy_inequality(dataclasses.replace(traj, exact=None),
                                       fam, cs, ledger)
    assert kept.passed and kept.max_violation == 0.0
    assert not dropped.passed and dropped.max_violation > 0.1


def test_inequality_zero_data():
    cs = builtin_family("monomial", k=2)
    n = 64
    zero = GridFunction(np.zeros(n, dtype=complex))
    _, ledger, report = _pipeline(cs, data=(zero, zero, None))
    assert np.all(ledger.Etot == 0.0)
    assert report.max_violation == 0.0
    assert report.passed


def test_inequality_nondegenerate_free_evolution():
    cs = builtin_family("nondegenerate", k=1)
    u0 = grid.from_callable(np.cos, 64)
    u1 = GridFunction(np.zeros(64, dtype=complex))
    _, ledger, report = _pipeline(cs, data=(u0, u1, None))
    assert report.passed
    # pure decay: never exceeds the initial value
    assert np.max(ledger.Etot) <= ledger.Etot[0] * (1.0 + 1e-12)


def test_inequality_manufactured_degenerate():
    cs = builtin_family("monomial", k=2)
    _, _, report = _pipeline(cs)
    assert report.max_violation <= 1e-4
    assert report.passed


def test_loss_ratio_zero_data():
    cs = builtin_family("monomial", k=2)
    zero = GridFunction(np.zeros(64, dtype=complex))
    traj = frozen_trajectory(zero, zero, cs, times=(0.0, 0.5, 1.0))
    fam = build_cutoffs(64)
    ratios = loss_ratio_curve(traj, fam, 0.0, (0.1, 0.5, 1.0))
    assert np.all(ratios == 0.0)


@pytest.mark.parametrize("n_points, m", [(64, 0.0), (128, 0.5), (512, 0.0)])
def test_loss_ratio_matches_per_delta_loop(n_points, m):
    # reference: one sobolev_norm pair per saved state and delta; N = 512
    # has 8 bands, where a sum over the band axis would change the last bit
    cs = builtin_family("monomial", k=2)
    rng = np.random.default_rng(n_points)
    u0 = grid.random_band_limited(n_points, rng=rng, decay=1.0)
    u1 = grid.random_band_limited(n_points, rng=rng, decay=0.5)
    M = 200 * max(1, n_points // 128)   # dt within the CFL bound
    traj = solve_cauchy(cs, u0, u1, M=M, save_every=M // 10)
    fam = build_cutoffs(n_points)
    deltas = np.array([round(0.1 * i, 10) for i in range(1, 31)])
    denom = sobolev_norm(u0, m + 1.0, fam) + sobolev_norm(u1, m, fam)
    expected = np.zeros_like(deltas)
    for i in range(traj.n_saved):
        for j, d in enumerate(deltas):
            lhs = (sobolev_norm(GridFunction(traj.u[i]), m + 1.0 - d, fam)
                   + sobolev_norm(GridFunction(traj.ut[i]), m - d, fam))
            expected[j] = max(expected[j], lhs / denom)
    assert np.array_equal(loss_ratio_curve(traj, fam, m, deltas), expected)


def test_loss_estimate_nondegenerate_hits_grid_bottom():
    cs = builtin_family("nondegenerate", k=1)
    report = estimate_loss(cs, 0.0, (0.1, 0.3, 0.5, 1.0),
                           grid_sizes=(64, 128), seed=3)
    assert report.found
    assert report.delta_star == 0.1


@pytest.mark.parametrize("sizes", [(128,), (128, 128)])
def test_loss_search_refuses_fewer_than_two_grid_sizes(sizes):
    # one grid compared with itself calls every delta stable
    with pytest.raises(ValueError, match="two distinct grid sizes"):
        estimate_loss(builtin_family("flat", k=2), 0.0, (0.1, 0.5),
                      grid_sizes=sizes, seed=3)


def test_loss_search_scans_sup_a_once_per_grid(monkeypatch):
    # estimate_loss and solve_cauchy both ask for cfl_limit on each grid;
    # the memoised sup_a scans the (t, x) grid once for the two of them
    calls = []

    def counting(fn, t_grid, x_grid):
        calls.append(x_grid.size)
        return tensor_scan(fn, t_grid, x_grid)

    monkeypatch.setattr("lpwave.solver.tensor_scan", counting)
    cs = builtin_family("nondegenerate", k=1)   # fresh closures, cold cache
    estimate_loss(cs, 0.0, (0.1, 0.5), grid_sizes=(64, 128), seed=3)
    assert calls == [64, 128]
