"""Acceptance suite: one test per shipped claim, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Tolerances are fixed here, not tuned at runtime.
"""

import dataclasses
import os
import time

import numpy as np
from scipy.integrate import quad

from lpwave import grid
from lpwave.coefficients import (builtin_family, check_finite_degeneration,
                                 check_order_condition)
from lpwave.commutator import CommutatorScan, dense_norm, power_norm, verify_decay
from lpwave.dyadic import (bernstein_ratio, build_cutoffs, decompose,
                           reconstruct)
from lpwave.energy import (block_epsilon, build_ledger, calibrate_constants,
                           decay_weight, estimate_loss,
                           verify_energy_inequality)
from lpwave.experiment import coefficient_set, initial_data, read_config
from lpwave.grid import GridFunction
from lpwave.solver import (SpaceTimeFunction, cosine_mode, manufactured_rhs,
                           solve_cauchy)
from lpwave.commutator import scan as commutator_scan
from lpwave.experiment import scan_time

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
DELTAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.5, 2.0, 3.0)


def _verdict(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail
                                                    else ""))
    assert ok, f"{name}: {detail}"


def _corpus(n_points, count, seed):
    rng = np.random.default_rng(seed)
    return [grid.random_band_limited(n_points, rng=rng) for _ in range(count)]


def test_criterion_1_dyadic_exactness():
    started = time.time()
    worst_recon, worst_part, worst_orth = 0.0, 0.0, 0.0
    for n_points in (128, 256, 1024):
        fam = build_cutoffs(n_points)
        covered = np.abs(fam.xi) <= 2.0 ** fam.nu_max
        worst_part = max(worst_part, float(np.max(np.abs(
            fam.phi.sum(axis=0)[covered] - 1.0))))
        for w in _corpus(n_points, 100, seed=1000 + n_points):
            blocks = decompose(w, fam)
            err = grid.norm(reconstruct(blocks) - w) / grid.norm(w)
            worst_recon = max(worst_recon, err)
            scale = grid.norm(w) ** 2
            for nu in range(len(blocks)):
                for mu in range(nu + 2, len(blocks)):
                    ip = abs(grid.inner(blocks.block(nu), blocks.block(mu)))
                    worst_orth = max(worst_orth, ip / scale)
    elapsed = time.time() - started
    ok = (worst_recon < 1e-12 and worst_part < 1e-13 and worst_orth < 1e-13
          and elapsed < 10.0)
    _verdict("criterion 1: dyadic exactness", ok,
             f"recon {worst_recon:.2e}, partition {worst_part:.2e}, "
             f"orth {worst_orth:.2e}, {elapsed:.1f}s")


def test_criterion_2_bernstein_brackets():
    violations = 0
    checked = 0
    for n_points in (128, 256, 1024):
        fam = build_cutoffs(n_points)
        for w in _corpus(n_points, 100, seed=2000 + n_points):
            blocks = decompose(w, fam)
            for nu in range(1, len(blocks)):
                if blocks.block_norm(nu) == 0.0:
                    continue
                checked += 1
                ratio = bernstein_ratio(blocks, nu)
                if not 2.0 ** (nu - 1) <= ratio <= 2.0 ** (nu + 1):
                    violations += 1
    worst_pure = 0.0
    fam = build_cutoffs(256)
    for nu in (1, 2, 3, 4, 5):
        w = grid.from_callable(lambda x, f=2 ** nu: np.exp(1j * f * x), 256)
        ratio = bernstein_ratio(decompose(w, fam), nu)
        worst_pure = max(worst_pure, abs(ratio - 2.0 ** nu) / 2.0 ** nu)
    ok = violations == 0 and worst_pure < 1e-12
    _verdict("criterion 2: Bernstein brackets", ok,
             f"{checked} blocks, {violations} violations, "
             f"pure-mode dev {worst_pure:.2e}")


def _near_diagonal_sup(coef_fn, n_points, nu_max):
    fam = build_cutoffs(n_points, nu_max=nu_max)
    coef = coef_fn(grid.grid_points(n_points))
    best = 0.0
    for nu in range(nu_max + 1):
        for mu in range(max(0, nu - 2), min(nu_max + 1, nu + 3)):
            best = max(best, 2.0 ** nu
                       * dense_norm(coef.astype(complex), nu, mu, fam))
    return best


def test_criterion_3_near_diagonal_stability():
    started = time.time()
    beta = lambda x: 1.0 + 0.5 * np.sin(x)
    sup_256 = _near_diagonal_sup(beta, 256, 6)
    sup_512 = _near_diagonal_sup(beta, 512, 6)
    sup_1024 = _near_diagonal_sup(beta, 1024, 8)
    grid_change = abs(sup_512 - sup_256) / sup_256
    band_change = abs(sup_1024 - sup_512) / sup_512
    elapsed = time.time() - started
    ok = grid_change < 0.10 and band_change < 0.10 and elapsed < 120.0
    _verdict("criterion 3: near-diagonal constant stable", ok,
             f"N-doubling {100 * grid_change:.2f}%, bands 6->8 "
             f"{100 * band_change:.2f}%, {elapsed:.0f}s")


def test_criterion_4_far_decay_and_method_agreement():
    n_points = 512
    fam = build_cutoffs(n_points)
    x = grid.grid_points(n_points)
    r = 0.75
    coef = (1.0 + 0.25 * (1 - r ** 2)
            / (1 - 2 * r * np.cos(x) + r ** 2)).astype(complex)
    n = fam.nu_max + 1
    norms = np.zeros((n, n))
    for nu in range(n):
        for mu in range(n):
            norms[nu, mu] = dense_norm(coef, nu, mu, fam)
    s = CommutatorScan(0.0, norms, np.zeros_like(norms), "dense-svd", 1e-8,
                       fam.nu_max, n_points, fam.period)
    report = verify_decay(s)
    worst_rel = 0.0
    for nu in range(n):
        for mu in range(n):
            if norms[nu, mu] > 1e-8:
                p = power_norm(coef, nu, mu, fam, tol=1e-10)
                worst_rel = max(worst_rel,
                                abs(p - norms[nu, mu]) / norms[nu, mu])
    ok = (report.far_slope is not None and report.far_slope <= -4.0
          and worst_rel < 1e-6)
    _verdict("criterion 4: far-regime decay", ok,
             f"slope {report.far_slope:.2f} over {report.far_points} entries, "
             f"dense/power rel diff {worst_rel:.2e}")


def test_criterion_5_weight_bounds():
    cs = builtin_family("monomial", k=2, gamma=0.0)
    h = np.array([decay_weight(nu, 1.0, cs) for nu in range(1, 14)])
    slopes = h / np.arange(1, 14)
    slope_spread = float(slopes.max() / slopes.min())
    gaps = np.diff(h)            # gaps[i] = h(i+2) - h(i+1)
    tail = gaps[4:]              # nu = 6..12
    gap_spread = float(tail.max() / tail.min()) - 1.0
    eps = block_epsilon(2, 10)
    mid, _ = quad(lambda s: abs(cs.alpha_prime(s)) / (cs.alpha(s) + eps),
                  0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=400)
    log_err = abs(mid - np.log(1025.0))
    ok = slope_spread < 3.0 and gap_spread < 0.10 and log_err < 1e-8
    _verdict("criterion 5: weight growth bounds", ok,
             f"h/nu spread {slope_spread:.2f}, gap variation "
             f"{100 * gap_spread:.1f}%, log term err {log_err:.1e}")


def _config_violation(cfg_name, dt=None):
    cfg = read_config(os.path.join(CONFIG_DIR, cfg_name))
    cs = builtin_family(cfg.family, k=cfg.k, gamma=cfg.gamma, C0=cfg.C0,
                        T=cfg.T)
    exact = cosine_mode()
    u0, u1 = exact.initial_data(cfg.N)
    f = manufactured_rhs(cs, exact)
    dt = cfg.dt if dt is None else dt
    steps = int(round(cfg.T / dt))
    traj = solve_cauchy(cs, u0, u1, f=f, M=steps, save_every=cfg.save_every,
                        check=False)
    fam = build_cutoffs(cfg.N)
    s = commutator_scan(cs, scan_time(cs), fam)
    constants = calibrate_constants(cs, fam, s)
    ledger = build_ledger(traj, fam, cs, constants)
    report = verify_energy_inequality(traj, fam, cs, ledger, budget=1e-4)
    return report


def test_criterion_6_integrated_evolution_inequality():
    details = []
    ok = True
    for name in ("nondegenerate.cfg", "k2-gamma0.cfg", "k4-gamma0.3.cfg"):
        started = time.time()
        report = _config_violation(name)
        elapsed = time.time() - started
        ok = ok and report.max_violation <= 1e-4 and elapsed < 300.0
        details.append(f"{name.split('.')[0]} {report.max_violation:.2e} "
                       f"{elapsed:.0f}s")
    halved = _config_violation("k2-gamma0.cfg", dt=5e-5)
    base = _config_violation("k2-gamma0.cfg")
    # quadratic in dt; a vanishing violation passes outright
    ok = ok and halved.max_violation <= max(base.max_violation / 4.0, 1e-12)
    details.append(f"halved {halved.max_violation:.2e}")
    _verdict("criterion 6: integrated evolution inequality", ok,
             ", ".join(details))


def test_criterion_6_negative_control_random_k2():
    # random k2 data (N = 128, dt = 1e-3, T = 1): the calibrated constants
    # pass, and sigma = Ctilde = 0 on the same trajectory must fail
    cfg = dataclasses.replace(
        read_config(os.path.join(CONFIG_DIR, "k2-gamma0.cfg")),
        data="random", dt=1e-3, save_every=1)
    cs = coefficient_set(cfg)
    u0, u1, f = initial_data(cfg, cs)
    traj = solve_cauchy(cs, u0, u1, f=f, M=int(round(cfg.T / cfg.dt)),
                        check=False)
    fam = build_cutoffs(cfg.N)
    constants = calibrate_constants(cs, fam,
                                    commutator_scan(cs, scan_time(cs), fam))
    reports = [verify_energy_inequality(traj, fam, cs,
                                        build_ledger(traj, fam, cs, c))
               for c in (constants, dataclasses.replace(constants, sigma=0.0,
                                                        Ctilde=0.0))]
    ok = (reports[0].passed and not reports[1].passed
          and reports[1].max_violation > reports[1].budget)
    _verdict("criterion 6 negative control: zeroed constants fail", ok,
             f"calibrated {reports[0].max_violation:.2e}, "
             f"zeroed {reports[1].max_violation:.2e}")


def test_criterion_7_loss_of_derivatives():
    cs = builtin_family("monomial", k=2, gamma=0.0)
    rep = estimate_loss(cs, 0.0, DELTAS, grid_sizes=(128, 256, 512), seed=0)
    stable_band = None
    if rep.found:
        j = list(DELTAS).index(rep.delta_star)
        vals = [rep.ratios_by_n[n][j] for n in (128, 256, 512)]
        stable_band = max(vals) / min(vals)
    csn = builtin_family("nondegenerate", k=1)
    repn = estimate_loss(csn, 0.0, DELTAS, grid_sizes=(128, 256, 512), seed=0)
    ok = (rep.found and np.isfinite(rep.delta_star) and stable_band <= 2.0
          and repn.found and repn.delta_star == DELTAS[0])
    _verdict("criterion 7: loss-of-derivatives estimate", ok,
             f"k2 delta*={rep.delta_star} (C={rep.C_m:.2f}, "
             f"band {stable_band:.2f}), nondegenerate delta*={repn.delta_star}")


def test_criterion_8_condition_truth_table():
    table = [(2, 0.0, True), (4, 0.3, True), (4, 0.1, False),
             (10 ** 6, 0.5, True)]
    order_ok = all(check_order_condition(k, g).verdict is v
                   for k, g, v in table)
    flat_ok = True
    for k in range(1, 9):
        cs = builtin_family("flat", k=k)
        flat_ok = flat_ok and not check_finite_degeneration(cs).verdict
    ok = order_ok and flat_ok
    _verdict("criterion 8: condition checker truth table", ok,
             f"order table {'ok' if order_ok else 'wrong'}, flat family "
             f"{'rejected for all k<=8' if flat_ok else 'not rejected'}")


def test_criterion_9_solver_sanity():
    cs = builtin_family("monomial", k=2, gamma=0.0)
    exact = cosine_mode()
    u0, u1 = exact.initial_data(128)
    f = manufactured_rhs(cs, exact)
    x = u0.x
    traj = solve_cauchy(cs, u0, u1, f=f, M=10000, save_every=500, check=False)
    max_err = max(
        grid.norm(GridFunction(traj.u[i] - exact.u(float(traj.times[i]), x)))
        for i in range(traj.n_saved))
    # temporal order measured where the error is above roundoff
    wiggly = SpaceTimeFunction(
        u=lambda t, xx: np.cos(3 * t) * np.cos(xx),
        ut=lambda t, xx: -3 * np.sin(3 * t) * np.cos(xx),
        utt=lambda t, xx: -9 * np.cos(3 * t) * np.cos(xx))
    fw = manufactured_rhs(cs, wiggly)
    errs = []
    for steps in (125, 250, 500):
        t2 = solve_cauchy(cs, u0, u1, f=fw, M=steps, save_every=steps // 5,
                          check=False)
        errs.append(max(
            grid.norm(GridFunction(t2.u[i]
                                   - wiggly.u(float(t2.times[i]), x)))
            for i in range(t2.n_saved)))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = max_err < 1e-6 and all(12.0 <= r <= 20.0 for r in ratios)
    _verdict("criterion 9: solver sanity", ok,
             f"max err {max_err:.2e}, halving ratios "
             + ", ".join(f"{r:.1f}" for r in ratios))
