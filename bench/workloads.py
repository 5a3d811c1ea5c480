"""The four benchmark workloads: preparation, measured operations and checks.

Each workload prepares its inputs from the seed, runs a short warm-up on
the same code paths, and then gives the operations of one round.  Output
checks run after the measured rounds, outside the timed region.  Every
check compares against a computation made apart from the program, or
against a property the method must have, and each is also fed a
deliberately wrong copy of the output, which it must reject.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random

import numpy as np

from lpwave import cli, commutator, dyadic, energy, experiment, solver

K2 = os.path.join("configs", "k2-gamma0.cfg")
K4 = os.path.join("configs", "k4-gamma0.3.cfg")


def verdict(name, check, output, wrong_output):
    """Run a check on the real output and on its deliberately wrong copy."""
    return {"check": name, "ok": bool(check(output)),
            "control_rejected": not check(wrong_output)}


def sha256_file(path):
    # recomputed here, apart from experiment._hash_file, so the check is independent
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_digests(out_dir):
    """sha256 of every file under out_dir except the manifest itself."""
    digests = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            full = os.path.join(root, name)
            rel = os.path.relpath(full, out_dir)
            if rel != "manifest.json":
                digests[rel] = sha256_file(full)
    return digests


def read_states(traj_dir):
    """Saved times, grid points, u and u_t, parsed from the CSV snapshots."""
    with open(os.path.join(traj_dir, "trajectory.json")) as fh:
        times = np.array(json.load(fh)["times"])
    names = sorted(n for n in os.listdir(traj_dir) if n.startswith("state_"))
    rows = np.stack([np.loadtxt(os.path.join(traj_dir, n), delimiter=",",
                                skiprows=1) for n in names])
    return {"times": times, "x": rows[0, :, 1],
            "u": rows[:, :, 2] + 1j * rows[:, :, 3],
            "ut": rows[:, :, 4] + 1j * rows[:, :, 5]}


def _quiet(fn):
    """Run fn with the program's progress lines kept off stdout."""
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return fn()
    return run


class PipelineK4:
    """experiment.run_full_pipeline on the shipped k4-gamma0.3 config."""

    name = "pipeline-k4"
    STATE_TOL = 1e-12     # observed: 3e-15 on u, 6e-14 on u_t

    def prepare(self, root, seed, work_dir):
        cfg = experiment.read_config(os.path.join(root, K4))
        cfg = dataclasses.replace(cfg, seed=seed)
        # built for the set-up time only: run_full_pipeline builds its own
        cs = experiment.coefficient_set(cfg)
        experiment.cutoff_family(cfg)
        experiment.initial_data(cfg, cs)
        return {"cfg": cfg, "work_dir": work_dir}

    def warm_up(self, ctx):
        cfg = dataclasses.replace(ctx["cfg"], dt=2.5e-3)
        experiment.run_full_pipeline(cfg, os.path.join(ctx["work_dir"], "warm"))

    def operations(self, ctx, out_dir):
        return [lambda: experiment.run_full_pipeline(ctx["cfg"], out_dir)]

    def collect(self, ctx, out_dir, results):
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        with open(os.path.join(out_dir, "conditions.json")) as fh:
            conditions = json.load(fh)
        return {"out_dir": out_dir, "files": manifest["files"],
                "digests": artifact_digests(out_dir),
                "conditions": conditions}

    def checks(self, ctx, records):
        states = read_states(os.path.join(records[-1]["out_dir"], "trajectory"))

        def states_exact(s):
            t, x = s["times"][:, None], s["x"][None, :]
            return (s["u"].shape[0] == 1001 and s["times"][-1] == 1.0
                    and np.max(np.abs(s["u"] - np.cos(t) * np.cos(x)))
                    <= self.STATE_TOL
                    and np.max(np.abs(s["ut"] + np.sin(t) * np.cos(x)))
                    <= self.STATE_TOL)

        wrong_states = dict(states, u=states["u"].copy())
        wrong_states["u"][500, 7] += 1e-9

        def hashes_match(recs):
            return all(r["digests"] == r["files"] and r["files"] for r in recs)

        last = records[-1]
        first_name = sorted(last["files"])[0]
        with open(os.path.join(last["out_dir"], first_name), "rb") as fh:
            flipped = bytearray(fh.read())
        flipped[0] ^= 1
        wrong_digests = dict(last["digests"])
        wrong_digests[first_name] = hashlib.sha256(flipped).hexdigest()
        wrong_records = records[:-1] + [dict(last, digests=wrong_digests)]

        def same_across_repeats(file_sets):
            return (len(file_sets) >= 2
                    and all(f == file_sets[0] for f in file_sets))

        file_sets = [r["files"] for r in records]
        wrong_sets = file_sets[:-1] + [dict(file_sets[-1])]
        wrong_sets[-1][first_name] = "0" * 64

        def all_conditions_pass(conds):
            ids = {"weak_hyperbolicity", "finite_degeneration", "levi",
                   "order", "ellipticity"}
            return ({c["condition_id"] for c in conds} == ids
                    and len(conds) == 5 and all(c["verdict"] for c in conds))

        conds = last["conditions"]
        wrong_conds = [dict(c) for c in conds]
        wrong_conds[2]["verdict"] = False
        return [
            verdict("states equal cos t cos x", states_exact, states,
                    wrong_states),
            verdict("artifact sha256 matches manifest", hashes_match, records,
                    wrong_records),
            verdict("artifact hashes equal across repeats",
                    same_across_repeats, file_sets, wrong_sets),
            verdict("five hypothesis checks pass", all_conditions_pass, conds,
                    wrong_conds),
        ]


def operator_matrix(q, phi, psi):
    """Matrix of w -> phi(D)(q psi(D) w) - q phi(D) psi(D) w, column by column."""
    what = np.fft.fft(np.eye(q.size, dtype=complex), axis=0)
    band = np.fft.ifft(psi[:, None] * what, axis=0)
    first = np.fft.ifft(phi[:, None] * np.fft.fft(q[:, None] * band, axis=0),
                        axis=0)
    second = q[:, None] * np.fft.ifft((phi * psi)[:, None] * what, axis=0)
    return first - second


class CommutatorFine:
    """Dense-SVD scan at N=512 and power-iteration scan at N=256, k4 coefficients."""

    name = "commutator-fine"
    N_DENSE, N_POWER = 512, 256
    N_PAIRS = 3
    DENSE_RTOL, POWER_RTOL = 1e-9, 1e-6
    AGREE_FLOOR = 1e-8

    def prepare(self, root, seed, work_dir):
        cfg = experiment.read_config(os.path.join(root, K4))
        cs = experiment.coefficient_set(cfg)
        t = experiment.scan_time(cs)
        fams = {n: dyadic.build_cutoffs(n) for n in (self.N_DENSE, self.N_POWER)}
        # the seed draws which (nu, mu) pairs the oracle checks; near-diagonal
        # pairs above band 0 have norms well above roundoff
        nu_max = fams[self.N_POWER].nu_max
        candidates = [(nu, mu) for nu in range(1, nu_max + 1)
                      for mu in range(nu_max + 1) if abs(nu - mu) <= 1]
        pairs = random.Random(seed).sample(candidates, self.N_PAIRS)
        return {"cfg": dataclasses.replace(cfg, N=self.N_DENSE), "cs": cs,
                "t": t, "fams": fams, "pairs": sorted(pairs),
                "work_dir": work_dir}

    def warm_up(self, ctx):
        cfg = dataclasses.replace(ctx["cfg"], N=self.N_POWER)
        experiment.run_commutator_scan(cfg, os.path.join(ctx["work_dir"], "warm"))
        nu, mu = ctx["pairs"][0]
        commutator.power_norm(self._coefs(ctx, self.N_POWER)["beta"], nu, mu,
                              ctx["fams"][self.N_POWER])

    def operations(self, ctx, out_dir):
        return [
            lambda: experiment.run_commutator_scan(ctx["cfg"], out_dir)[0],
            lambda: commutator.scan(ctx["cs"], ctx["t"], ctx["fams"][self.N_POWER],
                                    method="power-iteration"),
        ]

    def collect(self, ctx, out_dir, results):
        dense, power = results
        return {"dense": dense, "power": power}

    def _coefs(self, ctx, n):
        x = 2.0 * np.pi * np.arange(n) / n
        cs, t = ctx["cs"], ctx["t"]
        return {"beta": np.asarray(cs.beta(t, x), dtype=complex),
                "b": np.asarray(cs.b(t, x), dtype=complex)}

    def checks(self, ctx, records):
        dense, power = records[-1]["dense"], records[-1]["power"]
        tables = {self.N_DENSE: {"beta": dense.norms_beta, "b": dense.norms_b},
                  self.N_POWER: {"beta": power.norms_beta, "b": power.norms_b}}
        coefs = {n: self._coefs(ctx, n) for n in tables}
        oracle = {}
        for n, fam in ctx["fams"].items():
            for which, q in coefs[n].items():
                for nu, mu in ctx["pairs"]:
                    mat = operator_matrix(q, fam.phi[nu], fam.psi[mu])
                    oracle[n, which, nu, mu] = np.linalg.norm(mat, 2)
        rtol = {self.N_DENSE: self.DENSE_RTOL, self.N_POWER: self.POWER_RTOL}

        def equals_oracle(tabs):
            return all(abs(tabs[n][which][nu, mu] - ref) <= rtol[n] * ref
                       for (n, which, nu, mu), ref in oracle.items())

        def copy_tables(tabs):
            return {n: {w: v.copy() for w, v in by.items()}
                    for n, by in tabs.items()}

        wrong_oracle = copy_tables(tables)
        nu, mu = ctx["pairs"][0]
        wrong_oracle[self.N_DENSE]["beta"][nu, mu] *= 1.001

        def within_bound(tabs):
            return all(np.all(tabs[n][w] <= 2.0 * np.max(np.abs(q))
                              * (1.0 + 1e-12))
                       for n in tabs for w, q in coefs[n].items())

        wrong_bound = copy_tables(tables)
        wrong_bound[self.N_POWER]["b"][0, 0] = \
            2.01 * np.max(np.abs(coefs[self.N_POWER]["b"]))

        ref = commutator.scan(ctx["cs"], ctx["t"], ctx["fams"][self.N_POWER])
        ref_tables = {"beta": ref.norms_beta, "b": ref.norms_b}

        def dense_power_agree(tabs):
            worst = 0.0
            for which, d in ref_tables.items():
                mask = d > self.AGREE_FLOOR
                rel = np.abs(tabs[self.N_POWER][which][mask] - d[mask]) / d[mask]
                worst = max(worst, float(np.max(rel)))
            return worst <= self.POWER_RTOL

        wrong_agree = copy_tables(tables)
        wrong_agree[self.N_POWER]["beta"][nu, mu] *= 1.0 + 1e-4
        return [
            verdict("norm equals top singular value of the operator matrix",
                    equals_oracle, tables, wrong_oracle),
            verdict("every norm at most 2 sup|q|", within_bound, tables,
                    wrong_bound),
            verdict("dense and power-iteration norms agree at N=256",
                    dense_power_agree, tables, wrong_agree),
        ]


class LossRefine:
    """energy.estimate_loss for the k2 family on grid sizes 512, 1024, 2048."""

    name = "loss-refine"
    SIZES = (512, 1024, 2048)

    def prepare(self, root, seed, work_dir):
        cfg = experiment.read_config(os.path.join(root, K2))
        cs = experiment.coefficient_set(cfg)
        # for the set-up time only: estimate_loss builds its own families
        # and draws its rough data from the seed
        for n in self.SIZES:
            dyadic.build_cutoffs(n)
        return {"cfg": cfg, "cs": cs, "seed": seed}

    def warm_up(self, ctx):
        cfg = ctx["cfg"]
        energy.estimate_loss(ctx["cs"], cfg.m, cfg.delta_grid,
                             grid_sizes=(128, 256), seed=ctx["seed"])

    def operations(self, ctx, out_dir):
        cfg = ctx["cfg"]
        return [lambda: energy.estimate_loss(ctx["cs"], cfg.m, cfg.delta_grid,
                                             grid_sizes=self.SIZES,
                                             seed=ctx["seed"])]

    def collect(self, ctx, out_dir, results):
        return {"report": results[0]}

    def checks(self, ctx, records):
        report = records[-1]["report"]
        deltas = np.asarray(report.deltas)

        def curves_monotone(curves):
            return (np.all(np.diff(deltas) > 0) and len(curves) == 3
                    and all(np.all(np.isfinite(c)) and np.all(c > 0)
                            and np.all(c[1:] <= c[:-1] * (1.0 + 1e-12))
                            for c in curves.values()))

        curves = report.ratios_by_n
        wrong_curves = dict(curves)
        wrong_curves[self.SIZES[0]] = curves[self.SIZES[0]][::-1]

        def recomputed_star(rep):
            stack = np.array([rep.ratios_by_n[n] for n in self.SIZES])
            star = None
            for j, d in enumerate(deltas):
                col = stack[:, j]
                if np.all(col > 0) and col.max() / col.min() <= rep.stability_factor:
                    star = float(d)
                    break
            return rep.delta_star == star

        if report.delta_star is None:
            wrong_star = float(deltas[0])
        else:
            j = int(np.flatnonzero(deltas == report.delta_star)[0])
            wrong_star = float(deltas[j + 1 if j + 1 < deltas.size else j - 1])
        wrong_report = dataclasses.replace(report, delta_star=wrong_star)
        return [
            verdict("ratio curves positive, finite, non-increasing in delta",
                    curves_monotone, curves, wrong_curves),
            verdict("delta_star recomputed from ratios_by_n", recomputed_star,
                    report, wrong_report),
        ]


class VerifyDisk:
    """CLI solve, then CLI verify-energy reading the trajectory back, k2 random data."""

    name = "verify-disk"

    def prepare(self, root, seed, work_dir):
        cfg = experiment.read_config(os.path.join(root, K2))
        cfg = dataclasses.replace(cfg, data="random", dt=1e-3, save_every=1,
                                  seed=seed)
        os.makedirs(work_dir, exist_ok=True)
        path = os.path.join(work_dir, "verify-disk.cfg")
        experiment.write_config(cfg, path)
        # built for the set-up time only: the CLI builds its own
        cs = experiment.coefficient_set(cfg)
        experiment.cutoff_family(cfg)
        experiment.initial_data(cfg, cs)
        return {"cfg": cfg, "path": path, "work_dir": work_dir}

    def _calls(self, path, out_dir):
        traj = os.path.join(out_dir, "traj")
        return [
            _quiet(lambda: cli.main(["solve", "--config", path, "--out", traj])),
            _quiet(lambda: cli.main(["verify-energy", "--config", path,
                                     "--traj", traj, "--out",
                                     os.path.join(out_dir, "verify")])),
        ]

    def warm_up(self, ctx):
        cfg = dataclasses.replace(ctx["cfg"], dt=1e-2)
        path = os.path.join(ctx["work_dir"], "warm.cfg")
        experiment.write_config(cfg, path)
        for call in self._calls(path, os.path.join(ctx["work_dir"], "warm")):
            call()

    def operations(self, ctx, out_dir):
        return self._calls(ctx["path"], out_dir)

    def collect(self, ctx, out_dir, results):
        traj = os.path.join(out_dir, "traj")
        with open(os.path.join(traj, "trajectory.json")) as fh:
            times = json.load(fh)["times"]
        n_files = sum(n.startswith("state_") for n in os.listdir(traj))
        return {"codes": list(results), "times": times, "n_files": n_files,
                "out_dir": out_dir}

    def checks(self, ctx, records):
        cfg = ctx["cfg"]
        last = records[-1]
        codes = [c for r in records for c in r["codes"]]

        def exit_zero(cs):
            return all(c == 0 for c in cs)

        expected = round(cfg.T / cfg.dt) // cfg.save_every + 1

        def layout(rec):
            return (len(rec["times"]) == rec["n_files"] == expected
                    and abs(rec["times"][-1] - cfg.T) <= 1e-12)

        wrong_layout = dict(last, times=last["times"][:-1],
                            n_files=last["n_files"] - 1)

        cs = experiment.coefficient_set(cfg)
        traj = solver.load_trajectory(os.path.join(last["out_dir"], "traj"), cs)
        fam = dyadic.build_cutoffs(traj.n_points)
        verify_dir = os.path.join(last["out_dir"], "verify")
        with open(os.path.join(verify_dir, "constants.json")) as fh:
            calibrated = energy.Constants(**json.load(fh))
        with open(os.path.join(verify_dir, "verify.json")) as fh:
            written = json.load(fh)
        zeroed = dataclasses.replace(calibrated, sigma=0.0, Ctilde=0.0)
        ledger = energy.build_ledger(traj, fam, cs, zeroed)
        unweighted = energy.verify_energy_inequality(traj, fam, cs,
                                                     ledger).to_dict()

        def passes(rep):
            return rep["passed"] and rep["max_violation"] <= rep["budget"]

        def fails(rep):
            return not rep["passed"] and rep["max_violation"] > rep["budget"]

        return [
            verdict("both CLI calls exit 0", exit_zero, codes, codes + [1]),
            verdict("trajectory holds M/save_every+1 states, last at T",
                    layout, last, wrong_layout),
            verdict("verification passes with calibrated constants", passes,
                    written, unweighted),
            verdict("verification fails with sigma = Ctilde = 0", fails,
                    unweighted, written),
        ]


WORKLOADS = {w.name: w for w in (PipelineK4(), CommutatorFine(), LossRefine(),
                                 VerifyDisk())}
