"""Configuration-driven experiment runs with persisted, hashed outputs.

Configs are flat ``key = value`` text (diff-friendly, typed, unknown keys
rejected).  A full pipeline run chains: hypothesis checks -> solve ->
commutator scan -> constant calibration -> band energies and weights ->
integrated inequality check -> loss-of-derivatives search, writing CSV/
JSON artifacts plus a manifest with a content hash per file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import commutator, dyadic, energy, grid, solver
from .coefficients import (builtin_family, run_all_checks, scan_grids,
                           tensor_scan)
from .errors import EXIT_FAIL, ConditionError, ConfigurationError, classify


class ConfigError(ConfigurationError):
    """Malformed or out-of-range experiment configuration."""


_DEFAULT_DELTAS = tuple(round(0.1 * i, 10) for i in range(1, 31))


@dataclass(frozen=True)
class ExperimentConfig:
    family: str = "monomial"
    k: int = 2
    gamma: float = 0.0
    C0: float = 1.0
    T: float = 1.0
    N: int = 128
    dt: float = 1e-3
    m: float = 0.0
    delta_grid: tuple = _DEFAULT_DELTAS
    seed: int = 0
    output_dir: str = "out"
    data: str = "manufactured"   # manufactured | random
    save_every: int = 1

    def validate(self):
        for key in ("gamma", "C0", "T", "dt", "m", "delta_grid"):
            if not np.all(np.isfinite(getattr(self, key))):
                raise ConfigError(f"{key} must be finite")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ConfigError("N must be a power of two >= 8")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if not self.T > 0:
            raise ConfigError("T must be positive")
        if self.save_every < 1:
            raise ConfigError("save_every must be >= 1")
        ratio = self.T / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ConfigError(f"T/dt = {ratio!r} is not a whole number")
        if self.steps % self.save_every != 0:
            raise ConfigError("T/dt must be a multiple of save_every")
        if self.data not in ("manufactured", "random"):
            raise ConfigError(f"unknown data kind {self.data!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.output_dir:
            raise ConfigError("output_dir must not be empty")
        deltas = self.delta_grid
        if not deltas or deltas[0] <= 0 or any(
                a >= b for a, b in zip(deltas, deltas[1:])):
            raise ConfigError("delta grid must be non-empty, positive and "
                              "strictly increasing")
        return self

    @property
    def steps(self) -> int:
        """Number of solver steps, T/dt (a whole number once validated)."""
        return int(round(self.T / self.dt))


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _coerce(name, raw):
    f = _FIELDS[name]
    raw = raw.strip()
    if name == "delta_grid":
        return tuple(float(v) for v in raw.split(",") if v.strip())
    if f.type in ("int", int):
        return int(raw)
    if f.type in ("float", float):
        return float(raw)
    return raw


def parse_config(text) -> ExperimentConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")
    return ExperimentConfig(**values).validate()


def read_config(path) -> ExperimentConfig:
    """The config in the UTF-8 file ``path``; see :func:`grid.read_text`."""
    return parse_config(grid.read_text(path))


def write_config(cfg: ExperimentConfig, path):
    with open(path, "w") as fh:
        for f in dataclasses.fields(ExperimentConfig):
            v = getattr(cfg, f.name)
            if f.name == "delta_grid":
                v = ",".join(repr(float(d)) for d in v)
            fh.write(f"{f.name} = {v}\n")


def config_dict(cfg: ExperimentConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["delta_grid"] = list(d["delta_grid"])
    return d


# ---------------------------------------------------------------------------
# pieces shared by the runs


def coefficient_set(cfg: ExperimentConfig):
    return builtin_family(cfg.family, k=cfg.k, gamma=cfg.gamma, C0=cfg.C0,
                          T=cfg.T)


def cutoff_family(cfg: ExperimentConfig):
    return dyadic.build_cutoffs(cfg.N)


def initial_data(cfg: ExperimentConfig, cs=None):
    """(u0, u1, exact solution or None) of the data kind; cs is unused."""
    if cfg.data == "manufactured":
        exact = solver.cosine_mode()
        return (*exact.initial_data(cfg.N), exact)
    rng = np.random.default_rng(cfg.seed)
    u0 = grid.random_band_limited(cfg.N, rng=rng, decay=1.0)
    u1 = grid.random_band_limited(cfg.N, rng=rng, decay=0.5)
    return u0, u1, None


def scan_time(cs):
    """Time at which beta oscillates most in x (largest commutators), on
    the hypothesis checks' (t, x) grid."""
    t, x = scan_grids(cs, None)
    vals = tensor_scan(cs.beta, t, x)
    return float(t[np.argmax(np.max(vals, axis=1) - np.min(vals, axis=1))])


def _hash_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, cfg, stages, extra=None):
    files = {}
    for root, _, names in os.walk(out_dir):
        for name in sorted(names):
            if name == "manifest.json":
                continue
            full = os.path.join(root, name)
            rel = os.path.relpath(full, out_dir)
            files[rel] = _hash_file(full)
    manifest = {"config": config_dict(cfg), "stages": stages, "files": files}
    if extra:
        manifest.update(extra)
    grid.write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _write_lemma2_report(s, out_dir):
    """lemma2_report.json: the decay check of a scan's beta commutators."""
    report = commutator.verify_decay(s)
    grid.write_json(os.path.join(out_dir, "lemma2_report.json"),
                    report.to_dict())
    return report


# ---------------------------------------------------------------------------
# runs


def _refuse_failed(reports):
    """Raise the ConditionError naming each failed check of ``reports``
    (ConditionReport dicts)."""
    failed = [r["condition_id"] for r in reports if not r["verdict"]]
    if failed:
        raise ConditionError("hypothesis checks failed: " + ", ".join(failed))


def run_check_conditions(cfg: ExperimentConfig, out_dir=None):
    """All five hypothesis checks; returns (exit_code, report list)."""
    cs = coefficient_set(cfg)
    reports = run_all_checks(cs)
    payload = [r.to_dict() for r in reports]
    if out_dir:
        grid.make_dirs(out_dir)
        grid.write_json(os.path.join(out_dir, "conditions.json"), payload)
    code = 0 if all(r.verdict for r in reports) else 1
    return code, payload


def run_solve(cfg: ExperimentConfig, out_dir, force=False):
    """Solve the config's Cauchy problem, refusing coefficients that fail
    a hypothesis check on the solve's grid unless ``force``."""
    cs = coefficient_set(cfg)
    u0, u1, exact = initial_data(cfg)
    if not force:
        _refuse_failed([r.to_dict() for r in run_all_checks(cs, x=u0.x)])
    return solver.solve_cauchy(cs, u0, u1, exact=exact, M=cfg.steps,
                               save_every=cfg.save_every, out_dir=out_dir)


def run_decompose(cfg: ExperimentConfig, out_dir, source_csv=None):
    """Decompose a grid function (from CSV or seeded random) into bands."""
    fam = cutoff_family(cfg)
    if source_csv:
        w = grid.from_csv(source_csv, cfg.N)
    else:
        w = grid.random_band_limited(cfg.N, rng=cfg.seed)
    blocks = dyadic.decompose(w, fam)
    grid.make_dirs(out_dir)
    grid.to_csv(w, os.path.join(out_dir, "source.csv"))
    dyadic.cutoffs_to_csv(fam, os.path.join(out_dir, "cutoffs.csv"))
    for nu in range(len(blocks)):
        grid.to_csv(blocks.block(nu), os.path.join(out_dir, f"block_{nu}.csv"))
    err = grid.norm(dyadic.reconstruct(blocks) - w) / max(grid.norm(w), 1e-300)
    summary = {"nu_max": fam.nu_max, "source_hash": blocks.source_hash,
               "reconstruction_error": err,
               "block_norms": blocks.block_norms().tolist()}
    grid.write_json(os.path.join(out_dir, "decompose.json"), summary)
    return summary


def run_commutator_scan(cfg: ExperimentConfig, out_dir, t=None):
    cs = coefficient_set(cfg)
    if t is None:
        t = scan_time(cs)
    elif not 0.0 <= t <= cfg.T:
        raise ConfigError(f"scan time t = {t!r} is not in [0, T]")
    s = commutator.scan(cs, float(t), cutoff_family(cfg))
    grid.make_dirs(out_dir)
    commutator.scan_to_csv(s, os.path.join(out_dir, "commutator_scan.csv"))
    return s, _write_lemma2_report(s, out_dir)


def run_weights(cfg: ExperimentConfig, out_dir):
    """Weight table h(nu, t) on a coarse time grid, for plotting."""
    cs = coefficient_set(cfg)
    fam = cutoff_family(cfg)
    times = np.linspace(0.0, cfg.T, 65)
    table = energy.weight_table(fam.nu_max, times, cs)
    grid.make_dirs(out_dir)
    energy.band_tables_to_csv(os.path.join(out_dir, "weights.csv"), times,
                              h=table)
    return table


def run_verify_energy(cfg: ExperimentConfig, traj, out_dir):
    """Scan, calibrate, build the ledger, and check the integrated bound
    for the coefficients the trajectory was solved with.

    A trajectory saved on another grid than the config's (N, T/dt steps,
    save_every) is refused with a ConfigurationError naming each key, and
    so is one that does not start from the config's :func:`initial_data`.
    The config's exact solution, whose L[exact] is the check's source, is
    attached to the trajectory; random data have no source.
    """
    save_every = round(traj.dt / traj.solver_dt)
    saved = {"N": traj.n_points, "steps": (traj.n_saved - 1) * save_every,
             "save_every": save_every}
    given = {"N": cfg.N, "steps": cfg.steps, "save_every": cfg.save_every}
    differ = [f"{key} saved {saved[key]!r}, given {given[key]!r}"
              for key in saved if saved[key] != given[key]]
    if differ:
        raise ConfigurationError("trajectory was saved on another grid: "
                                 + "; ".join(differ))
    u0, u1, exact = initial_data(cfg)
    if not np.allclose([traj.u[0], traj.ut[0]], [u0.values, u1.values]):
        raise ConfigurationError("the trajectory does not start from " + (
            "the initial data of the config's manufactured solution, whose "
            "forcing the check uses" if exact is not None
            else f"the config's random initial data, of seed {cfg.seed}"))
    traj = dataclasses.replace(traj, exact=exact)
    cs = traj.coeffs
    fam = cutoff_family(cfg)
    s = commutator.scan(cs, scan_time(cs), fam)
    constants = energy.calibrate_constants(cs, fam, s)
    ledger = energy.build_ledger(traj, fam, cs, constants)
    report = energy.verify_energy_inequality(traj, fam, cs, ledger)
    grid.make_dirs(out_dir)
    commutator.scan_to_csv(s, os.path.join(out_dir, "commutator_scan.csv"))
    energy.ledger_to_csv(ledger, os.path.join(out_dir, "energies.csv"))
    energy.inequality_to_csv(report, os.path.join(out_dir, "etot.csv"))
    grid.write_json(os.path.join(out_dir, "constants.json"),
                    constants.to_dict())
    grid.write_json(os.path.join(out_dir, "verify.json"), report.to_dict())
    return s, constants, ledger, report


def run_full_pipeline(cfg: ExperimentConfig, out_dir, force=False):
    """check -> solve -> scan -> calibrate -> energies -> verify -> loss.

    Raises on the first failing stage; artifacts written so far stay in
    place and the manifest names the failed stage.
    """
    cutoff_family(cfg)      # these refuse a config before anything is written
    coefficient_set(cfg)
    grid.make_dirs(out_dir)
    stages = []
    try:
        stages.append("check-conditions")
        _, reports = run_check_conditions(cfg, out_dir)
        if not force:
            _refuse_failed(reports)
        stages.append("solve")      # checked by the stage above
        traj = run_solve(cfg, os.path.join(out_dir, "trajectory"), force=True)
        stages.append("verify-energy")
        s, constants, ledger, ineq = run_verify_energy(cfg, traj, out_dir)
        _write_lemma2_report(s, out_dir)
        stages.append("loss-estimate")
        # two distinct grids: N/2 and N, or 64 and 128 when N/2 < 64
        sizes = (max(64, cfg.N // 2), max(128, cfg.N))
        loss = energy.estimate_loss(traj.coeffs, cfg.m, cfg.delta_grid,
                                    grid_sizes=sizes, seed=cfg.seed)
        grid.write_json(os.path.join(out_dir, "loss.json"), loss.to_dict())
        stages.append("done")
        # renderer-agnostic plot descriptions referencing the CSVs
        grid.write_json(os.path.join(out_dir, "plots.json"), {"plots": [
            {"title": "weighted band energies", "xlabel": "t",
             "ylabel": "E", "series": [{"csv": "energies.csv", "x": "t",
                                        "y": "E", "group": "nu",
                                        "logy": True}]},
            {"title": "total energy vs source integral", "xlabel": "t",
             "ylabel": "value", "series": [
                 {"csv": "etot.csv", "x": "t", "y": "Etot"},
                 {"csv": "etot.csv", "x": "t", "y": "rhs_integral"}]},
            {"title": "commutator norms", "xlabel": "nu", "ylabel": "norm",
             "series": [{"csv": "commutator_scan.csv", "x": "nu",
                         "y": "norm_beta", "group": "mu", "logy": True}]},
        ]})
        manifest = write_manifest(out_dir, cfg, stages, extra={
            "verify": ineq.to_dict(), "loss": loss.to_dict()})
        return {"manifest": manifest, "inequality": ineq, "loss": loss,
                "exit_code": 0 if ineq.passed else 1}
    except Exception:
        write_manifest(out_dir, cfg, stages + ["FAILED"])
        raise


def _sweep_member(path, name, out_root, force):
    """One sweep member's exit code; never raises."""
    try:
        return run_full_pipeline(read_config(path),
                                 os.path.join(out_root, name),
                                 force=force)["exit_code"]
    except Exception as exc:          # one member must not stop the others
        code, label = classify(exc)
        print(f"{name}: {label}: {exc}", file=sys.stderr)
        return code


def run_sweep(config_paths, out_root, force=False):
    """Independent pipeline runs, each named, and writing under
    ``out_root``, by its config's file name; returns each name's exit code.

    Each member runs in a forked child of its own, one after another, and
    the child's exit status is the member's code: a member killed by a
    signal is 1, its output directory gets a manifest whose stages end
    in FAILED if it has none (as a raising stage's do), and the others
    run on.  Without ``os.fork`` the members run in this process."""
    names = [os.path.splitext(os.path.basename(p))[0] for p in config_paths]
    same = sorted({name for name in names if names.count(name) > 1})
    if same:
        raise ConfigError(f"sweep members share a name: {', '.join(same)}")
    grid.make_dirs(out_root)
    codes = {}
    for path, name in zip(config_paths, names):
        if not hasattr(os, "fork"):
            codes[name] = _sweep_member(path, name, out_root, force)
            continue
        sys.stdout.flush()              # else the child writes them again
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:            # a member's child ends only through os._exit
            code = EXIT_FAIL
            try:
                code = _sweep_member(path, name, out_root, force)
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        codes[name] = (os.WEXITSTATUS(status) if os.WIFEXITED(status)
                       else EXIT_FAIL)
        out_dir = os.path.join(out_root, name)
        if os.WIFSIGNALED(status) and os.path.isdir(out_dir) and not \
                os.path.exists(os.path.join(out_dir, "manifest.json")):
            write_manifest(out_dir, read_config(path), ["FAILED"],
                           extra={"signal": os.WTERMSIG(status)})
    return codes
