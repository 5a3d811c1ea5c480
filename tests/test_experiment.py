import dataclasses
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from lpwave import experiment, grid
from lpwave.coefficients import run_all_checks
from lpwave.experiment import (ConfigError, parse_config, read_config,
                               write_config)


TINY = """
family = monomial
k = 2
gamma = 0.0
N = 64
dt = 0.002
T = 0.5
save_every = 5
delta_grid = 0.2,0.5,1.0
"""


def test_parse_defaults_and_overrides():
    cfg = parse_config(TINY)
    assert cfg.family == "monomial"
    assert cfg.N == 64
    assert cfg.dt == 0.002
    assert cfg.delta_grid == (0.2, 0.5, 1.0)
    assert cfg.C0 == 1.0          # default untouched


def test_parse_comments_and_blank_lines():
    cfg = parse_config("# header\n\nk = 3   # inline\ngamma = 0.5\n")
    assert cfg.k == 3 and cfg.gamma == 0.5


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("flux_capacitor = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("k = 2\nk = 3\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config("just some words\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config("k = two\n")


def test_validation_ranges():
    with pytest.raises(ConfigError):
        parse_config("N = 100\n")          # not a power of two
    with pytest.raises(ConfigError):
        parse_config("dt = -0.1\n")
    with pytest.raises(ConfigError):
        parse_config("data = exotic\n")
    with pytest.raises(ConfigError):
        parse_config("k = 0\n")
    with pytest.raises(ConfigError):
        parse_config("seed = -1\n")        # default_rng refuses it later
    with pytest.raises(ConfigError):
        parse_config("delta_grid = 3.0,0.1,0.5\n")   # delta* is the smallest
    with pytest.raises(ConfigError):
        parse_config("delta_grid = 0.1,0.5,0.5\n")
    with pytest.raises(ConfigError):
        parse_config("delta_grid =\n")
    with pytest.raises(ConfigError):
        parse_config("data = zero\n")       # manufactured | random
    with pytest.raises(ConfigError):
        parse_config("output_dir =\n")      # would write into the cwd


def test_config_roundtrip(tmp_path):
    cfg = parse_config(TINY)
    path = tmp_path / "round.cfg"
    write_config(cfg, path)
    again = read_config(path)
    assert again == cfg


def test_shipped_configs_parse():
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("k2-gamma0.cfg", "k4-gamma0.3.cfg", "nondegenerate.cfg"):
        cfg = read_config(os.path.join(here, name))
        assert cfg.N == 128 and cfg.dt == 1e-4


def test_check_conditions_pass_and_fail(tmp_path):
    good = parse_config(TINY)
    code, reports = experiment.run_check_conditions(good, tmp_path / "a")
    assert code == 0
    assert all(r["verdict"] for r in reports)
    assert (tmp_path / "a" / "conditions.json").exists()

    bad = dataclasses.replace(good, k=4, gamma=0.1)
    code, reports = experiment.run_check_conditions(bad)
    assert code == 1
    failing = [r for r in reports if not r["verdict"]]
    assert [r["condition_id"] for r in failing] == ["order"]
    assert abs(failing[0]["margin"] + 0.15) < 1e-12

    flat = dataclasses.replace(good, family="flat")
    code, reports = experiment.run_check_conditions(flat)
    assert code == 1
    ids = [r["condition_id"] for r in reports if not r["verdict"]]
    assert "finite_degeneration" in ids


def test_run_decompose(tmp_path):
    cfg = parse_config(TINY)
    summary = experiment.run_decompose(cfg, tmp_path / "dec")
    assert summary["reconstruction_error"] < 1e-12
    assert (tmp_path / "dec" / "block_0.csv").exists()
    assert (tmp_path / "dec" / "cutoffs.csv").exists()


def test_run_weights(tmp_path):
    cfg = parse_config(TINY)
    table = experiment.run_weights(cfg, tmp_path / "w")
    assert np.all(table[:, 0] == 0.0)
    assert np.all(np.diff(table, axis=1) >= 0.0)
    assert (tmp_path / "w" / "weights.csv").exists()


def test_scan_time_picks_largest_oscillation():
    cs = experiment.coefficient_set(parse_config(TINY))
    t_star = experiment.scan_time(cs)
    assert abs(t_star - cs.T) < 1e-9   # sin(t) grows on [0, 0.5]


def test_full_pipeline_and_manifest(tmp_path):
    cfg = parse_config(TINY)
    out = tmp_path / "run"
    result = experiment.run_full_pipeline(cfg, out)
    assert result["exit_code"] == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"][-1] == "done"
    for rel, digest in manifest["files"].items():
        assert (out / rel).exists()
        assert experiment._hash_file(out / rel) == digest
    for name in ("energies.csv", "etot.csv", "constants.json", "verify.json",
                 "commutator_scan.csv", "lemma2_report.json", "loss.json",
                 "conditions.json", "plots.json"):
        assert (out / name).exists(), name
    # N = 64 has no coarser grid of 64 points or more: the loss search
    # refines to 128 instead of comparing the 64-point grid with itself
    loss = json.loads((out / "loss.json").read_text())
    assert set(loss["grid_sizes"]) == {64, 128}


def test_loss_json_lists_grid_sizes_in_ascending_order(tmp_path):
    # written sorted as numbers: sorted as strings, "128" came before "64"
    result = experiment.run_full_pipeline(parse_config(TINY), tmp_path)
    loss = json.loads((tmp_path / "loss.json").read_text())
    assert loss["grid_sizes"] == [64, 128]
    assert loss["ratios"] == [result["loss"].ratios_by_n[n].tolist()
                              for n in (64, 128)]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["loss"] == loss


def test_pipeline_determinism(tmp_path):
    cfg = parse_config(TINY)
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        experiment.run_full_pipeline(cfg, out)
        manifest = json.loads((out / "manifest.json").read_text())
        outs.append(manifest["files"])
    assert outs[0] == outs[1]   # bit-identical artifacts


def test_pipeline_halts_on_failed_conditions(tmp_path):
    cfg = dataclasses.replace(parse_config(TINY), family="flat")
    out = tmp_path / "halt"
    with pytest.raises(Exception):
        experiment.run_full_pipeline(cfg, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"][-1] == "FAILED"
    assert (out / "conditions.json").exists()   # partial output retained


def test_hypothesis_checks_run_once_per_run(tmp_path, monkeypatch):
    # the pipeline's check-conditions stage refuses failing checks, so its
    # solve does not check again; the solve command checks on its own grid
    calls = []

    def counted(cs, x=None):
        calls.append(x)
        return run_all_checks(cs, x)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "lpwave"
                and getattr(module, "run_all_checks", None) is run_all_checks):
            monkeypatch.setattr(module, "run_all_checks", counted)
    cfg = parse_config(TINY)
    assert experiment.run_full_pipeline(cfg, tmp_path / "run")[
        "exit_code"] == 0
    assert calls == [None]
    calls.clear()
    experiment.run_solve(cfg, None)
    assert len(calls) == 1 and np.array_equal(calls[0], grid.grid_points(64))


def test_sweep_serial_and_parallel(tmp_path, monkeypatch):
    # save_every = 1 gives 251 states, two row chunks: with two CPUs the
    # forked sweep members fork their own trajectory writers, and the
    # files must hash as those of the one-CPU serial run
    files = {}
    for name, cpus in (("serial", 1), ("parallel", 2)):
        monkeypatch.setattr(grid, "usable_cpus", lambda cpus=cpus: cpus)
        cfg_dir = tmp_path / f"cfgs_{name}"
        os.makedirs(cfg_dir)
        paths = []
        for i, seed in enumerate((0, 1)):
            cfg = dataclasses.replace(parse_config(TINY), seed=seed,
                                      save_every=1)
            p = cfg_dir / f"c{i}.cfg"
            write_config(cfg, p)
            paths.append(str(p))
        results = experiment.run_sweep(paths, tmp_path / f"out_{name}")
        assert results == {"c0": 0, "c1": 0}
        files[name] = [
            json.loads((tmp_path / f"out_{name}" / c / "manifest.json")
                       .read_text())["files"] for c in ("c0", "c1")]
    assert len(files["serial"][0]) > 251
    assert files["parallel"] == files["serial"]


DYING_SWEEP = """
import os, signal, sys
from lpwave import experiment

solve = experiment.run_solve


def dies(cfg, out_dir, force=False):
    # once check-conditions has written, as an OOM kill would
    if os.path.basename(os.path.dirname(out_dir)) == "dies":
        os.kill(os.getpid(), signal.SIGKILL)
    return solve(cfg, out_dir, force=force)


experiment.run_solve = dies
print(experiment.run_sweep(sys.argv[1:3], sys.argv[3]))
"""


def test_sweep_survives_a_member_that_dies(tmp_path):
    # a member whose process is killed is reported as 1 and the other
    # member finishes: a process pool would wait for the lost task forever.
    # The killed member's partial output gets the manifest of a failed run
    paths = []
    for name in ("dies", "lives"):
        paths.append(str(tmp_path / f"{name}.cfg"))
        write_config(parse_config(TINY), paths[-1])
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", DYING_SWEEP, *paths,
                           str(tmp_path / "out")], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "{'dies': 1, 'lives': 0}"
    manifest = json.loads((tmp_path / "out" / "lives" / "manifest.json")
                          .read_text())
    assert manifest["stages"][-1] == "done"
    assert "energies.csv" in manifest["files"]
    manifest = json.loads((tmp_path / "out" / "dies" / "manifest.json")
                          .read_text())
    assert manifest["stages"] == ["FAILED"]
    assert manifest["signal"] == signal.SIGKILL
    assert list(manifest["files"]) == ["conditions.json"]
