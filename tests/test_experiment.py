import dataclasses
import json
import os

import numpy as np
import pytest

from lpwave import experiment, grid
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


def test_nu_max_override_roundtrip(tmp_path):
    cfg = dataclasses.replace(parse_config(TINY), nu_max_override=3)
    path = tmp_path / "o.cfg"
    write_config(cfg, path)
    assert read_config(path).nu_max_override == 3


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


def test_sweep_serial_and_parallel(tmp_path, monkeypatch):
    # save_every = 1 gives 251 states, two row chunks: with two CPUs the
    # daemonic pool workers fork their own trajectory writers, and the
    # files must hash as those of the one-CPU serial run
    files = {}
    for name, jobs in (("serial", 1), ("parallel", 2)):
        monkeypatch.setattr(grid, "usable_cpus", lambda jobs=jobs: jobs)
        cfg_dir = tmp_path / f"cfgs_{name}"
        os.makedirs(cfg_dir)
        paths = []
        for i, seed in enumerate((0, 1)):
            cfg = dataclasses.replace(parse_config(TINY), seed=seed,
                                      save_every=1)
            p = cfg_dir / f"c{i}.cfg"
            write_config(cfg, p)
            paths.append(str(p))
        results = experiment.run_sweep(paths, tmp_path / f"out_{name}",
                                       jobs=jobs)
        assert results == {"c0": 0, "c1": 0}
        files[name] = [
            json.loads((tmp_path / f"out_{name}" / c / "manifest.json")
                       .read_text())["files"] for c in ("c0", "c1")]
    assert len(files["serial"][0]) > 251
    assert files["parallel"] == files["serial"]
