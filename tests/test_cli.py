import json

import pytest

from lpwave.cli import main

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


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def test_check_conditions_exit_codes(tmp_path, tiny_cfg, capsys):
    assert main(["check-conditions", "--config", tiny_cfg,
                 "--out", str(tmp_path / "ok")]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok ]") == 5

    bad = tmp_path / "bad.cfg"
    bad.write_text("family = monomial\nk = 4\ngamma = 0.1\n")
    assert main(["check-conditions", "--config", str(bad),
                 "--out", str(tmp_path / "bad")]) == 1
    assert "[FAIL] order" in capsys.readouterr().out

    flat = tmp_path / "flat.cfg"
    flat.write_text("family = flat\nk = 2\n")
    assert main(["check-conditions", "--config", str(flat),
                 "--out", str(tmp_path / "flat")]) == 1


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "junk.cfg"
    cfg.write_text("warp_drive = on\n")
    assert main(["check-conditions", "--config", str(cfg)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_config_is_config_error(tmp_path):
    assert main(["check-conditions", "--config",
                 str(tmp_path / "nope.cfg")]) == 2


def test_cfl_violation_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfl.cfg"
    cfg.write_text("family = monomial\nk = 2\nN = 64\ndt = 0.05\nT = 0.5\n")
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "t")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_step_not_dividing_T_is_config_error(tmp_path, capsys):
    # T/dt = 142.857...: the run would not end at T
    cfg = tmp_path / "dt.cfg"
    cfg.write_text("family = monomial\nk = 2\nN = 64\ndt = 0.007\n")
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "t")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_save_every_not_dividing_steps_is_config_error(tmp_path, tiny_cfg):
    # tiny runs 250 steps
    assert main(["solve", "--config", tiny_cfg, "--save-every", "3",
                 "--out", str(tmp_path / "t")]) == 2


def test_solve_writes_trajectory(tmp_path, tiny_cfg):
    out = tmp_path / "traj"
    assert main(["solve", "--config", tiny_cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "trajectory.json").read_text())
    assert manifest["N"] == 64
    assert (out / "state_000000.csv").exists()


def test_decompose_subcommand(tmp_path, tiny_cfg, capsys):
    out = tmp_path / "dec"
    assert main(["decompose", "--config", tiny_cfg, "--out", str(out)]) == 0
    assert "reconstruction error" in capsys.readouterr().out
    assert (out / "decompose.json").exists()


def test_commutator_scan_subcommand(tmp_path, tiny_cfg, capsys):
    out = tmp_path / "scan"
    assert main(["commutator-scan", "--config", tiny_cfg, "--out", str(out),
                 "--t", "0.5"]) == 0
    assert (out / "commutator_scan.csv").exists()
    assert (out / "lemma2_report.json").exists()


def test_weights_subcommand(tmp_path, tiny_cfg):
    out = tmp_path / "w"
    assert main(["weights", "--config", tiny_cfg, "--out", str(out)]) == 0
    assert (out / "weights.csv").exists()


def test_verify_energy_on_saved_trajectory(tmp_path, tiny_cfg):
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", tiny_cfg, "--out", str(traj_dir)]) == 0
    out = tmp_path / "verify"
    code = main(["verify-energy", "--config", tiny_cfg,
                 "--traj", str(traj_dir), "--out", str(out),
                 "--m", "0", "--delta-grid", "0.2,0.5"])
    assert code == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is True
    assert (out / "etot.csv").exists()


def test_pipeline_subcommand(tmp_path, tiny_cfg, capsys):
    out = tmp_path / "pipe"
    assert main(["pipeline", "--config", tiny_cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "inequality" in printed and "pass" in printed
    assert (out / "manifest.json").exists()


def test_sweep_subcommand(tmp_path, tiny_cfg, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", tiny_cfg, "--out", str(out), "--jobs", "2"]) == 0
    assert (out / "tiny" / "manifest.json").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_isolates_workers_and_keeps_exit_codes(tmp_path, tiny_cfg,
                                                     capsys, jobs):
    bad_k = tmp_path / "bad_k.cfg"
    bad_k.write_text("family = monomial\nk = 0\n")
    bad_dt = tmp_path / "bad_dt.cfg"
    bad_dt.write_text("family = monomial\nk = 2\nN = 64\ndt = 0.5\n")
    assert main(["sweep", tiny_cfg, str(bad_k), str(bad_dt),
                 "--out", str(tmp_path / "sweep"), "--jobs", jobs]) == 3
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["bad_dt: 3", "bad_k: 2", "tiny: 0"]
