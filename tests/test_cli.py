import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from lpwave import grid
from lpwave.cli import main

K4_CONFIG = (pathlib.Path(__file__).resolve().parent.parent / "configs"
             / "k4-gamma0.3.cfg")
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


def test_save_every_not_dividing_steps_is_config_error(tmp_path, capsys):
    # tiny runs 250 steps
    cfg = tmp_path / "save3.cfg"
    cfg.write_text(TINY.replace("save_every = 5", "save_every = 3"))
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "t")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["seed = -1", "delta_grid = 3.0,0.1,0.5",
                                  "delta_grid ="])
def test_bad_seed_or_delta_grid_is_config_error(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY.replace("delta_grid = 0.2,0.5,1.0", line))
    assert main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "p")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["T = inf", "dt = inf", "m = nan", "m = inf",
                                  "C0 = inf", "gamma = nan", "gamma = inf",
                                  "delta_grid = 0.1,nan"])
def test_non_finite_config_value_is_config_error(tmp_path, capsys, line):
    key = line.split(" ")[0]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(row for row in TINY.splitlines()
                             if not row.startswith(key + " ")) + f"\n{line}\n")
    assert main(["check-conditions", "--config", str(cfg),
                 "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {key} " in err, err


def test_loss_search_refuses_an_m_whose_ratios_are_not_finite(tmp_path,
                                                              capsys):
    # at m = 200 the weights 4^((m+1-delta)*nu) overflow and the rough data
    # underflow: every loss ratio was NaN and loss.json held bare NaN cells
    cfg = tmp_path / "m200.cfg"
    cfg.write_text(TINY + "m = 200\n")
    out = tmp_path / "p"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    assert "configuration error: m = 200.0 " in capsys.readouterr().err
    assert not (out / "loss.json").exists()

    def strict(token):
        raise ValueError(f"non-finite JSON value {token}")

    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=strict)
    assert manifest["stages"][-2:] == ["loss-estimate", "FAILED"]


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


def test_commutator_scan_refuses_a_time_outside_0_T(tmp_path, tiny_cfg,
                                                    capsys):
    # the tiny config has T = 0.5; both ends of [0, T] are scan times
    for t in ("nan", "inf", "-inf", "-0.5", "0.51"):
        assert main(["commutator-scan", "--config", tiny_cfg, f"--t={t}",
                     "--out", str(tmp_path / "bad")]) == 2, t
        assert "not in [0, T]" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    for t in ("0", "0.5"):
        assert main(["commutator-scan", "--config", tiny_cfg, "--t", t,
                     "--out", str(tmp_path / t)]) == 0, t


def test_weights_subcommand(tmp_path, tiny_cfg):
    out = tmp_path / "w"
    assert main(["weights", "--config", tiny_cfg, "--out", str(out)]) == 0
    assert (out / "weights.csv").exists()


def test_verify_energy_on_saved_trajectory(tmp_path, tiny_cfg):
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", tiny_cfg, "--out", str(traj_dir)]) == 0
    out = tmp_path / "verify"
    code = main(["verify-energy", "--config", tiny_cfg,
                 "--traj", str(traj_dir), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is True
    assert (out / "etot.csv").exists()


def test_verify_energy_refuses_other_coefficients(tmp_path, tiny_cfg,
                                                 capsys):
    # a k2 trajectory checked against the k4 equation is a config error
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", tiny_cfg, "--out", str(traj_dir)]) == 0
    k4 = tmp_path / "k4.cfg"
    k4.write_text(TINY.replace("k = 2", "k = 4").replace("gamma = 0.0",
                                                         "gamma = 0.3"))
    assert main(["verify-energy", "--config", str(k4), "--traj",
                 str(traj_dir), "--out", str(tmp_path / "v4")]) == 2
    err = capsys.readouterr().err
    assert "k saved 2, given 4" in err and "gamma saved 0.0, given 0.3" in err
    assert main(["verify-energy", "--config", tiny_cfg, "--traj",
                 str(traj_dir), "--out", str(tmp_path / "v2")]) == 0


def test_verify_energy_refuses_other_grid(tmp_path, tiny_cfg, capsys):
    # N, T/dt steps and save_every of the config must match the manifest
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", tiny_cfg, "--out", str(traj_dir)]) == 0
    for key, old, new, message in (
            ("N", "N = 64", "N = 32", "N saved 64, given 32"),
            ("dt", "dt = 0.002", "dt = 0.001", "steps saved 250, given 500"),
            ("save_every", "save_every = 5", "save_every = 10",
             "save_every saved 5, given 10")):
        other = tmp_path / f"{key}.cfg"
        other.write_text(TINY.replace(old, new))
        assert main(["verify-energy", "--config", str(other), "--traj",
                     str(traj_dir), "--out", str(tmp_path / key)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err, err
    assert main(["verify-energy", "--config", tiny_cfg, "--traj",
                 str(traj_dir), "--out", str(tmp_path / "same")]) == 0


def test_verify_energy_refuses_other_period(tmp_path, tiny_cfg, capsys):
    # the grid is the 2*pi torus: a manifest recorded at another period
    # is outside input, not a trajectory of this package
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", tiny_cfg, "--out", str(traj_dir)]) == 0
    path = traj_dir / "trajectory.json"
    manifest = json.loads(path.read_text())
    manifest["period"] = 3.141592653589793
    path.write_text(json.dumps(manifest))
    assert main(["verify-energy", "--config", tiny_cfg, "--traj",
                 str(traj_dir), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "period 3.14159" in err, err


def test_verify_energy_refuses_a_trajectory_with_no_times(tmp_path, tiny_cfg,
                                                          capsys):
    # no saved time, so no state to read: the grid check refuses it
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", tiny_cfg, "--out", str(traj_dir)]) == 0
    path = traj_dir / "trajectory.json"
    manifest = json.loads(path.read_text())
    manifest["times"] = []
    path.write_text(json.dumps(manifest))
    assert main(["verify-energy", "--config", tiny_cfg, "--traj",
                 str(traj_dir), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "saved on another grid" in err, err


@pytest.mark.parametrize("damage", ["short", "wide", "non-numeric"])
def test_verify_energy_refuses_a_malformed_state_file(tmp_path, tiny_cfg,
                                                      capsys, damage):
    # the states are parsed many files per call: a file with the wrong
    # shape must be refused by name, not shift the rows after it
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", tiny_cfg, "--out", str(traj_dir)]) == 0
    path = traj_dir / "state_000030.csv"
    lines = path.read_bytes().split(b"\r\n")[:-1]
    cells = lines[7].split(b",")
    if damage == "short":
        lines = lines[:40]
    elif damage == "wide":
        lines[7] = b",".join(cells + [b"0.0"])
    else:
        lines[7] = b",".join(cells[:2] + [b"abc"] + cells[3:])
    path.write_bytes(b"".join(line + b"\r\n" for line in lines))
    assert main(["verify-energy", "--config", tiny_cfg, "--traj",
                 str(traj_dir), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "state_000030.csv" in err, err


@pytest.mark.parametrize("damage", ["header", "index", "x"])
def test_verify_energy_refuses_a_state_file_off_the_grid_layout(
        tmp_path, tiny_cfg, capsys, damage):
    # u and ut swapped in the header, or one index or x in every row: the
    # numbers parse, but they are not the state the file's name promises
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", tiny_cfg, "--out", str(traj_dir)]) == 0
    path = traj_dir / "state_000030.csv"
    rows = [line.split(b",") for line in path.read_bytes().split(b"\r\n")]
    if damage == "header":
        rows[0] = b"index,x,re_ut,im_ut,re_u,im_u".split(b",")
    for cells in rows[1:-1]:
        if damage == "index":
            cells[0] = b"7"
        elif damage == "x":
            cells[1] = b"0.5"
    path.write_bytes(b"\r\n".join(map(b",".join, rows)))
    assert main(["verify-energy", "--config", tiny_cfg, "--traj",
                 str(traj_dir), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "state_000030.csv" in err, err


@pytest.mark.parametrize("command", ["solve", "pipeline"])
def test_empty_output_dir_is_config_error(tmp_path, capsys, monkeypatch,
                                          command):
    # no --out and an empty output_dir: nothing may land in the cwd
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(TINY + "output_dir =\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: output_dir must not be empty" in err, err
    assert not list(work.iterdir())


def test_pipeline_subcommand(tmp_path, tiny_cfg, capsys):
    out = tmp_path / "pipe"
    assert main(["pipeline", "--config", tiny_cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "inequality" in printed and "pass" in printed
    assert (out / "manifest.json").exists()


def test_pipeline_rerun_keeps_only_its_own_states(tmp_path, tiny_cfg,
                                                  capsys):
    # 51 states saved every 5 steps, then 11 every 25 into the same --out:
    # the first run's states 11 ... 50 must go, from the directory and the
    # manifest's hashes
    out = tmp_path / "pipe"
    assert main(["pipeline", "--config", tiny_cfg, "--out", str(out)]) == 0
    assert len(list((out / "trajectory").iterdir())) == 52
    sparse = tmp_path / "sparse.cfg"
    sparse.write_text(TINY.replace("save_every = 5", "save_every = 25"))
    assert main(["pipeline", "--config", str(sparse), "--out", str(out)]) == 0
    run_files = ["trajectory.json",
                 *(f"state_{i:06d}.csv" for i in range(11))]
    assert sorted(p.name for p in (out / "trajectory").iterdir()) \
        == sorted(run_files)
    hashed = json.loads((out / "manifest.json").read_text())["files"]
    assert sorted(name for name in hashed if name.startswith("trajectory")) \
        == sorted(f"trajectory/{name}" for name in run_files)


def test_sweep_subcommand(tmp_path, tiny_cfg, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", tiny_cfg, "--out", str(out)]) == 0
    assert (out / "tiny" / "manifest.json").exists()


def test_sweep_refuses_members_of_one_name(tmp_path, capsys):
    # each member writes under its config's file name: two configs called
    # x.cfg would write into one directory, the later over the earlier
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.cfg").write_text(TINY)
        paths.append(str(tmp_path / sub / "x.cfg"))
    out = tmp_path / "sweep"
    assert main(["sweep", *paths, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("configuration error: sweep members share a "
                            "name: x\n")
    assert not out.exists()


@pytest.mark.parametrize("fork", [True, False], ids=["fork", "in-process"])
def test_sweep_isolates_workers_and_keeps_exit_codes(tmp_path, tiny_cfg,
                                                     capsys, monkeypatch,
                                                     fork):
    # each member runs in a forked child, or in this process without fork
    if not fork:
        monkeypatch.delattr(os, "fork")
    bad_k = tmp_path / "bad_k.cfg"
    bad_k.write_text("family = monomial\nk = 0\n")
    bad_dt = tmp_path / "bad_dt.cfg"
    bad_dt.write_text("family = monomial\nk = 2\nN = 64\ndt = 0.5\n")
    assert main(["sweep", tiny_cfg, str(bad_k), str(bad_dt),
                 "--out", str(tmp_path / "sweep")]) == 3
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["bad_dt: 3", "bad_k: 2", "tiny: 0"]


@pytest.mark.parametrize("key", ["lambda0", "Lambda0", "nu_max_override"])
def test_removed_config_key_is_config_error(tmp_path, capsys, key):
    # the ellipticity bounds belong to the coefficient family, not the
    # config, and every run uses all the bands its grid hosts
    cfg = tmp_path / "old.cfg"
    cfg.write_text(TINY + f"{key} = 0.9\n")
    assert main(["check-conditions", "--config", str(cfg),
                 "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(key) in err


@pytest.mark.parametrize("flag", [["--m", "0"], ["--delta-grid", "0.2,0.5"]],
                         ids=["m", "delta-grid"])
def test_verify_energy_rejects_removed_flags(tmp_path, tiny_cfg, capsys,
                                             flag):
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", tiny_cfg, "--out", str(traj_dir)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify-energy", "--config", tiny_cfg, "--traj", str(traj_dir),
              "--out", str(tmp_path / "verify")] + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_pipeline_failed_checks_exit_1(tmp_path, capsys):
    # as for solve and check-conditions, a failed hypothesis check is exit 1
    flat = tmp_path / "flat.cfg"
    flat.write_text("family = flat\nk = 2\n")
    assert main(["solve", "--config", str(flat),
                 "--out", str(tmp_path / "t")]) == 1
    assert main(["pipeline", "--config", str(flat),
                 "--out", str(tmp_path / "pipe")]) == 1
    assert "condition failure" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "pipe" / "manifest.json").read_text())
    assert manifest["stages"] == ["check-conditions", "FAILED"]
    assert main(["sweep", str(flat), "--out", str(tmp_path / "sweep")]) == 1
    assert capsys.readouterr().out.splitlines() == ["flat: 1"]


def test_pipeline_refuses_too_few_bands_before_writing(tmp_path, capfd):
    # N = 8 hosts bands 0 and 1 only: check-conditions and solve need no
    # bands and accept it; the pipeline and a sweep member refuse it with
    # exit 2 before they write a file.  The member reports from its own
    # process, so its stderr is read at the file descriptor
    cfg = tmp_path / "n8.cfg"
    cfg.write_text(TINY.replace("N = 64", "N = 8"))
    assert main(["check-conditions", "--config", str(cfg),
                 "--out", str(tmp_path / "cc")]) == 0
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "traj")]) == 0
    capfd.readouterr()
    assert main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "pipe")]) == 2
    assert "nu_max=1 < 2" in capfd.readouterr().err
    assert not (tmp_path / "pipe").exists()
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")]) == 2
    assert "n8: configuration error" in capfd.readouterr().err
    assert list((tmp_path / "sweep").iterdir()) == []


@pytest.mark.parametrize("text, message", [
    ("family = interior_zero\nk = 3\n", "interior_zero needs even k")],
    ids=["odd-interior-zero"])
def test_pipeline_refuses_a_config_before_writing(tmp_path, capsys, text,
                                                  message):
    # refused with exit 2 and one stderr line, and no manifest, trajectory
    # or directory left behind
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "pipe")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    assert not (tmp_path / "pipe").exists()


# T/dt = save_every: the solve saves two states, at 0 and T
TWO_SAVED = """
family = monomial
k = 2
N = 32
T = 0.05
dt = 0.00125
save_every = 40
"""


@pytest.mark.parametrize("data", ["manufactured", "random"])
def test_pipeline_runs_two_saved_states(tmp_path, capsys, data):
    # the energy check reads the solve's forcing, so two saved states
    # check like any other trajectory
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TWO_SAVED + f"data = {data}\n")
    assert main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "pipe")]) == 0
    assert capsys.readouterr().err == ""
    etot = (tmp_path / "pipe" / "etot.csv").read_text().splitlines()
    assert len(etot) == 3 and etot[-1].startswith("0.05,")


@pytest.mark.parametrize("data", ["manufactured", "random"])
def test_verify_energy_runs_two_saved_states(tmp_path, capsys, data):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TWO_SAVED + f"data = {data}\n")
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", str(cfg), "--out", str(traj_dir)]) == 0
    assert len(list(traj_dir.glob("state_*.csv"))) == 2
    assert main(["verify-energy", "--config", str(cfg), "--traj",
                 str(traj_dir), "--out", str(tmp_path / "v")]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "v" / "verify.json").read_text())["passed"]


def test_verify_energy_refuses_data_of_another_kind(tmp_path, capsys):
    # a random-data trajectory cannot be checked against the manufactured
    # solution's forcing: its first state is not that solution's data
    random_cfg, manufactured_cfg = tmp_path / "r.cfg", tmp_path / "m.cfg"
    random_cfg.write_text(TINY + "data = random\n")
    manufactured_cfg.write_text(TINY + "data = manufactured\n")
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", str(random_cfg),
                 "--out", str(traj_dir)]) == 0
    capsys.readouterr()
    assert main(["verify-energy", "--config", str(manufactured_cfg),
                 "--traj", str(traj_dir), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "manufactured solution" in err[0]
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("solved, checked", [
    ("data = manufactured\n", "data = random\n"),
    ("data = random\nseed = 1\n", "data = random\nseed = 2\n")],
    ids=["forced-as-random", "random-of-another-seed"])
def test_verify_energy_refuses_a_trajectory_not_from_its_config(
        tmp_path, capsys, solved, checked):
    # random data have no source, so a forced trajectory checked as random
    # data would pass with nothing to check: every trajectory must start
    # from its config's initial data, the seed's for random data
    solved_cfg, checked_cfg = tmp_path / "s.cfg", tmp_path / "c.cfg"
    solved_cfg.write_text(TINY + solved)
    checked_cfg.write_text(TINY + checked)
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", str(solved_cfg),
                 "--out", str(traj_dir)]) == 0
    capsys.readouterr()
    assert main(["verify-energy", "--config", str(checked_cfg),
                 "--traj", str(traj_dir), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "random initial data" in err[0], err
    assert not (tmp_path / "v").exists()
    assert main(["verify-energy", "--config", str(solved_cfg),
                 "--traj", str(traj_dir), "--out", str(tmp_path / "v")]) == 0


# k = 1 and gamma = 40 give Ctilde = 3.3e7, whose weights overflow the
# Schur sums of the calibration
OVERFLOWING = """
family = monomial
k = 1
gamma = 40.0
N = 16
T = 0.005
dt = 0.001
"""


def test_constants_that_are_not_finite_are_refused(tmp_path, capsys):
    # exit 2 with one stderr line, not a traceback from writing an
    # infinite sigma into constants.json
    cfg = tmp_path / "c.cfg"
    cfg.write_text(OVERFLOWING)
    assert main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "pipe")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "C_schur = inf" in err[0]
    manifest = json.loads((tmp_path / "pipe" / "manifest.json").read_text())
    assert manifest["stages"][-1] == "FAILED"
    assert main(["verify-energy", "--config", str(cfg), "--traj",
                 str(tmp_path / "pipe" / "trajectory"),
                 "--out", str(tmp_path / "v")]) == 2
    assert not (tmp_path / "v").exists()


# b = 1000 a^(1/4) on the nondegenerate family: the solve stays finite,
# |u| near 5e153 and |d_t u| near 7e155 at T, but its band energies
# overflow (at T = 4.25 they stay finite: |d_t u| is near 7e153 there)
GROWING = """
family = nondegenerate
k = 3
gamma = 0.25
C0 = 1000.0
N = 32
T = 4.3
dt = 0.05
"""


def test_energies_that_overflow_are_a_numerical_failure(tmp_path, capsys):
    # exit 3 with one stderr line, not a traceback from writing a NaN
    # violation into verify.json
    cfg = tmp_path / "c.cfg"
    cfg.write_text(GROWING)
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", str(cfg), "--out", str(traj_dir)]) == 0
    capsys.readouterr()
    assert main(["verify-energy", "--config", str(cfg), "--traj",
                 str(traj_dir), "--out", str(tmp_path / "v")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical failure: non-finite band energy at t = 4.3"]
    assert not (tmp_path / "v").exists()
    assert main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "pipe")]) == 3
    manifest = json.loads((tmp_path / "pipe" / "manifest.json").read_text())
    assert manifest["stages"][-1] == "FAILED"


@pytest.mark.parametrize("text, code, message", [
    (TWO_SAVED + "m = 200\n", 2, "configuration error: m = 200.0 "),
    (GROWING, 3, "numerical failure: non-finite band energy"),
    ("family = monomial\nk = 12\ngamma = 40.0\nN = 32\nT = 5\ndt = 0.05\n",
     2, "configuration error: b is not finite")],
    ids=["loss-ratios-overflow", "energies-overflow", "b-overflows"])
def test_a_refusal_prints_one_stderr_line(tmp_path, text, code, message):
    # in a fresh interpreter, where numpy's RuntimeWarnings reach stderr
    # (pytest captures them in-process): the overflow that a refusal
    # names prints no warning before the refusal's one line
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve()
                                          .parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "lpwave", "pipeline",
                           "--config", str(cfg), "--out",
                           str(tmp_path / "pipe")],
                          env=env, capture_output=True, text=True)
    err = done.stderr.splitlines()
    assert done.returncode == code and len(err) == 1, done.stderr
    assert err[0].startswith(message)


WRITERS = ["check-conditions", "solve", "decompose", "commutator-scan",
           "weights", "verify-energy", "pipeline", "sweep"]


@pytest.mark.parametrize("command", WRITERS)
def test_out_of_the_wrong_kind_is_refused(tmp_path, tiny_cfg, capsys,
                                          command):
    # --out naming a file, or a path through one, is exit 2 with one
    # stderr line naming it, and nothing is written
    work = tmp_path / "work"
    work.mkdir()
    blocker = work / "blocker"
    blocker.write_text("not a directory\n")
    extra = []
    if command == "verify-energy":
        traj_dir = tmp_path / "traj"
        assert main(["solve", "--config", tiny_cfg,
                     "--out", str(traj_dir)]) == 0
        extra = ["--traj", str(traj_dir)]
    for out in (blocker, blocker / "sub" / "dir"):
        capsys.readouterr()
        argv = ([command, tiny_cfg] if command == "sweep"
                else [command, "--config", tiny_cfg])
        assert main(argv + ["--out", str(out)] + extra) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(out) in err[0]
        assert [p.name for p in work.iterdir()] == ["blocker"]
        assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv", [["weights", "--force"],
                                  ["commutator-scan", "--seed", "9"],
                                  ["solve", "--save-every", "25"],
                                  ["solve", "--seed", "9"],
                                  ["decompose", "--seed", "9"],
                                  ["pipeline", "--seed", "9"]],
                         ids=["weights-force", "commutator-scan-seed",
                              "solve-save-every", "solve-seed",
                              "decompose-seed", "pipeline-seed"])
def test_unread_flags_are_unrecognised(tmp_path, tiny_cfg, capsys, argv):
    # --force exists only where the command reads it.  No command has
    # --save-every or --seed, whose trajectories verify-energy with the
    # same config would refuse: the config's save_every and seed are the
    # one settings
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", tiny_cfg, "--out", str(tmp_path / "o")]
             + argv[1:])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


def test_decompose_seed_changes_the_random_function(tmp_path):
    for seed in ("1", "2"):
        cfg = tmp_path / f"seed{seed}.cfg"
        cfg.write_text(TINY + f"seed = {seed}\n")
        assert main(["decompose", "--config", str(cfg),
                     "--out", str(tmp_path / seed)]) == 0
    files = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert any((tmp_path / "1" / name).read_bytes()
               != (tmp_path / "2" / name).read_bytes() for name in files)


def test_decompose_in_reproduces_its_own_source(tmp_path, tiny_cfg):
    # a source.csv read back through --in gives the same files, byte for byte
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["decompose", "--config", tiny_cfg, "--out", str(first)]) == 0
    assert main(["decompose", "--config", tiny_cfg, "--in",
                 str(first / "source.csv"), "--out", str(second)]) == 0
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    for name in files:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def _grid_csv(path, index, x):
    values = np.sin(x)
    grid.write_csv(path, ["index", "x", "re", "im"],
                   zip(index.tolist(), x.tolist(), values.tolist(),
                       np.zeros_like(values).tolist()))
    return str(path)


@pytest.mark.parametrize("case", ["short", "x-off-grid", "index-shuffled"])
def test_decompose_in_refuses_a_csv_off_the_config_grid(tmp_path, tiny_cfg,
                                                        capsys, case):
    # the tiny config has N = 64; each file is refused as input that does
    # not fit the config (exit 2), not as a failed check (exit 1)
    j = np.arange(64)
    index, x = {
        "short": (np.arange(32), grid.grid_points(32)),
        "x-off-grid": (j, j.astype(float)),
        "index-shuffled": (np.roll(j, 1), grid.grid_points(64)),
    }[case]
    path = _grid_csv(tmp_path / "in.csv", index, x)
    assert main(["decompose", "--config", tiny_cfg, "--in", path,
                 "--out", str(tmp_path / "dec")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "dec").exists()


def test_decompose_in_refuses_re_and_im_swapped(tmp_path, tiny_cfg, capsys):
    # the values parse and sit on the grid, but the header names them in
    # the other order: reading them as (re, im) would conjugate i*w
    first = tmp_path / "first"
    assert main(["decompose", "--config", tiny_cfg, "--out", str(first)]) == 0
    source = first / "source.csv"
    text = source.read_bytes()
    assert text.startswith(b"index,x,re,im\r\n")
    source.write_bytes(b"index,x,im,re" + text[len(b"index,x,re,im"):])
    assert main(["decompose", "--config", tiny_cfg, "--in", str(source),
                 "--out", str(tmp_path / "dec")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "dec").exists()


def _set_cell(path, row, column, text):
    """Replace one cell of a grid CSV, row 1 being the first after the
    header."""
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[row].split(b",")
    cells[column] = text
    lines[row] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))


@pytest.mark.parametrize("cell", [b"nan", b"inf", b"-inf"])
def test_decompose_in_refuses_a_non_finite_cell(tmp_path, tiny_cfg, capsys,
                                               cell):
    # np.loadtxt parses nan and inf as numbers: the file is refused before
    # any output is written, not after seven CSVs at decompose.json
    first = tmp_path / "first"
    assert main(["decompose", "--config", tiny_cfg, "--out", str(first)]) == 0
    source = first / "source.csv"
    _set_cell(source, 4, 2, cell)
    assert main(["decompose", "--config", tiny_cfg, "--in", str(source),
                 "--out", str(tmp_path / "dec")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "source.csv" in err and "not finite" in err, err
    assert not (tmp_path / "dec").exists()


@pytest.mark.parametrize("cell", [b"nan", b"inf"])
def test_verify_energy_refuses_a_non_finite_state_cell(tmp_path, tiny_cfg,
                                                      capsys, cell):
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", tiny_cfg, "--out", str(traj_dir)]) == 0
    _set_cell(traj_dir / "state_000010.csv", 4, 5, cell)
    assert main(["verify-energy", "--config", tiny_cfg, "--traj",
                 str(traj_dir), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "state_000010.csv" in err and "not finite" in err, err
    assert not (tmp_path / "v").exists()


def _truncated(text):
    return text[:100]


def _edited(edit):
    def damage(text):
        manifest = json.loads(text)
        edit(manifest)
        return json.dumps(manifest)
    return damage


MANIFEST_DAMAGE = {
    "truncated": (_truncated, "is not JSON"),
    "a-list": (lambda text: "[" + text + "]", "is not a JSON object"),
    "no-period": (_edited(lambda m: m.pop("period")),
                  "is not a JSON object holding N, dt"),
    "repeated-time": (_edited(lambda m: m["times"].__setitem__(
        3, m["times"][4])), "times are not 0, dt, 2 dt"),
    "nan-time": (_edited(lambda m: m["times"].__setitem__(3, float("nan"))),
                 "times are not 0, dt, 2 dt"),
    "late-start": (_edited(lambda m: m.update(
        times=[t + m["dt"] for t in m["times"]])),
        "times are not 0, dt, 2 dt"),
    "fractional-save-every": (_edited(lambda m: m.update(
        solver_dt=m["dt"] / 4.5)), "dt / solver_dt = 4.5"),
    "string-N": (_edited(lambda m: m.update(N="64")), "N = '64'"),
}


@pytest.mark.parametrize("damage", sorted(MANIFEST_DAMAGE))
def test_verify_energy_refuses_a_damaged_manifest(tmp_path, tiny_cfg, capsys,
                                                  damage):
    # trajectory.json is read before any state: a manifest that is not the
    # one solve writes is refused by name (exit 2), not a traceback or a
    # verdict on times that no solve saved
    traj_dir = tmp_path / "traj"
    assert main(["solve", "--config", tiny_cfg, "--out", str(traj_dir)]) == 0
    path = traj_dir / "trajectory.json"
    edit, message = MANIFEST_DAMAGE[damage]
    path.write_text(edit(path.read_text()))
    assert main(["verify-energy", "--config", tiny_cfg, "--traj",
                 str(traj_dir), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "trajectory.json" in err and message in err, err
    assert not (tmp_path / "v").exists()


def _norms(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return (np.array([float(r[3]) for r in rows]),
            np.array([float(r[4]) for r in rows]))


@pytest.mark.parametrize("C0", [1e200, 1e-200, 2.0 ** 664, 2.0 ** -664])
def test_commutator_scan_norms_scale_with_C0(tmp_path, C0):
    # the b norms are homogeneous in C0: at 1e200 the Gram matrix of the
    # unscaled kernel overflows, and at 1e-200 it underflows to zero
    k4 = (K4_CONFIG.read_text().replace("N = 128", "N = 64")
          .replace("C0 = 1.0", "C0 = {!r}"))
    runs = {}
    for name, value in (("one", 1.0), ("scaled", C0)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(k4.format(value))
        out = tmp_path / name
        assert main(["commutator-scan", "--config", str(cfg),
                     "--out", str(out)]) == 0
        runs[name] = _norms(out / "commutator_scan.csv")
    (beta_one, b_one), (beta, b) = runs["one"], runs["scaled"]
    assert np.array_equal(beta, beta_one)
    assert np.all(np.isfinite(b)) and np.any(b_one > 0)
    if np.frexp(C0)[0] == 0.5:      # a power of two scales b exactly
        assert np.array_equal(b, C0 * b_one)
    else:       # b's rounding moves the smallest norms by more than 1e-12
        np.testing.assert_allclose(b, C0 * b_one, rtol=1e-12,
                                   atol=1e-12 * C0 * b_one.max())


def _wrong_kind_input(case, tmp_path, tiny_cfg):
    """(argv, path the refusal names) of one input of the wrong kind."""
    latin1 = tmp_path / "latin1"
    if case == "config-is-directory":
        return ["check-conditions", "--config", str(tmp_path)], str(tmp_path)
    if case == "config-not-utf8":
        latin1.write_bytes(TINY.encode() + b"# caf\xe9\n")
        return ["check-conditions", "--config", str(latin1)], str(latin1)
    if case == "traj-is-file":
        return (["verify-energy", "--config", tiny_cfg, "--traj", tiny_cfg],
                tiny_cfg)
    if case == "manifest-is-directory":
        manifest = tmp_path / "traj" / "trajectory.json"
        manifest.mkdir(parents=True)
        return (["verify-energy", "--config", tiny_cfg, "--traj",
                 str(manifest.parent)], str(manifest))
    if case == "csv-is-directory":
        return (["decompose", "--config", tiny_cfg, "--in", str(tmp_path)],
                str(tmp_path))
    latin1.write_bytes(b"index,x,re,im\n0,0.0,\xe9,0.0\n")
    return ["decompose", "--config", tiny_cfg, "--in", str(latin1)], \
        str(latin1)


@pytest.mark.parametrize("case", ["config-is-directory", "config-not-utf8",
                                  "traj-is-file", "manifest-is-directory",
                                  "csv-is-directory", "csv-not-utf8"])
def test_input_of_the_wrong_kind_is_config_error(tmp_path, tiny_cfg, capsys,
                                                 case):
    # a directory, a path through a file, or bytes that are not UTF-8 are
    # refused as input (exit 2, one line naming the path), not a traceback
    argv, named = _wrong_kind_input(case, tmp_path, tiny_cfg)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert named in err, err
    assert not out.exists()
