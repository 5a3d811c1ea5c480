import json

import numpy as np
import pytest

from lpwave import grid
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


def test_negative_seed_flag_is_config_error(tmp_path, tiny_cfg, capsys):
    assert main(["solve", "--config", tiny_cfg, "--seed", "-1",
                 "--out", str(tmp_path / "t")]) == 2
    assert "configuration error" in capsys.readouterr().err


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


def test_commutator_scan_nu_max_zero_is_config_error(tmp_path, tiny_cfg):
    assert main(["commutator-scan", "--config", tiny_cfg, "--nu-max", "0",
                 "--out", str(tmp_path / "scan")]) == 2


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


def test_sweep_refuses_members_of_one_name(tmp_path, capsys):
    # each member writes under its config's file name: two configs called
    # x.cfg would write into one directory, the later over the earlier
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.cfg").write_text(TINY)
        paths.append(str(tmp_path / sub / "x.cfg"))
    out = tmp_path / "sweep"
    assert main(["sweep", *paths, "--out", str(out), "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("configuration error: sweep members share a "
                            "name: x\n")
    assert not out.exists()


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


@pytest.mark.parametrize("key", ["lambda0", "Lambda0"])
def test_removed_config_key_is_config_error(tmp_path, capsys, key):
    # the ellipticity bounds belong to the coefficient family, not the config
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


@pytest.mark.parametrize("argv", [["weights", "--force"],
                                  ["commutator-scan", "--seed", "9"],
                                  ["solve", "--save-every", "25"]],
                         ids=["weights-force", "commutator-scan-seed",
                              "solve-save-every"])
def test_unread_flags_are_unrecognised(tmp_path, tiny_cfg, capsys, argv):
    # --force and --seed exist only where the command reads them; solve has
    # no --save-every, whose trajectories verify-energy with the same
    # config would refuse: the config's save_every is the one setting
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", tiny_cfg, "--out", str(tmp_path / "o")]
             + argv[1:])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


def test_decompose_seed_changes_the_random_function(tmp_path, tiny_cfg):
    for seed in ("1", "2"):
        assert main(["decompose", "--config", tiny_cfg, "--seed", seed,
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
