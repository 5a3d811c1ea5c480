"""Generated configs against the command line's documented contracts.

Each example writes one generated config (grids N = 8 ... 64, 5 to 100
steps, save_every 1, steps/5 or steps, the four families, k up to 13,
gamma up to 40, C0 from -1 to 1e3 and 1e-300, m from -1 to 30 or near
the loss search's overflow threshold, both data kinds), runs one
subcommand on it in-process through ``cli.main``, into a fresh output
path or one of the wrong kind, and checks what README promises:
- the exit code is 0, 1, 2 or 3, and no exception escapes ``cli.main``;
- exit 2 prints one stderr line;
- an output path that is a file, or runs through one, is refused, and
  nothing is written;
- a pipeline that exits 2 leaves no output directory, or one whose
  manifest's stages end in FAILED;
- ``solve`` that exits 0 saves steps/save_every + 1 states, the last at T;
- ``decompose --in`` a grid CSV of the config's N exits as ``decompose``
  without ``--in`` does, and one of the wrong shape is exit 2 with
  nothing written;
- a pipeline or sweep that exits 0, rerun into a fresh directory, writes
  the same bytes.
The example budget is the loaded hypothesis profile's (tests/conftest.py).
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from lpwave import grid
from lpwave.cli import main
from lpwave.coefficients import BUILTIN_FAMILIES

COMMANDS = ("check-conditions", "solve", "decompose", "commutator-scan",
            "weights", "verify-energy", "pipeline", "sweep")
# decompose --in inputs: none (seeded random), a grid CSV of the config's
# N, and CSVs of the wrong shape
SOURCES = ("none", "fit", "half-rows", "double-rows", "no-im-column",
           "extra-column", "header-only", "empty")
# the pipeline's loss search runs on grids 64 and 128 for N <= 64, where
# its ratios stop being finite between m = 101.5 and 101.7
M_OVERFLOW = (101.0, 102.0)


@st.composite
def configs(draw):
    """(config text, steps, save_every, T, N) of a generated config."""
    per_save = draw(st.integers(1, 20))
    steps = 5 * per_save
    save_every = draw(st.sampled_from([1, per_save, steps]))
    dt = draw(st.sampled_from([0.001, 0.01, 0.05]))
    T = steps * dt
    lines = {
        "family": draw(st.sampled_from(BUILTIN_FAMILIES)),
        "k": draw(st.sampled_from([1, 2, 3, 4, 6, 12, 13])),
        "gamma": draw(st.sampled_from([0.0, 0.25, 0.5, 3.0, 40.0])),
        "C0": draw(st.sampled_from([0.0, 1.0, 1e3, -1.0, 1e-300])),
        "T": T, "N": draw(st.sampled_from([8, 16, 32, 64])), "dt": dt,
        "m": draw(st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 3.0, 30.0]),
                            st.floats(*M_OVERFLOW))),
        "delta_grid": "0.2,0.5,1.0",
        "seed": draw(st.integers(0, 3)),
        "data": draw(st.sampled_from(["manufactured", "random"])),
        "save_every": save_every,
    }
    text = "".join(f"{key} = {value}\n" for key, value in lines.items())
    return text, steps, save_every, T, lines["N"]


def _source_csv(kind, n, path):
    """Write the decompose --in file of ``kind`` (SOURCES) for grid N = n."""
    grid.to_csv(grid.from_callable(np.sin, 2 * n if kind == "double-rows"
                                   else n), path)
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if kind == "half-rows":
        lines = lines[:n // 2 + 1]
    elif kind == "no-im-column":
        lines = [line.rsplit(",", 1)[0] for line in lines]
    elif kind == "extra-column":
        lines = [line + ",0" for line in lines]
    elif kind == "header-only":
        lines = lines[:1]
    elif kind == "empty":
        lines = []
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + "\r\n" for line in lines))


def _files(root):
    """Relative path -> bytes of every file under root."""
    out = {}
    for where, _, names in os.walk(root):
        for name in names:
            path = os.path.join(where, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _run(command, cfg, out, traj=None, source=None):
    argv = ([command, cfg] if command == "sweep"
            else [command, "--config", cfg])
    if traj is not None:
        argv += ["--traj", traj]
    if source is not None:
        argv += ["--in", source]
    return main(argv + ["--out", out])


@settings(derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(config=configs(), command=st.sampled_from(COMMANDS),
       out_kind=st.sampled_from(["fresh", "fresh", "fresh", "file",
                                 "through-file"]),
       rerun=st.booleans(), source_kind=st.sampled_from(SOURCES))
def test_generated_configs_keep_the_contracts(tmp_path_factory, capfd,
                                              config, command, out_kind,
                                              rerun, source_kind):
    text, steps, save_every, T, n = config
    with tempfile.TemporaryDirectory(
            dir=tmp_path_factory.getbasetemp()) as tmp:
        cfg = os.path.join(tmp, "c.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        traj = None
        if command == "verify-energy":
            traj = os.path.join(tmp, "traj")
            _run("solve", cfg, traj)
        source = None
        if command == "decompose" and source_kind != "none":
            source = os.path.join(tmp, "source.csv")
            _source_csv(source_kind, n, source)
        blocker = os.path.join(tmp, "blocker")
        out = {"fresh": os.path.join(tmp, "out"), "file": blocker,
               "through-file": os.path.join(blocker, "sub")}[out_kind]
        if out_kind != "fresh":
            with open(blocker, "w") as fh:
                fh.write("a file\n")
        before = sorted(os.listdir(tmp))
        capfd.readouterr()

        code = _run(command, cfg, out, traj, source)
        # counted by pytest --hypothesis-show-statistics
        event(f"{command}, {out_kind} out: exit {code}")
        if source is not None:
            event(f"decompose --in {source_kind}: exit {code}")
        err = capfd.readouterr().err.splitlines()
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert len(err) == 1, err
        if out_kind != "fresh":
            assert code != 0
            assert sorted(os.listdir(tmp)) == before
            with open(blocker) as fh:
                assert fh.read() == "a file\n"
            return
        if source is not None:
            assert code == (_run(command, cfg, os.path.join(tmp, "seeded"))
                            if source_kind == "fit" else 2)
            assert os.path.exists(out) == (code == 0)
        if command == "pipeline" and code == 2 and os.path.exists(out):
            with open(os.path.join(out, "manifest.json")) as fh:
                assert json.load(fh)["stages"][-1] == "FAILED"
        if command == "solve" and code == 0:
            with open(os.path.join(out, "trajectory.json")) as fh:
                times = json.load(fh)["times"]
            assert len(times) == steps // save_every + 1
            assert abs(times[-1] - T) <= 1e-12 * T
            assert sum(name.startswith("state_")
                       for name in os.listdir(out)) == len(times)
        if command in ("pipeline", "sweep") and code == 0 and rerun:
            again = os.path.join(tmp, "again")
            assert _run(command, cfg, again) == 0
            assert _files(again) == _files(out)
