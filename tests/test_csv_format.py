"""Byte format of every CSV artifact, pinned on tiny hand-built inputs.

Integer columns stay integers, floats are written as their shortest
round-trip decimal (negative zero and exponents included), and string
columns are written unquoted.
"""

import numpy as np
import pytest

from lpwave import commutator, dyadic, energy, experiment, grid, solver
from lpwave.coefficients import builtin_family
from lpwave.grid import GridFunction

VALUES = np.array([0.0, -0.0 + 1j, 0.1 - 2.5j, 1e-20, 3.0, -1.5e300j, 2.0, 0.5])


def _grid(tmp_path):
    grid.to_csv(GridFunction(VALUES, 8.0), tmp_path / "grid.csv")
    return tmp_path / "grid.csv"


def _state(tmp_path):
    traj = solver.Trajectory(np.array([0.0]), VALUES[None, :],
                             -VALUES[None, ::-1], 0.5, 8.0,
                             builtin_family("monomial"), 0.5)
    solver.save_trajectory(traj, tmp_path / "traj")
    return tmp_path / "traj" / "state_000000.csv"


def _cutoffs(tmp_path):
    phi = np.array([[1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
                    [0.0, 0.5, 1.0, 0.25, 0.0, 0.25, 1.0, 0.5]])
    fam = dyadic.CutoffFamily(8, 2 * np.pi, 1, phi, phi)
    dyadic.cutoffs_to_csv(fam, tmp_path / "cutoffs.csv")
    return tmp_path / "cutoffs.csv"


def _scan(tmp_path):
    s = commutator.CommutatorScan(
        0.5, np.array([[0.0, 1e-17], [0.25, -0.0]]),
        np.array([[2.0, 0.0], [3.5, 1.0 / 3.0]]), "dense-svd", 1e-8, 1, 8,
        2 * np.pi)
    commutator.scan_to_csv(s, tmp_path / "scan.csv")
    return tmp_path / "scan.csv"


def _energies(tmp_path):
    constants = energy.Constants(1.0, 2.0, 0.0, 4.0, 4.0, 3.0, 0.0)
    ledger = energy.EnergyLedger(
        1, np.array([0.0, 0.5]), np.array([1.0, 0.5]),
        np.array([[1.0, 0.75], [0.5, -0.0]]),
        np.array([[0.0, 0.0], [0.0, -0.0]]), np.array([1.5, 0.75]), constants)
    energy.ledger_to_csv(ledger, tmp_path / "energies.csv")
    return tmp_path / "energies.csv"


def _etot(tmp_path):
    report = energy.InequalityReport(
        np.array([0.0, 0.5]), np.array([1.5, 0.75]), np.array([0.0, 0.125]),
        np.array([0.0, -0.5]), 0.0, 0.0, 1e-4, True)
    energy.inequality_to_csv(report, tmp_path / "etot.csv")
    return tmp_path / "etot.csv"


def _weights(tmp_path, monkeypatch):
    monkeypatch.setattr(
        energy, "weight_table",
        lambda nu_max, times, cs, scale=1.0:
            np.outer(np.arange(nu_max + 1), times) / 4.0)
    # N = 16 hosts bands 0..2; T = 64 puts the 65 weight times on 0, 1, ..., 64
    experiment.run_weights(experiment.ExperimentConfig(N=16, T=64.0),
                           tmp_path / "w")
    return tmp_path / "w" / "weights.csv"


CASES = {
    "grid": (_grid, [
        "index,x,re,im",
        "0,0.0,0.0,0.0",
        "1,1.0,0.0,1.0",
        "2,2.0,0.1,-2.5",
        "3,3.0,1e-20,0.0",
        "4,4.0,3.0,0.0",
        "5,5.0,-0.0,-1.5e+300",
        "6,6.0,2.0,0.0",
        "7,7.0,0.5,0.0",
    ]),
    "state": (_state, [
        "index,x,re_u,im_u,re_ut,im_ut",
        "0,0.0,0.0,0.0,-0.5,-0.0",
        "1,1.0,0.0,1.0,-2.0,-0.0",
        "2,2.0,0.1,-2.5,0.0,1.5e+300",
        "3,3.0,1e-20,0.0,-3.0,-0.0",
        "4,4.0,3.0,0.0,-1e-20,-0.0",
        "5,5.0,-0.0,-1.5e+300,-0.1,2.5",
        "6,6.0,2.0,0.0,-0.0,-1.0",
        "7,7.0,0.5,0.0,-0.0,-0.0",
    ]),
    "cutoffs": (_cutoffs, [
        "nu,xi,phi",
        "0,-4.0,0.0", "0,-3.0,0.0", "0,-2.0,0.0", "0,-1.0,0.5",
        "0,0.0,1.0", "0,1.0,0.5", "0,2.0,0.0", "0,3.0,0.0",
        "1,-4.0,0.0", "1,-3.0,0.25", "1,-2.0,1.0", "1,-1.0,0.5",
        "1,0.0,0.0", "1,1.0,0.5", "1,2.0,1.0", "1,3.0,0.25",
    ]),
    "commutator_scan": (_scan, [
        "t,nu,mu,norm_beta,norm_b,method",
        "0.5,0,0,0.0,2.0,dense-svd",
        "0.5,0,1,1e-17,0.0,dense-svd",
        "0.5,1,0,0.25,3.5,dense-svd",
        "0.5,1,1,-0.0,0.3333333333333333,dense-svd",
    ]),
    "energies": (_energies, [
        "t,nu,E,h,weight",
        "0.0,0,1.0,0.0,1.0",
        "0.0,1,0.5,0.0,1.0",
        "0.5,0,0.75,0.0,1.0",
        "0.5,1,-0.0,-0.0,1.0",
    ]),
    "etot": (_etot, [
        "t,Etot,rhs_integral,violation",
        "0.0,1.5,0.0,0.0",
        "0.5,0.75,0.125,-0.5",
    ]),
}


def _text(lines):
    return "".join(line + "\r\n" for line in lines).encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes(tmp_path, name):
    write, expected = CASES[name]
    assert write(tmp_path).read_bytes() == _text(expected)


def test_weights_csv_bytes(tmp_path, monkeypatch):
    lines = _weights(tmp_path, monkeypatch).read_bytes().split(b"\r\n")
    assert len(lines) == 1 + 65 * 3 + 1 and lines[-1] == b""
    assert lines[:5] + lines[-3:] == _text([
        "t,nu,h", "0.0,0,0.0", "0.0,1,0.0", "0.0,2,0.0", "1.0,0,0.0",
        "64.0,1,16.0", "64.0,2,32.0"]).split(b"\r\n")
