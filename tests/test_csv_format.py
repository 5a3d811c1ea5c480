"""Byte format of every CSV artifact, pinned on tiny hand-built inputs.

Integer columns stay integers, floats are written as their shortest
round-trip decimal (negative zero and exponents included), and string
columns are written unquoted.  ``grid.write_csv`` must write the bytes of
``csv.writer`` with its defaults, kept here as the reference.
"""

import csv
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpwave import commutator, dyadic, energy, experiment, grid, solver
from lpwave.coefficients import builtin_family
from lpwave.grid import GridFunction

VALUES = np.array([0.0, -0.0 + 1j, 0.1 - 2.5j, 1e-20, 3.0, -1.5e300j, 2.0, 0.5])


def _grid(tmp_path):
    grid.to_csv(GridFunction(VALUES), tmp_path / "grid.csv")
    return tmp_path / "grid.csv"


def _state(tmp_path):
    traj = solver.Trajectory(np.array([0.0]), VALUES[None, :],
                             -VALUES[None, ::-1], 0.5,
                             builtin_family("monomial"), 0.5)
    solver.save_trajectory(traj, tmp_path / "traj")
    return tmp_path / "traj" / "state_000000.csv"


def _cutoffs(tmp_path):
    phi = np.array([[1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
                    [0.0, 0.5, 1.0, 0.25, 0.0, 0.25, 1.0, 0.5]])
    fam = dyadic.CutoffFamily(8, 1, phi, phi)
    dyadic.cutoffs_to_csv(fam, tmp_path / "cutoffs.csv")
    return tmp_path / "cutoffs.csv"


def _scan(tmp_path):
    s = commutator.CommutatorScan(
        0.5, np.array([[0.0, 1e-17], [0.25, -0.0]]),
        np.array([[2.0, 0.0], [3.5, 1.0 / 3.0]]), "dense-svd", 1, 8)
    commutator.scan_to_csv(s, tmp_path / "scan.csv")
    return tmp_path / "scan.csv"


def _energies(tmp_path):
    constants = energy.Constants(1.0, 2.0, 0.0, 4.0, 4.0, 3.0, 0.0)
    ledger = energy.EnergyLedger(
        np.array([0.0, 0.5]), np.array([[1.0, 0.75], [0.5, -0.0]]),
        np.array([[0.0, 0.0], [0.0, -0.0]]), np.ones((2, 2)),
        np.array([1.5, 0.75]), constants)
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
        "1,0.7853981633974483,0.0,1.0",
        "2,1.5707963267948966,0.1,-2.5",
        "3,2.356194490192345,1e-20,0.0",
        "4,3.141592653589793,3.0,0.0",
        "5,3.9269908169872414,-0.0,-1.5e+300",
        "6,4.71238898038469,2.0,0.0",
        "7,5.497787143782138,0.5,0.0",
    ]),
    "state": (_state, [
        "index,x,re_u,im_u,re_ut,im_ut",
        "0,0.0,0.0,0.0,-0.5,-0.0",
        "1,0.7853981633974483,0.0,1.0,-2.0,-0.0",
        "2,1.5707963267948966,0.1,-2.5,0.0,1.5e+300",
        "3,2.356194490192345,1e-20,0.0,-3.0,-0.0",
        "4,3.141592653589793,3.0,0.0,-1e-20,-0.0",
        "5,3.9269908169872414,-0.0,-1.5e+300,-0.1,2.5",
        "6,4.71238898038469,2.0,0.0,-0.0,-1.0",
        "7,5.497787143782138,0.5,0.0,-0.0,-0.0",
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


def _csv_reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-5, 1e-4,
               9.999999999999999e15, 1e16]
PLAIN_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters=',"\r\n'))
CELLS = st.one_of(st.integers(), PLAIN_TEXT, st.sampled_from(EDGE_FLOATS),
                  st.floats())
ROW_COUNTS = [0, 1, grid.CSV_BLOCK_ROWS - 1, grid.CSV_BLOCK_ROWS,
              grid.CSV_BLOCK_ROWS + 1]


@settings(max_examples=60, deadline=None)
@given(width=st.integers(2, 6), data=st.data(),
       count=st.sampled_from(ROW_COUNTS),
       form=st.sampled_from(["list", "generator", "zip"]))
def test_write_csv_matches_csv_writer(tmp_path_factory, width, data, count,
                                      form):
    header = data.draw(st.lists(PLAIN_TEXT, min_size=width, max_size=width))
    pool = data.draw(st.lists(st.tuples(*[CELLS] * width), min_size=1,
                              max_size=8))
    rows = list(itertools.islice(itertools.cycle(pool), count))
    if form == "list":
        given_rows = rows
    elif form == "generator":
        given_rows = (row for row in rows)
    else:
        # a constant first column, as the callers pass with repeat
        first = data.draw(CELLS)
        rows = [(first,) + row[1:] for row in rows]
        given_rows = zip(itertools.repeat(first),
                         *[[row[j] for row in rows] for j in range(1, width)])
    out = tmp_path_factory.mktemp("csv")
    grid.write_csv(out / "fast.csv", header, given_rows)
    _csv_reference(out / "reference.csv", header, rows)
    assert ((out / "fast.csv").read_bytes()
            == (out / "reference.csv").read_bytes())


@pytest.mark.parametrize("header, rows", [
    (["a", "b"], [(1, "x,y")]),
    (["a", "b"], [(1, 'say "hi"')]),
    (["a", "b"], [(1, "two\nlines")]),
    (["a", "b"], [(1, "cr\r")]),
    (["a,b", "c"], []),
    (["a"], [("",)]),
    (["a", "b"], [(1, 2), (3,)]),
    (["a", "b"], [(1, 2, 3)]),
])
def test_write_csv_refuses_what_csv_would_quote_or_pad(tmp_path, header,
                                                       rows):
    with pytest.raises(ValueError):
        grid.write_csv(tmp_path / "bad.csv", header, rows)


def test_write_csv_streams(tmp_path):
    # 100 000 generated rows of 5 floats are about 8 MB of text; written in
    # blocks, the peak of traced memory stays a small part of that
    n_rows = 100_000
    rows = ((i / 3.0, i / 7.0, -i / 11.0, i * 1.1e300 / 3.0, i + 0.1)
            for i in range(n_rows))
    tracemalloc.start()
    try:
        grid.write_csv(tmp_path / "big.csv", ["a", "b", "c", "d", "e"], rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "big.csv").stat().st_size
    assert size > 7_000_000
    assert peak < size / 4
