"""The scipy modules that importing lpwave, and its light commands, load,
and the module-level imports of its source, each of which must be used.

Each scipy case runs in a fresh interpreter started with
``sys.executable``: this one has imported scipy already, through pytest
and the other tests.
"""

import ast
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lpwave")
K2 = os.path.join(ROOT, "configs", "k2-gamma0.cfg")
REPORT = """
import sys
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def run_fresh(snippet, cwd):
    """Run ``snippet`` in a fresh interpreter; its last stdout line."""
    path = os.pathsep.join([os.path.join(ROOT, "src"),
                            os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", snippet], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def scipy_loaded_by(snippet, cwd):
    """The sorted scipy modules in sys.modules after ``snippet`` ran."""
    return ast.literal_eval(run_fresh(snippet + REPORT, cwd))


def test_import_loads_no_scipy(tmp_path):
    assert scipy_loaded_by("import lpwave, lpwave.cli", tmp_path) == []


@pytest.mark.parametrize("command", ["check-conditions", "weights"])
def test_light_commands_load_no_scipy(tmp_path, command):
    snippet = ("from lpwave.cli import main\n"
               f"assert main([{command!r}, '--config', {K2!r}, "
               "'--out', 'out']) == 0")
    assert scipy_loaded_by(snippet, tmp_path) == []
    assert os.listdir(tmp_path / "out")


def test_checker_flags_a_scipy_import(tmp_path):
    # negative control: the same check sees a module that is loaded
    loaded = scipy_loaded_by("import lpwave, lpwave.cli\nimport scipy.linalg",
                             tmp_path)
    assert "scipy.linalg" in loaded


def test_first_transform_matches_scipy_fft_bit_for_bit(tmp_path):
    # the first grid.fft of the interpreter imports pocketfft's binding;
    # it and every later call must give scipy.fft's bits on complex input
    snippet = """
import sys
import numpy as np
from lpwave import grid

assert "scipy" not in sys.modules
rng = np.random.default_rng(7)
cases = []
for n in [2 ** p for p in range(3, 12)]:
    cases.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    cases.append(rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n)))
ours = [(grid.fft(z), grid.ifft(z)) for z in cases]
assert "scipy.fft" in sys.modules

import scipy.fft
for z, (forward, inverse) in zip(cases, ours):
    assert forward.tobytes() == scipy.fft.fft(z).tobytes(), z.shape
    assert inverse.tobytes() == scipy.fft.ifft(z).tobytes(), z.shape
print(len(cases))
"""
    assert run_fresh(snippet, tmp_path) == "18"


def unused_imports(source):
    """(line, name) of each name that a module-level import of ``source``
    binds and no expression in it reads; ``from __future__`` aside."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_every_module_level_import_is_used():
    # __init__.py imports to re-export, so it is the one exception
    modules = sorted(name for name in os.listdir(PACKAGE)
                     if name.endswith(".py") and name != "__init__.py")
    assert "solver.py" in modules
    unused = {}
    for name in modules:
        with open(os.path.join(PACKAGE, name)) as fh:
            found = unused_imports(fh.read())
        if found:
            unused[name] = found
    assert unused == {}


def test_unused_import_check_flags_an_unused_import():
    # negative control: the same check on a snippet that imports json and
    # a name from it and reads neither
    snippet = """
from __future__ import annotations
import os.path
import json
from json import dumps as to_text
from sys import argv

print(os.path.sep, argv)
"""
    assert unused_imports(snippet) == [(4, "json"), (5, "to_text")]
