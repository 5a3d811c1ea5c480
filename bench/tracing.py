"""In-memory spans and counts around the public functions of each lpwave layer.

The program itself is not instrumented.  Each wrapped function is replaced
under every name it is reachable by in the ``lpwave`` modules (``energy``
imports ``solve_cauchy``, ``cfl_limit`` and ``apply_L`` by name; ``solver``
and ``experiment`` import ``run_all_checks`` by name), so a call through any
alias is seen.  ``lpwave.coefficients`` is the function ``grid.coefficients``
and shadows the submodule, so that module is reached through
``importlib.import_module``.

A span is (name, start, end, parent index).  Hot inner functions are only
counted: a span per spectral derivative would cost more than the call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

# (span name, module, attribute): timed, with self time and call count
SPANNED = [
    ("solver.solve_cauchy", "lpwave.solver", "solve_cauchy"),
    ("solver.cfl_limit", "lpwave.solver", "cfl_limit"),
    ("solver.save_trajectory", "lpwave.solver", "save_trajectory"),
    ("solver.load_trajectory", "lpwave.solver", "load_trajectory"),
    ("dyadic.sobolev_norm", "lpwave.dyadic", "sobolev_norm"),
    ("dyadic.build_cutoffs", "lpwave.dyadic", "build_cutoffs"),
    ("commutator.scan", "lpwave.commutator", "scan"),
    ("commutator.dense_norm", "lpwave.commutator", "dense_norm"),
    ("commutator.power_norm", "lpwave.commutator", "power_norm"),
    ("energy.energy_table", "lpwave.energy", "energy_table"),
    ("energy.weight_table", "lpwave.energy", "weight_table"),
    ("energy.calibrate_constants", "lpwave.energy", "calibrate_constants"),
    ("energy.verify_energy_inequality", "lpwave.energy",
     "verify_energy_inequality"),
    ("energy.loss_ratio_curve", "lpwave.energy", "loss_ratio_curve"),
    ("energy.estimate_loss", "lpwave.energy", "estimate_loss"),
    ("coefficients.run_all_checks", "lpwave.coefficients", "run_all_checks"),
    ("experiment.write_manifest", "lpwave.experiment", "write_manifest"),
    ("experiment.run_full_pipeline", "lpwave.experiment", "run_full_pipeline"),
    ("cli.main", "lpwave.cli", "main"),
]

# (count name, module, attribute): calls counted, not timed
COUNTED = [
    ("solver.apply_L.calls", "lpwave.solver", "apply_L"),
    ("grid.derivative_values.calls", "lpwave.grid", "derivative_values"),
    ("commutator.operator_applies", "lpwave.commutator", "apply_commutator"),
    ("commutator.operator_applies", "lpwave.commutator",
     "apply_commutator_adjoint"),
]

# per-layer metrics a traced run reports: (name, unit)
LAYER_METRICS = [
    ("solver.solve_cauchy.s", "s"),
    ("solver.rk4_steps", "count"),
    ("solver.step_us", "us"),
    ("solver.apply_L.calls", "count"),
    ("solver.cfl_limit.s", "s"),
    ("solver.save_trajectory.s", "s"),
    ("solver.load_trajectory.s", "s"),
    ("solver.trajectory_bytes", "bytes"),
    ("grid.derivative_values.calls", "count"),
    ("dyadic.sobolev_norm.s", "s"),
    ("dyadic.sobolev_norm.calls", "count"),
    ("dyadic.build_cutoffs.s", "s"),
    ("commutator.scan.s", "s"),
    ("commutator.dense_norm.s", "s"),
    ("commutator.dense_norm.calls", "count"),
    ("commutator.power_norm.s", "s"),
    ("commutator.power_norm.calls", "count"),
    ("commutator.operator_applies", "count"),
    ("energy.energy_table.s", "s"),
    ("energy.weight_table.s", "s"),
    ("energy.quad_evals", "count"),
    ("energy.calibrate_constants.s", "s"),
    ("energy.verify_energy_inequality.s", "s"),
    ("energy.loss_ratio_curve.s", "s"),
    ("energy.estimate_loss.s", "s"),
    ("coefficients.run_all_checks.s", "s"),
    ("coefficients.run_all_checks.calls", "count"),
    ("experiment.write_manifest.s", "s"),
    ("experiment.run_full_pipeline.s", "s"),
    ("cli.main.s", "s"),
]


class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []         # [span index, time covered by children]

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
                if self._stack:
                    self._stack[-1][1] += end - start
                self.self_s[name] += end - start - frame[1]
                self.calls[name] += 1
            if after is not None:
                after(self.counts, args, kwargs)
            return result
        return wrapper

    def count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_integrand(self, factory):
        """Wrap the closure that ``energy.weight_integrand`` returns."""
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            integrand = factory(*args, **kwargs)

            def counted(s):
                self.counts["energy.quad_evals"] += 1
                return integrand(s)
            return counted
        return wrapper

    def metrics(self):
        """Per-layer figures of this round, keyed as in LAYER_METRICS."""
        out = {}
        for name, _, _ in SPANNED:
            out[name + ".s"] = self.self_s[name]
            out[name + ".calls"] = self.calls[name]
        out.update(self.counts)
        steps = self.counts["solver.rk4_steps"]
        out["solver.step_us"] = (1e6 * self.self_s["solver.solve_cauchy"]
                                 / steps if steps else 0.0)
        return {name: out.get(name, 0) for name, _ in LAYER_METRICS}


def _rk4_steps(counts, args, kwargs):
    import lpwave.solver
    bound = inspect.signature(lpwave.solver.solve_cauchy).bind(*args, **kwargs)
    bound.apply_defaults()
    counts["solver.rk4_steps"] += bound.arguments["M"]


def _trajectory_bytes(counts, args, kwargs):
    out_dir = kwargs.get("out_dir", args[1] if len(args) > 1 else None)
    for entry in os.scandir(out_dir):
        counts["solver.trajectory_bytes"] += entry.stat().st_size


AFTER = {"solver.solve_cauchy": _rk4_steps,
         "solver.save_trajectory": _trajectory_bytes}


def _aliases(original):
    """Every (module, attribute) in lpwave bound to ``original``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "lpwave"
                               or mod_name.startswith("lpwave.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                yield mod, attr


@contextlib.contextmanager
def installed(tracer):
    """Replace the targets with tracer's wrappers, and restore them on exit."""
    saved = []

    def replace(original, wrapped):
        for mod, attr in _aliases(original):
            saved.append((mod, attr, original))
            setattr(mod, attr, wrapped)

    for name, module, attr in SPANNED:
        original = getattr(importlib.import_module(module), attr)
        replace(original, tracer.span(name, original, AFTER.get(name)))
    for name, module, attr in COUNTED:
        original = getattr(importlib.import_module(module), attr)
        replace(original, tracer.count(name, original))
    energy = importlib.import_module("lpwave.energy")
    replace(energy.weight_integrand,
            tracer.counted_integrand(energy.weight_integrand))
    try:
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
