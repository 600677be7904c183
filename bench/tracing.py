"""In-memory spans around the calls into each spin1topo module.

The traced run wraps module attributes from here, never from inside the
package.  Each wrapper records a span (name, start, end, parent span, op id)
plus one number from the call, such as its batch size.  A binding is wrapped
where its caller looks it up: berry and phases do `from .numerics import
eigh_many`, so numerics.eigh_many, berry.eigh_many and phases.eigh_many are
all patched, and likewise for every other re-exported name.

Spans are stored column-wise in arrays; a traced run records about a
million of them.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

NO_PARENT = -1
# Largest theta grid of phases._converged_flux at the reference commit.
LAST_QUADRATURE = 16384


class Tracer:
    """Collects spans in memory; one tracer per traced replay."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("d")
        self.ok = bytearray()
        self._stack: list[int] = []
        self.op_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str, value: float = math.nan) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(self._name_ids[name])
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op.append(self.op_id)
        self.value.append(value)
        self.ok.append(0)
        self.end.append(math.nan)
        index = len(self.start)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, ok: bool) -> None:
        self.end[index] = time.perf_counter()
        self.ok[index] = ok
        self._stack.pop()

    def rows(self):
        """(name, start, end, parent, op id, value, ok) per span, for writing out."""
        for i in range(len(self)):
            yield (self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i],
                   None if math.isnan(self.value[i]) else self.value[i], bool(self.ok[i]))


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            children.setdefault(p, []).append((start[i], end[i]))
    result = []
    for i in range(len(start)):
        covered = 0.0
        cursor = start[i]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, end[i])
            if b > a:
                covered += b - a
                cursor = b
        result.append((end[i] - start[i]) - covered)
    return result


def _batch(arr, trailing: int) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[: len(shape) - trailing])) if len(shape) > trailing else 1


# The number a span records, taken from the call's arguments or its result.
def _matrices_value(self, rs):
    return _batch(rs, 1)


def _eigh_value(hs):
    return _batch(hs, 2)


def _curvature_value(family, rs, *args, **kwargs):
    return _batch(rs, 1)


def _labels_value(family, hzs):
    return int(np.size(hzs))


def _flux_eval_value(family, hz, radius, n_theta):
    return int(n_theta)


def _diagram_value(x_param, y_param, x_grid, y_grid, *args, **kwargs):
    return int(np.size(x_grid) * np.size(y_grid))


# attribute -> (span name, modules that bind it ("" is the package),
#               value from the call, value from the result)
TARGETS = {
    "eigh_many": ("numerics.eigh_many", ("numerics", "berry", "phases"), _eigh_value, None),
    "hermitian_eigs": ("numerics.hermitian_eigs", ("numerics", "berry"), None, None),
    "propagate_step": ("numerics.propagate_step", ("numerics",), None, None),
    "simulate_ramp": ("berry.simulate_ramp", ("berry", "phases", "cli", ""), None, None),
    "_batch_curvature": ("berry.curvature", ("berry", "phases"), _curvature_value, None),
    "scan_weyl_points": ("phases.scan_weyl_points", ("phases", "cli", ""), None, None),
    "_ground_labels": ("phases.ground_labels", ("phases",), _labels_value, None),
    "_ground_label": ("phases.ground_label", ("phases",), None, None),
    "_bisect_flip": ("phases.bisection", ("phases",), None, None),
    "_axis_sphere_flux": ("phases.flux.evaluate", ("phases",), _flux_eval_value, None),
    "_converged_flux": ("phases.flux", ("phases",), None, float),
    "_evaluate_cell": ("phases.cell", ("phases",), None, lambda result: float(result[3])),
    "phase_diagram": ("phases.phase_diagram", ("phases", "cli", ""), _diagram_value, None),
    "write_heatmap_svg": ("svgplot.write_heatmap_svg", ("svgplot",), None, None),
    "main": ("cli.main", ("cli",), None, None),
}
METHODS = {
    "matrices": ("hamiltonians.matrices", _matrices_value),
    "matrix": ("hamiltonians.matrices", lambda self, r: 1),
}


def _wrap(tracer: Tracer, fn, name: str, call_value, result_value):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name, call_value(*args, **kwargs) if call_value else math.nan)
        ok = False
        try:
            result = fn(*args, **kwargs)
            if result_value:
                tracer.value[index] = result_value(result)
            ok = True
            return result
        finally:
            tracer.close(index, ok)

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Patch every binding in TARGETS and METHODS; restore them on exit."""
    package = importlib.import_module("spin1topo")
    saved = []
    try:
        for attr, (name, modules, call_value, result_value) in TARGETS.items():
            wrapper = None
            for mod_name in modules:
                module = importlib.import_module(f"spin1topo.{mod_name}") if mod_name else package
                if not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                wrapper = wrapper or _wrap(tracer, original, name, call_value, result_value)
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        family = importlib.import_module("spin1topo.hamiltonians").HamiltonianFamily
        for attr, (name, call_value) in METHODS.items():
            original = getattr(family, attr)
            saved.append((family, attr, original))
            setattr(family, attr, _wrap(tracer, original, name, call_value, None))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer counts and self times from one traced replay of `wall` seconds."""
    t = tracer
    selfs = self_times(t.start, t.end, t.parent)
    by_name: dict[str, list[int]] = {name: [] for name in t.names}
    for i, name_id in enumerate(t.name):
        by_name[t.names[name_id]].append(i)

    def idx(name):
        return by_name.get(name, [])

    def self_s(name):
        return float(sum(selfs[i] for i in idx(name)))

    def total(name):
        return int(sum(t.value[i] for i in idx(name)))

    def parent_is(i, name):
        p = t.parent[i]
        return p != NO_PARENT and t.names[t.name[p]] == name

    eigh = idx("numerics.eigh_many")
    eigh_matrices = total("numerics.eigh_many")
    ramps_ok = sum(t.ok[i] for i in idx("berry.simulate_ramp"))
    ramp_steps = sum(int(t.value[i]) for i in eigh if parent_is(i, "berry.simulate_ramp"))
    evals_per_flux = {i: 0 for i in idx("phases.flux")}
    finest = dict.fromkeys(evals_per_flux, 0)
    for i in idx("phases.flux.evaluate"):
        if t.parent[i] in evals_per_flux:
            evals_per_flux[t.parent[i]] += 1
            finest[t.parent[i]] = max(finest[t.parent[i]], int(t.value[i]))
    fluxes = [t.value[i] for i in idx("phases.flux") if t.ok[i]]
    m = {
        "hamiltonians.matrices.count": total("hamiltonians.matrices"),
        "hamiltonians.matrices.self_s": self_s("hamiltonians.matrices"),
        "numerics.eigh_many.calls": len(eigh),
        "numerics.eigh_many.matrices": eigh_matrices,
        "numerics.eigh_many.single_calls": sum(1 for i in eigh if t.value[i] == 1),
        "numerics.eigh_many.self_s": self_s("numerics.eigh_many"),
        "numerics.eigh_many.us_per_matrix": 1e6 * self_s("numerics.eigh_many") / max(eigh_matrices, 1),
        "numerics.hermitian_eigs.self_s": self_s("numerics.hermitian_eigs"),
        "numerics.propagate_step.calls": len(idx("numerics.propagate_step")),
        "berry.simulate_ramp.calls": len(idx("berry.simulate_ramp")),
        "berry.simulate_ramp.self_s": self_s("berry.simulate_ramp"),
        "berry.ramp.steps": ramp_steps,
        "berry.ramp.steps_per_chern": ramp_steps / ramps_ok if ramps_ok else 0.0,
        "berry.curvature.points": total("berry.curvature"),
        "berry.curvature.self_s": self_s("berry.curvature"),
        "phases.scan_weyl_points.calls": len(idx("phases.scan_weyl_points")),
        "phases.scan_weyl_points.self_s": self_s("phases.scan_weyl_points"),
        "phases.scan.grid_matrices": sum(int(t.value[i]) for i in idx("phases.ground_labels") if t.value[i] > 1),
        "phases.bisection.steps": sum(1 for i in idx("phases.ground_label") if parent_is(i, "phases.bisection")),
        "phases.flux.evaluations": len(idx("phases.flux.evaluate")),
        "phases.flux.refinements": sum(max(n - 1, 0) for n in evals_per_flux.values()),
        "phases.flux.first_try_ratio": (
            sum(1 for n in evals_per_flux.values() if n == 1) / len(evals_per_flux) if evals_per_flux else 0.0
        ),
        # A returned flux this far from an integer is rounded to a charge anyway.
        "phases.flux.unconverged": sum(1 for f in fluxes if abs(f - round(f)) > 0.05),
        # Points that reached the last quadrature level, where the flux is
        # returned whether it converged or not.
        "phases.flux.full_refinements": sum(1 for n in finest.values() if n >= LAST_QUADRATURE),
        "phases.phase_diagram.calls": len(idx("phases.phase_diagram")),
        "phases.phase_diagram.cells": total("phases.phase_diagram"),
        "phases.phase_diagram.self_s": self_s("phases.phase_diagram"),
        "phases.phase_diagram.flagged": sum(1 for i in idx("phases.cell") if t.value[i] == 1.0),
        "svgplot.write_heatmap_svg.self_s": self_s("svgplot.write_heatmap_svg"),
        "cli.main.inprocess_self_s": self_s("cli.main"),
        "trace.spans": len(t),
    }
    # Shares of the traced wall time, for layers that a workload may never
    # call: a share can be 0 where a time of exactly 0 s would read as fixed.
    for layer in ("berry.simulate_ramp", "berry.curvature", "phases.scan_weyl_points",
                  "phases.phase_diagram", "svgplot.write_heatmap_svg"):
        m[f"{layer}.self_share"] = 100.0 * self_s(layer) / wall if wall > 0 else 0.0
    return m
