"""Expected Chern numbers, from sources independent of the timed code path.

- Analytic cells with at most one nonzero coupling: the closed-form Weyl
  points (weyl_points_g / _j02 / _jz) counted by predict_chern(points=...),
  with the same boundary rule as the diagram (a point within 1e-3*hr of the
  sphere flags the cell and is counted against the sphere grown by that
  guard).  No scan, bisection or flux quadrature is involved.
- Slow single-spin ramps on an adiabatic path: 2 if h0 < hr, else 0.
- Slow coupled ramps on an adiabatic path (the c06 rule: minimum path gap
  at least 0.05*hr and no degeneracy within 0.02*hr of either pole): the
  enclosure count of the closed-form points, or of the scanned points when
  more than one coupling is on.
- Everything else: results recorded from the reference commit (golden/).
  CLI runs are compared byte for byte, by SHA-256 of stdout and of every
  output file, and by exit code.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from spin1topo.hamiltonians import MHZ_TO_RAD_PER_US, CoupledParams, FieldVector, SingleSpinParams, family_for
from spin1topo.phases import (
    BOUNDARY_GUARD_FRACTION,
    predict_chern,
    scan_weyl_points,
    weyl_points_g,
    weyl_points_j02,
    weyl_points_jz,
)

from workloads import COUPLINGS, SLOW_RAMP_US, Op

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GAP_FRACTION = 0.05
POLE_MARGIN_FRACTION = 0.02


def rad(mhz: float) -> float:
    return mhz * MHZ_TO_RAD_PER_US


def cell_params(op: Op, x: float, y: float) -> CoupledParams:
    """Parameters of one diagram cell; x, y in MHz."""
    values = {c: op.args.get(c, 0.0) for c in ("h0",) + COUPLINGS}
    values[op.args["x"]] = x
    values[op.args["y"]] = y
    return CoupledParams(field=FieldVector(rad(op.args["hr"])), **{k: rad(v) for k, v in values.items()})


def grid_mhz(op: Op) -> tuple[np.ndarray, np.ndarray]:
    steps = op.args["steps"]
    return np.linspace(0.0, op.args["x_max"], steps), np.linspace(0.0, op.args["y_max"], steps)


def cell_key(params: CoupledParams) -> str:
    mhz = [v / MHZ_TO_RAD_PER_US for v in (params.field.magnitude, params.h0, params.g, params.j_z, params.j_02)]
    return ",".join(f"{v:.9g}" for v in mhz)


def closed_form_points(params):
    """Closed-form Weyl points, or None when more than one coupling is on."""
    if isinstance(params, SingleSpinParams):
        return None
    active = [c for c in COUPLINGS if getattr(params, c) != 0.0]
    if len(active) > 1:
        return None
    if params.j_z != 0.0:
        return weyl_points_jz(params.h0, params.j_z)
    if params.j_02 != 0.0:
        return weyl_points_j02(params.h0, params.j_02)
    return weyl_points_g(params.h0, params.g)


def enclosure_count(params, points) -> int:
    """predict_chern with the diagram's boundary fallback."""
    hr = params.field.magnitude
    guard = BOUNDARY_GUARD_FRACTION * hr
    if any(abs(abs(p.h_z) - hr) < guard for p in points):
        return predict_chern(params, hr + guard, points=points, boundary_guard=0.0)
    return predict_chern(params, hr, points=points)


def ramp_params(op: Op):
    a = op.args
    field = FieldVector(rad(a["hr"]))
    if a["system"] == "single":
        return SingleSpinParams(field=field, h0=rad(a["h0"]))
    return CoupledParams(field=field, **{k: rad(a.get(k, 0.0)) for k in ("h0",) + COUPLINGS})


def min_path_gap(params) -> float:
    """Smallest ground gap along the ramp path (phi does not change it)."""
    family = family_for(params)
    hr = params.field.magnitude
    thetas = np.linspace(0.0, math.pi, 181)
    rs = hr * np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=-1)
    energies = np.linalg.eigvalsh(family.matrices(rs))
    return float((energies[:, 1] - energies[:, 0]).min())


def ramp_oracle(op: Op) -> int | None:
    """Independent expectation for a ramp, or None when only a golden applies."""
    if op.args["t_ramp"] != SLOW_RAMP_US:
        return None
    params = ramp_params(op)
    hr = params.field.magnitude
    if isinstance(params, SingleSpinParams):
        locations = [-params.h0]
    else:
        points = closed_form_points(params)
        if points is None:
            points = scan_weyl_points(params)
        locations = [p.h_z for p in points]
    if any(abs(abs(hz) - hr) < POLE_MARGIN_FRACTION * hr for hz in locations):
        return None
    if min_path_gap(params) < GAP_FRACTION * hr:
        return None
    if isinstance(params, SingleSpinParams):
        return 2 if params.h0 < hr else 0
    return enclosure_count(params, points)


def load_golden(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


class Oracle:
    """Expected results for every op kind; counts what disagrees.

    Each check returns counts: `wrong` Chern numbers, `missing` (no oracle
    and no golden record: a gap in bench/golden), `unverified` (the golden
    run failed, so a result the program now returns has nothing to be
    compared with; a fix of a known defect lands here) and `mismatch` (a
    CLI run whose golden run passed differs from it by a byte).
    """

    def __init__(self):
        self.cells = load_golden("analytic_cells")
        self.ramps = load_golden("ramps")
        self.cli = load_golden("cli")
        self._ramp_cache: dict[str, int | str | None] = {}

    def expected_cell(self, params: CoupledParams) -> int | None:
        points = closed_form_points(params)
        if points is not None:
            return enclosure_count(params, points)
        return self.cells.get(cell_key(params))

    def check_diagram(self, op: Op, chern_grid) -> dict:
        xs, ys = grid_mhz(op)
        counts = {"wrong": 0, "missing": 0}
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                expected = self.expected_cell(cell_params(op, float(x), float(y)))
                if expected is None:
                    counts["missing"] += 1
                elif expected != int(chern_grid[i][j]):
                    counts["wrong"] += 1
        return counts

    def expected_ramp(self, op: Op) -> int | str | None:
        """The expected rounded Chern number, "error" if the golden run raised, or None."""
        key = op.key()
        if key not in self._ramp_cache:
            expected = ramp_oracle(op)
            if expected is None and key in self.ramps:
                expected = self.ramps[key].get("chern_rounded", "error")
            self._ramp_cache[key] = expected
        return self._ramp_cache[key]

    def check_ramp(self, op: Op, rounded: int) -> dict:
        expected = self.expected_ramp(op)
        if expected is None:
            return {"missing": 1}
        if expected == "error":
            return {"unverified": 1}
        return {"wrong": int(expected != rounded)}

    def check_cli(self, op: Op, record: dict) -> dict:
        golden = self.cli.get(op.key())
        got = record["cherns"]
        if golden is None:
            return {"missing": max(len(got), 1)}
        if golden["returncode"] != 0:
            return {"unverified": len(got)}
        mismatch = any(record[k] != golden[k] for k in ("returncode", "stdout_sha256", "files"))
        expected = golden["cherns"]
        wrong = len(got) if len(got) != len(expected) else sum(a != b for a, b in zip(got, expected))
        return {"wrong": wrong, "mismatch": int(mismatch)}
