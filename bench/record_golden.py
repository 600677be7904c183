#!/usr/bin/env python3
"""Record the golden results the oracle falls back on.

    python3 bench/record_golden.py            # all three files
    python3 bench/record_golden.py cli        # one of: cells, ramps, cli

Covers every input the workloads can draw that no independent oracle
covers: analytic cells with two or more couplings on, ramps that are fast or
not adiabatic, and every CLI run (exit code, SHA-256 of stdout and of each
output file, and the Chern numbers it returned).  Run it only at a commit
whose results are the reference; the goldens are what later commits must
reproduce byte for byte.
"""

from __future__ import annotations

import json
import logging
import sys
import tempfile

import run  # sets up nothing at import; provides the runner and paths

sys.path.insert(0, str(run.SRC))

from oracle import GOLDEN_DIR, cell_key, cell_params, closed_form_points, grid_mhz, ramp_oracle, ramp_params  # noqa: E402
from spin1topo.berry import RampProtocol, simulate_ramp  # noqa: E402
from spin1topo.phases import _evaluate_cell  # noqa: E402
from workloads import all_ops  # noqa: E402


def record_cells() -> dict:
    cells = {}
    for op in all_ops("analytic-grid"):
        xs, ys = grid_mhz(op)
        for x in xs:
            for y in ys:
                params = cell_params(op, float(x), float(y))
                key = cell_key(params)
                if key in cells or closed_form_points(params) is not None:
                    continue
                cells[key] = int(_evaluate_cell((params, "h0", "g", 0, 0, params.h0, params.g, "analytic", None))[2])
    return cells


def record_ramps() -> dict:
    ramps = {}
    for op in all_ops("ramp-sweep"):
        if ramp_oracle(op) is not None:
            continue
        try:
            trace = simulate_ramp(ramp_params(op), RampProtocol(op.args["t_ramp"]))
            ramps[op.key()] = {"chern_rounded": int(trace.chern_rounded)}
        except Exception as exc:  # recorded: the benchmark counts it as a failed op
            ramps[op.key()] = {"error": type(exc).__name__}
    return ramps


def record_cli() -> dict:
    records = {}
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        runner = run.Runner(run.Path(tmp))
        for op in all_ops("cli-mix"):
            rec = runner.run(op)
            records[op.key()] = run.cli_record(op, rec["result"])
    return records


RECORDERS = {"cells": ("analytic_cells", record_cells), "ramps": ("ramps", record_ramps),
             "cli": ("cli", record_cli)}


def main() -> None:
    logging.disable(logging.WARNING)
    run.OUT.mkdir(exist_ok=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or list(RECORDERS):
        stem, recorder = RECORDERS[name]
        data = recorder()
        (GOLDEN_DIR / f"{stem}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{stem}: {len(data)} records")


if __name__ == "__main__":
    main()
