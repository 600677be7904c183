"""Command-line front end.

Frequencies are accepted in MHz (so a field stated as 10*2pi MHz is typed as
10) and converted once, at the parse boundary, to rad/us.  Times are in us,
angles in radians.  Exit codes: 0 success, 2 usage error, 3 numerical or
consistency failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .berry import RampProtocol, simulate_ramp
from .exceptions import (
    BoundaryDegeneracyError,
    DegenerateBandError,
    DegenerateOnSurfaceError,
    DegenerateStartError,
    NoConvergenceError,
    RangeTooNarrowError,
    UnknownParameterError,
)
from .hamiltonians import (
    MHZ_TO_RAD_PER_US,
    CoupledParams,
    FieldVector,
    SingleSpinParams,
    circuit_outer_product,
    circuit_params_from_config,
    circuit_spin_equivalent,
    read_config_file,
)
from .phases import (
    WeylPoint,
    phase_diagram,
    scan_weyl_points,
    weyl_points_g,
    weyl_points_j02,
    weyl_points_jz,
)

USAGE_ERROR = 2
NUMERICAL_ERROR = 3

_NUMERICAL_FAILURES = (
    DegenerateBandError,
    DegenerateStartError,
    DegenerateOnSurfaceError,
    BoundaryDegeneracyError,
    RangeTooNarrowError,
    NoConvergenceError,
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _usable_cpus() -> int:
    """CPUs this process may run on (the affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin1topo",
        description="Berry curvature, Chern numbers and phase diagrams for spin-1 systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config written by --dump-config; flags override it")
        p.add_argument("--dump-config", help="write the resolved configuration as JSON")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("single-ramp", help="dynamical Chern number of a single qutrit")
    p.add_argument("--h0", type=float, help="z offset field, MHz")
    p.add_argument("--hr", type=float, help="ramped field magnitude, MHz")
    p.add_argument("--t-ramp", type=float, help="ramp duration, us")
    p.add_argument("--samples", type=int, default=1000)
    add_common(p)

    p = sub.add_parser("coupled-ramp", help="dynamical Chern number of two coupled qutrits")
    p.add_argument("--h0", type=float)
    p.add_argument("--hr", type=float)
    p.add_argument("--t-ramp", type=float)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--j-z", type=float, default=0.0)
    p.add_argument("--j-02", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=1000)
    add_common(p)

    p = sub.add_parser("phase-diagram", help="Chern number over a two-parameter grid")
    p.add_argument("--x", help="x parameter: h0, g, j_z or j_02")
    p.add_argument("--y", help="y parameter: h0, g, j_z or j_02")
    p.add_argument("--x-min", type=float, default=0.0)
    p.add_argument("--x-max", type=float)
    p.add_argument("--y-min", type=float, default=0.0)
    p.add_argument("--y-max", type=float)
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--method", choices=("analytic", "dynamical"), default="analytic")
    p.add_argument("--t-ramp", type=float, help="ramp duration for the dynamical method, us")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--hr", type=float)
    p.add_argument("--h0", type=float, default=0.0)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--j-z", type=float, default=0.0)
    p.add_argument("--j-02", type=float, default=0.0)
    p.add_argument("--jobs", type=int, default=_usable_cpus())
    p.add_argument("--svg", help="also write an SVG heatmap to this path")
    add_common(p)

    p = sub.add_parser("weyl", help="Weyl points: closed form vs on-axis scan")
    p.add_argument("--family", choices=("single", "coupled"), default="coupled")
    p.add_argument("--h0", type=float)
    p.add_argument("--hr", type=float)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--j-z", type=float, default=0.0)
    p.add_argument("--j-02", type=float, default=0.0)
    add_common(p)

    p = sub.add_parser("circuit-check", help="verify the outer-product to spin-form reduction")
    p.add_argument("--params", help="flat key = value file with circuit parameters (MHz)")
    add_common(p)

    return parser


def _merge_config(args: argparse.Namespace, argv: list[str]) -> dict:
    """Resolve flag values against an optional JSON config (MHz/us units)."""
    resolved = {k: v for k, v in vars(args).items() if k not in ("config", "dump_config")}
    if args.config:
        stored = json.loads(Path(args.config).read_text())
        stored.pop("command", None)
        explicit = {a.lstrip("-").replace("-", "_").split("=")[0] for a in argv if a.startswith("--")}
        for key, value in stored.items():
            if key not in explicit and key in resolved:
                resolved[key] = value
    return resolved


def _require(cfg: dict, parser_error, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        parser_error(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _dump_config(cfg: dict, command: str, path: str) -> None:
    record = {"command": command}
    record.update({k: v for k, v in cfg.items() if v is not None})
    Path(path).write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _write_output(out: str | None, fmt: str, csv_text: str, json_text: str) -> None:
    if not out:
        return
    Path(out).write_text(csv_text if fmt == "csv" else json_text)


def _ramp_protocol(cfg: dict, parser_error) -> RampProtocol:
    try:
        return RampProtocol(t_ramp=cfg["t_ramp"], n_samples=cfg["samples"])
    except ValueError as exc:
        parser_error(str(exc))


def _run_ramp(cfg: dict, parser_error, coupled_system: bool) -> int:
    hr = cfg["hr"] * MHZ_TO_RAD_PER_US
    h0 = cfg["h0"] * MHZ_TO_RAD_PER_US
    field = FieldVector(magnitude=hr)
    if coupled_system:
        params = CoupledParams(
            field=field,
            h0=h0,
            g=cfg["g"] * MHZ_TO_RAD_PER_US,
            j_z=cfg["j_z"] * MHZ_TO_RAD_PER_US,
            j_02=cfg["j_02"] * MHZ_TO_RAD_PER_US,
        )
    else:
        params = SingleSpinParams(field=field, h0=h0)
    trace = simulate_ramp(params, _ramp_protocol(cfg, parser_error))
    _write_output(cfg.get("out"), cfg.get("format", "csv"), trace.to_csv(), trace.to_json() + "\n")
    print(f"chern={_fmt(trace.chern)} rounded={trace.chern_rounded} residual={_fmt(trace.residual)}")
    return 0


def _analytic_weyl(cfg: dict, parser_error) -> list[WeylPoint]:
    h0 = cfg["h0"] * MHZ_TO_RAD_PER_US
    if cfg["family"] == "single":
        if any(cfg[k] for k in ("g", "j_z", "j_02")):
            parser_error("the single family takes no coupling parameters")
        return [WeylPoint(h_z=-h0, charge=2, gap_sector=(1, -1))]
    couplings = {k: cfg[k] * MHZ_TO_RAD_PER_US for k in ("g", "j_z", "j_02")}
    active = [k for k, v in couplings.items() if v != 0.0]
    if len(active) > 1:
        parser_error("closed-form Weyl points exist for at most one nonzero coupling")
    if couplings["j_z"]:
        return weyl_points_jz(h0, couplings["j_z"])
    if couplings["j_02"]:
        return weyl_points_j02(h0, couplings["j_02"])
    return weyl_points_g(h0, couplings["g"])


def _dedupe(points: list[WeylPoint], tol: float) -> list[WeylPoint]:
    """Merge stacked points, summing charges (the uncoupled limit)."""
    merged: list[WeylPoint] = []
    for p in sorted(points, key=lambda q: q.h_z):
        if merged and abs(p.h_z - merged[-1].h_z) <= tol:
            last = merged[-1]
            merged[-1] = WeylPoint(
                h_z=last.h_z,
                charge=last.charge + p.charge,
                gap_sector=(max(last.gap_sector[0], p.gap_sector[0]),
                            min(last.gap_sector[1], p.gap_sector[1])),
            )
        else:
            merged.append(p)
    return merged


def _run_weyl(cfg: dict, parser_error) -> int:
    hr = cfg["hr"] * MHZ_TO_RAD_PER_US
    h0 = cfg["h0"] * MHZ_TO_RAD_PER_US
    field = FieldVector(magnitude=hr)
    analytic = _dedupe(_analytic_weyl(cfg, parser_error), tol=1e-9 * max(hr, 1.0))
    if cfg["family"] == "single":
        params = SingleSpinParams(field=field, h0=h0)
    else:
        params = CoupledParams(
            field=field,
            h0=h0,
            g=cfg["g"] * MHZ_TO_RAD_PER_US,
            j_z=cfg["j_z"] * MHZ_TO_RAD_PER_US,
            j_02=cfg["j_02"] * MHZ_TO_RAD_PER_US,
        )
    scanned = scan_weyl_points(params, keep_uncharged=True)
    scanned = _dedupe(scanned, tol=1e-6)
    status = 0
    if len(analytic) != len(scanned):
        print(
            f"analytic found {len(analytic)} points but scan found {len(scanned)}",
            file=sys.stderr,
        )
        return NUMERICAL_ERROR
    for a, s in zip(analytic, scanned):
        delta = abs(a.h_z - s.h_z)
        print(
            f"h_z={_fmt(a.h_z)} charge={s.charge} sectors={s.gap_sector[0]},{s.gap_sector[1]} "
            f"scanned_h_z={_fmt(s.h_z)} delta={_fmt(delta)}"
        )
        if delta > 1e-4:
            status = NUMERICAL_ERROR
    return status


def _run_phase_diagram(cfg: dict, parser_error) -> int:
    hr = cfg["hr"] * MHZ_TO_RAD_PER_US
    fixed = CoupledParams(
        field=FieldVector(magnitude=hr),
        h0=cfg["h0"] * MHZ_TO_RAD_PER_US,
        g=cfg["g"] * MHZ_TO_RAD_PER_US,
        j_z=cfg["j_z"] * MHZ_TO_RAD_PER_US,
        j_02=cfg["j_02"] * MHZ_TO_RAD_PER_US,
    )
    protocol = None
    if cfg["method"] == "dynamical":
        if cfg.get("t_ramp") is None:
            raise UnknownParameterError("--t-ramp is required with --method dynamical")
        protocol = _ramp_protocol(cfg, parser_error)
    x_grid = np.linspace(cfg["x_min"], cfg["x_max"], cfg["steps"]) * MHZ_TO_RAD_PER_US
    y_grid = np.linspace(cfg["y_min"], cfg["y_max"], cfg["steps"]) * MHZ_TO_RAD_PER_US
    diagram = phase_diagram(
        cfg["x"], cfg["y"], x_grid, y_grid, fixed,
        method=cfg["method"], protocol=protocol, jobs=cfg["jobs"],
    )
    _write_output(cfg.get("out"), cfg.get("format", "csv"), diagram.to_csv(), diagram.to_json() + "\n")
    if cfg.get("svg"):
        from .svgplot import write_heatmap_svg

        write_heatmap_svg(diagram, hr, cfg["svg"])
    values = sorted({int(v) for v in diagram.chern_grid.ravel()})
    print(
        f"grid={cfg['steps']}x{cfg['steps']} method={cfg['method']} "
        f"values={','.join(str(v) for v in values)} flagged={int(diagram.flagged.sum())}"
    )
    return 0


def _run_circuit_check(cfg: dict) -> int:
    values = read_config_file(cfg["params"])
    params = circuit_params_from_config(values)
    full = circuit_outer_product(params)
    spin_form = circuit_spin_equivalent(params)
    deviation = float(np.abs(full - spin_form).max())
    print(f"deviation={_fmt(deviation)}")
    return 0 if deviation <= 1e-12 else NUMERICAL_ERROR


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _merge_config(args, argv)
    if args.dump_config:
        _dump_config(cfg, args.command, args.dump_config)
    try:
        if args.command == "single-ramp":
            _require(cfg, parser.error, "h0", "hr", "t_ramp")
            return _run_ramp(cfg, parser.error, coupled_system=False)
        if args.command == "coupled-ramp":
            _require(cfg, parser.error, "h0", "hr", "t_ramp")
            return _run_ramp(cfg, parser.error, coupled_system=True)
        if args.command == "phase-diagram":
            _require(cfg, parser.error, "x", "y", "x_max", "y_max", "hr")
            return _run_phase_diagram(cfg, parser.error)
        if args.command == "weyl":
            _require(cfg, parser.error, "h0", "hr")
            return _run_weyl(cfg, parser.error)
        if args.command == "circuit-check":
            _require(cfg, parser.error, "params")
            return _run_circuit_check(cfg)
        parser.error(f"unknown command {args.command!r}")
    except UnknownParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _NUMERICAL_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
