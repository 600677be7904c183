"""Command-line front end.

Frequencies are accepted in MHz (so a field stated as 10*2pi MHz is typed as
10) and converted once, at the parse boundary, to rad/us.  Times are in us,
angles in radians.  Exit codes: 0 success, 2 usage error, 3 numerical or
consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
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


def _finite(text: str) -> float:
    """argparse type: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive(text: str) -> float:
    """argparse type: a finite number above zero."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


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

    def add_fields(p: argparse.ArgumentParser, h0_default: float | None = None) -> None:
        p.add_argument("--h0", type=_finite, default=h0_default, help="z offset field, MHz")
        p.add_argument("--hr", type=_positive, help="ramped field magnitude, MHz")

    def add_couplings(p: argparse.ArgumentParser) -> None:
        for flag in ("--g", "--j-z", "--j-02"):
            p.add_argument(flag, type=_finite, default=0.0, help="coupling, MHz")

    def add_ramp(p: argparse.ArgumentParser, t_ramp_help: str = "ramp duration, us") -> None:
        p.add_argument("--t-ramp", type=_finite, help=t_ramp_help)
        p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("single-ramp", help="dynamical Chern number of a single qutrit")
    add_fields(p)
    add_ramp(p)
    add_common(p)

    p = sub.add_parser("coupled-ramp", help="dynamical Chern number of two coupled qutrits")
    add_fields(p)
    add_couplings(p)
    add_ramp(p)
    add_common(p)

    p = sub.add_parser("phase-diagram", help="Chern number over a two-parameter grid")
    p.add_argument("--x", help="x parameter: h0, g, j_z or j_02")
    p.add_argument("--y", help="y parameter: h0, g, j_z or j_02")
    p.add_argument("--x-min", type=_finite, default=0.0)
    p.add_argument("--x-max", type=_finite)
    p.add_argument("--y-min", type=_finite, default=0.0)
    p.add_argument("--y-max", type=_finite)
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--method", choices=("analytic", "dynamical"), default="analytic")
    add_ramp(p, t_ramp_help="ramp duration for the dynamical method, us")
    add_fields(p, h0_default=0.0)
    add_couplings(p)
    p.add_argument("--jobs", type=int, default=_usable_cpus())
    p.add_argument("--svg", help="also write an SVG heatmap to this path")
    add_common(p)

    p = sub.add_parser("weyl", help="Weyl points: closed form vs on-axis scan")
    p.add_argument("--family", choices=("single", "coupled"), default="coupled")
    add_fields(p)
    add_couplings(p)
    add_common(p)

    p = sub.add_parser("circuit-check", help="verify the outer-product to spin-form reduction")
    p.add_argument("--params", help="flat key = value file with circuit parameters (MHz)")
    add_common(p)

    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> dict:
    """Resolve flags against an optional JSON config (MHz/us units).

    Stored values of flags not given explicitly are parsed as if given, so
    they go through the same type checks.
    """
    args = parser.parse_args(argv)
    if args.config:
        stored = json.loads(Path(args.config).read_text())
        explicit = {a.lstrip("-").replace("-", "_").split("=")[0] for a in argv if a.startswith("--")}
        known = set(vars(args)) - explicit - {"command", "config", "dump_config"}
        from_config = [f"--{k.replace('_', '-')}={v}" for k, v in stored.items() if k in known]
        args = parser.parse_args(argv + from_config)
    return {k: v for k, v in vars(args).items() if k != "config"}


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


def _params(cfg: dict, coupled_system: bool) -> CoupledParams | SingleSpinParams:
    """Parameter record from resolved MHz values, converted once to rad/us."""
    field = FieldVector(magnitude=cfg["hr"] * MHZ_TO_RAD_PER_US)
    h0 = cfg["h0"] * MHZ_TO_RAD_PER_US
    if not coupled_system:
        return SingleSpinParams(field=field, h0=h0)
    return CoupledParams(
        field=field,
        h0=h0,
        g=cfg["g"] * MHZ_TO_RAD_PER_US,
        j_z=cfg["j_z"] * MHZ_TO_RAD_PER_US,
        j_02=cfg["j_02"] * MHZ_TO_RAD_PER_US,
    )


def _run_ramp(cfg: dict, parser_error, coupled_system: bool) -> int:
    params = _params(cfg, coupled_system)
    trace = simulate_ramp(params, _ramp_protocol(cfg, parser_error))
    _write_output(cfg.get("out"), cfg.get("format", "csv"), trace.to_csv(), trace.to_json() + "\n")
    print(f"chern={_fmt(trace.chern)} rounded={trace.chern_rounded} residual={_fmt(trace.residual)}")
    return 0


def _analytic_weyl(params, cfg: dict, parser_error) -> list[WeylPoint]:
    if isinstance(params, SingleSpinParams):
        if any(cfg[k] for k in ("g", "j_z", "j_02")):
            parser_error("the single family takes no coupling parameters")
        return [WeylPoint(h_z=-params.h0, charge=2, gap_sector=(1, -1))]
    if sum(c != 0.0 for c in (params.g, params.j_z, params.j_02)) > 1:
        parser_error("closed-form Weyl points exist for at most one nonzero coupling")
    if params.j_z:
        return weyl_points_jz(params.h0, params.j_z)
    if params.j_02:
        return weyl_points_j02(params.h0, params.j_02)
    return weyl_points_g(params.h0, params.g)


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
    params = _params(cfg, coupled_system=cfg["family"] == "coupled")
    hr = params.field.magnitude
    analytic = _dedupe(_analytic_weyl(params, cfg, parser_error), tol=1e-9 * max(hr, 1.0))
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
    if cfg["x"] == cfg["y"]:
        parser_error("--x and --y must name different parameters")
    if cfg["steps"] < 1:
        parser_error(f"--steps must be at least 1, got {cfg['steps']}")
    fixed = _params(cfg, coupled_system=True)
    hr = fixed.field.magnitude
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
    cfg = _parse(parser, argv)
    command = cfg["command"]
    dump_path = cfg.pop("dump_config")
    if dump_path:
        _dump_config(cfg, command, dump_path)
    try:
        if command == "single-ramp":
            _require(cfg, parser.error, "h0", "hr", "t_ramp")
            return _run_ramp(cfg, parser.error, coupled_system=False)
        if command == "coupled-ramp":
            _require(cfg, parser.error, "h0", "hr", "t_ramp")
            return _run_ramp(cfg, parser.error, coupled_system=True)
        if command == "phase-diagram":
            _require(cfg, parser.error, "x", "y", "x_max", "y_max", "hr")
            return _run_phase_diagram(cfg, parser.error)
        if command == "weyl":
            _require(cfg, parser.error, "h0", "hr")
            return _run_weyl(cfg, parser.error)
        if command == "circuit-check":
            _require(cfg, parser.error, "params")
            return _run_circuit_check(cfg)
        parser.error(f"unknown command {command!r}")
    except UnknownParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _NUMERICAL_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
