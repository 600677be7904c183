"""Weyl points, enclosure counting and two-parameter phase diagrams.

On the field z-axis the Hamiltonian conserves the total spin projection, so
ground-level degeneracies are exact crossings between symmetry sectors.
The scan labels a coarse h_z grid by full eigh, in real arithmetic since
the on-axis Hamiltonian is real, and bisects each label change.  Each
sector's lowest level is a straight line in h_z (its offset is one small
eigvalsh, cached per family as HamiltonianFamily.sector_lines), so a
bisection probe takes the lowest line as its label.  Where two lines tie to
rounding, grid point and probe alike take the label of a full complex eigh.
Every crossing is characterised by the flux of the ground-band curvature
through a small enclosing sphere, integrated along the phi = 0 meridian,
where the Hamiltonian is real and is diagonalised in real arithmetic:
crossings between adjacent sectors carry charge 1, while crossings where
the sector label jumps by two (Ising or pair-exchange couplings, and the
uncoupled limit) are double sources of charge 2.  Crossings whose flux
rounds to zero contribute no curvature and are discarded with a log note.

The first Chern number measured by a ramp over the sphere |r| = hr equals
the total charge of the enclosed points, which is what predict_chern counts
and what phase_diagram sweeps over a parameter grid.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .berry import RESIDUAL_WARNING, RampProtocol, _batch_curvature, simulate_ramp
from .exceptions import (
    BoundaryDegeneracyError,
    RangeTooNarrowError,
    UnknownParameterError,
)
from .hamiltonians import (
    _SWAP_SYM,
    CoupledParams,
    HamiltonianFamily,
    SingleSpinParams,
    family_for,
    parity_sector_families,
)
from .numerics import eigh_many, single_thread_blas

logger = logging.getLogger(__name__)

SCAN_GRID_POINTS = 2000
BISECTION_TOL = 1e-8
CHARGE_SPHERE_FRACTION = 0.1
BOUNDARY_GUARD_FRACTION = 1e-3
# Sector lines closer than this (relative to the on-axis norm) are a tie.
TIE_RTOL = 1e-11

SWEEPABLE = ("h0", "g", "j_z", "j_02")


@dataclass(frozen=True)
class WeylPoint:
    """On-axis curvature source: location, integer charge, sector labels.

    gap_sector holds the ground-state m_tot labels just above and just below
    h_z; they differ by 1 for simple points and by 2 for double points.
    """

    h_z: float
    charge: int
    gap_sector: tuple[int, int]


def weyl_points_g(h0: float, g: float) -> list[WeylPoint]:
    """Closed-form Weyl points of the transverse (xx+yy) coupled family.

    Four simple points of unit charge; the first pair comes from crossings
    with the stretched sectors, the second pair from the middle sectors.
    """
    root4 = math.sqrt(h0 * h0 + 4.0 * g * g)
    root2 = math.sqrt(h0 * h0 + 2.0 * g * g)
    return [
        WeylPoint(-h0 / 2.0 + root4 / 2.0, +1, (2, 1)),
        WeylPoint(-h0 / 2.0 - root4 / 2.0, +1, (-1, -2)),
        WeylPoint(-h0 / 2.0 + root4 / 2.0 - root2, +1, (0, -1)),
        WeylPoint(-h0 / 2.0 - root4 / 2.0 + root2, +1, (1, 0)),
    ]


def weyl_points_j02(h0: float, j02: float) -> list[WeylPoint]:
    """Closed-form Weyl points of the pair-exchange coupled family.

    Two double points of charge 2: the pair-exchange term only splits the
    m_tot = 0 sector, so the ground level jumps straight from the stretched
    sector to the middle one and the transverse coupling across that jump is
    quadratic.
    """
    root = math.sqrt(h0 * h0 + j02 * j02)
    return [
        WeylPoint(-h0 / 2.0 + root / 2.0, +2, (2, 0)),
        WeylPoint(-h0 / 2.0 - root / 2.0, +2, (0, -2)),
    ]


def weyl_points_jz(h0: float, j_z: float) -> list[WeylPoint]:
    """Closed-form Weyl points of the Ising (zz) coupled family.

    The zz coupling keeps the on-axis Hamiltonian diagonal, so the crossings
    collapse into two triple points of charge 2 at h_z = j_z and
    h_z = -h0 - j_z; the enclosure conditions reproduce the transition lines
    h0 + j_z = hr and j_z = hr.
    """
    return [
        WeylPoint(j_z, +2, (2, 0)),
        WeylPoint(-h0 - j_z, +2, (0, -2)),
    ]


def _analytic_locations(params) -> list[float] | None:
    """Closed-form h_z values when the family admits them, else None."""
    if isinstance(params, SingleSpinParams):
        return [-params.h0]
    couplings = [params.g, params.j_z, params.j_02]
    active = [c for c in couplings if c != 0.0]
    if len(active) > 1:
        return None
    if params.j_z != 0.0:
        points = weyl_points_jz(params.h0, params.j_z)
    elif params.j_02 != 0.0:
        points = weyl_points_j02(params.h0, params.j_02)
    else:
        points = weyl_points_g(params.h0, params.g)
    return [p.h_z for p in points]


def _line_labels(family: HamiltonianFamily, hzs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest J_z sector line at each h_z, and where the two lowest tie.

    Two lines tie when they agree to TIE_RTOL of the on-axis norm.  The
    ground level is then degenerate to rounding, and its label is whatever
    the complex eigh's degenerate eigenvector gives.
    """
    lines = family.sector_lines
    energies = lines.offsets + np.multiply.outer(hzs, lines.slopes)
    lowest_two = np.partition(energies, 1, axis=-1)
    tie = lowest_two[:, 1] - lowest_two[:, 0] <= TIE_RTOL * lines.norm_bound(hzs)
    return lines.labels[np.argmin(energies, axis=-1)], tie


def _eigh_labels(family: HamiltonianFamily, hs: np.ndarray) -> np.ndarray:
    """m_tot label of the ground state of each matrix in the stack hs."""
    _, states = eigh_many(hs)
    ground = states[:, :, 0]
    jz_diag = np.diag(family.jz).real
    m = np.einsum("pi,i,pi->p", ground.conj(), jz_diag, ground).real
    return np.rint(m).astype(int)


def _ground_labels(family: HamiltonianFamily, hzs: np.ndarray) -> np.ndarray:
    """m_tot label of the ground state from a full eigh at each h_z.

    The on-axis matrix base + h_z*grad_z is real for every family here and is
    diagonalised in real arithmetic, except where two sector lines tie:
    those keep the complex eigh of family.matrices.
    """
    base, grad_z = family.base, family.grad[2]
    tie = _line_labels(family, hzs)[1] | bool(base.imag.any() or grad_z.imag.any())
    labels = np.empty(hzs.size, dtype=int)
    if not tie.all():
        real = base.real + hzs[~tie, None, None] * grad_z.real
        labels[~tie] = _eigh_labels(family, real)
    if tie.any():
        rs = np.zeros((np.count_nonzero(tie), 3))
        rs[:, 2] = hzs[tie]
        labels[tie] = _eigh_labels(family, family.matrices(rs))
    return labels


def _sector_labels(family: HamiltonianFamily, hzs: np.ndarray) -> np.ndarray:
    """_ground_labels read off the J_z sector lines, diagonalising only ties."""
    labels, tie = _line_labels(family, hzs)
    if tie.any():
        labels[tie] = _ground_labels(family, hzs[tie])
    return labels


def _ground_label(family: HamiltonianFamily, hz: float) -> int:
    """_sector_labels at one h_z (one bisection probe)."""
    return int(_sector_labels(family, np.asarray([hz]))[0])


def _bisect_flip(family: HamiltonianFamily, lo: float, hi: float, label_lo: int) -> float:
    """Locate the ground-sector change inside (lo, hi) to BISECTION_TOL."""
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if _ground_label(family, mid) == label_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _tracked_sector_family(family: HamiltonianFamily, hr: float) -> HamiltonianFamily:
    """Parity sector of the band the ramp starts in (h0 = 0 case only).

    When the starting ground state is degenerate (a phase boundary) the
    branch with larger m_tot is chosen, matching the weak-coupling
    continuation.
    """
    north = family.matrix(np.array([0.0, 0.0, hr]))
    energies, states = eigh_many(north)
    pick = states[:, 0]
    if energies[1] - energies[0] < 1e-8:
        jz = np.diag(family.jz).real
        m0 = np.real(states[:, 0].conj() @ (jz * states[:, 0]))
        m1 = np.real(states[:, 1].conj() @ (jz * states[:, 1]))
        pick = states[:, 0] if m0 >= m1 else states[:, 1]
    sym_family, anti_family = parity_sector_families(family)
    sym_weight = np.linalg.norm(_SWAP_SYM.T @ pick) ** 2
    return sym_family if sym_weight >= 0.5 else anti_family


def scan_weyl_points(
    params,
    h_z_range: tuple[float, float] | None = None,
    n_grid: int = SCAN_GRID_POINTS,
    keep_uncharged: bool = False,
) -> list[WeylPoint]:
    """Locate on-axis ground-gap degeneracies and extract their charges.

    Scans the on-axis field over h_z_range (default: wide enough for every
    closed-form location), refines each ground-sector change by bisection,
    and assigns the charge from the curvature flux through a small sphere
    centred on the point.  Narrow intermediate phases hiding inside a single
    grid cell are recovered by re-checking the labels next to each refined
    crossing.  Grid labels come from a real full eigh, bisection probes from
    the exact J_z sector lines; where two lines tie closer than TIE_RTOL a
    complex full eigh decides.  The flux is a real-arithmetic integral along
    the phi = 0 meridian.

    With identical fields on both sites (h0 = 0) site exchange is an exact
    symmetry: level crossings between opposite-parity states are unavoided
    and carry no curvature, and the sources of the tracked band sit at
    crossings inside its own parity sector (which need not be global
    ground-level crossings).  The scan therefore works inside the starting
    state's sector in that case.  keep_uncharged=True skips the sector
    resolution and reports every global ground-level crossing, including
    charge-0 ones; that is the mode used for location comparisons against
    the closed-form expressions.
    """
    family = family_for(params)
    hr = params.field.magnitude
    if h_z_range is None:
        reach = 3.0 * hr
        if isinstance(params, CoupledParams):
            reach += abs(params.h0) + abs(params.g) + abs(params.j_z) + abs(params.j_02)
        else:
            reach += abs(params.h0)
        h_z_range = (-reach, reach)
    lo, hi = float(h_z_range[0]), float(h_z_range[1])

    analytic = _analytic_locations(params)
    if analytic is not None:
        outside = [hz for hz in analytic if not (lo <= hz <= hi)]
        if outside:
            raise RangeTooNarrowError(
                f"scan range [{lo:g}, {hi:g}] misses predicted degeneracies at {outside}"
            )

    if isinstance(params, CoupledParams) and params.h0 == 0.0 and not keep_uncharged:
        family = _tracked_sector_family(family, hr)

    grid = np.linspace(lo, hi, n_grid)
    labels = _ground_labels(family, grid)

    crossings: list[tuple[float, int, int]] = []  # (h_z, label_above, label_below)
    step = grid[1] - grid[0]
    probe = max(10.0 * BISECTION_TOL, 1e-12 * max(abs(lo), abs(hi), 1.0))
    for i in np.nonzero(labels[:-1] != labels[1:])[0]:
        a, b = grid[i], grid[i + 1]
        la = int(labels[i])
        lb_target = int(labels[i + 1])
        # A single cell may hide several crossings (narrow phases); walk
        # through them until the far label is reached.
        current = la
        left = a
        while current != lb_target:
            hz = _bisect_flip(family, left, b, current)
            after = _ground_label(family, min(hz + probe, b))
            crossings.append((hz, current, after))
            current = after
            left = min(hz + probe, b)
            if left >= b:
                break

    points: list[WeylPoint] = []
    locations = [c[0] for c in crossings]
    for idx, (hz, l_lo_side, l_hi_side) in enumerate(crossings):
        radius = CHARGE_SPHERE_FRACTION * hr
        others = [abs(hz - other) for j, other in enumerate(locations) if j != idx]
        if others:
            nearest = min(others)
            if nearest < 2.5 * radius:
                radius = max(0.4 * nearest, 100.0 * BISECTION_TOL)
                logger.info("shrinking charge sphere at h_z=%.6g to radius %.3g", hz, radius)
        flux = _converged_flux(family, hz, radius)
        charge = int(round(flux))
        # labels were recorded scanning upward; gap_sector is (above, below)
        sector = (int(l_hi_side), int(l_lo_side))
        if charge == 0 and not keep_uncharged:
            logger.info(
                "discarding uncharged ground-gap crossing at h_z=%.6g (sectors %s)", hz, sector
            )
            continue
        points.append(WeylPoint(h_z=hz, charge=charge, gap_sector=sector))
    points.sort(key=lambda p: p.h_z)
    return points


def _axis_sphere_flux(family: HamiltonianFamily, hz: float, radius: float, n_theta: int) -> float:
    """Sphere flux for an on-axis centre, exploiting the U(1) symmetry.

    Around the z axis the integrand is independent of the azimuth, so the
    surface integral reduces to a single theta line at phi = 0.
    """
    thetas = np.linspace(0.0, math.pi, n_theta)
    normals = np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=-1)
    points = np.array([0.0, 0.0, hz]) + radius * normals
    fvec = _batch_curvature(family, points, band=0)
    integrand = np.einsum("pc,pc->p", fvec, normals) * radius**2 * np.sin(thetas)
    return float(-np.trapezoid(integrand, thetas))


def _converged_flux(family: HamiltonianFamily, hz: float, radius: float) -> float:
    """Small-sphere charge with quadrature escalation.

    Double points split quadratically in the transverse field, which squeezes
    their curvature into a narrow equatorial band; refine the theta grid
    until two successive values agree on (nearly) the same integer.
    """
    previous = _axis_sphere_flux(family, hz, radius, 256)
    if abs(previous - round(previous)) < 0.02:
        return previous
    for n in (1024, 4096, 16384):
        current = _axis_sphere_flux(family, hz, radius, n)
        if abs(current - previous) < 0.02 and abs(current - round(current)) < 0.05:
            return current
        logger.info("charge flux at h_z=%.6g not converged below n=%d; refining", hz, n)
        previous = current
    logger.warning("charge flux at h_z=%.6g still %.4f after full refinement", hz, previous)
    return previous


def predict_chern(
    params,
    sphere_radius: float,
    points: list[WeylPoint] | None = None,
    boundary_guard: float | None = None,
) -> int:
    """Chern number by enclosure counting: total charge inside the sphere.

    Raises BoundaryDegeneracyError when a point sits within the guard band
    (default 1e-3*hr) of the sphere surface.
    """
    hr = params.field.magnitude
    if boundary_guard is None:
        boundary_guard = BOUNDARY_GUARD_FRACTION * hr
    if points is None:
        points = scan_weyl_points(params)
    for p in points:
        if boundary_guard > 0.0 and abs(abs(p.h_z) - sphere_radius) < boundary_guard:
            raise BoundaryDegeneracyError(
                f"degeneracy at h_z={p.h_z:.6g} lies within {boundary_guard:g} of the sphere"
            )
    return int(sum(p.charge for p in points if abs(p.h_z) < sphere_radius))


@dataclass(frozen=True)
class PhaseDiagram:
    """Chern numbers over a two-parameter grid."""

    x_param: str
    y_param: str
    x_grid: np.ndarray
    y_grid: np.ndarray
    chern_grid: np.ndarray  # shape (len(x_grid), len(y_grid))
    flagged: np.ndarray
    source: str

    def to_csv(self) -> str:
        lines = ["x,y,chern,flagged"]
        for i, x in enumerate(self.x_grid):
            for j, y in enumerate(self.y_grid):
                lines.append(
                    f"{x:.12g},{y:.12g},{int(self.chern_grid[i, j])},{int(self.flagged[i, j])}"
                )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "x_param": self.x_param,
                "y_param": self.y_param,
                "x_grid": [float(v) for v in self.x_grid],
                "y_grid": [float(v) for v in self.y_grid],
                "chern": [[int(v) for v in row] for row in self.chern_grid],
                "flagged": [[bool(v) for v in row] for row in self.flagged],
                "source": self.source,
            },
            sort_keys=True,
        )


def _with_params(fixed: CoupledParams, **updates: float) -> CoupledParams:
    return dataclasses.replace(fixed, **updates)


def _evaluate_cell(task) -> tuple[int, int, int, bool]:
    fixed, x_param, y_param, i, j, x, y, method, protocol = task
    params = _with_params(fixed, **{x_param: x, y_param: y})
    hr = params.field.magnitude
    if method == "dynamical":
        trace = simulate_ramp(params, protocol)
        return i, j, trace.chern_rounded, trace.residual > RESIDUAL_WARNING
    points = scan_weyl_points(params)
    try:
        chern = predict_chern(params, hr, points=points)
        return i, j, chern, False
    except BoundaryDegeneracyError:
        chern = predict_chern(
            params,
            hr + BOUNDARY_GUARD_FRACTION * hr,
            points=points,
            boundary_guard=0.0,
        )
        return i, j, chern, True


def _chunksize(cells: int, jobs: int) -> int:
    """Cells per pool task: about four tasks per worker, at least one cell.

    This is multiprocessing.Pool.map's default rule.  It leaves at least
    jobs tasks whenever cells >= jobs, so every worker gets cells, and the
    spare tasks even out cells of unequal cost.
    """
    return max(1, math.ceil(cells / (4 * jobs)))


def phase_diagram(
    x_param: str,
    y_param: str,
    x_grid: np.ndarray,
    y_grid: np.ndarray,
    fixed: CoupledParams,
    method: str = "analytic",
    protocol: RampProtocol | None = None,
    jobs: int | None = None,
) -> PhaseDiagram:
    """Sweep two parameters and fill the Chern-number grid.

    method "analytic" counts enclosed scanned charges; "dynamical" runs the
    ramp protocol (a RampProtocol is then required).  Cells are independent
    and are spread evenly over a process pool of jobs workers when jobs > 1,
    each worker with a single-threaded BLAS; results land by index so the
    output is deterministic either way.
    """
    for name in (x_param, y_param):
        if name not in SWEEPABLE:
            raise UnknownParameterError(f"{name!r} is not sweepable; choose from {SWEEPABLE}")
    if method not in ("analytic", "dynamical"):
        raise UnknownParameterError(f"unknown method {method!r}")
    if method == "dynamical" and protocol is None:
        raise UnknownParameterError("dynamical sweeps need a RampProtocol")

    x_grid = np.asarray(x_grid, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    tasks = [
        (fixed, x_param, y_param, i, j, float(x), float(y), method, protocol)
        for i, x in enumerate(x_grid)
        for j, y in enumerate(y_grid)
    ]
    chern = np.zeros((x_grid.size, y_grid.size), dtype=int)
    flagged = np.zeros((x_grid.size, y_grid.size), dtype=bool)
    if jobs is not None and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=single_thread_blas) as pool:
            results = list(pool.map(_evaluate_cell, tasks, chunksize=_chunksize(len(tasks), jobs)))
    else:
        results = [_evaluate_cell(t) for t in tasks]
    for i, j, value, flag in results:
        chern[i, j] = value
        flagged[i, j] = flag
    return PhaseDiagram(
        x_param=x_param,
        y_param=y_param,
        x_grid=x_grid,
        y_grid=y_grid,
        chern_grid=chern,
        flagged=flagged,
        source=method,
    )


def count_regions(chern_grid: np.ndarray) -> int:
    """Number of 4-connected constant-value regions in a grid."""
    grid = np.asarray(chern_grid)
    seen = np.zeros(grid.shape, dtype=bool)
    regions = 0
    for start in np.ndindex(grid.shape):
        if seen[start]:
            continue
        regions += 1
        stack = [start]
        seen[start] = True
        value = grid[start]
        while stack:
            i, j = stack.pop()
            for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= ni < grid.shape[0] and 0 <= nj < grid.shape[1]:
                    if not seen[ni, nj] and grid[ni, nj] == value:
                        seen[ni, nj] = True
                        stack.append((ni, nj))
    return regions
