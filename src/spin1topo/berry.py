"""Berry curvature and first Chern numbers, computed two ways.

exact_curvature evaluates the sum-over-states formula

    F_n(r) = -Im sum_{m != n} <n|dH|m> x <m|dH|n> / (E_m - E_n)^2,

and exact_chern_flux integrates it over a sphere in field space.  Chern
numbers are reported with a single global sign convention, fixed so that the
ramp-convention ground state with the degeneracy enclosed yields +2 -- the
same number the dynamical protocol produces.  Concretely,

    chern = -(1/2pi) * (surface flux of F).

simulate_ramp implements the dynamical protocol: sweep theta from 0 to pi at
speed v_theta = pi/t_ramp, record the generalized-force response
F_theta_phi = (hr/v_theta) * sin(theta) * <Sy_total>, and integrate it over
theta.  The adiabatic-limit force is exactly zero for these families (the
Hamiltonian at phi = 0 is real symmetric, so the ground state can carry no
<Sy>), which is what makes the linear response directly equal the curvature.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateBandError,
    DegenerateOnSurfaceError,
    DegenerateStartError,
)
from .hamiltonians import HamiltonianFamily, family_for
from .numerics import eigh_many, hermitian_eigs, trapezoid_integrate

logger = logging.getLogger(__name__)

GAP_THRESHOLD = 1e-6
MAX_RAMP_STEPS = 20000
RESIDUAL_WARNING = 0.25
CURVATURE_CHUNK = 1024


@dataclass(frozen=True)
class RampProtocol:
    """Linear ramp theta(t) = pi*t/t_ramp sampled at n_samples points."""

    t_ramp: float
    n_samples: int = 1000

    def __post_init__(self):
        if self.t_ramp <= 0:
            raise ValueError("t_ramp must be positive")
        if self.n_samples < 100:
            raise ValueError("need at least 100 samples")

    @property
    def v_theta(self) -> float:
        return math.pi / self.t_ramp


@dataclass(frozen=True)
class CurvatureTrace:
    """Sampled F_theta_phi along a ramp plus its integral."""

    thetas: np.ndarray
    f_values: np.ndarray
    chern: float
    chern_rounded: int
    residual: float

    def to_csv(self) -> str:
        lines = ["theta,F_theta_phi"]
        lines += [f"{t:.12g},{f:.12g}" for t, f in zip(self.thetas, self.f_values)]
        lines.append(f"# chern={self.chern:.12g} residual={self.residual:.12g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "thetas": [float(t) for t in self.thetas],
                "f_values": [float(f) for f in self.f_values],
                "chern": float(self.chern),
                "chern_rounded": int(self.chern_rounded),
                "residual": float(self.residual),
            },
            sort_keys=True,
        )


def _batch_curvature(family: HamiltonianFamily, rs: np.ndarray, band: int) -> np.ndarray:
    """Sum-over-states curvature vectors at a batch of field points (n, 3).

    Points are taken CURVATURE_CHUNK at a time, which bounds the memory of
    long quadratures.  A chunk whose matrices have no imaginary part (the
    phi = 0 meridian) is diagonalised in real arithmetic.
    """
    rs = np.asarray(rs, dtype=float)
    chunks = [
        _chunk_curvature(family, rs[start : start + CURVATURE_CHUNK], band)
        for start in range(0, len(rs), CURVATURE_CHUNK)
    ]
    return np.concatenate(chunks)


def _chunk_curvature(family: HamiltonianFamily, rs: np.ndarray, band: int) -> np.ndarray:
    hs = family.matrices(rs)
    if not hs.imag.any():
        hs = np.ascontiguousarray(hs.real)
    energies, states = eigh_many(hs)
    e_band = energies[:, band]
    diffs = energies - e_band[:, None]
    diffs[:, band] = np.inf
    if np.abs(diffs).min() < GAP_THRESHOLD:
        raise DegenerateBandError(
            f"band gap below {GAP_THRESHOLD:g} rad/us at a requested field point"
        )
    # a[c][p, m] = <band| dH/dr_c |m> at point p
    bras = states[:, :, band].conj()
    rows = [((bras @ g)[:, None, :] @ states)[:, 0, :] for g in family.grad]
    inv2 = 1.0 / diffs**2
    inv2[:, band] = 0.0

    def pair(j: int, k: int) -> np.ndarray:
        return np.einsum("pm,pm,pm->p", rows[j], rows[k].conj(), inv2)

    fx = -np.imag(pair(1, 2) - pair(2, 1))
    fy = -np.imag(pair(2, 0) - pair(0, 2))
    fz = -np.imag(pair(0, 1) - pair(1, 0))
    return np.stack([fx, fy, fz], axis=-1)


def exact_curvature(family: HamiltonianFamily, r: np.ndarray, band: int) -> np.ndarray:
    """Curvature vector of one band at one field point (rad/us units)."""
    return _batch_curvature(family, np.asarray(r, dtype=float)[None, :], band)[0]


def exact_chern_flux(
    family: HamiltonianFamily,
    sphere_center: np.ndarray,
    radius: float,
    band: int,
    n_theta: int = 64,
    n_phi: int = 64,
) -> float:
    """Chern number of a band from the curvature flux through a sphere.

    Product trapezoid grid of n_theta x n_phi points; returns
    -(1/2pi) * flux, a real number close to an integer when no degeneracy
    sits near the surface.
    """
    center = np.asarray(sphere_center, dtype=float)
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    normals = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    )
    points = center + radius * normals
    try:
        fvec = _batch_curvature(family, points.reshape(-1, 3), band)
    except DegenerateBandError as exc:
        raise DegenerateOnSurfaceError(str(exc)) from exc
    fvec = fvec.reshape(n_theta, n_phi, 3)
    integrand = np.einsum("ijc,ijc->ij", fvec, normals) * radius**2 * np.sin(tt)
    by_phi = np.trapezoid(integrand, phis, axis=1)
    flux = np.trapezoid(by_phi, thetas)
    return float(-flux / (2.0 * math.pi))


def simulate_ramp(params, protocol: RampProtocol, phi: float = 0.0) -> CurvatureTrace:
    """Ramp theta from 0 to pi and extract the Chern number dynamically.

    The state starts in the instantaneous ground state at theta = 0 and is
    stepped with the exponential midpoint rule at a fixed dt chosen as
    min(0.1/||H||, t_ramp/20000).  At each sample the trace records
    (hr/v_theta)*sin(theta)*<Sy_tot>, with Sy_tot rotated to the frame of a
    nonzero phi when one is given.
    """
    family = family_for(params)
    hr = params.field.magnitude
    v = protocol.v_theta
    n = protocol.n_samples
    t_ramp = protocol.t_ramp

    def r_of(theta: float) -> np.ndarray:
        return hr * np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )

    start = hermitian_eigs(family.matrix(r_of(0.0)))
    if start.energies[1] - start.energies[0] < 1e-8:
        raise DegenerateStartError("ground state at theta = 0 is degenerate")
    psi = start.states[:, 0].copy()

    observable = math.cos(phi) * family.sy_total - math.sin(phi) * family.sx_total
    dt_max = min(0.1 / family.norm_bound(hr), t_ramp / MAX_RAMP_STEPS)

    thetas = np.linspace(0.0, math.pi, n)
    times = np.linspace(0.0, t_ramp, n)
    f_values = np.empty(n)
    f_values[0] = 0.0  # sin(0) factor
    for k in range(n - 1):
        seg = times[k + 1] - times[k]
        n_steps = max(1, math.ceil(seg / dt_max))
        h = seg / n_steps
        mid_thetas = (times[k] + (np.arange(n_steps) + 0.5) * h) * (math.pi / t_ramp)
        rs = hr * np.stack(
            [
                np.sin(mid_thetas) * math.cos(phi),
                np.sin(mid_thetas) * math.sin(phi),
                np.cos(mid_thetas),
            ],
            axis=-1,
        )
        energies, states = eigh_many(family.matrices(rs))
        phases = np.exp(-1j * energies * h)
        for i in range(n_steps):
            v_i = states[i]
            psi = v_i @ (phases[i] * (v_i.conj().T @ psi))
        f_values[k + 1] = (
            (hr / v) * math.sin(thetas[k + 1]) * float(np.real(psi.conj() @ (observable @ psi)))
        )

    chern = trapezoid_integrate(thetas, f_values)
    rounded = int(round(chern))
    residual = abs(chern - rounded)
    if residual > RESIDUAL_WARNING:
        logger.warning(
            "dynamical Chern residual %.3f exceeds %.2f; ramp may be too fast or near a boundary",
            residual,
            RESIDUAL_WARNING,
        )
    return CurvatureTrace(
        thetas=thetas, f_values=f_values, chern=chern, chern_rounded=rounded, residual=residual
    )


def oscillation_count(trace: CurvatureTrace) -> int:
    """Count oscillations as sign changes of the detrended response.

    The local mean is a centered moving average whose window spans roughly a
    tenth of the trace, long enough to follow the sin(theta) envelope while
    averaging out the precession.
    """
    f = np.asarray(trace.f_values, dtype=float)
    n = f.size
    if n < 100:
        raise ValueError("trace too short; need at least 100 samples")
    window = max(11, n // 10)
    if window % 2 == 0:
        window += 1
    kernel = np.ones(window) / window
    padded = np.concatenate([np.full(window // 2, f[0]), f, np.full(window // 2, f[-1])])
    local_mean = np.convolve(padded, kernel, mode="valid")
    detrended = f - local_mean
    signs = np.sign(detrended)
    flips = int(np.sum(signs[:-1] * signs[1:] < 0))
    return flips
