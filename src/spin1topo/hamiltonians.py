"""Hamiltonian builders for single and coupled spin-1 systems.

Two sign conventions are supported.  RAMP is the convention used by the
adiabatic ramp protocol,

    H = -(h0*S1z + R.(S1+S2) - g*(S1x S2x + S1y S2y)
                            - j_z*(S1z S2z) - (j_02/4)*((S1+ S2-)^2 + h.c.)),

so that at theta = 0 the ground state of the uncoupled system is the
field-aligned product state.  CIRCUIT flips the sign of the field and offset
terms while keeping the coupling terms unchanged,

    H = +h0*S1z + R.(S1+S2) + g*(...) + j_z*(...) + (j_02/4)*(...).

The j_02 pair-exchange operator (S1+ S2-)^2 + (S1- S2+)^2 connects
|down,up> and |up,down> with amplitude 4, so the j_02/4 prefactor makes
j_02 the actual coupling amplitude between those states.

All frequencies are stored in rad/us; the CLI and circuit parameter files
accept MHz and convert once (x 2*pi) at the parse boundary.  Only circuit
parameter files use the flat `key = value` format read by read_config_file;
every other configuration is the CLI's JSON.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .exceptions import UnknownParameterError
from .spin import SPLUS, SX, SY, SZ, embed, total_sz

MHZ_TO_RAD_PER_US = 2.0 * math.pi

# Two-site coupling operators, built once.
XXYY = embed(SX, 1) @ embed(SX, 2) + embed(SY, 1) @ embed(SY, 2)
ZZ = embed(SZ, 1) @ embed(SZ, 2)
_S1P_S2M = embed(SPLUS, 1) @ embed(SPLUS.conj().T, 2)
PAIR_EXCHANGE = np.linalg.matrix_power(_S1P_S2M, 2) + np.linalg.matrix_power(_S1P_S2M.conj().T, 2)
J_TOTAL_Z = total_sz()
# One-site operators: site 1's S_z and the two-site sums of S_x and S_y.
SZ_1 = embed(SZ, 1)
SX_TOTAL = embed(SX, 1) + embed(SX, 2)
SY_TOTAL = embed(SY, 1) + embed(SY, 2)
for _m in (XXYY, ZZ, PAIR_EXCHANGE, J_TOTAL_Z, SZ_1, SX_TOTAL, SY_TOTAL):
    _m.setflags(write=False)


class SignConvention(enum.Enum):
    RAMP = "ramp"
    CIRCUIT = "circuit"


@dataclass(frozen=True)
class FieldVector:
    """Applied field of magnitude hr pointing along (theta, phi)."""

    magnitude: float
    theta: float = 0.0
    phi: float = 0.0

    def cartesian(self) -> np.ndarray:
        st, ct = math.sin(self.theta), math.cos(self.theta)
        return self.magnitude * np.array([st * math.cos(self.phi), st * math.sin(self.phi), ct])


@dataclass(frozen=True)
class CoupledParams:
    """Scalar parameters of the two-qutrit family (all in rad/us)."""

    field: FieldVector
    h0: float = 0.0
    g: float = 0.0
    j_z: float = 0.0
    j_02: float = 0.0
    sign_convention: SignConvention = SignConvention.RAMP


@dataclass(frozen=True)
class SingleSpinParams:
    """Scalar parameters of the single-qutrit family (all in rad/us)."""

    field: FieldVector
    h0: float = 0.0
    sign_convention: SignConvention = SignConvention.RAMP


@dataclass(frozen=True)
class CircuitParams:
    """Raw circuit parameters in the transmon level basis {0,1,2} per site.

    delta_{i,1} multiplies |1><1|_i and delta_{i,1}+delta_{i,2} multiplies
    |2><2|_i; the j couplings connect level pairs as named; d_{i,1}, d_{i,2}
    are the dimensionless weights inside the jzz product term.
    """

    delta11: float = 0.0
    delta12: float = 0.0
    delta21: float = 0.0
    delta22: float = 0.0
    j0101: float = 0.0
    j0112: float = 0.0
    j1201: float = 0.0
    j1212: float = 0.0
    j02: float = 0.0
    jzz: float = 0.0
    d11: float = 0.0
    d12: float = 0.0
    d21: float = 0.0
    d22: float = 0.0


def _field_sign(convention: SignConvention) -> float:
    return -1.0 if convention is SignConvention.RAMP else 1.0


def single_spin(h0: float, field: FieldVector) -> np.ndarray:
    """Ramp-convention single spin, H = -(h0*Sz + field.S).

    At theta = 0 this is diag(-h0-hr, 0, h0+hr).
    """
    return single_family(h0).matrix(field.cartesian())


def coupled(params: CoupledParams) -> np.ndarray:
    """Coupled two-qutrit Hamiltonian at the parameter record's own field."""
    return coupled_family(params).matrix(params.field.cartesian())


# Transmon levels {0,1,2} map onto spin states {down, 0, up}; in the
# descending-m basis used here that is column/row index 2, 1, 0.
_LEVEL_TO_INDEX = {0: 2, 1: 1, 2: 0}


def _ketbra(a: int, b: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[_LEVEL_TO_INDEX[a], _LEVEL_TO_INDEX[b]] = 1.0
    return m


def circuit_outer_product(params: CircuitParams) -> np.ndarray:
    """Two-qutrit circuit Hamiltonian assembled term by term from outer products."""
    p = params
    h = np.zeros((9, 9), dtype=complex)
    h += p.delta11 * embed(_ketbra(1, 1), 1) + (p.delta11 + p.delta12) * embed(_ketbra(2, 2), 1)
    h += p.delta21 * embed(_ketbra(1, 1), 2) + (p.delta21 + p.delta22) * embed(_ketbra(2, 2), 2)

    def two_site(a1: int, b1: int, a2: int, b2: int) -> np.ndarray:
        term = embed(_ketbra(a1, b1), 1) @ embed(_ketbra(a2, b2), 2)
        return term + term.conj().T

    h += p.j0101 * two_site(0, 1, 1, 0)
    h += p.j0112 * two_site(0, 1, 2, 1)
    h += p.j1201 * two_site(1, 2, 1, 0)
    h += p.j1212 * two_site(1, 2, 2, 1)
    h += p.j02 * two_site(0, 2, 2, 0)
    h += p.jzz * (
        (p.d11 * embed(_ketbra(1, 1), 1) + p.d12 * embed(_ketbra(2, 2), 1))
        @ (p.d21 * embed(_ketbra(1, 1), 2) + p.d22 * embed(_ketbra(2, 2), 2))
    )
    return h


def circuit_spin_equivalent(params: CircuitParams) -> np.ndarray:
    """Spin-operator form implied by a circuit parameter record.

    Valid when the coupling amplitudes are pairwise equal
    (j0101 = j0112 = j1201 = j1212 = g), the level splittings are harmonic
    (delta_{i,2} = delta_{i,1}) and the jzz weights satisfy d_{i,2} = 2*d_{i,1};
    then the circuit Hamiltonian equals

        g*(S1x S2x + S1y S2y) + (j02/4)*((S1+ S2-)^2 + h.c.)
        + delta_{1,1}*(S1z + 1) + delta_{2,1}*(S2z + 1)
        + jzz*d11*d21*(S1z + 1)(S2z + 1)

    entrywise.  The builder uses the record's values directly, so any
    violation of those conditions shows up as a nonzero deviation from
    circuit_outer_product.
    """
    p = params
    g = p.j0101
    sz1 = embed(SZ, 1)
    sz2 = embed(SZ, 2)
    eye = np.eye(9, dtype=complex)
    h = g * XXYY + (p.j02 / 4.0) * PAIR_EXCHANGE
    h += p.delta11 * (sz1 + eye) + p.delta21 * (sz2 + eye)
    h += p.jzz * p.d11 * p.d21 * ((sz1 + eye) @ (sz2 + eye))
    return h


def u1_rotate(h: np.ndarray, phi: float) -> np.ndarray:
    """Rotate a Hamiltonian by phi about the z axis: exp(-i*phi*Jz) H exp(+i*phi*Jz).

    For every family here this realises the azimuthal angle exactly:
    building at (theta, phi) equals rotating the (theta, 0) matrix by phi.
    Accepts 3x3 (single spin, Jz = Sz) and 9x9 (two sites) matrices.
    """
    h = np.asarray(h, dtype=complex)
    jz = SZ if h.shape[0] == 3 else J_TOTAL_Z
    phases = np.exp(-1j * phi * np.diag(jz).real)
    return (phases[:, None] * h) * phases.conj()[None, :]


class SectorLines(NamedTuple):
    """On-axis ground energy of each J_z sector: offsets + slopes * h_z.

    labels holds each sector's m_tot, offsets its lowest eigenvalue at
    h_z = 0 and slopes its dH/dh_z; scale is the spectral norm of base.
    """

    labels: np.ndarray
    offsets: np.ndarray
    slopes: np.ndarray
    scale: float

    def norm_bound(self, hz):
        """Upper bound on the on-axis spectral norm at h_z (scalar or array)."""
        return self.scale + np.abs(self.slopes).max() * np.abs(hz)


@dataclass(frozen=True)
class HamiltonianFamily:
    """A parameterised family H(r) = base + r . grad, affine in the field r.

    grad holds the three constant matrices dH/dr_i; jz is the conserved
    total-z operator at theta = 0, and sx_total/sy_total are the transverse
    observables measured by the ramp protocol.
    """

    base: np.ndarray
    grad: tuple[np.ndarray, np.ndarray, np.ndarray]
    jz: np.ndarray
    sx_total: np.ndarray
    sy_total: np.ndarray

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def matrix(self, r: np.ndarray) -> np.ndarray:
        return self.base + r[0] * self.grad[0] + r[1] * self.grad[1] + r[2] * self.grad[2]

    def matrices(self, rs: np.ndarray) -> np.ndarray:
        """Vectorised matrix(r) for rs of shape (..., 3)."""
        rs = np.asarray(rs, dtype=float)
        stack = np.stack(self.grad, axis=0)
        return self.base + np.tensordot(rs, stack, axes=([-1], [0]))

    def norm_bound(self, hr: float) -> float:
        """Upper bound on the spectral norm over the |r| = hr sphere."""
        one_site = self.dim == 3
        per_axis = 1.0 if one_site else 2.0
        base_norm = float(np.linalg.norm(self.base, 2))
        return base_norm + per_axis * hr

    @functools.cached_property
    def sector_lines(self) -> SectorLines:
        """Ground energy of every J_z sector along the field z axis.

        On the axis H = base + h_z*grad_z commutes with jz, so each sector's
        lowest level is a straight line in h_z.  Raises ValueError unless jz
        is diagonal, base is block-diagonal in it and grad_z is a constant
        on each block.
        """
        m = np.rint(np.diag(self.jz).real)
        labels = np.unique(m)
        blocks = [m == label for label in labels]
        slopes = np.array([np.diag(self.grad[2]).real[block][0] for block in blocks])
        scale = float(np.linalg.norm(self.base, 2))
        tol = 1e-12 * max(scale, 1.0)
        if (
            np.abs(self.jz - np.diag(np.diag(self.jz))).max() > tol
            or np.abs(self.base[m[:, None] != m[None, :]]).max(initial=0.0) > tol
            or np.abs(self.grad[2] - np.diag(slopes[np.searchsorted(labels, m)])).max() > tol
        ):
            raise ValueError("on-axis Hamiltonian is not block-diagonal in jz")
        offsets = np.array([np.linalg.eigvalsh(self.base[np.ix_(b, b)])[0] for b in blocks])
        return SectorLines(labels.astype(int), offsets, slopes, scale)


def single_family(
    h0: float, convention: SignConvention = SignConvention.RAMP
) -> HamiltonianFamily:
    s = _field_sign(convention)
    return HamiltonianFamily(
        base=s * h0 * SZ,
        grad=(s * SX, s * SY, s * SZ),
        jz=SZ.copy(),
        sx_total=SX.copy(),
        sy_total=SY.copy(),
    )


def coupled_family(params: CoupledParams) -> HamiltonianFamily:
    s = _field_sign(params.sign_convention)
    base = s * params.h0 * SZ_1
    if params.g:
        base = base + params.g * XXYY
    if params.j_z:
        base = base + params.j_z * ZZ
    if params.j_02:
        base = base + (params.j_02 / 4.0) * PAIR_EXCHANGE
    return HamiltonianFamily(
        base=base,
        grad=(s * SX_TOTAL, s * SY_TOTAL, s * J_TOTAL_Z),
        jz=J_TOTAL_Z.copy(),
        sx_total=SX_TOTAL.copy(),
        sy_total=SY_TOTAL.copy(),
    )


def family_for(params: SingleSpinParams | CoupledParams) -> HamiltonianFamily:
    """Build the matching Hamiltonian family for a parameter record."""
    if isinstance(params, SingleSpinParams):
        return single_family(params.h0, params.sign_convention)
    if isinstance(params, CoupledParams):
        return coupled_family(params)
    raise TypeError(f"unsupported parameter record {type(params).__name__}")


def _swap_basis() -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the site-swap symmetric and antisymmetric subspaces."""
    sym = np.zeros((9, 6))
    anti = np.zeros((9, 3))
    for col, idx in enumerate((0, 4, 8)):
        sym[idx, col] = 1.0
    pairs = ((1, 3), (2, 6), (5, 7))
    for col, (a, b) in enumerate(pairs):
        sym[a, 3 + col] = sym[b, 3 + col] = 1.0 / math.sqrt(2.0)
        anti[a, col] = 1.0 / math.sqrt(2.0)
        anti[b, col] = -1.0 / math.sqrt(2.0)
    return sym, anti


_SWAP_SYM, _SWAP_ANTI = _swap_basis()


def parity_sector_families(family: HamiltonianFamily) -> tuple[HamiltonianFamily, HamiltonianFamily]:
    """Block-diagonalise a swap-symmetric two-site family by site-swap parity.

    Valid only when h0 = 0, where exchanging the two sites commutes with the
    Hamiltonian at every field point; the returned 6- and 3-dimensional
    families describe the even and odd sectors.
    """

    def project(basis: np.ndarray) -> HamiltonianFamily:
        t = basis
        return HamiltonianFamily(
            base=t.T @ family.base @ t,
            grad=tuple(t.T @ g @ t for g in family.grad),
            jz=t.T @ family.jz @ t,
            sx_total=t.T @ family.sx_total @ t,
            sy_total=t.T @ family.sy_total @ t,
        )

    return project(_SWAP_SYM), project(_SWAP_ANTI)


_FREQUENCY_KEYS = {
    "delta11", "delta12", "delta21", "delta22",
    "j0101", "j0112", "j1201", "j1212", "j02", "jzz",
}


def read_config_file(path: str | Path) -> dict[str, float]:
    """Parse a flat `key = value` circuit file; frequency keys are MHz -> rad/us.

    A line that is not `key = finite number` raises UnknownParameterError.
    """
    values: dict[str, float] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, text = line.partition("=")
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise UnknownParameterError(f"malformed line in {path!s}: {raw!r} (expected key = finite number)")
        key = key.strip().lower()
        if key in _FREQUENCY_KEYS:
            value *= MHZ_TO_RAD_PER_US
        values[key] = value
    return values


def circuit_params_from_config(values: dict[str, float]) -> CircuitParams:
    kwargs = {}
    for name in CircuitParams.__dataclass_fields__:
        if name in values:
            kwargs[name] = float(values[name])
    unknown = set(values) - set(CircuitParams.__dataclass_fields__)
    if unknown:
        raise UnknownParameterError(f"unknown circuit parameter(s): {sorted(unknown)}")
    return CircuitParams(**kwargs)
