"""Dense complex linear algebra for small Hilbert spaces (dim <= 16).

Everything here is a pure function of its inputs; returned arrays are never
aliased to the arguments.  Energies are in rad/us throughout, matching the
convention used by the Hamiltonian builders.
"""

from __future__ import annotations

import ctypes
import logging
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import (
    LengthMismatchError,
    NoConvergenceError,
    NonMonotonicGridError,
    NotHermitianError,
    StepTooLargeError,
)

logger = logging.getLogger(__name__)

HERMITICITY_RTOL = 1e-12

# Thread-count setters of the OpenBLAS builds numpy ships with: the
# scipy-openblas wheels (64- and 32-bit integer) and a plain OpenBLAS.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


@dataclass(frozen=True)
class EigenDecomposition:
    """Full eigensystem of a Hermitian matrix.

    energies are sorted ascending; states holds the matching eigenvectors as
    columns, each phased so that its largest-magnitude component is real and
    positive.
    """

    energies: np.ndarray
    states: np.ndarray


def _assert_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {h.shape}")
    scale = max(np.abs(h).max(), 1.0)
    dev = np.abs(h - h.conj().T).max()
    if dev > HERMITICITY_RTOL * scale:
        raise NotHermitianError(f"Hermiticity violation {dev:.3e} exceeds {HERMITICITY_RTOL:.0e}*max|H|")
    return h


def fix_phases(states: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    anchors = np.argmax(np.abs(states), axis=0)
    pivots = states[anchors, np.arange(states.shape[1])]
    phases = pivots / np.abs(pivots)
    return states / phases[np.newaxis, :]


def hermitian_eigs(h: np.ndarray) -> EigenDecomposition:
    """Diagonalise a Hermitian matrix (dim <= 16).

    Raises NotHermitianError when the input violates the Hermiticity
    tolerance and NoConvergenceError if the underlying solver fails.
    """
    h = _assert_hermitian(h)
    if h.shape[0] > 16:
        raise NotHermitianError(f"dimension {h.shape[0]} exceeds the supported maximum of 16")
    try:
        energies, states = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NoConvergenceError(str(exc)) from exc
    return EigenDecomposition(energies=energies, states=fix_phases(states))


def eigh_many(hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched eigh over a stack of Hermitian matrices, shape (..., n, n).

    No Hermiticity validation and no phase fixing: this is the fast path for
    inner loops where the matrices are Hermitian by construction.
    """
    try:
        return np.linalg.eigh(hs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergenceError(str(exc)) from exc


def propagate_step(psi: np.ndarray, h_mid: np.ndarray, dt: float) -> np.ndarray:
    """Advance a state by exp(-i*h_mid*dt) via exact eigendecomposition.

    The caller's step controller must keep ||h_mid||*dt <= 0.1 (spectral
    norm); violating that raises StepTooLargeError.  The step is exactly
    unitary up to roundoff.
    """
    psi = np.asarray(psi, dtype=complex)
    energies, states = eigh_many(np.asarray(h_mid, dtype=complex))
    if np.abs(energies).max() * abs(dt) > 0.1 + 1e-12:
        raise StepTooLargeError(
            f"||H||*dt = {np.abs(energies).max() * abs(dt):.3g} exceeds the 0.1 step bound"
        )
    return states @ (np.exp(-1j * energies * dt) * (states.conj().T @ psi))


def _blas_thread_setter():
    """The set-num-threads entry point of the BLAS numpy loaded, or None.

    The symbol is looked up through numpy's LAPACK extension, whose
    dependencies include the BLAS library.
    """
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for name in _BLAS_THREAD_SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return setter
    return None


def single_thread_blas() -> None:
    """Cap numpy's BLAS at one thread in this process.

    Used as the initializer of phase-diagram pool workers, so that jobs
    workers use jobs cores instead of each starting its own BLAS threads.
    An unrecognised BLAS is left alone.
    """
    setter = _blas_thread_setter()
    if setter is None:
        logger.debug("BLAS thread control not recognised; leaving its thread count alone")
        return
    setter(1)


def trapezoid_integrate(xs: np.ndarray, ys: np.ndarray) -> float:
    """Composite trapezoid rule on a strictly ascending grid."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise LengthMismatchError(f"grid and values differ in shape: {xs.shape} vs {ys.shape}")
    if xs.size < 2:
        raise LengthMismatchError("need at least two points")
    dx = np.diff(xs)
    if np.any(dx <= 0):
        raise NonMonotonicGridError("abscissae must be strictly ascending")
    return float(np.sum(dx * (ys[1:] + ys[:-1])) / 2.0)
