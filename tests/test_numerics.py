import ctypes
import logging
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.linalg import _umath_linalg

from spin1topo.exceptions import (
    LengthMismatchError,
    NonMonotonicGridError,
    NotHermitianError,
    StepTooLargeError,
)
from spin1topo import numerics
from spin1topo.numerics import (
    hermitian_eigs,
    kron,
    propagate_step,
    single_thread_blas,
    trapezoid_integrate,
)
from spin1topo.spin import SX, SZ

from conftest import random_hermitian


def dims():
    return st.sampled_from([2, 3, 5, 9])


def hermitian_matrices():
    return st.builds(
        lambda seed, d: random_hermitian(np.random.default_rng(seed), d),
        st.integers(0, 2**32 - 1),
        dims(),
    )


class TestHermitianEigs:
    def test_diagonal_input(self):
        dec = hermitian_eigs(np.diag([1.0, 0.0, -1.0]))
        assert np.allclose(dec.energies, [-1.0, 0.0, 1.0])
        # eigenvectors are permuted standard basis vectors
        assert np.allclose(np.abs(dec.states), np.eye(3)[:, ::-1])

    def test_spin1_sx_spectrum(self):
        dec = hermitian_eigs(SX)
        assert np.allclose(dec.energies, [-1.0, 0.0, 1.0], atol=1e-14)

    def test_two_level_block(self):
        h0, g, hr = 0.0, 1.0, 1.0
        block = np.array([[-h0 - hr, g], [g, -hr]], dtype=complex)
        dec = hermitian_eigs(block)
        assert np.allclose(dec.energies, [-2.0, 0.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            hermitian_eigs(m)

    def test_rejects_oversized(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigs(np.eye(17))

    @settings(max_examples=40, deadline=None)
    @given(hermitian_matrices())
    def test_reconstruction_and_residuals(self, h):
        dec = hermitian_eigs(h)
        scale = max(1.0, np.abs(h).max())
        rebuilt = (dec.states * dec.energies) @ dec.states.conj().T
        assert np.abs(rebuilt - h).max() <= 1e-9 * scale
        assert np.all(np.diff(dec.energies) >= 0)
        overlap = dec.states.conj().T @ dec.states
        assert np.abs(overlap - np.eye(h.shape[0])).max() <= 1e-10
        for k in range(h.shape[0]):
            residual = np.linalg.norm(h @ dec.states[:, k] - dec.energies[k] * dec.states[:, k])
            assert residual <= 1e-10 * max(1.0, abs(dec.energies[k]))

    @settings(max_examples=25, deadline=None)
    @given(hermitian_matrices())
    def test_phase_convention(self, h):
        dec = hermitian_eigs(h)
        for k in range(h.shape[0]):
            pivot = dec.states[np.argmax(np.abs(dec.states[:, k])), k]
            assert pivot.real > 0
            assert abs(pivot.imag) <= 1e-12 * abs(pivot)


class TestPropagateStep:
    def test_zero_eigenvalue_state_unchanged(self):
        psi = np.array([0.0, 1.0, 0.0], dtype=complex)
        out = propagate_step(psi, SZ, dt=0.07)
        assert np.allclose(out, psi, atol=1e-14)

    def test_eigenstate_phase(self):
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        dt = 0.05
        out = propagate_step(psi, SZ, dt)
        assert np.allclose(out, np.exp(-1j * dt) * psi, atol=1e-14)

    def test_step_bound_enforced(self):
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(StepTooLargeError):
            propagate_step(psi, 10.0 * SZ, dt=0.5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_norm_preserved_and_matches_direct_exponential(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 9)
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        dt = 0.05 / np.linalg.norm(h, 2)
        out = propagate_step(psi, h, dt)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        # independent route: raw eigendecomposition exponential
        energies, states = np.linalg.eigh(h)
        u = (states * np.exp(-1j * energies * dt)) @ states.conj().T
        assert np.abs(out - u @ psi).max() <= 1e-12

    def test_unitarity_over_many_steps(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 9)
        dt = 0.09 / np.linalg.norm(h, 2)
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        for _ in range(100_000):
            psi = propagate_step(psi, h, dt)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9

    def test_constant_hamiltonian_phase_accuracy(self):
        # eigenstate of omega*Sz accumulates exp(-i*omega*t) over 1 us
        omega = 10.0
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        n_steps = 2000
        dt = 1.0 / n_steps
        state = psi.copy()
        for _ in range(n_steps):
            state = propagate_step(state, omega * SZ, dt)
        expected = np.exp(-1j * omega * 1.0) * psi
        assert np.abs(state - expected).max() <= 1e-8


class TestKron:
    def test_single_site_eigenvalue(self):
        vec = np.zeros(9)
        vec[3 * 1 + 0] = 1.0  # |0> x |up>
        op = kron(np.eye(3), SZ)
        assert np.allclose(op @ vec, 1.0 * vec)

    def test_total_z_on_aligned_state(self):
        vec = np.zeros(9)
        vec[0] = 1.0  # |up, up>
        op = kron(SZ, np.eye(3)) + kron(np.eye(3), SZ)
        assert np.allclose(op @ vec, 2.0 * vec)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_mixed_product_property(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c, d = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4))
        left = kron(a, b) @ kron(c, d)
        right = kron(a @ c, b @ d)
        assert np.abs(left - right).max() <= 1e-12 * max(1.0, np.abs(right).max())


class TestTrapezoid:
    def test_zero_function(self):
        assert trapezoid_integrate(np.array([0.0, np.pi]), np.zeros(2)) == 0.0

    def test_sine_integral(self):
        xs = np.linspace(0.0, np.pi, 1001)
        assert abs(trapezoid_integrate(xs, np.sin(xs)) - 2.0) <= 1e-5

    def test_oscillatory_integrand(self):
        xs = np.linspace(0.0, np.pi, 2001)
        ys = np.sin(xs) * np.cos(10.0 * xs)
        assert abs(trapezoid_integrate(xs, ys) - (-2.0 / 99.0)) <= 1e-4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            trapezoid_integrate(np.array([0.0, 1.0]), np.zeros(3))

    def test_non_monotonic(self):
        with pytest.raises(NonMonotonicGridError):
            trapezoid_integrate(np.array([0.0, 1.0, 0.5]), np.zeros(3))

    def test_second_order_convergence(self):
        def integrate(n):
            xs = np.linspace(0.0, 2.0, n)
            return trapezoid_integrate(xs, np.exp(xs) * np.sin(3.0 * xs))

        exact = (np.exp(2.0) * (np.sin(6.0) - 3.0 * np.cos(6.0)) + 3.0) / 10.0
        coarse = abs(integrate(101) - exact)
        fine = abs(integrate(401) - exact)
        assert coarse / fine >= 12.0


def _blas_threads(getter_name):
    getter = getattr(ctypes.CDLL(_umath_linalg.__file__), getter_name)
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return getter()


def test_single_thread_blas_caps_pool_worker():
    setter = numerics._blas_thread_setter()
    if setter is None:
        pytest.skip("numpy's BLAS has no recognised thread-count setter")
    getter_name = setter.__name__.replace("set_num_threads", "get_num_threads")
    parent = _blas_threads(getter_name)
    with ProcessPoolExecutor(max_workers=1, initializer=single_thread_blas) as pool:
        assert pool.submit(_blas_threads, getter_name).result() == 1
    assert _blas_threads(getter_name) == parent


def test_single_thread_blas_leaves_unknown_blas_alone(monkeypatch, caplog):
    monkeypatch.setattr(numerics, "_BLAS_THREAD_SETTERS", ())
    with caplog.at_level(logging.DEBUG, logger="spin1topo.numerics"):
        single_thread_blas()
    assert "not recognised" in caplog.text
