import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spin1topo.exceptions import UnknownParameterError
from spin1topo.hamiltonians import (
    PAIR_EXCHANGE,
    XXYY,
    CircuitParams,
    CoupledParams,
    FieldVector,
    SignConvention,
    SingleSpinParams,
    circuit_outer_product,
    circuit_params_from_config,
    circuit_spin_equivalent,
    coupled,
    coupled_family,
    family_for,
    read_config_file,
    single_family,
    single_spin,
    u1_rotate,
)
from spin1topo.spin import SZ, embed, total_sz

from conftest import HR


def coupled_params(**kw):
    kw.setdefault("field", FieldVector(HR))
    return CoupledParams(**kw)


class TestSingleSpin:
    def test_zero_field(self):
        assert np.abs(single_spin(0.0, FieldVector(0.0))).max() == 0.0

    def test_aligned_field_diagonal(self):
        h = single_spin(0.0, FieldVector(HR, theta=0.0))
        assert np.allclose(h, np.diag([-HR, 0.0, HR]))
        h = single_spin(0.3 * HR, FieldVector(HR, theta=0.0))
        assert np.allclose(np.diag(h).real, [-0.3 * HR - HR, 0.0, 0.3 * HR + HR])

    def test_spectrum_rotation_invariant_without_offset(self, rng):
        for _ in range(10):
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            h = single_spin(0.0, FieldVector(HR, theta=theta, phi=phi))
            assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-HR, 0.0, HR], atol=1e-10)


class TestCoupled:
    def test_aligned_matrix_structure(self):
        h0, g = 0.3 * HR, 0.2 * HR
        h = coupled_family(coupled_params(h0=h0, g=g)).matrix(np.array([0.0, 0.0, HR]))
        diag = [-h0 - 2 * HR, -h0 - HR, -h0, -HR, 0.0, HR, h0, h0 + HR, h0 + 2 * HR]
        assert np.allclose(np.diag(h).real, diag, atol=1e-12)
        off = np.array(h)
        np.fill_diagonal(off, 0.0)
        expected = np.zeros((9, 9))
        for i, j in ((1, 3), (2, 4), (4, 6), (5, 7)):
            expected[i, j] = expected[j, i] = g
        assert np.abs(off - expected).max() <= 1e-12

    def test_m0_block(self):
        h0, g = 0.4 * HR, 0.25 * HR
        h = coupled_family(coupled_params(h0=h0, g=g)).matrix(np.array([0.0, 0.0, 0.0]))
        idx = [2, 4, 6]  # |up,down>, |0,0>, |down,up>
        block = h[np.ix_(idx, idx)].real
        assert np.allclose(block, [[-h0, g, 0.0], [g, 0.0, g], [0.0, g, h0]], atol=1e-12)

    def test_decoupled_limit(self):
        h0 = 0.7 * HR
        field = FieldVector(HR, theta=0.9, phi=1.3)
        h = coupled(coupled_params(field=field, h0=h0))
        single_1 = single_spin(h0, field)
        single_2 = single_spin(0.0, field)
        assert np.abs(h - (embed(single_1, 1) + embed(single_2, 2))).max() <= 1e-12

    def test_pair_exchange_amplitude(self):
        j02 = 0.8 * HR
        h = coupled_family(coupled_params(j_02=j02)).matrix(np.zeros(3))
        # |down,up> (index 6) <-> |up,down> (index 2) with amplitude j02
        assert abs(h[2, 6] - j02) <= 1e-12
        assert abs(h[6, 2] - j02) <= 1e-12

    def test_aligned_ground_state(self):
        h = coupled(coupled_params())
        energies, states = np.linalg.eigh(h)
        assert abs(energies[0] + 2 * HR) <= 1e-10
        assert abs(abs(states[0, 0]) - 1.0) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0, 2), st.floats(0, 2), st.floats(0, 2), st.floats(0, 2),
        st.floats(0, np.pi), st.floats(0, 2 * np.pi),
        st.sampled_from(list(SignConvention)),
    )
    def test_builders_hermitian(self, h0, g, jz, j02, theta, phi, convention):
        params = coupled_params(
            field=FieldVector(HR, theta=theta, phi=phi),
            h0=h0 * HR, g=g * HR, j_z=jz * HR, j_02=j02 * HR,
            sign_convention=convention,
        )
        h = coupled(params)
        assert np.abs(h - h.conj().T).max() <= 1e-12 * max(1.0, np.abs(h).max())

    def test_axis_commutes_with_total_sz(self):
        jz = total_sz()
        params = coupled_params(h0=0.6 * HR, g=0.4 * HR, j_z=0.3 * HR, j_02=0.5 * HR)
        h = coupled_family(params).matrix(np.array([0.0, 0.0, 0.7 * HR]))
        assert np.abs(h @ jz - jz @ h).max() <= 1e-13 * max(1.0, np.abs(h).max())


class TestCircuit:
    def test_zero_parameters(self):
        assert np.abs(circuit_outer_product(CircuitParams())).max() == 0.0

    def test_equal_couplings_reduce_to_transverse_exchange(self):
        g = 4.0
        params = CircuitParams(j0101=g, j0112=g, j1201=g, j1212=g)
        assert np.abs(circuit_outer_product(params) - g * XXYY).max() <= 1e-12

    def test_pair_exchange_normalisation(self):
        params = CircuitParams(j02=6.0)
        assert np.abs(circuit_outer_product(params) - (6.0 / 4.0) * PAIR_EXCHANGE).max() <= 1e-12

    def test_delta_prescription(self):
        params = CircuitParams(
            delta11=5.0, delta12=5.0, delta21=-3.0, delta22=-3.0,
            jzz=2.0, d11=1.0, d12=2.0, d21=1.5, d22=3.0,
        )
        full = circuit_outer_product(params)
        sz1, sz2 = embed(SZ, 1), embed(SZ, 2)
        eye = np.eye(9)
        expected = (
            5.0 * (sz1 + eye) - 3.0 * (sz2 + eye)
            + 2.0 * 1.0 * 1.5 * ((sz1 + eye) @ (sz2 + eye))
        )
        assert np.abs(full - expected).max() <= 1e-12

    def test_builder_hermitian(self):
        params = CircuitParams(
            delta11=5.0, delta12=2.0, delta21=-3.0, delta22=1.0,
            j0101=4.0, j0112=3.0, j1201=2.0, j1212=1.0,
            j02=7.0, jzz=2.0, d11=1.0, d12=0.5, d21=1.5, d22=3.0,
        )
        h = circuit_outer_product(params)
        assert np.abs(h - h.conj().T).max() <= 1e-12 * max(1.0, np.abs(h).max())

    def test_spin_equivalent_matches_when_reducible(self):
        params = CircuitParams(
            delta11=5.0, delta12=5.0, delta21=-3.0, delta22=-3.0,
            j0101=4.0, j0112=4.0, j1201=4.0, j1212=4.0,
            j02=7.0, jzz=2.0, d11=1.0, d12=2.0, d21=1.5, d22=3.0,
        )
        dev = np.abs(circuit_outer_product(params) - circuit_spin_equivalent(params)).max()
        assert dev <= 1e-12

    def test_unequal_couplings_leave_residual(self):
        params = CircuitParams(j0101=4.0, j0112=4.0, j1201=4.0, j1212=5.0)
        dev = np.abs(circuit_outer_product(params) - circuit_spin_equivalent(params)).max()
        assert dev > 0.5


class TestU1Rotation:
    def test_zero_angle(self):
        h = coupled(coupled_params(h0=0.3 * HR, g=0.2 * HR))
        assert np.abs(u1_rotate(h, 0.0) - h).max() == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0, np.pi), st.floats(0, 2 * np.pi))
    def test_azimuthal_identity(self, theta, phi):
        params = dict(h0=0.7 * HR, g=0.4 * HR, j_z=0.3 * HR, j_02=0.6 * HR)
        built = coupled(coupled_params(field=FieldVector(HR, theta=theta, phi=phi), **params))
        rotated = u1_rotate(coupled(coupled_params(field=FieldVector(HR, theta=theta), **params)), phi)
        assert np.abs(built - rotated).max() <= 1e-12 * max(1.0, np.abs(built).max())

    def test_spectrum_invariant(self, rng):
        h = coupled(coupled_params(field=FieldVector(HR, theta=1.1), h0=0.5 * HR, g=0.3 * HR))
        for _ in range(5):
            phi = rng.uniform(0, 2 * np.pi)
            assert np.allclose(
                np.linalg.eigvalsh(h), np.linalg.eigvalsh(u1_rotate(h, phi)), atol=1e-10
            )


class TestFamilies:
    def test_matrix_matches_builders(self):
        params = coupled_params(field=FieldVector(HR, theta=0.8, phi=0.4),
                                h0=0.5 * HR, g=0.3 * HR, j_z=0.1 * HR, j_02=0.2 * HR)
        fam = coupled_family(params)
        assert np.abs(fam.matrix(params.field.cartesian()) - coupled(params)).max() <= 1e-12

    def test_batched_matrices(self, rng):
        fam = family_for(coupled_params(g=0.4 * HR))
        rs = rng.normal(size=(7, 3)) * HR
        batch = fam.matrices(rs)
        for k in range(7):
            assert np.abs(batch[k] - fam.matrix(rs[k])).max() <= 1e-12

    def test_norm_bound(self, rng):
        for params in (
            SingleSpinParams(field=FieldVector(HR), h0=0.7 * HR),
            coupled_params(h0=0.5 * HR, g=0.6 * HR, j_z=0.4 * HR, j_02=0.8 * HR),
        ):
            fam = family_for(params)
            bound = fam.norm_bound(HR)
            for _ in range(10):
                theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
                r = HR * np.array(
                    [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
                )
                assert np.linalg.norm(fam.matrix(r), 2) <= bound + 1e-9

    def test_single_family_gradient_sign(self):
        ramp = single_family(0.0, SignConvention.RAMP)
        circuit = single_family(0.0, SignConvention.CIRCUIT)
        assert np.abs(ramp.grad[2] + circuit.grad[2]).max() == 0.0


class TestConfigFiles:
    def test_circuit_config(self, tmp_path):
        path = tmp_path / "circuit.cfg"
        path.write_text("j0101 = 4\nj0112 = 4\nj1201 = 4\nj1212 = 4\nd11 = 1\nd12 = 2\n")
        params = circuit_params_from_config(read_config_file(path))
        assert abs(params.j0101 - 4 * 2 * np.pi) <= 1e-12
        assert params.d12 == 2.0

    def test_unknown_circuit_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(UnknownParameterError):
            circuit_params_from_config(read_config_file(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some text\n")
        with pytest.raises(UnknownParameterError):
            read_config_file(path)
