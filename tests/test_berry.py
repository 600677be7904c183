import json

import numpy as np
import pytest

from spin1topo import berry
from spin1topo.berry import (
    CURVATURE_CHUNK,
    CurvatureTrace,
    RampProtocol,
    exact_chern_flux,
    exact_curvature,
    oscillation_count,
    simulate_ramp,
)
from spin1topo.exceptions import (
    DegenerateBandError,
    DegenerateOnSurfaceError,
    DegenerateStartError,
)
from spin1topo.hamiltonians import (
    CoupledParams,
    FieldVector,
    SignConvention,
    SingleSpinParams,
    coupled_family,
    single_family,
)

from conftest import HR


def coupled_params(**kw):
    kw.setdefault("field", FieldVector(HR))
    return CoupledParams(**kw)


class TestExactCurvature:
    def test_field_aligned_convention_values(self):
        fam = single_family(0.0, SignConvention.CIRCUIT)  # H = +r.S
        top = exact_curvature(fam, np.array([0.0, 0.0, 1.0]), band=2)
        assert np.allclose(top, [0.0, 0.0, -1.0], atol=1e-12)
        middle = exact_curvature(fam, np.array([0.0, 0.0, 1.0]), band=1)
        assert np.abs(middle).max() <= 1e-12
        bottom = exact_curvature(fam, np.array([0.0, 0.0, 2.0]), band=0)
        assert np.allclose(bottom, [0.0, 0.0, 0.25], atol=1e-12)

    def test_ground_band_radial_inverse_square(self, rng):
        fam = single_family(0.0, SignConvention.RAMP)
        for _ in range(20):
            r = rng.normal(size=3)
            r *= rng.uniform(0.5, 3.0) / np.linalg.norm(r)
            f = exact_curvature(fam, r, band=0)
            expected = -r / np.linalg.norm(r) ** 3
            assert np.abs(f - expected).max() <= 1e-8 * np.abs(expected).max()

    def test_band_sum_rule(self, rng):
        fam = coupled_family(coupled_params(h0=0.61 * HR, g=0.37 * HR))
        for _ in range(5):
            r = rng.normal(size=3)
            r *= HR * rng.uniform(0.4, 1.5) / np.linalg.norm(r)
            total = sum(exact_curvature(fam, r, band=b) for b in range(9))
            assert np.abs(total).max() <= 1e-10

    def test_degenerate_band_raises(self):
        fam = single_family(0.0, SignConvention.RAMP)
        with pytest.raises(DegenerateBandError):
            exact_curvature(fam, np.zeros(3), band=0)


class TestBatchCurvature:
    def test_real_chunks_match_complex_single_batch(self, monkeypatch):
        # the phi = 0 meridian of a small sphere around the Weyl point at h_z = 0.2*hr
        fam = coupled_family(coupled_params(h0=0.6 * HR, g=0.4 * HR))
        thetas = np.linspace(0.0, np.pi, CURVATURE_CHUNK + 500)
        normals = np.stack([np.sin(thetas), 0.0 * thetas, np.cos(thetas)], axis=-1)
        meridian = np.array([0.0, 0.0, 0.2 * HR]) + 0.1 * HR * normals
        chunked = berry._batch_curvature(fam, meridian, band=0)
        monkeypatch.setattr(berry, "CURVATURE_CHUNK", len(thetas))
        monkeypatch.setattr(berry, "eigh_many", lambda hs: np.linalg.eigh(hs.astype(complex)))
        reference = berry._batch_curvature(fam, meridian, band=0)
        assert np.abs(chunked - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_closed_gap_in_a_later_chunk_raises(self):
        fam = single_family(0.3 * HR)
        rs = np.tile([0.5 * HR, 0.0, 0.0], (2 * CURVATURE_CHUNK + 10, 1))
        rs[-5] = [0.0, 0.0, -0.3 * HR]  # H = 0 there
        with pytest.raises(DegenerateBandError):
            berry._batch_curvature(fam, rs, band=0)


class TestExactChernFlux:
    def test_ground_band_quantised(self):
        fam = single_family(0.0, SignConvention.RAMP)
        chern = exact_chern_flux(fam, np.zeros(3), HR, band=0)
        assert abs(chern - 2.0) <= 1e-3

    def test_middle_band_zero(self):
        fam = single_family(0.0, SignConvention.RAMP)
        assert abs(exact_chern_flux(fam, np.zeros(3), HR, band=1)) <= 1e-6

    def test_sphere_without_source(self):
        fam = single_family(0.0, SignConvention.RAMP)
        chern = exact_chern_flux(fam, np.array([0.0, 0.0, 3.0 * HR]), HR, band=0)
        assert abs(chern) <= 1e-3

    def test_degeneracy_on_surface_detected(self):
        fam = single_family(0.0, SignConvention.RAMP)
        # south pole of this sphere sits exactly on the degeneracy at the origin
        with pytest.raises(DegenerateOnSurfaceError):
            exact_chern_flux(fam, np.array([0.0, 0.0, HR]), HR, band=0)


class TestSimulateRamp:
    def test_single_spin_enclosed(self):
        trace = simulate_ramp(SingleSpinParams(field=FieldVector(HR)), RampProtocol(0.5))
        assert abs(trace.chern - 2.0) <= 0.1
        assert trace.chern_rounded == 2
        assert trace.residual <= 0.1

    def test_single_spin_excluded(self):
        trace = simulate_ramp(
            SingleSpinParams(field=FieldVector(HR), h0=2.0 * HR), RampProtocol(10.0)
        )
        assert abs(trace.chern) <= 0.05

    def test_coupled_decoupled_limit(self):
        trace = simulate_ramp(coupled_params(), RampProtocol(2.0))
        assert abs(trace.chern - 4.0) <= 0.1

    def test_slower_ramp_is_closer(self):
        # sample count scales with t_ramp so both traces resolve the
        # precession equally and the comparison isolates the ramp speed
        params = SingleSpinParams(field=FieldVector(HR))
        fast = simulate_ramp(params, RampProtocol(0.5, n_samples=1000))
        slow = simulate_ramp(params, RampProtocol(10.0, n_samples=20000))
        assert abs(slow.chern - 2.0) < abs(fast.chern - 2.0)
        # with the degeneracy close to the manifold the speed dependence is stark
        offset = SingleSpinParams(field=FieldVector(HR), h0=0.8 * HR)
        fast_off = simulate_ramp(offset, RampProtocol(0.5))
        slow_off = simulate_ramp(offset, RampProtocol(10.0))
        assert abs(slow_off.chern - 2.0) < 0.1 * abs(fast_off.chern - 2.0)

    def test_rounding_stable_under_sampling(self):
        params = coupled_params(h0=0.7 * HR, g=0.4 * HR)
        coarse = simulate_ramp(params, RampProtocol(4.0, n_samples=500))
        fine = simulate_ramp(params, RampProtocol(4.0, n_samples=2000))
        assert coarse.chern_rounded == fine.chern_rounded == 4

    def test_rounding_stable_across_transition_grid(self):
        # the full offset grid of the slow-ramp transition sweep
        for h0 in np.linspace(0.0, 2.0, 21) * HR:
            params = SingleSpinParams(field=FieldVector(HR), h0=h0)
            coarse = simulate_ramp(params, RampProtocol(10.0, n_samples=500))
            fine = simulate_ramp(params, RampProtocol(10.0, n_samples=2000))
            assert coarse.chern_rounded == fine.chern_rounded

    def test_phi_independence(self):
        params = coupled_params(h0=0.5 * HR, g=0.3 * HR, j_z=0.2 * HR, j_02=0.4 * HR)
        protocol = RampProtocol(0.5, n_samples=500)
        base = simulate_ramp(params, protocol, phi=0.0)
        rotated = simulate_ramp(params, protocol, phi=0.7)
        assert np.abs(base.f_values - rotated.f_values).max() <= 1e-9

    def test_degenerate_start_raises(self):
        with pytest.raises(DegenerateStartError):
            simulate_ramp(SingleSpinParams(field=FieldVector(HR), h0=-HR), RampProtocol(0.5))

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            RampProtocol(0.0)
        with pytest.raises(ValueError):
            RampProtocol(1.0, n_samples=50)
        assert abs(RampProtocol(2.0).v_theta * 2.0 - np.pi) <= 1e-12


class TestOscillations:
    def test_reference_count(self):
        trace = simulate_ramp(SingleSpinParams(field=FieldVector(HR)), RampProtocol(0.5))
        assert abs(oscillation_count(trace) - 10) <= 2

    def test_count_doubles_with_ramp_time(self):
        slow = simulate_ramp(SingleSpinParams(field=FieldVector(HR)), RampProtocol(1.0))
        assert abs(oscillation_count(slow) - 20) <= 2

    def test_constant_trace(self):
        thetas = np.linspace(0.0, np.pi, 200)
        trace = CurvatureTrace(
            thetas=thetas, f_values=np.ones_like(thetas), chern=np.pi,
            chern_rounded=3, residual=abs(np.pi - 3),
        )
        assert oscillation_count(trace) == 0


class TestTraceSerialisation:
    def make_trace(self):
        return simulate_ramp(
            SingleSpinParams(field=FieldVector(HR)), RampProtocol(0.5, n_samples=120)
        )

    def test_csv_layout(self):
        trace = self.make_trace()
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "theta,F_theta_phi"
        assert len(lines) == 122
        assert lines[-1].startswith("# chern=")
        assert "residual=" in lines[-1]

    def test_json_fields(self):
        trace = self.make_trace()
        record = json.loads(trace.to_json())
        assert set(record) == {"thetas", "f_values", "chern", "chern_rounded", "residual"}
        assert record["chern_rounded"] == 2
        assert len(record["thetas"]) == 120
