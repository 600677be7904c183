import dataclasses
import math

import numpy as np
import pytest

from spin1topo.berry import RampProtocol
from spin1topo.exceptions import (
    BoundaryDegeneracyError,
    RangeTooNarrowError,
    UnknownParameterError,
)
from spin1topo.hamiltonians import (
    MHZ_TO_RAD_PER_US,
    CoupledParams,
    FieldVector,
    SignConvention,
    SingleSpinParams,
    coupled_family,
    parity_sector_families,
    single_family,
)
from spin1topo.phases import (
    _chunksize,
    _eigh_labels,
    _ground_label,
    _ground_labels,
    _line_labels,
    _sector_labels,
    count_regions,
    phase_diagram,
    predict_chern,
    scan_weyl_points,
    weyl_points_g,
    weyl_points_j02,
    weyl_points_jz,
)

from conftest import HR


def coupled_params(**kw):
    kw.setdefault("field", FieldVector(HR))
    return CoupledParams(**kw)


class TestClosedForms:
    def test_uncoupled_stack(self):
        points = weyl_points_g(0.0, 0.0)
        assert all(p.h_z == 0.0 for p in points)
        assert sum(p.charge for p in points) == 4

    def test_transverse_at_field_strength(self):
        points = weyl_points_g(0.0, HR)
        values = sorted(p.h_z for p in points)
        expected = sorted([HR, -HR, HR - math.sqrt(2) * HR, -HR + math.sqrt(2) * HR])
        assert np.allclose(values, expected, atol=1e-12)

    def test_pair_exchange_scaling(self, rng):
        for _ in range(20):
            h0 = rng.uniform(0.0, 2.0) * HR
            g = rng.uniform(0.0, 2.0) * HR
            from_g = weyl_points_g(h0, g)[:2]
            from_j02 = weyl_points_j02(h0, 2.0 * g)
            for a, b in zip(from_g, from_j02):
                assert abs(a.h_z - b.h_z) <= 1e-12 * max(1.0, abs(a.h_z))

    def test_pair_exchange_limit(self):
        points = weyl_points_j02(HR, 0.0)
        assert np.allclose(sorted(p.h_z for p in points), [-HR, 0.0], atol=1e-12)

    def test_ising_points(self):
        points = weyl_points_jz(0.4 * HR, 0.3 * HR)
        assert np.allclose(sorted(p.h_z for p in points), [-0.7 * HR, 0.3 * HR], atol=1e-12)
        assert all(p.charge == 2 for p in points)


class TestScan:
    def test_single_spin_family(self):
        points = scan_weyl_points(SingleSpinParams(field=FieldVector(HR), h0=0.6 * HR))
        assert len(points) == 1
        assert abs(points[0].h_z + 0.6 * HR) <= 1e-7
        assert points[0].charge == 2

    def test_matches_transverse_closed_form(self):
        params = coupled_params(h0=0.7 * HR, g=0.4 * HR)
        scanned = scan_weyl_points(params)
        expected = sorted(p.h_z for p in weyl_points_g(params.h0, params.g))
        assert len(scanned) == 4
        assert np.allclose([p.h_z for p in scanned], expected, atol=1e-6)
        assert all(p.charge == 1 for p in scanned)
        for p in scanned:
            assert abs(p.gap_sector[0] - p.gap_sector[1]) == 1

    def test_matches_pair_exchange_closed_form(self):
        params = coupled_params(h0=0.5 * HR, j_02=1.0 * HR)
        scanned = scan_weyl_points(params)
        expected = sorted(p.h_z for p in weyl_points_j02(params.h0, params.j_02))
        assert np.allclose([p.h_z for p in scanned], expected, atol=1e-6)
        assert all(p.charge == 2 for p in scanned)
        for p in scanned:
            assert abs(p.gap_sector[0] - p.gap_sector[1]) == 2

    def test_matches_ising_closed_form(self):
        params = coupled_params(h0=0.3 * HR, j_z=0.5 * HR)
        scanned = scan_weyl_points(params)
        expected = sorted(p.h_z for p in weyl_points_jz(params.h0, params.j_z))
        assert np.allclose([p.h_z for p in scanned], expected, atol=1e-6)
        assert all(p.charge == 2 for p in scanned)

    def test_charge_conservation(self, rng):
        for _ in range(3):
            params = coupled_params(
                h0=rng.uniform(0.1, 1.5) * HR,
                g=rng.uniform(0.1, 1.5) * HR,
                j_z=rng.uniform(0.0, 0.8) * HR,
                j_02=rng.uniform(0.0, 0.8) * HR,
            )
            points = scan_weyl_points(params)
            assert sum(p.charge for p in points) == 4
        single = scan_weyl_points(SingleSpinParams(field=FieldVector(HR), h0=0.4 * HR))
        assert sum(p.charge for p in single) == 2

    def test_range_too_narrow(self):
        params = coupled_params(h0=1.5 * HR, g=0.5 * HR)
        with pytest.raises(RangeTooNarrowError):
            scan_weyl_points(params, h_z_range=(-HR, HR))

    def test_keep_uncharged_reports_symmetry_protected_crossings(self):
        # at h0 = 0 the global ground-level crossings are parity protected
        params = coupled_params(g=0.5 * HR)
        crossings = scan_weyl_points(params, keep_uncharged=True)
        assert len(crossings) == 4
        assert all(p.charge == 0 for p in crossings)
        expected = sorted(p.h_z for p in weyl_points_g(0.0, 0.5 * HR))
        assert np.allclose([p.h_z for p in crossings], expected, atol=1e-6)


class TestSectorLines:
    @staticmethod
    def families():
        for convention in SignConvention:
            yield single_family(0.4 * HR, convention)
            yield coupled_family(coupled_params(
                h0=0.7 * HR, g=0.4 * HR, j_z=0.3 * HR, j_02=0.5 * HR, sign_convention=convention
            ))
            heisenberg = coupled_family(coupled_params(g=0.3 * HR, j_z=0.3 * HR, sign_convention=convention))
            yield heisenberg
            yield from parity_sector_families(heisenberg)
            yield from parity_sector_families(coupled_family(coupled_params(
                g=0.8 * HR, j_02=1.3 * HR, sign_convention=convention
            )))

    @staticmethod
    def complex_eigh_labels(family, hzs):
        return _eigh_labels(family, family.matrices(np.outer(hzs, [0.0, 0.0, 1.0])))

    def test_labels_match_full_eigh(self, rng):
        hzs = np.sort(rng.uniform(-4.0 * HR, 4.0 * HR, 400))
        for family in self.families():
            lines = family.sector_lines
            by_lines = lines.labels[np.argmin(lines.offsets + np.multiply.outer(hzs, lines.slopes), axis=1)]
            expected = self.complex_eigh_labels(family, hzs)
            assert np.array_equal(by_lines, expected)
            assert np.array_equal(_ground_labels(family, hzs), expected)
            assert np.array_equal(_sector_labels(family, hzs), expected)
            assert len(set(expected)) >= 2
            assert all(_ground_label(family, hz) == e for hz, e in zip(hzs[::40], expected[::40]))

    def test_base_must_be_block_diagonal(self):
        family = single_family(0.0)
        with pytest.raises(ValueError, match="block-diagonal"):
            dataclasses.replace(family, base=family.grad[0]).sector_lines

    def test_exact_tie_takes_the_eigh_label(self):
        # At h0 = 0 with only j_02 on, the tracked sector's double crossing
        # sits at h_z = 0, which the bisection probes exactly.
        params = coupled_params(field=FieldVector(10.0 * MHZ_TO_RAD_PER_US), j_02=2.0 * MHZ_TO_RAD_PER_US)
        points = scan_weyl_points(params)
        assert [(p.h_z, p.charge, p.gap_sector) for p in points] == [(-2.9975550038408033e-09, 4, (2, -2))]

    def test_tie_keeps_the_complex_eigh(self):
        # On the Heisenberg line at h0 = 0 the m = -1 and m = -2 lines cross
        # at h_z = -40 MHz exactly; there the real eigh labels -2 and the
        # complex one, which earlier scans used, labels -1.
        mhz = MHZ_TO_RAD_PER_US
        family = coupled_family(coupled_params(g=20.0 * mhz, j_z=20.0 * mhz, j_02=10.0 * mhz))
        hzs = np.array([-41.0, -40.0, -39.0]) * mhz
        assert _line_labels(family, hzs)[1].tolist() == [False, True, False]
        assert _ground_labels(family, hzs).tolist() == [-2, -1, -1]
        assert _eigh_labels(family, np.ascontiguousarray(family.matrices(np.outer(hzs, [0.0, 0.0, 1.0])).real))[1] == -2


class TestPredict:
    def test_reference_values(self):
        assert predict_chern(coupled_params(), HR) == 4
        assert predict_chern(coupled_params(h0=2.0 * HR), HR) == 2
        assert predict_chern(coupled_params(g=2.0 * HR, j_02=2.0 * HR), HR) == 2
        assert predict_chern(coupled_params(j_02=4.0 * HR), HR) == 0

    def test_axis_transitions_of_coupling_pair(self):
        # along the two axes of the (g, j_02) plane the transitions sit at
        # g = hr and j_02 = 2*hr
        assert predict_chern(coupled_params(g=0.9 * HR), HR) == 4
        assert predict_chern(coupled_params(g=1.1 * HR), HR) == 2
        assert predict_chern(coupled_params(j_02=1.9 * HR), HR) == 4
        assert predict_chern(coupled_params(j_02=2.1 * HR), HR) == 0

    def test_monotone_boundary_two_unit_steps(self):
        g = 0.6 * HR
        values = [
            predict_chern(coupled_params(h0=f * HR, g=g), HR)
            for f in np.linspace(0.0, 2.0, 21)
        ]
        assert values[0] == 4 and values[-1] == 2
        drops = [values[k] - values[k + 1] for k in range(20) if values[k] != values[k + 1]]
        assert drops == [1, 1]

    def test_boundary_guard(self):
        params = coupled_params(h0=0.7 * HR, g=0.4 * HR)
        points = scan_weyl_points(params)
        with pytest.raises(BoundaryDegeneracyError):
            predict_chern(params, abs(points[-1].h_z), points=points)


class TestPhaseDiagram:
    def test_unknown_parameter(self):
        with pytest.raises(UnknownParameterError):
            phase_diagram("bogus", "g", np.array([0.0]), np.array([0.0]), coupled_params())

    def test_dynamical_requires_protocol(self):
        with pytest.raises(UnknownParameterError):
            phase_diagram(
                "h0", "g", np.array([0.0]), np.array([0.0]), coupled_params(),
                method="dynamical",
            )

    def test_methods_agree_away_from_boundaries(self):
        grid = np.array([0.3, 0.8, 1.5]) * HR
        fixed = coupled_params()
        analytic = phase_diagram("h0", "g", grid, grid, fixed, method="analytic")
        dynamical = phase_diagram(
            "h0", "g", grid, grid, fixed, method="dynamical", protocol=RampProtocol(10.0)
        )
        for i, h0 in enumerate(grid):
            for j, g in enumerate(grid):
                margin = min(abs(abs(p.h_z) - HR) for p in weyl_points_g(h0, g))
                if margin >= 0.02 * HR:
                    assert analytic.chern_grid[i, j] == dynamical.chern_grid[i, j]

    def test_serialisation(self, tmp_path):
        grid = np.array([0.3, 1.5]) * HR
        d = phase_diagram("h0", "j_z", grid, grid, coupled_params())
        lines = d.to_csv().strip().split("\n")
        assert lines[0] == "x,y,chern,flagged"
        assert len(lines) == 5
        record = __import__("json").loads(d.to_json())
        assert record["x_param"] == "h0"
        assert len(record["chern"]) == 2
        from spin1topo.svgplot import write_heatmap_svg

        out = tmp_path / "diagram.svg"
        write_heatmap_svg(d, HR, out)
        text = out.read_text()
        assert text.count("<rect") >= 5  # background + 4 cells + legend
        assert "h0 / hr" in text

    def test_worker_pool_matches_serial(self):
        # Nine cells on two workers, so both workers evaluate cells.
        grid = np.array([0.4, 0.8, 1.2]) * HR
        fixed = coupled_params()
        serial = phase_diagram("h0", "g", grid, grid, fixed, jobs=1)
        pooled = phase_diagram("h0", "g", grid, grid, fixed, jobs=2)
        assert pooled.to_csv() == serial.to_csv()
        assert pooled.to_json() == serial.to_json()

    def test_worker_pool_matches_serial_dynamical(self):
        h0 = np.array([0.5 * HR])
        g = np.array([0.2, 0.6, 1.4]) * HR
        fixed = coupled_params()
        protocol = RampProtocol(t_ramp=0.5, n_samples=100)
        serial = phase_diagram("h0", "g", h0, g, fixed, method="dynamical", protocol=protocol, jobs=1)
        pooled = phase_diagram("h0", "g", h0, g, fixed, method="dynamical", protocol=protocol, jobs=2)
        assert pooled.to_csv() == serial.to_csv()

    def test_pool_dispatch_reaches_every_worker(self):
        for jobs in range(1, 17):
            for cells in range(jobs, 2000):
                size = _chunksize(cells, jobs)
                assert size >= 1
                assert math.ceil(cells / size) >= jobs, (cells, jobs)


def test_count_regions():
    grid = np.array([[1, 1, 2], [1, 2, 2], [3, 3, 1]])
    assert count_regions(grid) == 4
