import json

import pytest

from spin1topo.cli import main

EQUAL_COUPLING_CONFIG = """\
# reducible circuit configuration
delta11 = 5
delta12 = 5
delta21 = -3
delta22 = -3
j0101 = 4
j0112 = 4
j1201 = 4
j1212 = 4
j02 = 7
jzz = 2
d11 = 1
d12 = 2
d21 = 1.5
d22 = 3
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_single_ramp_enclosed(capsys):
    code, out, _ = run(capsys, "single-ramp", "--h0", "0", "--hr", "10", "--t-ramp", "0.5")
    assert code == 0
    assert "rounded=2" in out


def test_single_ramp_excluded(capsys):
    code, out, _ = run(capsys, "single-ramp", "--h0", "20", "--hr", "10", "--t-ramp", "4")
    assert code == 0
    assert "rounded=0" in out


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["single-ramp", "--h0", "0", "--t-ramp", "0.5"])
    assert err.value.code == 2


def test_nonpositive_ramp_time_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["single-ramp", "--h0", "0", "--hr", "10", "--t-ramp", "-1"])
    assert err.value.code == 2
    assert "t_ramp must be positive" in capsys.readouterr().err


def test_coupled_ramp_decoupled(capsys):
    code, out, _ = run(
        capsys, "coupled-ramp", "--h0", "0", "--hr", "10", "--g", "0", "--t-ramp", "0.5"
    )
    assert code == 0
    assert "rounded=4" in out


def test_coupled_ramp_strong_pair_exchange(capsys):
    code, out, _ = run(
        capsys, "coupled-ramp", "--h0", "0", "--hr", "10",
        "--g", "0", "--j-02", "40", "--t-ramp", "10",
    )
    assert code == 0
    assert "rounded=0" in out


def test_coupled_ramp_ridge(capsys):
    code, out, _ = run(
        capsys, "coupled-ramp", "--h0", "0", "--hr", "10",
        "--g", "20", "--j-02", "20", "--t-ramp", "4",
    )
    assert code == 0
    assert "rounded=2" in out


def test_weyl_transverse_agreement(capsys):
    code, out, _ = run(capsys, "weyl", "--h0", "0", "--g", "10", "--hr", "10")
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l.startswith("h_z=")]
    assert len(lines) == 4
    for line in lines:
        delta = float(line.split("delta=")[1])
        assert delta < 1e-6


def test_weyl_single_family(capsys):
    code, out, _ = run(
        capsys, "weyl", "--h0", "0", "--g", "0", "--hr", "10", "--family", "single"
    )
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l.startswith("h_z=")]
    assert len(lines) == 1
    assert "charge=2" in lines[0]


def test_weyl_mixed_couplings_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        main(["weyl", "--h0", "5", "--g", "10", "--j-02", "5", "--hr", "10"])
    assert err.value.code == 2


def test_weyl_degenerate_band_exits_3(capsys):
    code, _, err = run(capsys, "weyl", "--h0", "0", "--hr", "10", "--j-z", "5")
    assert code == 3
    assert err.startswith("error: ")


def test_weyl_pair_exchange(capsys):
    code, out, _ = run(capsys, "weyl", "--h0", "0", "--j-02", "20", "--hr", "10")
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l.startswith("h_z=")]
    values = sorted(float(l.split()[0].split("=")[1]) for l in lines)
    hr = 10 * 2 * 3.141592653589793
    assert abs(values[0] + hr) < 1e-4 and abs(values[1] - hr) < 1e-4


def test_phase_diagram_bad_parameter(capsys):
    code, _, err = run(
        capsys, "phase-diagram", "--x", "bogus", "--y", "g",
        "--x-max", "20", "--y-max", "20", "--hr", "10", "--steps", "3",
    )
    assert code == 2


def test_phase_diagram_dynamical_method(tmp_path, capsys):
    out_csv = tmp_path / "dyn.csv"
    code, out, _ = run(
        capsys, "phase-diagram", "--x", "h0", "--y", "g",
        "--x-min", "4", "--x-max", "16", "--y-min", "4", "--y-max", "16",
        "--steps", "2", "--hr", "10", "--method", "dynamical", "--t-ramp", "0.5",
        "--jobs", "1", "--out", str(out_csv),
    )
    assert code == 0
    assert "method=dynamical" in out
    assert len(out_csv.read_text().strip().split("\n")) == 5


def test_phase_diagram_writes_outputs(tmp_path, capsys):
    out_csv = tmp_path / "grid.csv"
    out_svg = tmp_path / "grid.svg"
    code, out, _ = run(
        capsys, "phase-diagram", "--x", "h0", "--y", "j_z",
        "--x-max", "20", "--y-max", "20", "--steps", "3", "--hr", "10",
        "--jobs", "1", "--out", str(out_csv), "--svg", str(out_svg),
    )
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "x,y,chern,flagged"
    assert len(lines) == 10
    assert out_svg.read_text().startswith("<svg")


def test_circuit_check_reducible(tmp_path, capsys):
    cfg = tmp_path / "circuit.cfg"
    cfg.write_text(EQUAL_COUPLING_CONFIG)
    code, out, _ = run(capsys, "circuit-check", "--params", str(cfg))
    assert code == 0
    deviation = float(out.split("deviation=")[1])
    assert deviation <= 1e-12


def test_circuit_check_irreducible(tmp_path, capsys):
    cfg = tmp_path / "circuit.cfg"
    cfg.write_text("j0101 = 4\nj0112 = 4\nj1201 = 4\nj1212 = 5\n")
    code, out, _ = run(capsys, "circuit-check", "--params", str(cfg))
    assert code == 3
    assert float(out.split("deviation=")[1]) > 0.0


def test_zero_circuit_config(tmp_path, capsys):
    cfg = tmp_path / "circuit.cfg"
    cfg.write_text("j02 = 0\n")
    code, out, _ = run(capsys, "circuit-check", "--params", str(cfg))
    assert code == 0
    assert float(out.split("deviation=")[1]) == 0.0


def test_deterministic_output(tmp_path, capsys):
    args = ["single-ramp", "--h0", "0", "--hr", "10", "--t-ramp", "0.5"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_config_roundtrip(tmp_path, capsys):
    dumped = tmp_path / "run.json"
    direct = tmp_path / "direct.csv"
    replayed = tmp_path / "replayed.csv"
    assert main([
        "coupled-ramp", "--h0", "5", "--hr", "10", "--g", "3", "--t-ramp", "0.5",
        "--out", str(direct), "--dump-config", str(dumped),
    ]) == 0
    record = json.loads(dumped.read_text())
    assert record["command"] == "coupled-ramp"
    assert record["hr"] == 10.0
    assert main([
        "coupled-ramp", "--config", str(dumped), "--out", str(replayed),
    ]) == 0
    capsys.readouterr()
    assert direct.read_bytes() == replayed.read_bytes()
