import json
import re
import shlex
from pathlib import Path

import pytest

from spin1topo.cli import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["single-ramp", "--h0", "nan", "--hr", "10", "--t-ramp", "0.5"], "--h0: must be finite"),
        (["weyl", "--h0", "inf", "--hr", "10"], "--h0: must be finite"),
        (["weyl", "--h0", "0", "--hr", "0"], "--hr: must be positive"),
        (["coupled-ramp", "--h0", "0", "--hr", "10", "--g=-inf", "--t-ramp", "0.5"], "--g: must be finite"),
        (["single-ramp", "--h0", "0", "--hr", "10", "--t-ramp", "nan"], "--t-ramp: must be finite"),
        (["phase-diagram", "--x", "h0", "--y", "h0", "--x-max", "20", "--y-max", "20", "--hr", "10"],
         "--x and --y must name different parameters"),
        (["phase-diagram", "--x", "h0", "--y", "g", "--x-max", "20", "--y-max", "20", "--hr", "10", "--steps", "0"],
         "--steps must be at least 1"),
        (["phase-diagram", "--x", "h0", "--y", "g", "--x-max", "20", "--y-max", "20", "--hr", "10", "--jobs", "0"],
         "--jobs must be at least 1"),
    ],
)
def test_bad_values_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_config_values_are_checked_like_flags(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"command": "weyl", "h0": float("nan"), "hr": 10.0}))
    with pytest.raises(SystemExit) as err:
        main(["weyl", "--config", str(config)])
    assert err.value.code == 2
    assert "--h0: must be finite" in capsys.readouterr().err
    # an explicit flag still overrides the stored value
    code, out, _ = run(capsys, "weyl", "--config", str(config), "--h0", "0", "--family", "single")
    assert code == 0
    assert "charge=2" in out


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["circuit-check", "--params", "{tmp}/missing.cfg"], {}, "No such file"),
        (["circuit-check", "--params", "{tmp}/c.cfg"], {"c.cfg": "j0101 = abc\n"}, "malformed line"),
        (["circuit-check", "--params", "{tmp}/c.cfg"], {"c.cfg": "j0101 = nan\n"}, "malformed line"),
        (["weyl", "--config", "{tmp}/missing.json"], {}, "cannot read --config"),
        (["weyl", "--config", "{tmp}/c.json"], {"c.json": "{not json"}, "cannot read --config"),
        (["weyl", "--config", "{tmp}/c.json"], {"c.json": "[1, 2]"}, "must hold a JSON object"),
        (["phase-diagram", "--x", "h0", "--y", "g", "--x-max", "20", "--y-max", "20", "--hr", "10",
          "--steps", "1", "--jobs", "1", "--out", "{tmp}/missing/x.csv"], {}, "No such file"),
        (["weyl", "--h0", "0", "--hr", "10", "--dump-config", "{tmp}/missing/run.json"], {}, "No such file"),
    ],
)
def test_bad_input_files_exit_2(tmp_path, capsys, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    try:
        code = main([a.format(tmp=tmp_path) for a in argv])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert sum(line.startswith(("error:", "spin1topo")) for line in err.splitlines()) == 1


def _readme_commands() -> list[str]:
    """Every `spin1topo ...` line of README.md's code blocks, continuations joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = (line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("spin1topo ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert commands
    parser = _build_parser()
    for command in commands:
        # a shell variable of the README's loops stands for a number
        argv = [re.sub(r"^\$\w+$", "1", word) for word in shlex.split(command)[1:]]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
