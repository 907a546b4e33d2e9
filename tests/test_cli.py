"""Config parsing, CLI commands, exit statuses, CSV outputs."""

import numpy as np
import pytest

from wignerdv.cli import ConfigError, main, parse_config

BASE_CONFIG = """
# flagship barrier on a small mesh
period_l = 1.0
coeffs = 20.0, 20.0
s_over_kappa = 0.5
M = 40
symmetric = true
Nx = 50
boundary = mono:0
scheme = central
rel_tol = 1e-12
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


def _write(tmp_path, text, name="bad.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_defaults(tmp_path):
    path = _write(tmp_path, "period_l = 1\ncoeffs = 1, 2\nNx = 10\nboundary = mono:0\n")
    cfg = parse_config(path)
    assert cfg["s_over_kappa"] == 0.5
    assert cfg["M"] == 40
    assert cfg["symmetric"] is True
    assert cfg["scheme"] == "central"
    assert cfg["rel_tol"] == 1e-12
    assert cfg["emit"] == ("solution", "density", "current")
    assert cfg["boundary"] == ("mono", 0)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, BASE_CONFIG + "\nwavelength = 3\n")
    with pytest.raises(ConfigError, match="wavelength"):
        parse_config(path)


def test_parse_config_rejects_missing_key(tmp_path):
    path = _write(tmp_path, "period_l = 1\ncoeffs = 1\nNx = 10\n")
    with pytest.raises(ConfigError, match="boundary"):
        parse_config(path)


def test_parse_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError, match="s_over_kappa"):
        parse_config(
            _write(tmp_path, "period_l = 1\ncoeffs = 1\nNx = 10\nboundary = mono:0\ns_over_kappa = 1.5\n")
        )
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(
            _write(tmp_path, "period_l = 1\ncoeffs = 1\nNx = 10\nboundary = mono:0\nscheme = magic\n")
        )
    with pytest.raises(ConfigError, match="boundary"):
        parse_config(_write(tmp_path, "period_l = 1\ncoeffs = 1\nNx = 10\nboundary = everywhere\n"))
    with pytest.raises(ConfigError, match="emit"):
        parse_config(
            _write(tmp_path, "period_l = 1\ncoeffs = 1\nNx = 10\nboundary = mono:0\nemit = plots\n")
        )
    with pytest.raises(ConfigError, match="Nx"):
        parse_config(_write(tmp_path, "period_l = 1\ncoeffs = 1\nNx = ten\nboundary = mono:0\n"))
    for bad in ("0.5", "1e-3", "0", "-1e-12", "nan"):
        with pytest.raises(ConfigError, match="rel_tol"):
            parse_config(_write(tmp_path, BASE_CONFIG.replace("rel_tol = 1e-12", f"rel_tol = {bad}")))


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{cfg}", "--out", "{out}"],
        ["study", "{cfg}", "--nx", "10", "--schemes", "central", "--out", "{out}"],
        ["verify", "{cfg}"],
    ],
)
def test_out_of_range_rel_tol_exits_2(argv, config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    args = [a.format(cfg=config_file, out=out) for a in argv]
    assert main(args + ["--tol", "1e-3"]) == 2
    assert "--tol" in capsys.readouterr().err
    bad_cfg = _write(tmp_path, BASE_CONFIG.replace("rel_tol = 1e-12", "rel_tol = 0.5"))
    args = [a.format(cfg=bad_cfg, out=out) for a in argv]
    assert main(args) == 2
    assert "rel_tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_config_table_boundary(tmp_path):
    path = _write(
        tmp_path, "period_l = 1\ncoeffs = 1\nNx = 10\nboundary = table: 0=1.0, -1=0.5\n"
    )
    cfg = parse_config(path)
    assert cfg["boundary"] == ("table", {0: 1.0, -1: 0.5})


def test_solve_writes_outputs(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    status = main(["solve", config_file, "--out", str(out)])
    assert status == 0
    text = capsys.readouterr().out
    assert "symmetry_error=" in text
    assert (out / "solution.csv").exists()
    assert (out / "density.csv").exists()
    assert (out / "current.csv").exists()
    header = (out / "solution.csv").read_text().split("\n", 1)[0]
    assert header == "x, v, f"
    header = (out / "density.csv").read_text().split("\n", 1)[0]
    assert header == "x, value"


def test_solve_scheme_override_and_report(config_file, tmp_path, capsys):
    out = tmp_path / "o2"
    status = main(["solve", config_file, "--out", str(out), "--scheme", "upwind1"])
    assert status == 0
    assert "scheme=upwind1" in capsys.readouterr().out


def test_solve_oracle_via_cli(config_file, tmp_path, capsys):
    out = tmp_path / "o3"
    status = main(["solve", config_file, "--out", str(out), "--scheme", "oracle"])
    assert status == 0
    line = capsys.readouterr().out
    assert "scheme=oracle" in line


def test_solve_bad_config_exits_2(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG + "\nbogus = 1\n")
    status = main(["solve", path])
    assert status == 2
    assert "bogus" in capsys.readouterr().err


def test_solve_missing_file_exits_1(tmp_path, capsys):
    status = main(["solve", str(tmp_path / "absent.cfg")])
    assert status == 1
    assert "error" in capsys.readouterr().err


def test_solve_emit_report(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG + "\nemit = report\n", "rep.cfg")
    out = tmp_path / "rep"
    assert main(["solve", path, "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text().strip().split("\n")
    assert lines[0] == "scheme, Nx, symmetry_error, runtime_s, residual"
    assert len(lines) == 2
    assert lines[1].startswith("central, 50")


def test_study_runs_and_writes_report(config_file, tmp_path, capsys):
    out = tmp_path / "study"
    status = main(
        ["study", config_file, "--nx", "10,20", "--schemes", "upwind1,central", "--out", str(out)]
    )
    assert status == 0
    lines = (out / "report.csv").read_text().strip().split("\n")
    assert lines[0] == "scheme, Nx, symmetry_error, runtime_s, residual"
    assert len(lines) == 5
    body = capsys.readouterr().out
    assert body.count("scheme=upwind1") == 2
    assert body.count("scheme=central") == 2


def test_study_rejects_bad_flags(config_file, capsys):
    assert main(["study", config_file, "--nx", "", "--schemes", "central"]) == 2
    assert main(["study", config_file, "--nx", "10", "--schemes", "magic"]) == 2
    # missing required flag is a usage error
    assert main(["study", config_file, "--nx", "10"]) == 2


def test_verify_passes_on_flagship(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG.replace("Nx = 50", "Nx = 40"), "verify.cfg")
    status = main(["verify", path])
    out = capsys.readouterr().out
    assert status == 0, out
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 5
    assert all(l.startswith("PASS") for l in lines)
    for name in (
        "coupling-bound",
        "propagator-mirror",
        "propagator-inversion",
        "free-streaming",
        "current-conservation",
    ):
        assert any(name in l for l in lines)


def test_bundled_flagship_config_parses():
    import os

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = parse_config(os.path.join(here, "configs", "paper.cfg"))
    assert cfg["period_l"] == 1.0
    assert cfg["coeffs"] == [20.0, 20.0]
    assert cfg["M"] == 40
    assert cfg["Nx"] == 100
    assert cfg["boundary"] == ("mono", 0)


def test_usage_error_exits_2():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
