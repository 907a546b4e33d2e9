"""Config parsing, CLI commands, exit statuses, CSV outputs."""

import math
import os
import re

import numpy as np
import pytest

from wignerdv import cli
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


def _assert_no_warning(recwarn):
    # recwarn records every category: pytest's filter turns only RuntimeWarning into an error
    assert not recwarn.list, [f"{w.category.__name__}: {w.message}" for w in recwarn.list]


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


def test_parse_config_rejects_an_empty_table(tmp_path):
    path = _write(tmp_path, "period_l = 1\ncoeffs = 1\nNx = 10\nboundary = table: ,\n")
    with pytest.raises(ConfigError, match=re.escape("config key 'boundary': expected 'mono:<i0>' or 'table:")):
        parse_config(path)


def test_parse_config_rejects_a_line_without_a_value_and_a_repeated_key(tmp_path):
    with pytest.raises(ConfigError, match=re.escape("line 3: expected 'key = value', got 'Nx 10'")):
        parse_config(_write(tmp_path, "period_l = 1\ncoeffs = 1\nNx 10\nboundary = mono:0\n"))
    with pytest.raises(ConfigError, match=re.escape("config key 'Nx': given more than once")):
        parse_config(_write(tmp_path, "period_l = 1\ncoeffs = 1\nNx = 10\nNx = 12\nboundary = mono:0\n"))


_BUILD_ERRORS = [
    ("period_l = 0", "config keys 'period_l'/'coeffs': period_l must be a positive finite real, got 0.0"),
    ("period_l = 1e-310",
     "config keys 'period_l'/'coeffs': period_l = 1e-310 is too short: kappa = pi / period_l overflows"),
    ("M = 0", "config keys 's_over_kappa'/'M': M must be an integer >= 1, got 0"),
    ("period_l = 1e-307", "config keys 's_over_kappa'/'M': M = 40 puts v_39 = 39 kappa + s past the float range "
                          "for kappa = 3.1415926535897933e+307"),
    ("Nx = 7", "config key 'Nx': Nx must be an even integer >= 2, got 7"),
    ("boundary = mono:99", "config key 'boundary': velocity index 99 outside [-40, 39]"),
    ("boundary = mono:-1",
     "config key 'boundary': boundary channel i0=-1 has non-positive velocity -1.5707963267948966"),
    ("boundary = table:0=-1",
     "config key 'boundary': boundary value for index 0 must be finite and nonnegative, got -1.0"),
]


@pytest.mark.parametrize("command, line, message", [
    *((command, line, message) for line, message in _BUILD_ERRORS for command in ("solve", "study", "verify")),
    ("study", "--nx 100,3", "--nx: Nx must be an even integer >= 2, got 3"),
])
def test_every_command_names_the_source_of_a_build_error(command, line, message, tmp_path, capsys, recwarn):
    # each value parses, and the builder it goes to rejects it: the one
    # error line names the config key or flag and gives the builder's reason,
    # as the ConfigError that _system_from_config raises does
    if line.startswith("--nx"):
        path, nx = _write(tmp_path, BASE_CONFIG), line.split()[-1]
    else:
        key = line.split(" = ")[0]
        text = "\n".join(line if old.startswith(key + " =") else old for old in BASE_CONFIG.splitlines())
        path, nx = _write(tmp_path, text), "10"
        with pytest.raises(ConfigError, match=re.escape(message)):
            cli._system_from_config(parse_config(path))
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "solve": ["solve", path, *out],
        "study": ["study", path, "--nx", nx, "--schemes", "central", *out],
        "verify": ["verify", path],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()
    _assert_no_warning(recwarn)


@pytest.mark.parametrize("sub", ["", "sub"])
@pytest.mark.parametrize("command", ["solve", "study"])
def test_an_unusable_output_directory_fails_before_any_solve(command, sub, config_file, tmp_path, monkeypatch, capsys,
                                                           recwarn):
    # --out naming a file, or a path below one: the directory is made once
    # the config, the system and --nx are valid, so it fails before a solve
    def refuse(*args, **kwargs):
        raise AssertionError("solved before the output directory was made")

    monkeypatch.setattr(cli, "_solve", refuse)
    monkeypatch.setattr(cli, "convergence_study", refuse)
    afile = tmp_path / "afile"
    afile.write_text("")
    out = ["--out", str(afile / sub) if sub else str(afile)]
    argv = {"solve": ["solve", config_file, *out],
            "study": ["study", config_file, "--nx", "10,20", "--schemes", "central,upwind2", *out]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno") and captured.err.count("\n") == 1
    _assert_no_warning(recwarn)


def test_a_builder_error_other_than_a_value_error_passes_through(config_file, tmp_path, monkeypatch, capsys):
    def too_large(*args):
        raise MemoryError("Unable to allocate 146. TiB for an array")

    monkeypatch.setattr(cli, "build_mesh", too_large)
    assert main(["solve", config_file, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: Unable to allocate 146. TiB for an array\n"


def test_a_config_with_a_byte_order_mark_is_read_as_without(tmp_path, capsys, recwarn):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    plain = os.path.join(here, "configs", "paper.cfg")
    marked = tmp_path / "bom.cfg"
    with open(plain, "rb") as fh:
        marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
    assert parse_config(str(marked)) == parse_config(plain)
    assert main(["solve", str(marked), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "solution.csv").exists()
    _assert_no_warning(recwarn)


def test_solve_on_a_two_sided_table_boundary(tmp_path, capsys):
    # the inflow data reach the field exactly: 1.0 into channel 0 at x = -l/2
    # and 0.5 into channel -1 at x = +l/2, nothing into any other channel
    text = BASE_CONFIG.replace("boundary = mono:0", "boundary = table:0=1.0,-1=0.5")
    out = tmp_path / "out"
    assert main(["solve", _write(tmp_path, text), "--out", str(out)]) == 0
    assert "scheme=central" in capsys.readouterr().out
    x, v, f = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, unpack=True)
    half = 0.5 * math.pi
    assert f[(x == -0.5) & (v > 0)].tolist() == [1.0 if u == half else 0.0 for u in v[(x == -0.5) & (v > 0)]]
    assert f[(x == 0.5) & (v < 0)].tolist() == [0.5 if u == -half else 0.0 for u in v[(x == 0.5) & (v < 0)]]


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
    # an empty output directory is named before anything is solved
    path = _write(tmp_path, BASE_CONFIG + "\nout_dir =\n")
    assert main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert "out_dir" in captured.err and "scheme=" not in captured.out
    # --out replaces the empty value before it is checked
    assert main(["solve", path, "--out", str(tmp_path / "results")]) == 0
    assert (tmp_path / "results" / "solution.csv").exists()
    capsys.readouterr()
    assert main(["solve", _write(tmp_path, BASE_CONFIG, "good.cfg"), "--out", ""]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err and "scheme=" not in captured.out


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
    capsys.readouterr()
    # an empty output directory is named before any mesh is solved (an odd
    # mesh size: test_every_command_names_the_source_of_a_build_error)
    assert main(["study", config_file, "--nx", "10", "--schemes", "central", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err and "scheme=" not in captured.out


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


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(BASE_CONFIG.encode() + b"# caf\xe9\n")
    with pytest.raises(ConfigError, match="latin1.cfg.*UTF-8"):
        parse_config(str(path))
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "latin1.cfg" in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_parse_config_rejects_repeated_table_index(tmp_path):
    path = _write(tmp_path, "period_l = 1\ncoeffs = 1\nNx = 10\nboundary = table:0=1,0=2\n")
    with pytest.raises(ConfigError, match="boundary"):
        parse_config(path)


def test_repeated_emit_token_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG + "\nemit = density, current density\n")
    with pytest.raises(ConfigError, match="emit"):
        parse_config(path)
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config key 'emit': expected distinct tokens")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("coeffs, step", [("0, 1e300", "7.854e-301"), ("0, 1e308, 1e308", "0.000e+00")])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_a_picard_step_too_short_to_cut_is_one_error_line(coeffs, step, command, tmp_path, capsys, recwarn):
    # the configs are valid, but their coupling bound, 2e300 or past the
    # largest double, leaves a Picard step that cannot cut the period: the
    # oracle and verify's Picard checks end in one error line naming the
    # contraction step, with no traceback and no overflow warning
    path = _write(tmp_path, BASE_CONFIG.replace("coeffs = 20.0, 20.0", f"coeffs = {coeffs}"), "huge.cfg")
    argv = ["solve", path, "--scheme", "oracle", "--out", str(tmp_path / "out")] if command == "solve" else ["verify", path]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: the contraction step {step} is too short")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    _assert_no_warning(recwarn)


# Configs that a random probe of the config grammar found ending in a
# traceback or a warning, each with the start of the error line that solve
# and verify end in now: a period so close to the largest double that Nx dx
# overflows although the nodes span it (and dx/|v| then leaves the float
# range), a Picard step that would cut a cell into more pieces than numpy
# can describe in one array, and a subnormal velocity, whose 1/|v| overflows
_FOUND_CONFIGS = {
    "long-period": (
        "period_l = 1.7976931348623157e308\ncoeffs = 0, 1\nNx = 24\nM = 3\nboundary = mono:0\n",
        {"solve": "error: the central matrix leaves the float range: max dx/|v| = ",
         "verify": "error: the contraction step 4.369e-309 is too short"},
    ),
    "short-step": (
        "scheme = oracle\nperiod_l = 1.2877011269600555e-50\n"
        "coeffs = 2.607311971956009e-08, -3.0963406947522006e+118, 1e-319\nNx = 36\nM = 3\n"
        "s_over_kappa = 0.9162564406171048\nsymmetric = false\nboundary = mono:0\n",
        {"solve": "error: the contraction step 3.299e-70 is too short",
         "verify": "error: the contraction step 3.299e-70 is too short"},
    ),
    "subnormal-velocity": (
        "scheme = oracle\nperiod_l = 1e308\ncoeffs = 0\ns_over_kappa = 0.01\nNx = 24\nM = 3\nboundary = mono:0\n",
        {"solve": "error: the Picard march leaves the float range: max 1/|v| = 3.183e+309",
         "verify": "error: the Picard march leaves the float range: max 1/|v| = 3.183e+309"},
    ),
}


@pytest.mark.parametrize("command", ["solve", "study", "verify"])
@pytest.mark.parametrize("name", list(_FOUND_CONFIGS))
def test_configs_found_by_a_probe_end_in_one_error_line_or_nan_rows(name, command, tmp_path, capsys, recwarn):
    # solve and verify exit 1 with one error line; study records each failed
    # solve as a row of nan and exits 0.  None ends in a traceback or warns
    text, errors = _FOUND_CONFIGS[name]
    path = _write(tmp_path, text, f"{name}.cfg")
    out = tmp_path / "out"
    argv = {
        "solve": ["solve", path, "--out", str(out)],
        "study": ["study", path, "--nx", str(parse_config(path)["Nx"]), "--schemes", "upwind1,upwind2,central,oracle",
                  "--out", str(out)],
        "verify": ["verify", path],
    }[command]
    status = main(argv)
    err = capsys.readouterr().err
    if command == "study":
        assert status == 0 and err == ""
        assert (out / "report.csv").exists()
    else:
        assert status == 1
        assert err.startswith(errors[command]) and err.count("\n") == 1
    assert "Traceback" not in err
    _assert_no_warning(recwarn)


def test_out_of_memory_is_one_error_line(config_file, tmp_path, monkeypatch, capsys):
    def too_large(cfg):
        raise MemoryError("Unable to allocate 146. TiB for an array")

    monkeypatch.setattr(cli, "_system_from_config", too_large)
    assert main(["solve", config_file, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: Unable to allocate 146. TiB for an array\n"


def test_lists_split_on_commas_and_whitespace(tmp_path):
    path = _write(tmp_path, BASE_CONFIG + "\nemit = density current,report\n")
    assert parse_config(path)["emit"] == ("density", "current", "report")


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--tol", "abc"], "--tol"),
        (["--nx", "10,x"], "--nx"),
        (["--schemes", "central,magic"], "--schemes"),
    ],
)
def test_study_flag_errors_name_the_flag(flags, flag, config_file, tmp_path, capsys):
    out = tmp_path / "out"
    args = {"--nx": "10", "--schemes": "central", "--out": str(out)}
    args.update(zip(flags[::2], flags[1::2]))
    argv = ["study", config_file] + [t for pair in args.items() for t in pair]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {flag}: expected" in captured.err
    assert "scheme=" not in captured.out
    assert not out.exists()
