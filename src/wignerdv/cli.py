"""Command-line front end: solve, study, verify.

Configs are flat ``key = value`` text files in UTF-8, with or without a
byte-order mark; ``#`` starts a comment.  ``_KEYS`` below lists each
recognized key with its parser, what it expects and its default; a list value
splits on commas and/or whitespace.  Unknown, repeated and missing required
keys are rejected by name.  A value that parses but that the builder it goes
to rejects is reported by ``_built``, which names the key (or flag) and gives
the builder's reason.  Exit status: 0 on success, 2 for config or usage
errors, 1 for solver, I/O or out-of-memory failures.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .analysis import (
    _SCHEMES,
    StudyReport,
    StudyRow,
    _solve,
    convergence_study,
    current,
    density,
    symmetry_error,
    write_csv,
)
from .fd import _REL_TOL_RANGE, SolverError, _valid_rel_tol
from .kinetic import (
    build_mesh,
    build_system,
    build_velocity_grid,
    mono_energetic_boundary,
    tabulated_boundary,
)
from .potential import new_potential
from .propagator import PropagatorError
from .verify import run_all_checks

__all__ = ["ConfigError", "parse_config", "main"]

_EMIT_TOKENS = ("solution", "density", "current", "report")
_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the key."""


def _split(raw: str) -> list:
    """The items of a list value, separated by commas and/or whitespace."""
    return raw.replace(",", " ").split()


def _check(ok, parse):
    """Parser that applies ``parse``, then rejects a value failing ``ok``."""
    def read(raw: str):
        value = parse(raw)
        if not ok(value):
            raise ValueError(raw)
        return value
    return read


def _list(item, kind=list):
    """Parser of a list value whose items ``item`` parses."""
    return lambda raw: kind(map(item, _split(raw)))


def _one_of(choices):
    """Parser of one token out of ``choices``."""
    return _check(lambda token: token in choices, str)


def _boundary(raw: str):
    """("mono", i0) or ("table", {i: value}); a repeated index is an error."""
    kind, _, body = raw.partition(":")
    if kind == "mono":
        return ("mono", int(body))
    if kind != "table":
        raise ValueError(raw)
    table = {}
    for item in filter(str.strip, body.split(",")):
        index, _, value = item.partition("=")
        if int(index) in table:
            raise ValueError(raw)
        table[int(index)] = float(value)
    if not table:
        raise ValueError(raw)
    return ("table", table)


# key: (parser of the value text, what it expects, default text or _REQUIRED).
# parse_config reads every key through it, and --tol, --nx and --schemes
# read their values through the entries of rel_tol, Nx and scheme.
_REQUIRED = None
_KEYS = {
    "period_l": (float, "a real number", _REQUIRED),  # spatial period
    # cosine coefficients a_0, a_1, ... of the potential
    "coeffs": (_check(bool, _list(float)), "a non-empty list of reals", _REQUIRED),
    "Nx": (int, "an integer", _REQUIRED),  # number of mesh cells, even
    # inflow: unit injection into channel i0, or a value per channel index
    "boundary": (_boundary, "'mono:<i0>' or 'table:<i>=<val>,...' with distinct indices <i>",
                 _REQUIRED),
    # velocity lattice shift as a fraction of kappa
    "s_over_kappa": (_check(lambda x: 0.0 < x < 1.0, float), "a real number strictly between 0 and 1", "0.5"),
    "M": (int, "an integer", "40"),  # velocity truncation half-width
    # use the sign-symmetric window [-M, M-1] at half shift
    "symmetric": (lambda raw: _BOOLS[raw.lower()], "a boolean", "true"),
    "scheme": (_one_of(_SCHEMES), f"one of {', '.join(_SCHEMES)}", "central"),
    # the solver's residual acceptance threshold
    "rel_tol": (lambda raw: _valid_rel_tol(float(raw)), f"a real number in {_REL_TOL_RANGE}", "1e-12"),
    "out_dir": (str, "a directory", "."),  # where solve and study write
    # the CSV files solve writes, each named once
    "emit": (_check(lambda tokens: len(set(tokens)) == len(tokens), _list(_one_of(_EMIT_TOKENS), tuple)),
             f"distinct tokens from {', '.join(_EMIT_TOKENS)}", "solution,density,current"),
}


def _read(source: str, key: str, raw: str):
    """Parse ``raw`` by the table entry of ``key``; an error names ``source``."""
    parse, what, _ = _KEYS[key]
    try:
        return parse(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"{source}: expected {what}, got {raw!r}") from None


def _read_items(flag: str, key: str, raw: str) -> list:
    """Each item of a list flag, parsed by the table entry of ``key``."""
    items = _split(raw)
    if not items:
        raise ConfigError(f"{flag}: expected a non-empty list, got {raw!r}")
    return [_read(flag, key, item) for item in items]


def parse_config(path: str) -> dict:
    """Read and validate a config file; returns a dict with defaults filled.

    Raises:
        ConfigError: unknown/missing/invalid keys (named in the message), or
            a file that is not UTF-8 text.
        OSError: unreadable file.
    """
    raw = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
                key, _, value = text.partition("=")
                key = key.strip()
                if key in raw:
                    raise ConfigError(f"config key '{key}': given more than once")
                raw[key] = value.strip()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r}: not UTF-8 text ({exc})") from None

    for key in raw:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key '{key}'")
    cfg = {}
    for key, (_, _, default) in _KEYS.items():
        if key not in raw and default is _REQUIRED:
            raise ConfigError(f"missing required config key '{key}'")
        cfg[key] = _read(f"config key '{key}'", key, raw.get(key, default))
    return cfg


def _built(source: str, build, *args):
    """``build(*args)``; its ValueError becomes a ConfigError naming ``source``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _system_from_config(cfg: dict):
    """Build the WignerSystem a config describes; errors name the key."""
    pot = _built("config keys 'period_l'/'coeffs'", new_potential, cfg["period_l"], cfg["coeffs"])
    s = cfg["s_over_kappa"] * pot.kappa
    grid = _built("config keys 's_over_kappa'/'M'", build_velocity_grid, pot.kappa, s, cfg["M"], cfg["symmetric"])
    mesh = _built("config key 'Nx'", build_mesh, cfg["period_l"], cfg["Nx"])
    kind, payload = cfg["boundary"]
    make_boundary = mono_energetic_boundary if kind == "mono" else tabulated_boundary
    boundary = _built("config key 'boundary'", make_boundary, grid, payload)
    return build_system(pot, grid, mesh, boundary)


def _load_config(args) -> dict:
    """parse_config plus the command-line overrides a subcommand offers."""
    cfg = parse_config(args.config)
    if args.tol is not None:
        cfg["rel_tol"] = _read("--tol", "rel_tol", args.tol)
    if getattr(args, "out", None) is not None:
        cfg["out_dir"] = args.out
    # only the subcommands that write files take --out
    if hasattr(args, "out") and not cfg["out_dir"]:
        where = "config key 'out_dir'" if args.out is None else "--out"
        raise ConfigError(f"{where}: expected a directory, got an empty value")
    if getattr(args, "scheme", None) is not None:
        cfg["scheme"] = args.scheme
    return cfg


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    system = _system_from_config(cfg)
    t0 = time.perf_counter()
    sol = _solve(system, cfg["scheme"], cfg["rel_tol"])
    runtime = time.perf_counter() - t0
    e_sym = symmetry_error(sol)
    print(
        f"scheme={sol.scheme} Nx={system.mesh.Nx} symmetry_error={e_sym:.6e} "
        f"residual={sol.residual:.6e} runtime_s={runtime:.3f}"
    )
    nodes = system.mesh.nodes
    row = StudyRow(
        scheme=sol.scheme, Nx=system.mesh.Nx, symmetry_error=e_sym, runtime_s=runtime, residual=sol.residual
    )
    # emit token -> what write_csv receives, built only for the tokens emitted
    outputs = {
        "solution": lambda: sol,
        "density": lambda: (nodes, density(sol)),
        "current": lambda: (nodes, current(sol)),
        "report": lambda: StudyReport(rows=(row,)),
    }
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    emitted = [os.path.join(out_dir, f"{token}.csv") for token in cfg["emit"]]
    for token, path in zip(cfg["emit"], emitted):
        write_csv(outputs[token](), path)
    for path in emitted:
        print(f"wrote {path}")
    return 0


def cmd_study(args) -> int:
    cfg = _load_config(args)
    nx_list = _read_items("--nx", "Nx", args.nx)
    schemes = _read_items("--schemes", "scheme", args.schemes)
    system = _system_from_config(cfg)
    for nx in nx_list:
        _built("--nx", build_mesh, cfg["period_l"], nx)
    rows = []
    for scheme in schemes:
        report = convergence_study(system, scheme, nx_list, rel_tol=cfg["rel_tol"])
        rows.extend(report.rows)
        for row in report.rows:
            print(
                f"scheme={row.scheme} Nx={row.Nx} symmetry_error={row.symmetry_error:.6e} "
                f"runtime_s={row.runtime_s:.3f} residual={row.residual:.6e}"
            )
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.csv")
    write_csv(StudyReport(rows=tuple(rows)), path)
    print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    system = _system_from_config(cfg)
    results = run_all_checks(system, rel_tol=cfg["rel_tol"])
    all_ok = True
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
        all_ok = all_ok and res.passed
    return 0 if all_ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerdv",
        description="Discrete-velocity solvers for a stationary transport boundary value problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand reads a config and may override its rel_tol
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("config", help="path to a key = value config file")
    reads.add_argument("--tol", help="residual tolerance (overrides config rel_tol)")
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", help="output directory (overrides config out_dir)")

    p_solve = sub.add_parser(
        "solve", parents=[reads, writes], help="solve one configuration and write CSV outputs"
    )
    p_solve.add_argument("--scheme", choices=_SCHEMES, help="override the config scheme")
    p_solve.set_defaults(func=cmd_solve)

    p_study = sub.add_parser("study", parents=[reads, writes], help="mesh-refinement study across schemes")
    p_study.add_argument("--nx", required=True, help="comma-separated mesh sizes")
    p_study.add_argument("--schemes", required=True, help="comma-separated scheme names")
    p_study.set_defaults(func=cmd_study)

    p_verify = sub.add_parser("verify", parents=[reads], help="run the structural property checks")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; surface that unchanged
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, PropagatorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
