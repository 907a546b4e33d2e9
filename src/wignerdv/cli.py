"""Command-line front end: solve, study, verify.

Configs are flat ``key = value`` text files; ``#`` starts a comment.
Recognized keys (defaults in brackets):

  period_l      positive real, spatial period                  (required)
  coeffs        cosine coefficients a_0, a_1, ... as a list    (required)
  s_over_kappa  velocity lattice shift as a fraction of kappa  [0.5]
  M             velocity truncation half-width                 [40]
  symmetric     use the sign-symmetric window at half shift    [true]
  Nx            number of mesh cells, even                     (required)
  boundary      "mono:<i0>" or "table:<i>=<val>,<i>=<val>,..." (required)
  scheme        upwind1 | upwind2 | central | oracle           [central]
  rel_tol       linear-solver residual tolerance in (0, 1e-6]  [1e-12]
  out_dir       output directory                               [.]
  emit          subset of solution,density,current,report      [solution,density,current]

Unknown keys are rejected by name.  Exit status: 0 on success, 2 for
config or usage errors, 1 for solver or I/O failures.
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
from .fd import SolverError
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

_REQUIRED_KEYS = ("period_l", "coeffs", "Nx", "boundary")
_DEFAULTS = {
    "s_over_kappa": 0.5,
    "M": 40,
    "symmetric": True,
    "scheme": "central",
    "rel_tol": 1e-12,
    "out_dir": ".",
    "emit": ("solution", "density", "current"),
}


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the key."""


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"config key '{key}': expected a boolean, got {raw!r}")


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key '{key}': expected a real number, got {raw!r}")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"config key '{key}': expected an integer, got {raw!r}")


def _parse_list(key: str, raw: str) -> list:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    if not parts:
        raise ConfigError(f"config key '{key}': expected a non-empty list")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"config key '{key}': expected a list of reals, got {raw!r}")


def _parse_boundary(raw: str):
    text = raw.strip()
    if text.startswith("mono:"):
        try:
            return ("mono", int(text[len("mono:"):]))
        except ValueError:
            raise ConfigError(f"config key 'boundary': bad channel index in {raw!r}")
    if text.startswith("table:"):
        body = text[len("table:"):]
        table = {}
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ConfigError(f"config key 'boundary': bad table entry {item!r}")
            k, _, val = item.partition("=")
            try:
                table[int(k)] = float(val)
            except ValueError:
                raise ConfigError(f"config key 'boundary': bad table entry {item!r}")
        if not table:
            raise ConfigError("config key 'boundary': table has no entries")
        return ("table", table)
    raise ConfigError(
        f"config key 'boundary': expected 'mono:<i0>' or 'table:<i>=<val>,...', got {raw!r}"
    )


def _checked_rel_tol(source: str, value: float) -> float:
    if not (0.0 < value <= 1e-6):
        raise ConfigError(f"{source}: rel_tol must lie in (0, 1e-6], got {value!r}")
    return value


def parse_config(path: str) -> dict:
    """Read and validate a config file; returns a dict with defaults filled.

    Raises:
        ConfigError: unknown/missing/invalid keys (named in the message).
        OSError: unreadable file.
    """
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            if key in raw:
                raise ConfigError(f"config key '{key}': given more than once")
            raw[key] = value

    known = set(_REQUIRED_KEYS) | set(_DEFAULTS)
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key '{key}'")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required config key '{key}'")

    cfg = {}
    cfg["period_l"] = _parse_float("period_l", raw["period_l"])
    cfg["coeffs"] = _parse_list("coeffs", raw["coeffs"])
    cfg["Nx"] = _parse_int("Nx", raw["Nx"])
    cfg["boundary"] = _parse_boundary(raw["boundary"])
    cfg["s_over_kappa"] = (
        _parse_float("s_over_kappa", raw["s_over_kappa"])
        if "s_over_kappa" in raw
        else _DEFAULTS["s_over_kappa"]
    )
    if not (0.0 < cfg["s_over_kappa"] < 1.0):
        raise ConfigError(
            f"config key 's_over_kappa': must lie strictly between 0 and 1, got {cfg['s_over_kappa']!r}"
        )
    cfg["M"] = _parse_int("M", raw["M"]) if "M" in raw else _DEFAULTS["M"]
    cfg["symmetric"] = (
        _parse_bool("symmetric", raw["symmetric"]) if "symmetric" in raw else _DEFAULTS["symmetric"]
    )
    cfg["scheme"] = raw.get("scheme", _DEFAULTS["scheme"]).strip()
    if cfg["scheme"] not in _SCHEMES:
        raise ConfigError(
            f"config key 'scheme': expected one of {', '.join(_SCHEMES)}, got {cfg['scheme']!r}"
        )
    if "rel_tol" in raw:
        cfg["rel_tol"] = _checked_rel_tol("config key 'rel_tol'", _parse_float("rel_tol", raw["rel_tol"]))
    else:
        cfg["rel_tol"] = _DEFAULTS["rel_tol"]
    cfg["out_dir"] = raw.get("out_dir", _DEFAULTS["out_dir"]).strip()
    if "emit" in raw:
        tokens = tuple(t.strip() for t in raw["emit"].split(",") if t.strip())
        for t in tokens:
            if t not in _EMIT_TOKENS:
                raise ConfigError(
                    f"config key 'emit': expected tokens from {', '.join(_EMIT_TOKENS)}, got {t!r}"
                )
        cfg["emit"] = tokens
    else:
        cfg["emit"] = _DEFAULTS["emit"]
    return cfg


def _system_from_config(cfg: dict):
    """Build the WignerSystem a config describes; errors name the key."""
    try:
        pot = new_potential(cfg["period_l"], cfg["coeffs"])
    except ValueError as exc:
        raise ConfigError(f"config keys 'period_l'/'coeffs': {exc}")
    s = cfg["s_over_kappa"] * pot.kappa
    try:
        grid = build_velocity_grid(pot.kappa, s, cfg["M"], cfg["symmetric"])
    except ValueError as exc:
        raise ConfigError(f"config keys 's_over_kappa'/'M': {exc}")
    try:
        mesh = build_mesh(cfg["period_l"], cfg["Nx"])
    except ValueError as exc:
        raise ConfigError(f"config key 'Nx': {exc}")
    kind, payload = cfg["boundary"]
    try:
        if kind == "mono":
            boundary = mono_energetic_boundary(grid, payload)
        else:
            boundary = tabulated_boundary(grid, payload)
    except ValueError as exc:
        raise ConfigError(f"config key 'boundary': {exc}")
    return build_system(pot, grid, mesh, boundary)


def _load_config(args) -> dict:
    """parse_config plus the command-line overrides a subcommand offers."""
    cfg = parse_config(args.config)
    if args.tol is not None:
        cfg["rel_tol"] = _checked_rel_tol("--tol", args.tol)
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
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    emitted = []
    for token in cfg["emit"]:
        path = os.path.join(out_dir, f"{token}.csv")
        if token == "solution":
            write_csv(sol, path)
        elif token == "density":
            write_csv((system.mesh.nodes, density(sol)), path)
        elif token == "current":
            write_csv((system.mesh.nodes, current(sol)), path)
        elif token == "report":
            row = StudyRow(
                scheme=sol.scheme,
                Nx=system.mesh.Nx,
                symmetry_error=e_sym,
                runtime_s=runtime,
                residual=sol.residual,
            )
            write_csv(StudyReport(rows=(row,)), path)
        emitted.append(path)
    for path in emitted:
        print(f"wrote {path}")
    return 0


def _parse_int_list(raw: str, flag: str) -> list:
    try:
        values = [int(p) for chunk in raw.split(",") for p in chunk.split() if p]
    except ValueError:
        raise ConfigError(f"{flag}: expected a comma-separated list of integers, got {raw!r}")
    if not values:
        raise ConfigError(f"{flag}: list must not be empty")
    return values


def cmd_study(args) -> int:
    cfg = _load_config(args)
    nx_list = _parse_int_list(args.nx, "--nx")
    schemes = [s.strip() for chunk in args.schemes.split(",") for s in chunk.split() if s.strip()]
    if not schemes:
        raise ConfigError("--schemes: list must not be empty")
    for s in schemes:
        if s not in _SCHEMES:
            raise ConfigError(
                f"--schemes: expected tokens from {', '.join(_SCHEMES)}, got {s!r}"
            )
    system = _system_from_config(cfg)
    for nx in nx_list:
        try:
            build_mesh(cfg["period_l"], nx)
        except ValueError as exc:
            raise ConfigError(f"--nx: {exc}")
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

    p_solve = sub.add_parser("solve", help="solve one configuration and write CSV outputs")
    p_solve.add_argument("config", help="path to a key = value config file")
    p_solve.add_argument("--out", help="output directory (overrides config out_dir)")
    p_solve.add_argument("--tol", type=float, help="residual tolerance (overrides config rel_tol)")
    p_solve.add_argument("--scheme", choices=_SCHEMES, help="override the config scheme")
    p_solve.set_defaults(func=cmd_solve)

    p_study = sub.add_parser("study", help="mesh-refinement study across schemes")
    p_study.add_argument("config", help="path to a key = value config file")
    p_study.add_argument("--nx", required=True, help="comma-separated mesh sizes")
    p_study.add_argument("--schemes", required=True, help="comma-separated scheme names")
    p_study.add_argument("--out", help="output directory (overrides config out_dir)")
    p_study.add_argument("--tol", type=float, help="residual tolerance (overrides config rel_tol)")
    p_study.set_defaults(func=cmd_study)

    p_verify = sub.add_parser("verify", help="run the structural property checks")
    p_verify.add_argument("config", help="path to a key = value config file")
    p_verify.add_argument("--tol", type=float, help="residual tolerance (overrides config rel_tol)")
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
    except (SolverError, PropagatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
