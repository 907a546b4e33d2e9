"""Workloads of the benchmark: their operations, inputs and correctness gates.

A workload is a list of cases; a case is one (scheme, Nx) setting and holds
the operations that run it.  Every operation calls the package the way a
user does (the ``wignerdv`` CLI entry point, or ``run_all_checks`` where the
CLI cannot take a seed) and is followed by a gate that checks its outputs
against values fixed here.  Inputs depend only on the benchmark seed and the
pass number.

This module imports ``wignerdv`` only inside functions, so a process can
time the package import itself.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

BASE_CONFIG = os.path.join("configs", "paper.cfg")

# Mirror-asymmetry e_sym of the one-sided schemes on configs/paper.cfg,
# measured at the commit that introduced this benchmark.  The values carry
# five significant digits, so rounding alone accounts for up to 5e-5 of
# relative error; E_SYM_RTOL leaves room for that and for roundoff from a
# different direct solver, and is far below any change of the scheme.
E_SYM_REF = {
    ("upwind1", 100): 0.93928,
    ("upwind1", 400): 0.78662,
    ("upwind1", 1600): 0.44403,
    ("upwind1", 6400): 0.16069,
    ("upwind1", 12800): 0.086791,
    ("upwind2", 100): 4.5985e-2,
    ("upwind2", 400): 7.4075e-4,
    ("upwind2", 1600): 1.1607e-5,
    ("upwind2", 6400): 1.8158e-7,
}
E_SYM_RTOL = 1e-4
# central and the oracle keep the mirror symmetry up to roundoff
E_SYM_FLOOR = 1e-10
# spectrum_sweep: outgoing data at -l/2 (zero reflection) and the current
# there, which then equals the injected channel's velocity
REFLECTION_TOL = 1e-10
CURRENT_RTOL = 1e-9

STUDY_SCHEMES = ("upwind1", "upwind2", "central")
STUDY_NX = (100, 400, 1600, 6400)
LARGE_SCHEMES = ("upwind1", "central")
LARGE_NX = 12800
SPECTRUM_NX = 400
SPECTRUM_CHANNELS = 40
ORACLE_NX = (100, 400, 1600)

WORKLOADS = ("study_direct", "large_block", "spectrum_sweep", "verify_oracle")


@dataclass
class Outcome:
    """What a gate decided about one operation."""

    ok: bool
    why: str = ""


@dataclass
class Op:
    """One operation: a call into the package and the gate on its outputs."""

    name: str
    run: Callable[[], object]
    gate: Callable[[object], Outcome]


@dataclass
class Case:
    """Operations sharing one (scheme, Nx) setting; traced in its own process."""

    scheme: str
    nx: int
    ops: list = field(default_factory=list)


def read_config(path: str) -> dict:
    """Raw ``key = value`` pairs of a config file, comments dropped."""
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.split("#", 1)[0].strip()
            if text:
                key, _, value = text.partition("=")
                raw[key.strip()] = value.strip()
    return raw


def write_config(path: str, raw: dict, **overrides) -> str:
    merged = dict(raw, **{k: str(v) for k, v in overrides.items()})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in merged.items()))
    return path


def _cli(argv):
    """Run ``wignerdv <argv>`` in this process; returns (status, stdout)."""
    from wignerdv.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


def check_e_sym(scheme: str, nx: int, e_sym: float) -> Outcome:
    if not math.isfinite(e_sym):
        return Outcome(False, f"{scheme} Nx={nx}: e_sym is {e_sym}")
    if scheme in ("central", "oracle"):
        if e_sym <= E_SYM_FLOOR:
            return Outcome(True)
        return Outcome(False, f"{scheme} Nx={nx}: e_sym {e_sym:.3e} above {E_SYM_FLOOR:.0e}")
    ref = E_SYM_REF[(scheme, nx)]
    if abs(e_sym - ref) <= E_SYM_RTOL * abs(ref):
        return Outcome(True)
    return Outcome(False, f"{scheme} Nx={nx}: e_sym {e_sym:.6e} differs from reference {ref:.6e}")


def check_report(path: str, scheme: str, nx: int, rel_tol: float) -> Outcome:
    """Gate on a one-row report.csv written by ``study`` or ``solve``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != 2:
        return Outcome(False, f"{path}: expected one report row, found {len(lines) - 1}")
    tag, nx_text, e_sym, _runtime, residual = (t.strip() for t in lines[1].split(","))
    if tag != scheme or int(nx_text) != nx:
        return Outcome(False, f"{path}: row is for {tag} Nx={nx_text}")
    if not float(residual) <= rel_tol:
        return Outcome(False, f"{scheme} Nx={nx}: residual {residual} above {rel_tol:.0e}")
    return check_e_sym(scheme, nx, float(e_sym))


def _study_op(work: str, scheme: str, nx: int, rel_tol: float) -> Op:
    out = os.path.join(work, f"study-{scheme}-{nx}")

    def run():
        status, _ = _cli(["study", BASE_CONFIG, "--schemes", scheme, "--nx", str(nx), "--out", out])
        return status

    def gate(status):
        if status != 0:
            return Outcome(False, f"study {scheme} Nx={nx} exited {status}")
        return check_report(os.path.join(out, "report.csv"), scheme, nx, rel_tol)

    return Op(f"study {scheme} Nx={nx}", run, gate)


def _large_op(work: str, raw: dict, scheme: str, rel_tol: float) -> Op:
    cfg = write_config(os.path.join(work, "large.cfg"), raw, Nx=LARGE_NX, emit="report")
    out = os.path.join(work, f"large-{scheme}")

    def run():
        status, _ = _cli(["solve", cfg, "--scheme", scheme, "--out", out])
        return status

    def gate(status):
        if status != 0:
            return Outcome(False, f"solve {scheme} Nx={LARGE_NX} exited {status}")
        return check_report(os.path.join(out, "report.csv"), scheme, LARGE_NX, rel_tol)

    return Op(f"solve {scheme} Nx={LARGE_NX}", run, gate)


_SUMMARY = re.compile(r"symmetry_error=(\S+) residual=(\S+)")


def _spectrum_op(work: str, raw: dict, i0: int, rel_tol: float) -> Op:
    cfg = write_config(os.path.join(work, f"mono{i0}.cfg"), raw, Nx=SPECTRUM_NX, boundary=f"mono:{i0}")
    out = os.path.join(work, "spectrum")
    kappa = math.pi / float(raw["period_l"])
    v_i0 = (i0 + float(raw.get("s_over_kappa", 0.5))) * kappa

    def run():
        return _cli(["solve", cfg, "--out", out])

    def gate(result):
        status, stdout = result
        if status != 0:
            return Outcome(False, f"solve mono:{i0} exited {status}")
        match = _SUMMARY.search(stdout)
        if match is None:
            return Outcome(False, f"solve mono:{i0}: no summary line in {stdout!r}")
        e_sym, residual = float(match.group(1)), float(match.group(2))
        if not residual <= rel_tol:
            return Outcome(False, f"mono:{i0}: residual {residual:.3e} above {rel_tol:.0e}")
        verdict = check_e_sym("central", SPECTRUM_NX, e_sym)
        if not verdict.ok:
            return verdict
        reflected = 0.0
        with open(os.path.join(out, "solution.csv"), encoding="utf-8") as fh:
            next(fh)
            x_left = None
            for line in fh:
                x, v, f = (float(t) for t in line.split(","))
                if x_left is None:
                    x_left = x
                if x != x_left:
                    break
                if v < 0:
                    reflected = max(reflected, abs(f))
        if not reflected <= REFLECTION_TOL:
            return Outcome(False, f"mono:{i0}: reflected inflow {reflected:.3e} at -l/2")
        with open(os.path.join(out, "current.csv"), encoding="utf-8") as fh:
            next(fh)
            j_left = float(next(fh).split(",")[1])
        if not abs(j_left - v_i0) <= CURRENT_RTOL * v_i0:
            return Outcome(False, f"mono:{i0}: J(-l/2) = {j_left!r}, expected v = {v_i0!r}")
        return Outcome(True)

    return Op(f"solve central mono:{i0}", run, gate)


def _verify_op(checks_seed: int) -> Op:
    def run():
        from wignerdv.cli import _system_from_config, parse_config
        from wignerdv.verify import run_all_checks

        cfg = parse_config(BASE_CONFIG)
        return run_all_checks(_system_from_config(cfg), rel_tol=cfg["rel_tol"], seed=checks_seed)

    def gate(results):
        failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
        if len(results) != 5 or failed:
            return Outcome(False, f"verify seed {checks_seed}: {len(results)} checks, failed {failed}")
        return Outcome(True)

    return Op(f"verify seed={checks_seed}", run, gate)


def build_cases(workload: str, seed: int, pass_index: int, work: str) -> list:
    """The cases of one pass of a workload, with inputs drawn from the seed.

    ``work`` is a directory for the generated configs and program outputs.
    """
    os.makedirs(work, exist_ok=True)
    raw = read_config(BASE_CONFIG)
    rel_tol = float(raw["rel_tol"])
    # the inputs of one pass depend on nothing but the seed and the pass
    rng = random.Random(f"{seed}:{pass_index}")
    if workload == "study_direct":
        return [
            Case(s, nx, [_study_op(work, s, nx, rel_tol)]) for s in STUDY_SCHEMES for nx in STUDY_NX
        ]
    if workload == "large_block":
        return [Case(s, LARGE_NX, [_large_op(work, raw, s, rel_tol)]) for s in LARGE_SCHEMES]
    if workload == "spectrum_sweep":
        order = list(range(SPECTRUM_CHANNELS))
        rng.shuffle(order)
        return [Case("central", SPECTRUM_NX, [_spectrum_op(work, raw, i0, rel_tol) for i0 in order])]
    if workload == "verify_oracle":
        checks = Case("verify", int(raw["Nx"]), [_verify_op(rng.randrange(2**32))])
        oracle = [Case("oracle", nx, [_study_op(work, "oracle", nx, rel_tol)]) for nx in ORACLE_NX]
        return [checks] + oracle
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
