"""Child process of the benchmark: one set-up probe, one workload, or one traced case.

Usage: python3 perfbench/worker.py <setup|passes|case> <params-json> <result-path>

Run from the root of the repository, with ``src`` on PYTHONPATH and BLAS
limited to one thread.  The result is written as JSON to <result-path> when
the process ends; standard output belongs to the program under test.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import tracing
import workloads

clock = time.perf_counter


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_package_origin() -> None:
    import wignerdv

    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(wignerdv.__file__).startswith(src):
        raise SystemExit(f"wignerdv was imported from {wignerdv.__file__}, not from {src}")


def setup(_params) -> dict:
    """Time a fresh user's import, config parse and system build."""
    t0 = clock()
    import wignerdv.cli

    t1 = clock()
    cfg = wignerdv.cli.parse_config(workloads.BASE_CONFIG)
    t2 = clock()
    wignerdv.cli._system_from_config(cfg)
    t3 = clock()
    _check_package_origin()
    return {
        "import_s": t1 - t0,
        "cli.parse_config_s": t2 - t1,
        "kinetic.build_system_s": t3 - t2,
        "setup_s": t3 - t0,
    }


def run_op(op) -> dict:
    """Call one operation and gate it; any exception counts as a failure."""
    t0 = clock()
    try:
        value = op.run()
    except Exception:
        latency = clock() - t0
        return {"name": op.name, "latency_s": latency, "ok": False, "why": traceback.format_exc(limit=3)}
    latency = clock() - t0
    try:
        outcome = op.gate(value)
    except Exception:
        outcome = workloads.Outcome(False, traceback.format_exc(limit=3))
    return {"name": op.name, "latency_s": latency, "ok": outcome.ok, "why": outcome.why}


def _setup_probe(path: str) -> dict:
    """Run ``setup`` in a fresh process (same environment) and return its timings."""
    cmd = [sys.executable, os.path.abspath(__file__), "setup", "{}", path]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=60, check=True)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def passes(params) -> dict:
    """Untraced passes over the workload until the next would overrun ``seconds``.

    ``probes`` set-up probes are spread over the same window, one due every
    ``seconds / probes`` seconds and run between operations, so that set-up
    time samples the host's speed over the whole run, as the passes do.  The
    time they take counts towards ``seconds`` but not towards any pass.
    Probes not yet run when the passes end run after them.
    """
    _check_package_origin()
    start = clock()
    spacing = params["seconds"] / params["probes"]
    probes, done = [], []

    def run_probes(all_left=False) -> float:
        t0 = clock()
        while len(probes) < params["probes"] and (all_left or clock() - start >= len(probes) * spacing):
            probes.append(_setup_probe(os.path.join(params["work"], f"setup{len(probes)}.json")))
        return clock() - t0

    while True:
        cases = workloads.build_cases(params["workload"], params["seed"], len(done), params["work"])
        ops, paused = [], 0.0
        t0 = clock()
        for op in (op for case in cases for op in case.ops):
            paused += run_probes()
            ops.append(run_op(op))
        wall = clock() - t0 - paused
        done.append({"wall_s": wall, "ops": ops})
        elapsed = clock() - start
        if len(done) >= params["max_passes"] or elapsed + wall > params["seconds"]:
            break
    run_probes(all_left=True)
    setup = {key: statistics.median(p[key] for p in probes) for key in probes[0]}
    return {"passes": done, "peak_rss_mb": _peak_rss_mb(), "setup": setup}


def case(params) -> dict:
    """One traced case: spans around every call into the package."""
    _check_package_origin()
    cases = workloads.build_cases(params["workload"], params["seed"], params["pass"], params["work"])
    tracer = tracing.Tracer(clock, root=params["root"], prefix=params["root"] + ".")
    ops = []
    with tracing.instrument(tracer):
        for k, op in enumerate(cases[params["index"]].ops):
            tracer.op = f"{params['root']}.op{k}"
            with tracer.span("bench.op", label=op.name):
                ops.append(run_op(op))
    return {"spans": tracer.spans, "ops": ops, "peak_rss_mb": _peak_rss_mb()}


def main(argv) -> int:
    mode, params, result_path = argv[1], json.loads(argv[2]), argv[3]
    result = {"setup": setup, "passes": passes, "case": case}[mode](params)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
