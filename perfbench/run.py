"""Benchmark of the wignerdv ``solve``, ``study`` and ``verify`` paths.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Workloads: study_direct, large_block, spectrum_sweep, verify_oracle (see
perfbench/NOTES.md for what each one exercises and why).

The run starts the workload in its own single-threaded process, which runs
it pass after pass until the next pass would overrun ``--seconds`` (at least
one pass), and times set-up in fresh processes spread over the same window.
Every operation is gated on its outputs.  With ``--trace 1`` it instead runs one untraced pass
and one traced pass, the latter with every case in its own process and spans
around each call into the package, and reports per-layer metrics.

Human-readable lines go to standard output first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

OUT_ROOT = ".perfbench_out"
SETUP_PROBES = 12
# time a worker may take beyond ``--seconds``: its last pass, the set-up
# probes left over, process start-up
WORKER_SLACK_S = 120.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# Percentiles on offer, each with 1/(share of samples above it).
PERCENTILE_TAILS = ((50, 2), (75, 4), (90, 10), (95, 20), (99, 100), (99.9, 1000))


def reportable_percentile(n: int, min_beyond: int = 10):
    """Highest percentile on offer with at least ``min_beyond`` of n samples above it.

    Returns None when not even the median qualifies.
    """
    best = None
    for p, tail in PERCENTILE_TAILS:
        if n >= min_beyond * tail:
            best = p
    return best


def _unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "count"


def _spawn(mode: str, params: dict, result_path: str, timeout: float) -> dict:
    """Run perfbench/worker.py in a fresh single-threaded process; returns its result."""
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, json.dumps(params), result_path]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with status {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _code_digest() -> str:
    """Hash of the package source and the base config, to key exact counts."""
    h = hashlib.sha256()
    paths = [workloads.BASE_CONFIG]
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.join(root, f) for f in sorted(files)]
    for path in paths:
        h.update(path.encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _check_counts(workload: str, seed: int, layers: dict) -> str:
    """Compare exact counts with an earlier traced run of the same code and seed.

    Returns an error message, or "" when they agree or no earlier run exists.
    """
    counts = {k: layers[k] for k in tracing.EXACT_COUNTS}
    path = os.path.join(OUT_ROOT, "counts", f"{workload}-{seed}.json")
    code = _code_digest()
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier["code"] == code and earlier["counts"] != counts:
            return f"exact counts differ from an earlier run of the same code: {earlier['counts']} vs {counts}"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "counts": counts}, fh)
    return ""


def traced_pass(workload: str, seed: int, work: str, case_timeout: float) -> dict:
    """One traced pass: each case in its own process, under a top-level case span."""
    cases = workloads.build_cases(workload, seed, 0, work)
    tracer = tracing.Tracer(time.perf_counter, prefix="c")
    children, ops = [], []
    t0 = time.perf_counter()
    for k, case in enumerate(cases):
        with tracer.span("bench.case", scheme=case.scheme, Nx=case.nx) as span:
            params = {"workload": workload, "seed": seed, "pass": 0, "index": k, "root": span["id"], "work": work}
            result = _spawn("case", params, os.path.join(work, f"case{k}.json"), case_timeout)
        span["attrs"]["peak_rss_mb"] = result["peak_rss_mb"]
        children += result["spans"]
        ops += result["ops"]
    wall = time.perf_counter() - t0
    return {"spans": tracer.spans + children, "ops": ops, "wall_s": wall}


def end_to_end_metrics(untraced: dict) -> dict:
    """End-to-end metrics of an untraced run: medians over set-ups and passes."""
    return {
        "setup_s": untraced["setup"]["setup_s"],
        "wall_s": statistics.median(p["wall_s"] for p in untraced["passes"]),
        "peak_rss_mb": untraced["peak_rss_mb"],
    }


def per_layer_metrics(setup: dict, untraced_wall: float, traced: dict) -> dict:
    """Per-layer metrics of a traced pass, plus set-up parts and tracing cost."""
    metrics = tracing.layer_metrics(traced["spans"])
    metrics.update({k: setup[k] for k in ("import_s", "cli.parse_config_s", "kinetic.build_system_s")})
    cases = [s["attrs"] for s in traced["spans"] if s["name"] == "bench.case"]
    metrics["case.peak_rss_mb"] = max((c["peak_rss_mb"] for c in cases), default=0.0)
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    metrics["trace.uncovered_s"] = traced["wall_s"] - sum(tracing.self_times(traced["spans"]).values())
    return metrics


def run(args) -> tuple:
    """Returns (human lines, result dict)."""
    if not (os.path.isfile(os.path.join("src", "wignerdv", "__init__.py")) and os.path.isfile(workloads.BASE_CONFIG)):
        raise BenchError("run from the root of a wignerdv checkout: src/wignerdv and configs/paper.cfg are missing")
    work = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"]

    params = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "probes": SETUP_PROBES,
        "max_passes": 1 if args.trace else 1_000_000,
        "work": work,
    }
    untraced = _spawn("passes", params, os.path.join(work, "passes.json"), args.seconds + WORKER_SLACK_S)
    ops = [op for p in untraced["passes"] for op in p["ops"]]
    walls = [p["wall_s"] for p in untraced["passes"]]

    if not args.trace:
        metrics = end_to_end_metrics(untraced)
        lat = [op["latency_s"] for op in ops]
        _, p50, p75 = statistics.quantiles(lat, n=4, method="inclusive")
        best = reportable_percentile(len(lat))
        rule = f"p{best:g}" if best else "none"
        lines.append(f"passes={len(walls)} wall_s per pass: {', '.join(f'{w:.3f}' for w in walls)}")
        lines.append(
            f"op_p50_s = {p50:.6f} s, op_p75_s = {p75:.6f} s over {len(lat)} operations "
            f"(highest percentile with >=10 samples beyond it: {rule})"
        )
    else:
        # a traced case takes a share of the untraced pass, plus an import
        # and the cost of its spans
        traced = traced_pass(args.workload, args.seed, work, WORKER_SLACK_S + 2 * walls[0])
        ops += traced["ops"]
        with open(os.path.join(work, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump(traced["spans"], fh)
        metrics = per_layer_metrics(untraced["setup"], walls[0], traced)
        covered = traced["wall_s"] - metrics["trace.uncovered_s"]
        lines.append(
            f"untraced wall_s={walls[0]:.6f} traced wall_s={traced['wall_s']:.6f}; "
            f"self time of all spans {covered:.6f} s"
        )
        for span in traced["spans"]:
            if span["name"] == "bench.case":
                a = span["attrs"]
                lines.append(f"case {a['scheme']} Nx={a['Nx']}: peak_rss_mb={a['peak_rss_mb']:.1f}")
        mismatch = _check_counts(args.workload, args.seed, metrics)
        ops.append({"name": "exact counts", "latency_s": 0.0, "ok": not mismatch, "why": mismatch})

    failed = [op for op in ops if not op["ok"]]
    for op in failed:
        lines.append(f"FAILED {op['name']}: {op['why'].strip()}")
    lines.append(f"failed_frac = {len(failed) / len(ops):.6g} ratio ({len(failed)} of {len(ops)} operations)")
    for name, value in metrics.items():
        label = " (computed from CSR array sizes)" if name == "fd.csr_mb" else ""
        lines.append(f"{name} = {value:.9g} {_unit(name)}{label}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = run(args)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
