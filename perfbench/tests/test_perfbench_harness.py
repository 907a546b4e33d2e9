"""Tests of the benchmark harness: percentile rule, self time, gates, counts."""

import json
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(REPO, "perfbench"), os.path.join(REPO, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (1000, 99), (10000, 99.9)],
)
def test_reportable_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.reportable_percentile(n) == expected


def _span(id_, parent, start, end):
    return {"id": id_, "parent": parent, "op": None, "name": id_, "start": start, "end": end, "attrs": {}}


def test_self_time_with_nested_and_side_by_side_children():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 1.0, 3.0),  # a and b sit side by side
        _span("b", "root", 4.0, 8.0),
        _span("c", "b", 5.0, 6.0),  # c nests in b, e nests in c
        _span("e", "c", 5.25, 5.5),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({"root": 4.0, "a": 2.0, "b": 3.0, "c": 0.75, "e": 0.25})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", None, 0.0, 10.0), _span("x", "p", 1.0, 4.0), _span("y", "p", 3.0, 5.0)]
    assert tracing.self_times(spans)["p"] == pytest.approx(6.0)


def _upwind1_op(tmp_path):
    cases = workloads.build_cases("study_direct", 1, 0, str(tmp_path))
    (case,) = [c for c in cases if (c.scheme, c.nx) == ("upwind1", 100)]
    return case.ops[0]


def test_wrong_reference_counts_as_failed_operation(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    assert worker.run_op(_upwind1_op(tmp_path))["ok"]
    key = ("upwind1", 100)
    monkeypatch.setitem(workloads.E_SYM_REF, key, workloads.E_SYM_REF[key] * 1.01)
    outcome = worker.run_op(_upwind1_op(tmp_path))
    assert not outcome["ok"]
    assert "differs from reference" in outcome["why"]


def test_traced_counts_repeat_exactly_and_wrappers_are_removed(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    import wignerdv.fd

    original = wignerdv.fd.solve_bvp
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer(worker.clock)
        with tracing.instrument(tracer):
            assert wignerdv.fd.solve_bvp is not original
            assert worker.run_op(_upwind1_op(tmp_path))["ok"]
        layers = tracing.layer_metrics(tracer.spans)
        counts.append({k: layers[k] for k in tracing.EXACT_COUNTS})
    assert wignerdv.fd.solve_bvp is original
    assert counts[0] == counts[1]
    assert counts[0]["fd.solve_bvp_calls"] == 1
    assert counts[0]["fd.unknowns"] == 80 * 101 - 80


def test_emitted_metrics_match_benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    setup = {"setup_s": 1.0, "import_s": 1.0, "cli.parse_config_s": 0.0, "kinetic.build_system_s": 0.0}
    untraced = {"passes": [{"wall_s": 1.0, "ops": []}], "peak_rss_mb": 1.0, "setup": setup}
    traced = {"spans": [], "wall_s": 1.0}
    for section, metrics in (
        ("end_to_end", run.end_to_end_metrics(untraced)),
        ("per_layer", run.per_layer_metrics(setup, 1.0, traced)),
    ):
        assert {m["name"]: m["unit"] for m in spec[section]} == {k: run._unit(k) for k in metrics}
