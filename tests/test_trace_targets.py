"""The benchmark's tracer wraps named functions of the package; a traced
name that is renamed or removed, or a tracer hook that breaks a run, must
fail here, not only in a traced benchmark run."""

import importlib.util
import json
import math
import os
import sys

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)
TRACER = os.path.join(PERFBENCH, "tracer.py")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_benchmark_tests():
    """perfbench/test_perfbench.py, whose MUST_HIT lists the case each
    workload traces and whose traced() runs one case under the Tracer
    through run.run_case; it imports its sibling modules by bare name."""
    sys.path.insert(0, PERFBENCH)
    try:
        return _load("perfbench_test_perfbench", os.path.join(PERFBENCH, "test_perfbench.py"))
    finally:
        sys.path.remove(PERFBENCH)


BENCH = _load_benchmark_tests()


def test_every_traced_binding_exists_and_is_wrapped():
    tracer = _load("perfbench_tracer", TRACER)
    trace = tracer.Tracer().install()
    try:
        assert trace.stale_bindings() == []
    finally:
        trace.uninstall()


@pytest.mark.parametrize("workload, index", sorted(BENCH.MUST_HIT))
def test_traced_must_hit_case_runs_correctly(workload, index):
    case = BENCH.workloads.LADDERS[workload][index]
    _, outcome = BENCH.traced(case)
    assert outcome.crash is None, outcome.crash
    assert outcome.code == 0
    assert not outcome.failed, outcome.problems


@pytest.mark.parametrize("workload", sorted(BENCH.workloads.LADDERS))
def test_traced_benchmark_run_reports_every_layer(workload, tmp_path):
    # run.traced_run is the pass behind `perfbench/run.py --trace 1`: every
    # seed-0 case traced, then once more untraced, and each per-layer metric
    # BENCHMARK.json names read off the tracer or the two passes.
    cases = BENCH.workloads.cases(workload, 0)
    spans = tmp_path / "spans.jsonl"
    outcomes, _, result, metrics = BENCH.run.traced_run(BENCH.cli, cases, str(spans))
    assert [o.crash for o in outcomes] == [None] * len(cases)
    assert result["correct"] and result["attempted"] == len(cases)
    with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json")) as fh:
        per_layer = json.load(fh)["per_layer"]
    assert [(n, u) for n, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in per_layer
    ]
    assert all(math.isfinite(value) and value >= 0 for value, _ in metrics.values())
    assert spans.stat().st_size > 0
