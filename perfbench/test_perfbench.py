"""Tests of the benchmark's own code: tracing, case generation and checks.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from btquot import cli  # noqa: E402

SMALL = workloads.Case(["quotient", "--q", "3", "--r", "T*(T-1)"], 3, [1, 1])


def traced(case):
    trace = tracer.Tracer().install()
    try:
        outcome = run.run_case(cli, case, trace)
    finally:
        trace.uninstall()
    return trace, outcome


def test_traced_counters_repeat_exactly():
    first, _ = traced(SMALL)
    second, _ = traced(SMALL)
    assert first.counters() == second.counters()
    assert first.counters()["quotient.hom_units.calls"] > 0


def test_traced_output_is_byte_identical():
    for case in (SMALL, workloads.LADDERS["algebra-search"][3]):
        plain = run.run_case(cli, case)
        _, wrapped = traced(case)
        assert wrapped.stdout == plain.stdout
        assert wrapped.code == plain.code == 0


def test_every_binding_is_wrapped_and_restored():
    trace = tracer.Tracer().install()
    try:
        assert trace.stale_bindings() == []
        sites = set(trace.site_calls)
    finally:
        trace.uninstall()
    for site in ("quotient.nullspace", "order.nullspace", "gfpoly.nullspace",
                 "quotient.canonical_form", "quotient.act", "quotient.find_algebra",
                 "quat.is_squarefree", "cli.build_quotient", "cli.cross_check",
                 "laurent.LaurentSeries.__rmul__"):
        assert site in sites
    from btquot import quotient
    assert not hasattr(quotient.hom_units, "__wrapped__")


# Call sites each workload must reach: the smallest case of the workload
# is run traced, and every site listed records at least one call.
MUST_HIT = {
    ("many-classes", 0): [
        "cli.build_quotient", "cli.cross_check",
        "quotient.are_equivalent", "quotient.hom_units", "quotient.stabilizer",
        "quotient.StabilizerGroup.__init__", "quotient.StabilizerGroup.neighbor_orbits",
        "quotient.StabilizerGroup.fixing_count", "quotient.nullspace",
        "quotient.canonical_form", "quotient.act", "bttree.canonical_form",
        "bttree.Mat2K.__mul__", "laurent.LaurentSeries.__mul__",
        "laurent.LaurentSeries.inverse", "laurent.LaurentSeries.sqrt",
        "quat.QuatElem.__mul__", "quotient.ramified_set", "quat.hilbert_symbol",
        "order.StandardOrder.certify_maximal", "quat.factor", "order.factor",
        "gfpoly.make_field", "gfpoly.nullspace",
    ],
    ("large-q", 0): [
        "cli.build_quotient", "quotient.hom_units", "quotient.StabilizerGroup.__init__",
        "quotient.StabilizerGroup.neighbor_orbits", "quotient.act",
        "bttree.Mat2K.__mul__", "laurent.LaurentSeries.__mul__", "quat.QuatElem.__mul__",
    ],
    ("torsion", 2): [
        "cli.solve_torsion", "cli.torsion_classes", "order.conj_search",
        "order.nullspace", "quat.QuatElem.__mul__", "cli.ramified_set",
    ],
    ("algebra-search", 3): [
        "cli.find_quotient_algebra", "quotient.find_algebra", "quat.is_squarefree",
        "quotient.is_irreducible", "quat.ramified_set", "quat.hilbert_symbol",
        "order.StandardOrder.certify_maximal",
    ],
}


def test_each_binding_records_calls_on_its_workload():
    for (workload, index), sites in MUST_HIT.items():
        case = workloads.LADDERS[workload][index]
        trace, outcome = traced(case)
        assert not outcome.crash, outcome.crash
        missed = [s for s in sites if trace.site_calls[s][0] == 0]
        assert missed == [], (workload, missed)


def test_seed_zero_is_the_table_and_other_seeds_repeat():
    many = workloads.cases("many-classes", 0)
    assert many[0].argv == ["quotient", "--q", "3", "--r", "T^4+2*T^2+T"]
    assert workloads.cases("torsion", 0)[0].argv[-3:] == ["T*(T-1)", "--bound", "2"]
    for name in workloads.LADDERS:
        a = [c.argv for c in workloads.cases(name, 7)]
        assert a == [c.argv for c in workloads.cases(name, 7)]
        defects = [c.argv for c in workloads.cases(name, 7) if c.known_defect]
        assert defects == [c.argv for c in workloads.LADDERS[name] if c.known_defect]


def test_redraws_keep_degrees():
    assert len(workloads._monic_irreducibles(3, 3)) == 8
    for seed in range(1, 6):
        for case in workloads.cases("torsion", seed) + workloads.cases("many-classes", seed):
            if case.places:
                got = sorted(workloads._degree(p) for p in case.places)
                assert got == case.degrees
                assert len(set(case.places)) == len(case.places)


def test_results_carry_exactly_the_declared_metrics(tmp_path):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    _, _, result, metrics = run.timed_run(cli, [SMALL], 0)
    assert result == {"correct": True, "attempted": 1, "failed": 0}
    assert [(n, u) for n, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    ]
    assert all(value > 0 for value, _ in metrics.values())
    _, _, _, layers = run.traced_run(cli, [SMALL], str(tmp_path / "spans.jsonl"))
    assert [(n, u) for n, (_, u) in layers.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]
    ]
    with open(tmp_path / "spans.jsonl") as fh:
        span = json.loads(fh.readline())
    assert set(span) == {"name", "start", "end", "parent", "case"}


def test_formula_counts():
    assert checks.formula_counts(3, [1, 3]) == (8, 13, 4)
    assert checks.formula_counts(3, [2, 3]) == (26, 52, 0)
    assert checks.formula_counts(3, [1, 1, 2, 2]) == (32, 64, 0)
    assert checks.formula_counts(11, [1, 1]) == (2, 1, 4)
    assert checks.formula_counts(5, [1, 1, 1, 1]) == (12, 16, 16)


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torsion", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
