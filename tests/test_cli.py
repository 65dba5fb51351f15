import json
import subprocess
import sys

from btquot.cli import main, render_dot
from btquot.errors import InvariantViolation
from btquot.quotient import find_quotient_algebra
from btquot.gfpoly import make_field


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formulas_single_profile(capsys):
    code, out, _ = run(capsys, "formulas", "--q", "3", "--R", "1,1")
    assert code == 0
    data = json.loads(out)
    assert data["V1"] == 2
    assert data["genus"] == 0
    assert data["E"] == 1
    assert data["eichler"] == 4
    assert data["checks"]["euler"]


def test_formulas_star_profile(capsys):
    code, out, _ = run(capsys, "formulas", "--q", "4", "--R", "1,1,1,1")
    assert code == 0
    data = json.loads(out)
    assert data["V1"] == 8
    assert data["Vq1"] == 2
    assert data["E"] == 9
    assert data["genus"] == 0


def test_formulas_hyperelliptic_profile(capsys):
    code, out, _ = run(capsys, "formulas", "--q", "3", "--R", "1,2")
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 3
    assert data["E"] == 4
    assert data["wp"] == 0
    assert data["V1"] == 0


def test_formulas_sweep(capsys):
    code, out, _ = run(capsys, "formulas", "--sweep", "--q", "3")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == len(data["profiles"])
    assert data["count"] > 10
    for entry in data["profiles"]:
        assert entry["checks"]["euler"]
    zero = [entry["R"] for entry in data["profiles"] if entry["genus"] == 0]
    assert zero == [[1, 1]]


def test_formulas_usage_errors(capsys):
    code, _, err = run(capsys, "formulas")
    assert code == 3
    assert "usage error" in err
    code, _, _ = run(capsys, "formulas", "--R", "1,1")
    assert code == 3
    code, _, _ = run(capsys, "formulas", "--q", "3", "--R", "1,x")
    assert code == 3


def test_ramification_segment(capsys):
    code, out, _ = run(capsys, "ramification", "--q", "3", "--r", "T*(T-1)")
    assert code == 0
    data = json.loads(out)
    assert data["algebra"] == "H(2, T^2+2*T)"
    assert [p["place"] for p in data["ramified"]] == ["T", "T+2"]
    assert data["certified"] is True
    assert data["wp"] == 1
    assert data["eichler"] == 4


def test_torsion_segment_classes(capsys):
    code, out, _ = run(capsys, "torsion", "--q", "3", "--r", "T*(T-1)")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 106
    assert data["class_count"] == 4
    assert data["eichler"] == 4
    assert data["check_eichler"] is True
    elems = [u["elem"] for u in data["units"]]
    assert "i" in elems
    assert "(2*T+2)*i + 2*ij" in elems
    assert all(u["order"] == 4 for u in data["units"])


def test_torsion_no_classes(capsys):
    code, out, _ = run(capsys, "torsion", "--q", "3", "--r", "T*(T-1)",
                       "--bound", "1", "--no-classes")
    assert code == 0
    data = json.loads(out)
    assert "classes" not in data
    assert data["bound"] == 1
    assert data["count"] > 0


def test_ramification_prime_power_q(capsys):
    code, out, _ = run(capsys, "ramification", "--q", "4", "--r", "T^4+T")
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is True
    assert [p["place"] for p in data["ramified"]] == ["T", "T+1", "T+2", "T+3"]
    assert data["eichler"] == 16
    code, _, _ = run(capsys, "ramification", "--q", "6", "--r", "T")
    assert code == 3


def test_torsion_even_q(capsys):
    code, out, _ = run(capsys, "torsion", "--q", "2", "--r", "T^2+T",
                       "--no-classes")
    assert code == 0
    data = json.loads(out)
    elems = [u["elem"] for u in data["units"]]
    assert "T + i + j" in elems
    assert all(u["order"] == 3 for u in data["units"])


def test_quotient_segment_stdout(capsys):
    code, out, _ = run(capsys, "quotient", "--q", "3", "--r", "T*(T-1)")
    assert code == 0
    data = json.loads(out)
    graph = data["graph"]
    assert len(graph["vertices"]) == 2
    assert len(graph["edges"]) == 1
    assert [v["stabilizer"] for v in graph["vertices"]] == [8, 8]
    assert data["report"]["checks"]["edges"] is True
    assert all(data["report"]["checks"].values())


def test_quotient_artifacts_deterministic(tmp_path, capsys):
    prefix = str(tmp_path / "seg")
    code, out, _ = run(capsys, "quotient", "--q", "3", "--r", "T*(T-1)",
                       "--out", prefix)
    assert code == 0
    wrote = json.loads(out)["wrote"]
    assert wrote == [prefix + ".graph.json", prefix + ".dot",
                     prefix + ".log.jsonl", prefix + ".report.json"]
    first = {p: open(p, "rb").read() for p in wrote}
    graph = json.loads(first[prefix + ".graph.json"])
    assert graph["algebra"] == "H(2, T^2+2*T)"
    events = [json.loads(line) for line in
              first[prefix + ".log.jsonl"].decode().splitlines()]
    assert events[0]["event"] == "start"
    assert events[-1]["event"] == "done"
    run(capsys, "quotient", "--q", "3", "--r", "T*(T-1)", "--out", prefix)
    for p in wrote:
        assert open(p, "rb").read() == first[p]


def test_report_banana(capsys):
    code, out, _ = run(capsys, "report", "--q", "3", "--R-degrees", "1,2")
    assert code == 0
    data = json.loads(out)
    assert data["graph"]["h1"] == 3
    assert data["graph"]["E"] == 4
    assert all(data["checks"].values())


def test_dot_segment(capsys):
    code, out, _ = run(capsys, "dot", "--q", "3", "--r", "T*(T-1)")
    assert code == 0
    assert out == (
        "graph quotient {\n"
        "  // H(2, T^2+2*T) over F_3\n"
        "  node [shape=circle];\n"
        '  v0 [label="8", shape=doublecircle];\n'
        '  v1 [label="8", shape=doublecircle];\n'
        '  v0 -- v1 [label="2"];\n'
        "}\n"
    )


def test_dot_banana_parallel_edges(capsys):
    code, out, _ = run(capsys, "dot", "--q", "3", "--R-degrees", "1,2")
    assert code == 0
    assert out.count("v0 -- v1") == 4
    assert "doublecircle" not in out


def test_find_quotient_algebra_skips_uncertified():
    fld = make_field(3)
    alg = find_quotient_algebra(fld, [1, 2])
    assert str(alg) == "H(T, T^2+T+2)"


def test_exit_code_unsupported(capsys):
    code, _, err = run(capsys, "quotient", "--q", "2", "--r", "T^2+T")
    assert code == 3
    assert "unsupported" in err
    code, _, _ = run(capsys, "quotient", "--q", "3", "--r", "Z+1")
    assert code == 3
    code, _, _ = run(capsys, "quotient", "--q", "3")
    assert code == 3


def test_exit_code_check_failure(capsys):
    code, _, err = run(capsys, "quotient", "--q", "3",
                       "--a", "2*T^2+2", "--b", "T^2+T")
    assert code == 2
    assert "not certified maximal" in err


def test_exit_code_resource_guard(capsys):
    code, _, err = run(capsys, "quotient", "--q", "3", "--r", "T*(T-1)",
                       "--class-limit", "1")
    assert code == 4
    assert "resource guard" in err


def test_exit_code_invariant_violation(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("half-edge mismatch between classes 0 and 1")

    monkeypatch.setattr("btquot.cli.build_quotient", broken)
    code, _, err = run(capsys, "quotient", "--q", "3", "--r", "T*(T-1)")
    assert code == 4
    assert "invariant violated: half-edge mismatch" in err


def test_no_subcommand_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 3
    assert "formulas" in out


def test_render_dot_matches_command(capsys):
    fld = make_field(3)
    alg = find_quotient_algebra(fld, [1, 1])
    from btquot.quotient import build_quotient

    graph = build_quotient(alg)
    text = render_dot(graph)
    assert text.count("doublecircle") == 2


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "btquot.cli", "formulas", "--q", "3", "--R", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["V1"] == 2
