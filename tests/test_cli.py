import hashlib
import json
import subprocess
import sys

import pytest

from btquot.cli import build_parser, main, render_dot
from btquot.errors import InvariantViolation
from btquot.laurent import DEFAULT_PREC
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


# sha256 of the four --out artifacts; any change to what a quotient run
# computes or writes shows up here.  A key is (starting series precision,
# algebra options).
PINNED_ARTIFACTS = {
    (DEFAULT_PREC, ("--r", "T^4+2*T^2+T")): {
        ".graph.json": "c3de8220bc8d89fddd7df3b981c37f07df3902b32dc8d71e867a35e2d8d61cb3",
        ".dot": "a7e470b09979e30ddbd84aac51db152f98d2f3c3a3fcad1b7cdfdb330f26c121",
        ".log.jsonl": "00d7fbb0f7a05128457472fd7bac77584e9f31369e407d454bdeb3213108038c",
        ".report.json": "0463e7719d37a018fb08902d123c6edfd9d5d4cb1da3771b7a16b8caa5831b21",
    },
    # starts at precision 16 and logs one retry
    (16, ("--a", "T^3+2*T+1", "--b", "T^2+1")): {
        ".graph.json": "c768343081f1bd1b1e911a5758f83df77360bdde0a710ecd09828f2a919a5be0",
        ".dot": "66952320e972cadec070584d6851830b6cd36c0acd1b3f2d280aa703e15c18d1",
        ".log.jsonl": "8a978c9c6989e36ac3f4fbac1ddfb654d2bf5d743eafbd2ee9f356df3c43c402",
        ".report.json": "dcf06b4a775a3ccdba3eed72d1ebe8d658bd4883f8a3ffeab394f383cff9411b",
    },
}


@pytest.mark.parametrize("spec", sorted(PINNED_ARTIFACTS))
def test_quotient_artifacts_match_pinned_digests(spec, tmp_path, capsys, monkeypatch):
    prec, algebra = spec
    monkeypatch.setattr("btquot.quotient.DEFAULT_PREC", prec)
    prefix = str(tmp_path / "q")
    code, out, _ = run(capsys, "quotient", "--q", "3", *algebra, "--out", prefix)
    assert code == 0
    assert json.loads(out)["ok"] is True
    digests = {
        ext: hashlib.sha256(open(prefix + ext, "rb").read()).hexdigest()
        for ext in PINNED_ARTIFACTS[spec]
    }
    assert digests == PINNED_ARTIFACTS[spec]


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


def test_exit_code_resource_guard(capsys, monkeypatch):
    # Guard factor 0 allows 2 classes; this profile has 8.
    monkeypatch.setattr("btquot.quotient.GUARD_FACTOR", 0)
    code, _, err = run(capsys, "quotient", "--q", "3", "--r", "T^4+2*T^2+T")
    assert code == 4
    assert "resource guard" in err


def test_quotient_commands_take_no_tuning_options(capsys):
    # The degree bound is proven, the class guard and the precision ladder
    # are constants: the graph commands take the algebra and --out only.
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    for name in ("quotient", "report", "dot"):
        options = [
            opt for action in sub.choices[name]._actions
            for opt in action.option_strings
        ]
        assert options == [
            "-h", "--help", "--q", "--a", "--b", "--r", "--R-degrees",
            "--search-bound", "--out",
        ]
    code, _, err = run(capsys, "quotient", "--q", "3", "--r", "T*(T-1)",
                       "--slack", "2")
    assert code == 3
    assert "usage error" in err


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
