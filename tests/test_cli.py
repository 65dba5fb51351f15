import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest

import btquot
from btquot.cli import _algebra_from, build_parser, main, render_dot
from btquot.errors import InvariantViolation
from btquot.quotient import find_quotient_algebra
from btquot.gfpoly import Poly, choose_xi, make_field
from btquot.order import StandardOrder, solve_torsion
from btquot.quat import QuatElem

from conftest import census_key


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


def test_torsion_lists_classes_the_census_misses(capsys):
    # the bound-2 census meets 2 of the 4 classes; the other 2 are empty
    code, out, _ = run(capsys, "torsion", "--q", "3", "--r", "T^4+2*T^2+T",
                       "--bound", "2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 18
    assert data["class_count"] == data["eichler"] == 4
    assert data["check_eichler"] is True
    assert [len(c) for c in data["classes"]] == [9, 9, 0, 0]


def test_torsion_no_classes(capsys):
    code, out, _ = run(capsys, "torsion", "--q", "3", "--r", "T*(T-1)",
                       "--bound", "1", "--no-classes")
    assert code == 0
    data = json.loads(out)
    assert "classes" not in data
    assert data["bound"] == 1
    assert data["count"] > 0


def test_torsion_wp_zero_builds_no_quotient(capsys, monkeypatch):
    # a ramified place of even degree: eichler_count is 0, the census is
    # empty, and the classes need no quotient
    def broken(*args, **kwargs):
        raise InvariantViolation("the quotient was built")

    monkeypatch.setattr("btquot.cli.build_quotient", broken)
    code, out, _ = run(capsys, "torsion", "--q", "3", "--a", "T^3+2*T+1",
                       "--b", "T^2+1", "--bound", "2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 0
    assert data["classes"] == []
    assert data["class_count"] == data["eichler"] == 0
    assert data["check_eichler"] is True
    # an algebra that quotient refuses (b of odd degree) is fine here
    code, out, _ = run(capsys, "torsion", "--q", "3", "--a", "T^2+T+2",
                       "--b", "T", "--bound", "2")
    assert code == 0
    assert json.loads(out)["class_count"] == 0


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
# computes or writes shows up here.  A key is the algebra options.
PINNED_ARTIFACTS = {
    ("--q", "3", "--r", "T^4+2*T^2+T"): {
        ".graph.json": "c3de8220bc8d89fddd7df3b981c37f07df3902b32dc8d71e867a35e2d8d61cb3",
        ".dot": "a7e470b09979e30ddbd84aac51db152f98d2f3c3a3fcad1b7cdfdb330f26c121",
        ".log.jsonl": "a3520781067e18fc2b05de77a25f1cbbe0d6c98752dd6b5bba0b804af9b894d3",
        ".report.json": "0463e7719d37a018fb08902d123c6edfd9d5d4cb1da3771b7a16b8caa5831b21",
    },
    ("--q", "3", "--a", "T^3+2*T+1", "--b", "T^2+1"): {
        ".graph.json": "c768343081f1bd1b1e911a5758f83df77360bdde0a710ecd09828f2a919a5be0",
        ".dot": "66952320e972cadec070584d6851830b6cd36c0acd1b3f2d280aa703e15c18d1",
        ".log.jsonl": "ae1b1389a272c9018e3943133295bcbe0065d4f451ac018295cb70a798054fbd",
        ".report.json": "dcf06b4a775a3ccdba3eed72d1ebe8d658bd4883f8a3ffeab394f383cff9411b",
    },
    # V=32, the slowest many-classes benchmark case
    ("--q", "3", "--a", "T^2+T+2", "--b", "T^4+T^3+T^2+T"): {
        ".graph.json": "d5e84f2d29205fb876c98af5f285ee2f8fea3ccb06332bb68f4c2412e06da4cf",
        ".dot": "dbb107695529388f6c8045b2899c84e60f46a23738be9de053d56d5c4bb2228c",
        ".log.jsonl": "733cb7d9d261a94298eeb10defc5f371624bf49c252aefae1e838d7a7a4dda2f",
        ".report.json": "00007a432a3c66dea3e0bc9463367103172211fc68b3162cf0182eb0a7d451bf",
    },
    # V=80
    ("--q", "3", "--R-degrees", "2,4"): {
        ".graph.json": "7d7ebae89e2a72dc90634e0b129092f76fb99d9649dae432885df85116b6cfba",
        ".dot": "0b83d3573a11a6977bf94020dfbbd0ce1248626aa76615a2f4cd2dc3e596eb6c",
        ".log.jsonl": "cfcd242b0ced6c84874c0520aa5dd613579a6464f8c85843e6ac210b71cf4fe5",
        ".report.json": "f90ee7730104817e0847fbad8596bb4e08064228c316ec209d1fc64e8ba74cea",
    },
    # the large-q benchmark quotients: the stabilizer walk at q + 1 = 6 to 12
    ("--q", "7", "--r", "T*(T-1)"): {
        ".graph.json": "8b1369b0e30806740876eecf86f5316b7e700a350890216504781a95b4330bdb",
        ".dot": "b4c544541c342f6586ba2297af779ed93aff3808bc76baa47198ff836d974dbe",
        ".log.jsonl": "2b7dc4683341ceaf0ee47ee9ccce2cca4cd609e1644cf92cff058668ce760b6e",
        ".report.json": "80c7172d8d5ac54f9f7fa92385218ad795f6f5eaca8f675ca1ad3911f73bc869",
    },
    ("--q", "9", "--a", "4", "--b", "T^2+T"): {
        ".graph.json": "c486b9f15a07d83aa86c5ae4c961c4e41e3692ce935e05ac88ca9980033f9123",
        ".dot": "997127390a8d1df804cfc34ac0d90781c06faced276b6ee82039f3c2c8bdf963",
        ".log.jsonl": "f1f4c3ce4da3bfc1492d06c5deb168ed996d39a2ebcf55fa0355aa67ff72754d",
        ".report.json": "038f243bbe7b2bb6866f2311f748b353aa96749f4a992abd714b5d16972d3acc",
    },
    ("--q", "11", "--r", "T*(T-1)"): {
        ".graph.json": "58ab0db1e4848f8013e34f88491b13db290891648739135430f699d6159b9a91",
        ".dot": "5f1cdf7b7449bdd0a16bfcb746667488607e006e95844feb30d396ae99d6ce8d",
        ".log.jsonl": "136acb76b19dd63d0046a54e03ce3ae606a8131f70db26872413af731d7d1698",
        ".report.json": "7f2f4f42f73168827dab813019eb08a1937009a96e180fe3fe5f9515d1b217e2",
    },
    ("--q", "5", "--a", "T^2+3*T", "--b", "T^2+3*T+2"): {
        ".graph.json": "bdaaef6e9abf589ca8821f08774da7dc9108b4623f8ab16eeea6658995cd2bdb",
        ".dot": "88e910069294ad0a471a8f06c4a04e4e96fb7ae5db53de89fe0ef30f50b875bf",
        ".log.jsonl": "dc2590e0ed4e0f5b57110d276dd4e7266eb9059a2f193e3f2019652863d1518b",
        ".report.json": "7a95714d8ff9d2d1f14fa61f77280dc991fd6433aa94e15d4d3275da77fa824d",
    },
}


@pytest.mark.parametrize("spec", sorted(PINNED_ARTIFACTS))
def test_quotient_artifacts_match_pinned_digests(spec, tmp_path, capsys):
    prefix = str(tmp_path / "q")
    code, out, _ = run(capsys, "quotient", *spec, "--out", prefix)
    assert code == 0
    assert json.loads(out)["ok"] is True
    digests = {
        ext: hashlib.sha256(open(prefix + ext, "rb").read()).hexdigest()
        for ext in PINNED_ARTIFACTS[spec]
    }
    assert digests == PINNED_ARTIFACTS[spec]


# sha256 of torsion stdout: the census, its classes (the odd-q ones read off
# the terminal stabilizers of the quotient) and the Eichler check.
PINNED_TORSION = {
    ("--q", "3", "--r", "T*(T-1)", "--bound", "2"):
        "28f515244978c84ae4015978c4eb81ec8f12a960ea813c11841ee9eafec6a421",
    ("--q", "5", "--r", "T*(T-1)", "--bound", "1"):
        "85100b653a384c4232cbf45d518676e9008c2e039b9e6073018a4a957e7b4701",
    ("--q", "3", "--r", "T^4+2*T^2+T", "--bound", "2"):
        "f456e9567aa0b1675c75b3285cda40ee188a59a647eb197f235e212a8513df28",
    # eight terminal vertices, and a is not a constant
    ("--q", "5", "--R-degrees", "1,1,1,1", "--bound", "1"):
        "e2c4968d4ebc393c7a864a4cfdc154d1207bc127b3a18c7227ae06660e115b9b",
    ("--q", "4", "--r", "T*(T+1)", "--bound", "1"):
        "1c16f942b78cce34f0362ea317b9db8a3fd1750332d31de3ed4988abf52a9116",
    ("--q", "2", "--r", "T*(T+1)", "--bound", "3"):
        "f06deaceedcca1ab19458530c4ed4082ceca48bcf35461b6415223531f0eabbd",
    ("--q", "8", "--r", "T*(T+1)", "--bound", "1"):
        "77100b6ca61c64e37a99302dd52b99b01a8d163260395d6788b6d53452324350",
    # odd q over an extension field
    ("--q", "9", "--r", "T*(T-1)", "--bound", "1"):
        "d18ac717cb59e3ab38401ff6e0eabfd933cba1cf9316dc4472e821375b702525",
    # deg b = 2*bound + 4: the census's table of roots outgrows its pair loop
    ("--q", "5", "--r", "T*(T-1)*(T-2)*(T-3)", "--bound", "0"):
        "4224ee79b6a5ca712570a23f711fef0fec887006a7b39d0a62a21d86c69e1af7",
    ("--q", "4", "--r", "T*(T+1)", "--bound", "2"):
        "1b3fbb9b07d04db0b55ef417cd5bde696f226fa330eba93a2f72ec8b8462ad72",
    ("--q", "7", "--r", "T*(T-1)", "--bound", "2", "--no-classes"):
        "8cf185441403aa9d82b268d321719ded9f414e6e847714f3b30fe4e502936eda",
    # 914 units sorted into 4 classes
    ("--q", "7", "--r", "T*(T-1)", "--bound", "2"):
        "a7f93259f6be0cf49faa33187e3dcd2b40df33791012cca22bfa977547fb8918",
    # 10 units in 16 classes: the met classes in census order, then the
    # empty ones
    ("--q", "3", "--R-degrees", "1,1,1,3", "--bound", "1"):
        "f4e13e2e94a84ac94392893a577e39aa4821849ba04945e33d9a04fed30fd654",
    ("--q", "3", "--r", "T*(T-1)", "--bound", "3"):
        "436d5c8963c56d327a7a7056752b53075ba97fb58bc146492df3f0babc8ea2f5",
    # census only: SplitEmbedding refuses this algebra, so without
    # --no-classes the command exits 3
    ("--q", "3", "--r", "2*T^2+T", "--bound", "1", "--no-classes"):
        "49306b698230118b3f751b9319b4fc8c38acae287e6c787eada1e78d3e9dd8da",
}

# every z and w of this census is a constant, so its bound caps nothing
UNCAPPED_TORSION = ("--q", "3", "--R-degrees", "1,1,1,3", "--bound", "1")


@functools.lru_cache(maxsize=None)
def pinned_census(spec):
    """The algebra and the solve_torsion census of a torsion spec."""
    args = build_parser().parse_args(["torsion", *spec])
    alg = _algebra_from(args)
    return alg, solve_torsion(StandardOrder(alg), args.bound)


@pytest.mark.parametrize("spec", sorted(PINNED_TORSION))
def test_torsion_stdout_matches_pinned_digest(spec, capsys):
    code, out, _ = run(capsys, "torsion", *spec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TORSION[spec]


@pytest.mark.parametrize("spec", sorted(set(PINNED_TORSION) - {UNCAPPED_TORSION}))
def test_torsion_bound_caps_z_and_w_and_the_solved_coordinate(spec):
    args = build_parser().parse_args(["torsion", *spec])
    alg, units = pinned_census(spec)
    assert max(max(u.z.deg, u.w.deg) for u in units) == args.bound
    # y (odd q) or x (even q) comes from an equation of degree deg b + 2*bound
    solved = [(u.x if alg.even else u.y).deg for u in units]
    assert max(solved) == (alg.b.deg + 2 * args.bound) // 2 > args.bound


@pytest.mark.parametrize("spec", sorted(PINNED_TORSION))
def test_every_census_unit_is_a_root_of_one_quadratic(spec):
    # X^2 - xi (trace 0, norm -xi) for odd q, q=9 over an extension field
    # among them, and X^2 + X + xi (trace 1, norm xi) for even q
    alg, units = pinned_census(spec)
    fld = alg.field
    xi = choose_xi(fld)
    if alg.even:
        trace, norm = Poly.one(fld), Poly.const(fld, xi)
    else:
        trace, norm = Poly.zero(fld), Poly.const(fld, fld.neg(xi))
    assert units
    for u in units:
        assert (u.trace(), u.norm()) == (trace, norm)
        assert u * u - u.scale(trace) + alg.elem(norm) == alg.zero


@pytest.mark.parametrize("spec", sorted(PINNED_TORSION))
def test_census_is_generated_in_w_z_y_x_order(spec):
    # census_key: (w, z, y, x), each by Poly.sort_key
    _, units = pinned_census(spec)
    assert units == sorted(units, key=census_key)
    assert len(set(units)) == len(units)


def test_census_unit_off_its_quadratic_exits_4(monkeypatch, capsys):
    # i of H(xi, T^2+2*T) is a census unit (i^2 = a = xi, norm -xi = 1);
    # with its norm read as 2 it is no root of X^2 - xi
    plain = QuatElem.charpoly

    def off(self):
        t, n = plain(self)
        return (t, n + 1) if self == self.alg.i else (t, n)

    monkeypatch.setattr(QuatElem, "charpoly", off)
    argv = ["torsion", "--q", "3", "--r", "T*(T-1)", "--bound", "1", "--no-classes"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert "invariant violated: census unit i has trace 0 and norm 2" in err


# exit code and sha256 of the stdout that reads the counting formulas: the
# formula table alone, the formulas beside a quotient's measurements, and
# the Eichler count of an algebra whose standard order is not maximal.
PINNED_FORMULA_STDOUT = {
    ("formulas", "--sweep"): (
        0, "fdddd5d5502d1969f60ed98e158d4519f23ae426a5d151506c49bf3963123d17"),
    ("formulas", "--sweep", "--q", "3"): (
        0, "20544a089153c8f017ada4d927ee07f66a768e2ca84b603484aa82961920cdc7"),
    ("formulas", "--q", "3", "--R", "1,2"): (
        0, "703b7b95fa62bd3182d701d8e5aef4de9ff569e43ab07f49d6d17a3c3cf8d7e3"),
    ("report", "--q", "3", "--R-degrees", "1,2"): (
        0, "4d98fa006292d4a2456df65b436bd9304e40c8288cc1b9f537ff4c1ad9552992"),
    ("report", "--q", "5", "--R-degrees", "1,1,1,1"): (
        0, "7a95714d8ff9d2d1f14fa61f77280dc991fd6433aa94e15d4d3275da77fa824d"),
    ("ramification", "--q", "3", "--a", "T", "--b", "T^2+T"): (
        2, "a5816e44085084551685cf6a1dec0a505cb562bcbce96bc1883ab494ae86f7a0"),
}


@pytest.mark.parametrize("argv", sorted(PINNED_FORMULA_STDOUT))
def test_formula_stdout_matches_pinned_digest(argv, capsys):
    code, out, _ = run(capsys, *argv)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == PINNED_FORMULA_STDOUT[argv]


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


def test_torsion_negative_bound_is_a_usage_error(capsys):
    code, out, err = run(capsys, "torsion", "--q", "3", "--r", "T*(T-1)", "--bound", "-1")
    assert (code, out) == (3, "")
    assert err.startswith("usage error:") and "--bound" in err


def test_ramification_nonpositive_degrees_checked_before_pools(capsys, monkeypatch):
    def no_pools(f):
        raise AssertionError("a place pool was scanned")

    monkeypatch.setattr("btquot.quotient.is_irreducible", no_pools)
    for degrees in ("0,1", "-1,1"):
        code, out, err = run(capsys, "ramification", "--q", "3", "--R-degrees=" + degrees)
        assert (code, out) == (3, "")
        assert err == "unsupported: degrees must be positive integers\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("ramification", "--q", "3", "--a", "2", "--b", "2"),
        ("quotient", "--q", "5", "--a", "2", "--b", "3"),
        ("torsion", "--q", "3", "--a", "2", "--b", "2"),
        ("formulas", "--q", "3", "--R", ","),
    ],
)
def test_empty_ramification_profile_is_named(argv, capsys):
    # H(a, b) with a, b constant ramifies nowhere; "--R ," lists no degree
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "unsupported: no ramified places\n"


def test_ramification_odd_degree_count_checked_before_pools(capsys, monkeypatch):
    def no_pools(f):
        raise AssertionError("a place pool was scanned")

    monkeypatch.setattr("btquot.quotient.is_irreducible", no_pools)
    for degrees, count in (("1", 1), ("1,1,2", 3)):
        code, out, err = run(capsys, "ramification", "--q", "3", "--R-degrees", degrees)
        assert (code, out) == (3, "")
        assert err == "unsupported: a ramification set has even size, got %d places\n" % count


def test_ramification_even_q_even_degree_refused_before_pools(capsys, monkeypatch):
    def no_pools(f):
        raise AssertionError("a place pool was scanned")

    monkeypatch.setattr("btquot.quotient.is_irreducible", no_pools)
    code, out, err = run(capsys, "ramification", "--q", "2", "--R-degrees", "1,2")
    assert (code, out) == (3, "")
    assert err == (
        "unsupported: even q: only odd-degree places can ramify in the supported shape\n"
    )


def test_ramification_finds_former_search_failures(capsys):
    code, out, _ = run(capsys, "ramification", "--q", "3", "--R-degrees", "3,3")
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is True
    assert [p["degree"] for p in data["ramified"]] == [3, 3]
    code, out, _ = run(capsys, "quotient", "--q", "5", "--R-degrees", "1,3")
    assert code == 0
    assert all(json.loads(out)["report"]["checks"].values())


def test_uncertified_suborder_is_refused(capsys, monkeypatch):
    # the Gram determinant 2*T^6+T^5+2*T^4 = 2*T^2*(T^2+T)^2 has the
    # squarefree part T^2+T of the ramified places, but carries T^2 more
    code, out, err = run(capsys, "ramification", "--q", "3", "--a", "T", "--b", "T^2+T")
    assert (code, err) == (2, "")
    data = json.loads(out)
    assert data["certified"] is False
    assert data["gram_disc"] == "2*T^6+T^5+2*T^4"
    assert data["squarefree_part"] == data["expected"] == "T^2+T"

    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr("btquot.quotient.SplitEmbedding", no_graph)
    code, out, err = run(capsys, "quotient", "--q", "3", "--a", "T", "--b", "T^2+T")
    assert (code, out) == (2, "")
    assert err.startswith("check failed: standard order of H(T, T^2+T) is not certified")


def test_exit_code_unsupported(capsys):
    code, _, err = run(capsys, "quotient", "--q", "2", "--r", "T^2+T")
    assert code == 3
    assert "unsupported" in err
    code, _, _ = run(capsys, "quotient", "--q", "3", "--r", "Z+1")
    assert code == 3
    code, _, _ = run(capsys, "quotient", "--q", "3")
    assert code == 3


def test_deeply_nested_polynomial_is_invalid_input(capsys):
    # Nesting this deep would overflow the recursive parser's stack.
    nested = "(" * 300 + "T*(T-1)" + ")" * 300
    code, out, err = run(capsys, "quotient", "--q", "3", "--r", nested)
    assert (code, out) == (3, "")
    assert err.startswith("invalid input: parentheses nested deeper than 100 in")
    assert err.count("\n") == 1


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
    # The degree bound and the series precision are proven, and the class
    # guard is a constant: the graph commands take the algebra, and the
    # ones that write artifacts --out, only.
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    algebra = ["-h", "--help", "--q", "--a", "--b", "--r", "--R-degrees"]
    for name, extra in (("quotient", ["--out"]), ("report", []), ("dot", ["--out"])):
        options = [
            opt for action in sub.choices[name]._actions
            for opt in action.option_strings
        ]
        assert options == algebra + extra
    for argv in (["quotient", "--slack", "2"], ["report", "--out", "x"]):
        code, _, err = run(capsys, argv[0], "--q", "3", "--r", "T*(T-1)", *argv[1:])
        assert code == 3
        assert "usage error" in err


def test_exit_code_invariant_violation(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("vertex class 1 has degree 2; expected 1 or 4")

    monkeypatch.setattr("btquot.cli.build_quotient", broken)
    code, _, err = run(capsys, "quotient", "--q", "3", "--r", "T*(T-1)")
    assert code == 4
    assert "invariant violated: vertex class 1 has degree 2" in err


@pytest.mark.parametrize("command", ["quotient", "dot"])
def test_out_into_missing_directory_exits_3_before_building(
    command, tmp_path, capsys, monkeypatch
):
    def unbuilt(*args, **kwargs):
        raise AssertionError("graph built for an --out that cannot be written")

    monkeypatch.setattr("btquot.cli.build_quotient", unbuilt)
    prefix = str(tmp_path / "missing" / "x")
    code, out, err = run(capsys, command, "--q", "3", "--r", "T*(T-1)", "--out", prefix)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("cannot write:") and str(tmp_path / "missing") in err


def test_out_write_error_exits_3(tmp_path, capsys):
    # the directory exists, but the graph file's path is taken by a directory
    (tmp_path / "x.graph.json").mkdir()
    code, out, err = run(capsys, "quotient", "--q", "3", "--r", "T*(T-1)",
                         "--out", str(tmp_path / "x"))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("cannot write:")


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
    src = os.path.dirname(os.path.dirname(os.path.abspath(btquot.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "btquot.cli", "formulas", "--q", "3", "--R", "1,1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["V1"] == 2
