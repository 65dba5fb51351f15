import ast
import os
import random
import subprocess
import sys

import pytest

import btquot
from btquot.errors import InvalidProfile
from btquot.gfpoly import is_irreducible, make_field, polys_upto
from btquot.invariants import (
    RamProfile,
    Report,
    _det_int,
    count_monic_irreducibles,
    critical_group,
    cross_check,
    edges,
    eichler_count,
    euler_check,
    genus,
    graph_h1,
    smith_normal_form,
    smooth_point_criterion,
    sweep_profiles,
    v1,
    vq1,
    wp,
)


class FakeVertex:
    def __init__(self, index, stab):
        self.index = index
        self.stabilizer_order = stab


class FakeEdge:
    def __init__(self, a, b):
        self.a = a
        self.b = b


class FakeGraph:
    def __init__(self, q, stabs, pairs):
        self.q = q
        self.vertices = [FakeVertex(i, s) for i, s in enumerate(stabs)]
        self.edges = [FakeEdge(a, b) for a, b in pairs]

    def degree(self, i):
        return sum((e.a == i) + (e.b == i) for e in self.edges)


def spanning_tree_count(graph):
    """Kirchhoff's count, the determinant of the reduced Laplacian: the
    order of the critical group."""
    n = len(graph.vertices)
    lap = [[0] * n for _ in range(n)]
    for e in graph.edges:
        lap[e.a][e.a] += 1
        lap[e.b][e.b] += 1
        lap[e.a][e.b] -= 1
        lap[e.b][e.a] -= 1
    return _det_int([row[:-1] for row in lap[:-1]])


def edge_graph(q):
    return FakeGraph(q, [q**2 - 1, q**2 - 1], [(0, 1)])


def banana_graph(q):
    return FakeGraph(q, [q - 1, q - 1], [(0, 1)] * (q + 1))


def star_tree_q4():
    # two adjacent centers of degree 5, four leaves hanging off each
    pairs = [(0, 1)]
    pairs += [(0, k) for k in range(2, 6)]
    pairs += [(1, k) for k in range(6, 10)]
    stabs = [3, 3] + [15] * 8
    return FakeGraph(4, stabs, pairs)


def test_irreducible_counts_against_enumeration():
    for p, e in ((2, 1), (3, 1), (2, 2)):
        fld = make_field(p, e)
        q = fld.q
        for d in range(1, 5):
            found = sum(
                1
                for f in polys_upto(fld, d)
                if f.deg == d and f.is_monic and is_irreducible(f)
            )
            assert count_monic_irreducibles(q, d) == found


def test_irreducible_count_values():
    assert count_monic_irreducibles(2, 1) == 2
    assert count_monic_irreducibles(2, 2) == 1
    assert count_monic_irreducibles(2, 3) == 2
    assert count_monic_irreducibles(2, 4) == 3
    assert count_monic_irreducibles(3, 2) == 3
    assert count_monic_irreducibles(4, 2) == 6
    assert count_monic_irreducibles(9, 1) == 9


def test_profile_validation():
    with pytest.raises(InvalidProfile, match="q = 6 is not a prime power"):
        RamProfile(6, (1, 1))
    with pytest.raises(InvalidProfile, match="q = 1 is not a prime power"):
        RamProfile(1, (1, 1))
    with pytest.raises(InvalidProfile):
        RamProfile(3, (1, 1, 1))
    with pytest.raises(InvalidProfile, match="no ramified places"):
        RamProfile(3, ())
    with pytest.raises(InvalidProfile):
        RamProfile(3, (0, 1))
    assert RamProfile(9, (1, 1)).degrees == (1, 1)
    assert RamProfile(3, (2, 1)).degrees == (1, 2)


def test_realizability():
    assert RamProfile(2, (1, 1)).realizable()
    assert not RamProfile(2, (1, 1, 1, 1)).realizable()
    assert RamProfile(4, (1, 1, 1, 1)).realizable()
    assert not RamProfile(3, (2, 2, 2, 2)).realizable()
    assert not RamProfile(2, (2, 2)).realizable()


def test_two_rational_places():
    for q in (2, 3, 4, 5, 7, 8, 9):
        r = RamProfile(q, (1, 1))
        assert wp(r) == 1
        assert genus(r) == 0
        assert v1(r) == 2
        assert vq1(r) == 0
        assert edges(r) == 1
        assert euler_check(r)
        assert eichler_count(r) == 4


def test_four_rational_places_q4():
    r = RamProfile(4, (1, 1, 1, 1))
    assert wp(r) == 1
    assert genus(r) == 0
    assert v1(r) == 8
    assert vq1(r) == 2
    assert edges(r) == 9
    assert euler_check(r)
    assert eichler_count(r) == 16


def test_degree_one_two_profile():
    r = RamProfile(3, (1, 2))
    assert wp(r) == 0
    assert genus(r) == 3
    assert v1(r) == 0
    assert vq1(r) == 2
    assert edges(r) == 4
    assert euler_check(r)
    assert eichler_count(r) == 0
    for q in (5, 7, 9):
        assert genus(RamProfile(q, (1, 2))) == q


def test_sweep_integrality_and_euler():
    profiles = sweep_profiles()
    assert len(profiles) > 100
    zero_genus = set()
    for r in profiles:
        assert r.realizable()
        g = genus(r)
        assert vq1(r) >= 0
        assert euler_check(r)
        if g == 0:
            zero_genus.add((r.q, r.degrees))
    want = {(q, (1, 1)) for q in (2, 3, 4, 5, 7, 8, 9)}
    want.add((4, (1, 1, 1, 1)))
    assert zero_genus == want


def test_graph_h1():
    assert graph_h1(edge_graph(3)) == 0
    assert graph_h1(banana_graph(3)) == 3
    assert graph_h1(star_tree_q4()) == 0
    disconnected = FakeGraph(3, [2, 2, 2], [(0, 1)])
    with pytest.raises(ValueError):
        graph_h1(disconnected)


def test_smooth_point_criterion():
    assert smooth_point_criterion(edge_graph(3))
    assert not smooth_point_criterion(banana_graph(3))
    assert smooth_point_criterion(star_tree_q4())


def test_smith_normal_form_basics():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]
    assert smith_normal_form([[4, 0], [0, 2]]) == [2, 4]
    assert smith_normal_form([[2, 1], [1, 2]]) == [1, 3]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[2, 0, 0], [0, 3, 0]]) == [1, 6]
    assert smith_normal_form([[6]]) == [6]
    assert smith_normal_form([[-3]]) == [3]


def minor_gcd_invariants(m):
    """Oracle: invariant factors as quotients of k-minor gcds."""
    from itertools import combinations
    from math import gcd

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            sign = -1 if j % 2 else 1
            rest = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += sign * sub[0][j] * det(rest)
        return total

    rows, cols = len(m), len(m[0])
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, det([[m[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_smith_normal_form_against_minor_gcds():
    rng = random.Random(37)
    for _ in range(40):
        rows = rng.randrange(2, 4)
        cols = rng.randrange(2, 4)
        m = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(m) == minor_gcd_invariants(m), m


def test_critical_group_examples():
    assert critical_group(banana_graph(3)) == [4]
    assert critical_group(edge_graph(3)) == []
    triangle = FakeGraph(2, [1, 1, 1], [(0, 1), (1, 2), (0, 2)])
    assert critical_group(triangle) == [3]


def test_critical_group_order_is_tree_count():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(3, 6)
        pairs = [(i, rng.randrange(i)) for i in range(1, n)]
        for _ in range(rng.randrange(1, 5)):
            a, b = rng.sample(range(n), 2)
            pairs.append((min(a, b), max(a, b)))
        g = FakeGraph(2, [1] * n, pairs)
        prod = 1
        for d in critical_group(g):
            prod *= d
        assert prod == spanning_tree_count(g)


def test_cross_check_matching():
    rep = cross_check(RamProfile(3, (1, 1)), edge_graph(3))
    assert rep.ok()
    d = rep.to_dict()
    assert d["V1"] == 2 and d["E"] == 1 and d["genus"] == 0
    assert d["graph"]["h1"] == 0
    assert all(d["checks"].values())

    rep2 = cross_check(RamProfile(3, (1, 2)), banana_graph(3))
    assert rep2.ok()
    assert rep2.to_dict()["graph"]["degrees"] == [4, 4]

    rep3 = cross_check(RamProfile(4, (1, 1, 1, 1)), star_tree_q4())
    assert rep3.ok()


def test_cross_check_mismatch_detected():
    rep = cross_check(RamProfile(3, (1, 1)), banana_graph(3))
    assert not rep.ok()
    assert not rep.checks["edges"]
    assert not rep.checks["smooth_matches_wp"]


def test_report_schema_keys():
    d = Report(RamProfile(3, (1, 1)), edge_graph(3)).to_dict()
    assert sorted(d) == [
        "E",
        "R",
        "V1",
        "Vq1",
        "checks",
        "eichler",
        "genus",
        "graph",
        "q",
        "wp",
    ]


OPTIMIZED_INVARIANT_CHECKS = """
import sys
from btquot import invariants
from btquot.errors import InvariantViolation
from btquot.gfpoly import Place, Poly, make_field
if __debug__:
    sys.exit("asserts are enabled; expected python -O")
invariants.v1 = lambda profile: 0
try:
    invariants.eichler_count(invariants.RamProfile(3, (1, 1)))
except InvariantViolation as exc:
    print(exc)
T = Poly.T(make_field(3))
try:
    Place.finite(T * (T + 1))
except InvariantViolation as exc:
    print(exc)
"""


def test_invariant_checks_raise_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(btquot.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_INVARIANT_CHECKS],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == (
        "Eichler count 4 is not twice V1 = 0\nT^2+T is not irreducible\n"
    )


# Names of the working-precision state that the derived precision replaced.
PRECISION_STATE = {
    "DEFAULT_PREC", "MAX_PREC", "_PREC", "current_precision", "working_precision",
}


def _caught(handler):
    """The exception names an except clause lists."""
    if handler.type is None:
        return []
    elts = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [e.id if isinstance(e, ast.Name) else getattr(e, "attr", None) for e in elts]


def test_package_has_no_bare_asserts():
    # Internal checks raise InvariantViolation: an assert vanishes under
    # python -O, and an AssertionError escapes the CLI's exit-code mapping.
    # The one place that turns a PrecisionLoss into InvariantViolation is
    # quotient.build_quotient, and no working-precision state is left.
    pkg = os.path.dirname(os.path.abspath(btquot.__file__))
    found = []
    catches = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append("%s:%d" % (name, node.lineno))
            elif isinstance(node, ast.Assert):
                found.append("%s:%d" % (name, node.lineno))
            elif isinstance(node, ast.ExceptHandler) and "PrecisionLoss" in _caught(node):
                catches.append((name, node.lineno))
            elif isinstance(node, ast.FunctionDef) and node.name == "build_quotient":
                home = (name, node.lineno, node.end_lineno)
            spelled = (
                getattr(node, "id", None) or getattr(node, "attr", None)
                or getattr(node, "name", None) or getattr(node, "asname", None)
            )
            if spelled in PRECISION_STATE:
                found.append("%s:%d %s" % (name, getattr(node, "lineno", 0), spelled))
    assert found == []
    assert len(catches) == 1
    (where, line), = catches
    assert where == home[0] and home[1] < line <= home[2]
