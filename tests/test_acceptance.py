"""End-to-end acceptance checks.

Each test is one numbered criterion; the terminal summary prints a
pass/fail line per criterion (see conftest.py).  Budgets are asserted
with wall-clock timings where a criterion states one.
"""

import random
import time

import pytest

from btquot.bttree import Mat2K, TreeVertex, act, canonical_form
from btquot.errors import Unsupported
from btquot.gfpoly import Poly, choose_xi, field_from_q, parse_poly
from btquot.invariants import (
    critical_group,
    edges,
    euler_check,
    genus,
    graph_h1,
    smooth_point_criterion,
    sweep_profiles,
    v1,
    vq1,
    wp,
)
from btquot.laurent import LaurentSeries, embed
from btquot.order import StandardOrder, solve_torsion, torsion_classes
from btquot.quat import QuatAlgebra
from btquot.quotient import (
    SplitEmbedding,
    are_equivalent,
    build_quotient,
    find_quotient_algebra,
)

from conftest import distance


def segment_algebra(q):
    fld = field_from_q(q)
    xi = Poly.const(fld, choose_xi(fld))
    return QuatAlgebra(fld, xi, parse_poly(fld, "T*(T-1)"))


def ball(fld, radius):
    seen = {TreeVertex.base(fld)}
    frontier = list(seen)
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in v.neighbors():
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def bfs_depths(start, radius):
    depth = {start: 0}
    frontier = [start]
    for d in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for w in v.neighbors():
                if w not in depth:
                    depth[w] = d
                    nxt.append(w)
        frontier = nxt
    return depth


def rand_vertex(rng, fld):
    n = rng.randrange(-3, 4)
    width = rng.randrange(0, 6)
    cs = [rng.randrange(fld.q) for _ in range(width)]
    return TreeVertex(fld, n, LaurentSeries(fld, n - width, cs, True))


def rand_invertible(rng, fld, deg=2):
    while True:
        entries = [
            embed(Poly(fld, [rng.randrange(fld.q) for _ in range(deg + 1)]))
            for _ in range(4)
        ]
        m = Mat2K(*entries)
        if not m.det().is_zero:
            return m


def rand_gl2o(rng, fld, steps=4):
    one = LaurentSeries.one(fld)
    zero = LaurentSeries.zero(fld)
    m = Mat2K.identity(fld)
    for _ in range(steps):
        s = LaurentSeries(fld, 0, [rng.randrange(fld.q) for _ in range(4)], True)
        kind = rng.randrange(3)
        if kind == 0:
            e = Mat2K(one, s, zero, one)
        elif kind == 1:
            e = Mat2K(one, zero, s, one)
        else:
            c = LaurentSeries.scalar(fld, rng.randrange(1, fld.q))
            e = Mat2K(c, zero, zero, one)
        m = m * e
    return m


def rand_even_det(rng, fld):
    """Random invertible matrix whose determinant has even valuation."""
    m = rand_invertible(rng, fld)
    if m.det().ord() % 2:
        one = LaurentSeries.one(fld)
        zero = LaurentSeries.zero(fld)
        m = m * Mat2K(LaurentSeries.monomial(fld, 1), zero, zero, one)
    return m


def mat_agrees(m, n):
    return all(x.agrees_with(y) for x, y in zip(m.entries(), n.entries()))


@pytest.fixture(scope="module")
def segment_quotients():
    out = {}
    for q in (3, 5, 7):
        t0 = time.perf_counter()
        graph = build_quotient(segment_algebra(q))
        out[q] = (graph, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def hyperelliptic_quotient():
    t0 = time.perf_counter()
    alg = find_quotient_algebra(field_from_q(3), [1, 2])
    graph = build_quotient(alg)
    return graph, time.perf_counter() - t0


def test_acceptance_1_formula_sweep_genus_zero():
    t0 = time.perf_counter()
    profiles = sweep_profiles(qs=(2, 3, 4, 5, 7, 8, 9))
    assert profiles
    zero = set()
    for p in profiles:
        for fn in (genus, v1, vq1, edges):
            assert isinstance(fn(p), int)
        assert euler_check(p)
        if genus(p) == 0:
            zero.add((p.q, tuple(p.degrees)))
    expected = {(q, (1, 1)) for q in (2, 3, 4, 5, 7, 8, 9)}
    expected.add((4, (1, 1, 1, 1)))
    assert zero == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        "criterion 1: %d profiles, Euler identity everywhere, genus 0 only for"
        " the {1,1} profiles and q=4 {1,1,1,1} (%.3fs)" % (len(profiles), elapsed)
    )


def test_acceptance_2_segment_quotients(segment_quotients):
    for q in (3, 5, 7):
        graph, elapsed = segment_quotients[q]
        assert len(graph.vertices) == 2
        assert len(graph.edges) == 1
        assert [v.stabilizer_order for v in graph.vertices] == [q * q - 1] * 2
        assert graph.edges[0].stabilizer_order == q - 1
        assert elapsed < 60.0
        print(
            "criterion 2: q=%d gives 2 vertices, 1 edge, stabilizers %d/%d,"
            " edge stabilizer %d (%.2fs)"
            % (q, q * q - 1, q * q - 1, q - 1, elapsed)
        )


def test_acceptance_3_hyperelliptic_quotient(hyperelliptic_quotient):
    graph, elapsed = hyperelliptic_quotient
    assert len(graph.vertices) == 2
    assert len(graph.edges) == 4
    assert all(e.a != e.b for e in graph.edges)
    assert graph_h1(graph) == 3
    assert genus(graph.profile) == 3
    assert [v.stabilizer_order for v in graph.vertices] == [2, 2]
    assert [graph.degree(i) for i in range(2)] == [4, 4]
    assert critical_group(graph) == [4]
    assert elapsed < 300.0
    print(
        "criterion 3: degrees {1,2} give 2 vertices, 4 parallel edges, h1=3,"
        " critical group Z/4 (%.2fs)" % elapsed
    )


def test_acceptance_4_torsion_census_pairing(segment_quotients):
    t0 = time.perf_counter()
    alg = segment_algebra(3)
    fld = alg.field
    order = StandardOrder(alg)
    units = solve_torsion(order, 2)
    classes = torsion_classes(order, units)
    assert len(classes) == 4
    elems = set(units)
    theta1 = alg.elem(0, 1, 0, 0)
    theta2 = alg.elem(0, parse_poly(fld, "2*T - 1"), 0, 2)
    assert theta1 in elems
    assert theta2 in elems

    graph, _ = segment_quotients[3]
    emb = SplitEmbedding(alg)
    terminals = [v for v in graph.vertices if graph.degree(v.index) == 1]
    assert len(terminals) == 2
    fibers = {v.index: 0 for v in terminals}
    search = ball(fld, 4)
    for cl in classes:
        fixed = [v for v in search if emb.act(cl[0], v) == v]
        assert len(fixed) == 1
        hits = [v for v in terminals if are_equivalent(emb, fixed[0], v.lift)]
        assert len(hits) == 1
        fibers[hits[0].index] += 1
    assert sorted(fibers.values()) == [2, 2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        "criterion 4: %d torsion units in 4 classes, two classes per terminal"
        " vertex (%.2fs)" % (len(units), elapsed)
    )


def test_acceptance_5_explicit_generator_orders():
    alg = segment_algebra(3)
    fld = alg.field
    emb = SplitEmbedding(alg)
    theta1 = alg.elem(0, 1, 0, 0)
    theta2 = alg.elem(0, parse_poly(fld, "2*T - 1"), 0, 2)
    ident = Mat2K.identity(fld)
    minus = -ident
    for theta in (theta1, theta2):
        m = emb.matrix(alg.one - theta, 64)
        powers = [m]
        for _ in range(7):
            powers.append(powers[-1] * m)
        assert mat_agrees(powers[3], minus)
        assert mat_agrees(powers[7], ident)
        for k in range(7):
            assert not mat_agrees(powers[k], ident)
    print(
        "criterion 5: both 1-theta images have fourth power -1 and"
        " multiplicative order exactly 8"
    )


def test_acceptance_6_tree_property_suite():
    rng = random.Random(60)
    fld = field_from_q(3)

    for _ in range(1000):
        g = rand_even_det(rng, fld)
        v = rand_vertex(rng, fld)
        assert distance(v, act(g, v)) % 2 == 0

    zero = LaurentSeries.zero(fld)
    for _ in range(1000):
        m = rand_invertible(rng, fld)
        gamma = rand_gl2o(rng, fld)
        scal = LaurentSeries.monomial(
            fld, rng.randrange(-3, 4), rng.randrange(1, fld.q)
        )
        scaled = Mat2K(scal, zero, zero, scal) * m
        assert canonical_form(scaled * gamma) == canonical_form(m)

    base = TreeVertex.base(fld)
    depth = bfs_depths(base, 4)
    assert len(depth) == 161
    for v, d in depth.items():
        assert distance(base, v) == d
        assert distance(v, base) == d
    print(
        "criterion 6: 1000 even displacements, 1000 canonical-form"
        " invariances, closed-form distance matches BFS on 161 vertices"
    )


def test_acceptance_7_rational_point_criterion(
    segment_quotients, hyperelliptic_quotient
):
    graphs = [segment_quotients[q][0] for q in (3, 5, 7)]
    graphs.append(hyperelliptic_quotient[0])
    for graph in graphs:
        assert smooth_point_criterion(graph) == (wp(graph.profile) == 1)
    print(
        "criterion 7: smooth-point criterion matches the all-degrees-odd"
        " indicator on all four quotients"
    )


def _int_code(fld, n):
    code = 0
    for _ in range(abs(n)):
        code = fld.add(code, 1)
    return code if n >= 0 else fld.neg(code)


def test_acceptance_8_maximality_certificates():
    rng = random.Random(88)
    for q in (3, 5, 7, 9, 2, 4):
        fld = field_from_q(q)
        xi = Poly.const(fld, choose_xi(fld))
        minus16 = Poly.const(fld, _int_code(fld, -16))
        for deg in range(7):
            for _ in range(3):
                cs = [rng.randrange(fld.q) for _ in range(deg)]
                cs.append(rng.randrange(1, fld.q))
                r = Poly(fld, cs)
                got = StandardOrder(QuatAlgebra(fld, xi, r)).gram_disc()
                if fld.p == 2:
                    assert got == r * r
                else:
                    assert got == minus16 * xi * xi * r * r

    certified = [segment_algebra(q) for q in (3, 5, 7)]
    certified.append(find_quotient_algebra(field_from_q(3), [1, 2]))
    for q, rtext in ((2, "T^2+T"), (4, "T^4+T")):
        fld = field_from_q(q)
        xi = Poly.const(fld, choose_xi(fld))
        certified.append(QuatAlgebra(fld, xi, parse_poly(fld, rtext)))
    for alg in certified:
        assert StandardOrder(alg).certify_maximal()
    print(
        "criterion 8: discriminant closed form verified through degree 6"
        " and all %d acceptance algebras certify maximal" % len(certified)
    )


def test_acceptance_9_even_q_torsion():
    t0 = time.perf_counter()
    fld2 = field_from_q(2)
    alg2 = QuatAlgebra(fld2, Poly.const(fld2, choose_xi(fld2)),
                       parse_poly(fld2, "T^2+T"))
    units2 = solve_torsion(StandardOrder(alg2), 2)
    elems2 = set(units2)
    assert alg2.elem(Poly.T(fld2), 1, 1, 0) in elems2

    fld4 = field_from_q(4)
    alg4 = QuatAlgebra(fld4, Poly.const(fld4, choose_xi(fld4)),
                       parse_poly(fld4, "T^4+T"))
    units4 = solve_torsion(StandardOrder(alg4), 2)
    elems4 = set(units4)
    xi4 = choose_xi(fld4)
    family = set()
    for zc in range(4):
        for wc in range(4):
            if zc == 0 and wc == 0:
                continue
            z, w = Poly.const(fld4, zc), Poly.const(fld4, wc)
            alpha = (z * z + z * w + Poly.const(fld4, xi4) * w * w).coeff(0)
            s = fld4.sqrt_(alpha)
            for m in (0, 1):
                x = Poly(fld4, (m, fld4.mul(s, s), s))
                family.add(alg4.elem(x, 1, z, w))
    assert len(family) == 30
    for el in family:
        assert el in elems4

    with pytest.raises(Unsupported) as err:
        build_quotient(alg2)
    assert "odd q" in str(err.value)
    elapsed = time.perf_counter() - t0
    print(
        "criterion 9: q=2 census contains T+i+j, q=4 census contains all 30"
        " closed-family members, even-q quotient refuses (%.2fs)" % elapsed
    )
