import os
import random
import subprocess
import sys
from itertools import product

import pytest

import btquot
from btquot import quotient
from btquot.cli import _algebra_from, build_parser, main
from btquot.bttree import Mat2K, TreeVertex, act, base_distance, canonical_form
from btquot.errors import (
    InvariantViolation,
    NonterminationGuard,
    NotASquare,
    PrecisionLoss,
    StabilizerAnomalousOrder,
    Unsupported,
)
from btquot.gfpoly import (
    Poly,
    choose_xi,
    field_from_q,
    is_irreducible,
    make_field,
    parse_poly,
)
from btquot.invariants import (
    count_monic_irreducibles,
    critical_group,
    cross_check,
    graph_h1,
    sweep_profiles,
    v1,
    vq1,
)
from btquot.laurent import MIN_TERMS, LaurentSeries, embed
from btquot.linalg import nullspace
from btquot.order import (
    NoWitness,
    StandardOrder,
    Witness,
    census_index,
    constant_unit_orbits,
    power_cycle,
    solve_torsion,
    span_units,
    torsion_classes,
)
from btquot.quat import QuatAlgebra, QuatElem, ramified_set
from btquot.quotient import (
    QVertex,
    SplitEmbedding,
    StabilizerGroup,
    are_equivalent,
    build_quotient,
    completeness_bound,
    coordinate_degree,
    find_quotient_algebra,
    hom_units,
    series_terms,
    stabilizer,
    terminal_classes,
)

from conftest import (
    census_key,
    coord_key,
    distance,
    midpoint,
    parse_algebra,
    sorted_units,
    unit_list,
)
from test_cli import PINNED_ARTIFACTS, PINNED_TORSION

# Terms of sqrt(b) for the tests that build matrices by hand.
TERMS = 40


def segment_algebra(q=3):
    fld = make_field(q)
    if q == 3:
        return parse_algebra(fld, "H(2, T^2 + 2*T)")
    if q == 5:
        return parse_algebra(fld, "H(2, T^2 + 4*T)")
    raise ValueError(q)


def banana_algebra():
    fld = make_field(3)
    return parse_algebra(fld, "H(T, T^2 + T + 2)")


def theta2(alg):
    fld = alg.field
    return alg.elem(0, parse_poly(fld, "2*T + 2"), 0, 2)


def rand_elem(rng, alg, deg=1):
    fld = alg.field
    co = [
        Poly(fld, [rng.randrange(fld.q) for _ in range(deg + 1)])
        for _ in range(4)
    ]
    return alg.elem(*co)


def test_embedding_relations():
    rng = random.Random(11)
    for alg in (segment_algebra(), banana_algebra(), segment_algebra(5)):
        emb = SplitEmbedding(alg)
        ident, mi, mj, mij = emb.images(TERMS)
        a_ser = embed(alg.a)
        b_ser = embed(alg.b)
        zero = LaurentSeries.zero(alg.field)
        a_ident = Mat2K(a_ser, zero, zero, a_ser) * ident
        b_ident = Mat2K(b_ser, zero, zero, b_ser) * ident
        for got, want in zip((mi * mi).entries(), a_ident.entries()):
            assert got.agrees_with(want)
        for got, want in zip((mj * mj).entries(), b_ident.entries()):
            assert got.agrees_with(want)
        for got, want in zip((mi * mj).entries(), (-(mj * mi)).entries()):
            assert got.agrees_with(want)
        for got, want in zip((mi * mj).entries(), mij.entries()):
            assert got.agrees_with(want)
        for _ in range(8):
            lam = rand_elem(rng, alg)
            mu = rand_elem(rng, alg)
            assert emb.matrix(lam, TERMS).det().agrees_with(embed(lam.norm()))
            prodm = emb.matrix(lam, TERMS) * emb.matrix(mu, TERMS)
            for got, want in zip(prodm.entries(), emb.matrix(lam * mu, TERMS).entries()):
                assert got.agrees_with(want)
            summ = emb.matrix(lam, TERMS) + emb.matrix(mu, TERMS)
            for got, want in zip(summ.entries(), emb.matrix(lam + mu, TERMS).entries()):
                assert got.agrees_with(want)


def test_embedding_trace():
    alg = segment_algebra()
    emb = SplitEmbedding(alg)
    rng = random.Random(13)
    for _ in range(6):
        lam = rand_elem(rng, alg)
        m = emb.matrix(lam, TERMS)
        assert (m.a + m.d).agrees_with(embed(lam.trace()))


def transfer_rows(alg):
    """Rows mapping matrix entries (m11, m12, m21, m22) back to coords."""
    fld = alg.field
    s = embed(alg.b).sqrt(TERMS)
    zero = LaurentSeries.zero(fld)
    half = LaurentSeries.scalar(fld, fld.inv(2))
    a_inv = embed(alg.a).inverse(TERMS)
    inv_2s = half * s.inverse()
    return (
        (half, zero, zero, half),
        (zero, half, half * a_inv, zero),
        (inv_2s, zero, zero, -inv_2s),
        (zero, -inv_2s, inv_2s * a_inv, zero),
    )


def test_embedding_coords_roundtrip():
    # The transfer rows invert the embedding entrywise, and none has a
    # coefficient of negative valuation: completeness_bound adds no
    # constant for them.
    rng = random.Random(17)
    alg = segment_algebra()
    emb = SplitEmbedding(alg)
    zero = LaurentSeries.zero(alg.field)
    rows = transfer_rows(alg)

    def coords(mat):
        return [
            sum((c * e for c, e in zip(row, mat.entries())), zero)
            for row in rows
        ]

    for _ in range(6):
        lam = rand_elem(rng, alg, deg=2)
        got = coords(emb.matrix(lam, TERMS))
        for series, poly in zip(got, lam.coords):
            assert series.agrees_with(embed(poly))
    for q, a, b in (
        (3, "2", "T^2 + 2*T"),
        (3, "T", "T^2 + T + 2"),
        (3, "T^3 + 2*T + 1", "T^2 + 1"),
        (3, "T^2 + T + 2", "T^4 + T^3 + T^2 + T"),
        (5, "T^2 + 3*T", "T^2 + 3*T + 2"),
        (7, "3", "T^2 + 6*T"),
        (9, "4", "T^2 + T"),
        (11, "2", "T^2 + 10*T"),
    ):
        fld = field_from_q(q)
        alg = QuatAlgebra(fld, parse_poly(fld, a), parse_poly(fld, b))
        for row in transfer_rows(alg):
            assert all(c.is_zero or c.ord() >= 0 for c in row)


def test_embedding_even_q_unsupported():
    fld = make_field(2)
    alg = parse_algebra(fld, "H(1, T^2 + T)")
    with pytest.raises(Unsupported):
        SplitEmbedding(alg)


def test_embedding_needs_square():
    fld = make_field(3)
    alg = parse_algebra(fld, "H(2, T)")
    with pytest.raises(NotASquare):
        SplitEmbedding(alg)


def test_completeness_bound_values():
    fld = make_field(3)
    base = TreeVertex.base(fld)
    assert completeness_bound(base, base) == 0
    v = TreeVertex(fld, -1)
    assert completeness_bound(v, v) == 1
    assert completeness_bound(base, v) == 0
    deep = TreeVertex(fld, 2, LaurentSeries.monomial(fld, 1))
    assert completeness_bound(deep, v) == 1  # distances 2 and 1


def test_theta2_matrix_shape():
    alg = segment_algebra()
    emb = SplitEmbedding(alg)
    m = emb.matrix(theta2(alg), TERMS)
    assert m.a.is_zero and m.d.is_zero
    assert sorted((m.b.ord(), m.c.ord())) == [-1, 1]
    xi = embed(Poly.const(alg.field, 2))
    assert (m.b * m.c).agrees_with(xi)
    assert m.det().agrees_with(-xi)


def test_stabilizer_base_q3():
    alg = segment_algebra()
    emb = SplitEmbedding(alg)
    fld = alg.field
    base = TreeVertex.base(fld)
    group = stabilizer(emb, base)
    assert group.order == 8
    elements = unit_list(emb, base, base, completeness_bound(base, base))
    assert alg.i in elements
    assert alg.one in elements
    assert alg.elem(2) in elements
    for g in elements[:3]:
        assert emb.act(g, base) == base
    orbits = group.neighbor_orbits(emb, base)
    assert [sorted(orbit) for orbit in orbits] == [[0, 1, 2, 3]]
    assert_generator_order(emb, group, base, orbits)


def test_stabilizer_neighbors_of_base():
    alg = segment_algebra()
    emb = SplitEmbedding(alg)
    for n, holds_theta2 in ((1, True), (-1, False)):
        v = TreeVertex(alg.field, n)
        assert stabilizer(emb, v).order == 8
        elements = unit_list(emb, v, v, completeness_bound(v, v))
        assert (theta2(alg) in elements) == holds_theta2


def test_hom_units_identity_example():
    alg = segment_algebra()
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(alg.field)
    assert len(hom_units(emb, base, base, 1)) == 2
    found = unit_list(emb, base, base, 1)
    assert len(found) == 8
    assert alg.i in found
    for lam in found:
        nr = lam.norm()
        assert nr.is_const and not nr.is_zero


def test_hom_units_pi_lattice_example():
    alg = segment_algebra()
    fld = alg.field
    emb = SplitEmbedding(alg)
    s = embed(alg.b).sqrt(TERMS)
    pi = embed(parse_poly(fld, "2*T + 2")) + LaurentSeries.scalar(fld, 2) * s
    assert pi.ord() == -1
    u_mat = Mat2K(
        pi.inverse(),
        LaurentSeries.zero(fld),
        LaurentSeries.zero(fld),
        LaurentSeries.one(fld),
    )
    v = canonical_form(u_mat)
    assert len(hom_units(emb, v, v, 1)) == 2
    found = unit_list(emb, v, v, 1)
    assert len(found) == 8
    assert theta2(alg) in found


def test_hom_units_parity_empty():
    alg = segment_algebra()
    fld = alg.field
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(fld)
    parent = TreeVertex(fld, -1)
    assert hom_units(emb, base, parent, 3) == []


def reference_hom_units(emb, v, w, B, terms):
    """hom_units with the constraint system assembled from full series
    products, one shifted copy of each core per degree k, at `terms` terms
    of sqrt(b) and with m from the determinants."""
    alg = emb.alg
    fld = alg.field
    if B < 0:
        return []
    U, V = v.matrix(), w.matrix()
    diff = U.det().ord() - V.det().ord()
    if diff % 2:
        return []
    m = diff // 2
    vinv = V.inverse()
    zero = LaurentSeries.zero(fld)
    cand = []
    for img in emb.images(terms):
        core = (vinv * img) * U
        for k in range(B + 1):
            s = LaurentSeries.monomial(fld, -k - m)
            cand.append((Mat2K(s, zero, zero, s) * core).entries())
    lo = 0
    for entries in cand:
        for e in entries:
            if not e.exact and e.prec_abs < 0:
                raise PrecisionLoss(
                    "lattice constraint entry known only to O(u^%d)" % e.prec_abs
                )
            if not e.is_zero:
                lo = min(lo, e.val)
    rows = []
    for pos in range(4):
        for t in range(lo, 0):
            row = [entries[pos].coeff(t) for entries in cand]
            if any(row):
                rows.append(row)
    kernel = nullspace(rows, len(cand), fld)
    width = B + 1
    out = []
    for combo in product(range(fld.q), repeat=len(kernel)):
        if not any(combo):
            continue
        vec = [0] * len(cand)
        for c, kv in zip(combo, kernel):
            if c:
                vec = [fld.add(x, fld.mul(c, y)) for x, y in zip(vec, kv)]
        coords = [
            Poly(fld, vec[cix * width : (cix + 1) * width]) for cix in range(4)
        ]
        lam = alg.elem(*coords)
        nr = lam.norm()
        if not nr.is_const or nr.is_zero:
            continue
        out.append(lam)
    out.sort(key=lambda g: tuple(c.sort_key() for c in g.coords))
    return out


def rand_vertex(rng, fld, depth):
    n = rng.randrange(-depth, depth + 1)
    digits = [rng.randrange(fld.q) for _ in range(depth)]
    return TreeVertex(fld, n, LaurentSeries(fld, n - depth, digits, True))


def test_hom_units_matches_per_degree_reference():
    # The reference runs at twice the derived precision; units are exact,
    # so both must return the same list.  Sibling families go through one
    # embedding, which shares one constraint system among the children of
    # a parent: all q children of each parent are searched against one w,
    # at the complete bound and one below and above it, so that siblings
    # meet the same (parent, w, terms) at different bounds.
    seen = set()
    for alg, pairs, depth, families, seed in (
        (segment_algebra(), 14, 3, 3, 61),
        (banana_algebra(), 10, 3, 3, 67),
        (segment_algebra(5), 5, 2, 1, 71),
    ):
        fld = alg.field
        rng = random.Random(seed)
        emb = SplitEmbedding(alg)
        base = TreeVertex.base(fld)
        todo = [
            (base, base),
            (base, TreeVertex(fld, 2)),
            (base, TreeVertex(fld, -1)),
            (TreeVertex(fld, -6), TreeVertex(fld, -6)),
        ]
        while len(todo) < pairs:
            v = rand_vertex(rng, fld, depth)
            todo.append((v, v if rng.random() < 0.2 else rand_vertex(rng, fld, depth)))
        for v, w in todo:
            bound = completeness_bound(v, w)
            got = unit_list(emb, v, w, bound)
            terms = 2 * series_terms(alg, bound, (v, w))
            assert got == reference_hom_units(emb, v, w, bound, terms)
            for lam in got:
                assert canonical_form(emb.matrix(lam, terms) * v.matrix()) == w
                assert emb.act(lam, v) == w
            diff = v.n - w.n
            seen.add(
                "stabilizer" if v == w
                else "odd" if diff % 2
                else "nonzero m" if diff
                else "zero m"
            )
            seen.add("found" if got else "empty")
        parents = [(TreeVertex(fld, -1), base), (TreeVertex(fld, -3), base)]
        while len(parents) < 2 + families:
            parents.append((rand_vertex(rng, fld, depth), rand_vertex(rng, fld, depth)))
        for parent, w in parents:
            children = parent.children()
            bounds = [completeness_bound(v, w) for v in children]
            for shift in (-1, 0, 1):
                for v, bound in zip(children, bounds):
                    got = unit_list(emb, v, w, bound + shift)
                    terms = 2 * series_terms(alg, bound + shift, (v, w))
                    assert got == reference_hom_units(emb, v, w, bound + shift, terms)
                    seen.add("sibling found" if got else "sibling empty")
    assert seen >= {
        "stabilizer", "odd", "nonzero m", "zero m", "found", "empty",
        "sibling found", "sibling empty",
    }


def test_hom_units_left_image_memo():
    # A fresh embedding (cold memo), a shared one's first call and its
    # repeat (warm memo) give the same answers; the memo holds one entry
    # per vertex and precision.
    alg = banana_algebra()
    fld = alg.field
    rng = random.Random(73)
    base = TreeVertex.base(fld)
    todo = [(base, base), (TreeVertex(fld, 2), base), (TreeVertex(fld, -6), base)]
    while len(todo) < 12:
        todo.append((rand_vertex(rng, fld, 3), rng.choice(todo)[1]))
        todo.append((rand_vertex(rng, fld, 3), rand_vertex(rng, fld, 2)))
    emb = SplitEmbedding(alg)
    for v, w in todo:
        bound = completeness_bound(v, w)
        cold = hom_units(SplitEmbedding(alg), v, w, bound)
        first = hom_units(emb, v, w, bound)
        warm = hom_units(emb, v, w, bound)
        assert cold == first == warm
    left_at = {}
    for terms in (64, 8):
        left = emb.left_images(base, terms)
        assert emb.left_images(base, terms) is left
        V = base.matrix()
        assert left == tuple(V.inverse() * img for img in emb.images(terms))
        left_at[terms] = left
    assert left_at[64] != left_at[8]


def test_are_equivalent_basics():
    alg = segment_algebra()
    fld = alg.field
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(fld)
    same = are_equivalent(emb, base, base)
    assert isinstance(same, Witness)
    assert same.lam == alg.one
    assert same.bound is None
    assert quotient._equivalence_event(0, same) == {
        "event": "equivalence", "class": 0, "outcome": "witness", "reason": "same vertex"
    }
    for nb in base.neighbors():
        verdict = are_equivalent(emb, base, nb)
        assert isinstance(verdict, NoWitness)
        assert not verdict


def test_are_equivalent_same_type_vertices():
    alg = segment_algebra()
    fld = alg.field
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(fld)
    sibling = TreeVertex(fld, 0, LaurentSeries.monomial(fld, -1))
    verdict = are_equivalent(emb, base, sibling)
    assert isinstance(verdict, Witness)
    assert emb.act(verdict.lam, base) == sibling
    deep = TreeVertex(fld, -2)
    verdict2 = are_equivalent(emb, base, deep)
    assert isinstance(verdict2, Witness)
    parity = are_equivalent(emb, base, TreeVertex(fld, -1))
    assert isinstance(parity, NoWitness) and parity.bound is None
    assert quotient._equivalence_event(2, parity) == {
        "event": "equivalence", "class": 2, "outcome": "no", "reason": "parity"
    }


def test_build_quotient_segment_q3():
    alg = segment_algebra()
    graph = build_quotient(alg)
    assert len(graph.vertices) == 2
    assert len(graph.edges) == 1
    assert [v.stabilizer_order for v in graph.vertices] == [8, 8]
    assert graph.edges[0].stabilizer_order == 2
    assert graph.degrees() == [1, 1]
    assert graph_h1(graph) == 0
    report = cross_check(graph.profile, graph)
    assert report.ok()
    events = [entry["event"] for entry in graph.log]
    assert events[0] == "start" and events[-1] == "done"
    d = graph.to_dict()
    assert d["ramified_degrees"] == [1, 1]
    assert len(d["vertices"]) == 2 and len(d["edges"]) == 1


def test_build_quotient_segment_q5():
    alg = segment_algebra(5)
    assert sorted(str(p.poly) for p in ramified_set(alg)) == ["T", "T+4"]
    graph = build_quotient(alg)
    assert len(graph.vertices) == 2
    assert len(graph.edges) == 1
    assert [v.stabilizer_order for v in graph.vertices] == [24, 24]
    assert graph.edges[0].stabilizer_order == 4


def test_build_quotient_banana():
    alg = banana_algebra()
    graph = build_quotient(alg)
    assert len(graph.vertices) == 2
    assert [v.stabilizer_order for v in graph.vertices] == [2, 2]
    assert len(graph.edges) == 4
    assert all((e.a, e.b) == (0, 1) for e in graph.edges)
    assert graph.degrees() == [4, 4]
    assert graph_h1(graph) == 3
    assert critical_group(graph) == [4]
    assert all(e.stabilizer_order == 2 for e in graph.edges)
    report = cross_check(graph.profile, graph)
    assert report.ok()
    assert not report.measured["smooth"]


def test_build_quotient_translated_base():
    alg = segment_algebra()
    fld = alg.field
    default = build_quotient(alg)
    moved = build_quotient(alg, base=TreeVertex(fld, 1))
    assert len(moved.vertices) == len(default.vertices)
    assert len(moved.edges) == len(default.edges)
    assert sorted(v.stabilizer_order for v in moved.vertices) == sorted(
        v.stabilizer_order for v in default.vertices
    )
    assert sorted(moved.degrees()) == sorted(default.degrees())
    assert [e.stabilizer_order for e in moved.edges] == [
        e.stabilizer_order for e in default.edges
    ]


# Six builds of q = 3, 5, 7 and 9 that the bound and precision proofs are
# checked on.
PROOF_CASES = [
    (3, "H(xi, T*(T-1))"),
    (5, "H(xi, T*(T-1))"),
    (7, "H(xi, T*(T-1))"),
    (3, "H(xi, T^4+2*T^2+T)"),
    (9, "H(4, T^2+T)"),
    (5, "H(T^2+3*T, T^2+3*T+2)"),
]


@pytest.mark.parametrize("q, text", PROOF_CASES)
def test_completeness_bound_needs_no_slack(q, text, monkeypatch):
    # Reference: the bound with the old margin of two on top.  Every unit
    # search a build makes returns the same units at both bounds.
    calls = []

    def with_margin(emb, v, w, B):
        got = hom_units(emb, v, w, B)
        assert sorted_units(emb.alg, got) == unit_list(emb, v, w, B + 2)
        calls.append(B)
        return got

    monkeypatch.setattr("btquot.quotient.hom_units", with_margin)
    alg = parse_algebra(field_from_q(q), text)
    graph = build_quotient(alg)
    assert calls
    assert all(cross_check(graph.profile, graph).to_dict()["checks"].values())


def test_build_quotient_work_is_pinned(monkeypatch):
    # The unit searches and eliminations of one V=26 build, counted.  A
    # cheaper assembly of the constraint rows must leave all of them alone.
    # Each search solves the two sibling rows on the kernel of a common
    # system, and the common system is built once per (parent, w, B, terms)
    # of the searches, so there are fewer systems than searches.
    counts = {"hom_units": 0, "units": 0, "nullspace": 0, "kernel_dim": 0, "cells": 0}
    searched, built = set(), []
    sibling_system = quotient._sibling_system

    def counted_hom_units(emb, v, w, B):
        got = hom_units(emb, v, w, B)
        counts["hom_units"] += 1
        counts["units"] += len(got)  # the kernel dimension
        if B >= 0 and (v.n - w.n) % 2 == 0:
            searched.add((v.parent(), w, B, series_terms(emb.alg, B, (v, w))))
        return got

    def counted_nullspace(rows, ncols, fld):
        kernel = nullspace(rows, ncols, fld)
        counts["nullspace"] += 1
        counts["kernel_dim"] += len(kernel)
        counts["cells"] += len(rows) * ncols
        return kernel

    def counted_system(emb, parent, w, B, terms):
        built.append((parent, w, B, terms))
        return sibling_system(emb, parent, w, B, terms)

    monkeypatch.setattr("btquot.quotient.hom_units", counted_hom_units)
    monkeypatch.setattr("btquot.quotient.nullspace", counted_nullspace)
    monkeypatch.setattr("btquot.quotient._sibling_system", counted_system)
    alg = parse_algebra(make_field(3), "H(T^3+2*T+1, T^2+1)")
    graph = build_quotient(alg)
    assert len(graph.vertices) == 26
    assert len(built) == len(set(built)) == 89
    assert set(built) == searched
    assert counts == {
        "hom_units": 173, "units": 53, "nullspace": 262, "kernel_dim": 156, "cells": 41408,
    }


def pair_half_edges(half_edges):
    """Edges from half-edges (source, target, stabilizer order): between
    classes a < b, as many edges as a has half-edges into b, which must be
    as many as b has into a, all with one stabilizer order."""
    by_pair = {}
    for src, dst, stab in half_edges:
        side = by_pair.setdefault((min(src, dst), max(src, dst)), {"out": {}, "stabs": set()})
        side["out"][src] = side["out"].get(src, 0) + 1
        side["stabs"].add(stab)
    edges = []
    for (a, b), side in sorted(by_pair.items()):
        counts = side["out"]
        assert counts.get(a, 0) == counts.get(b, 0), (a, b)
        assert len(side["stabs"]) == 1, (a, b)
        stab = side["stabs"].pop()
        for _ in range(counts[a]):
            edges.append(quotient.QEdge(len(edges), a, b, stab))
    return edges


def reference_bfs(emb, profile, base, class_limit, log):
    """The all-classes search: each neighbour orbit is tested against every
    representative from class 0 up, so each edge is looked up from both
    ends, and the half-edges are paired by counting (pair_half_edges)."""
    fld = emb.alg.field
    if base is None:
        base = TreeVertex.base(fld)
    reps = [base]
    stabs = [stabilizer(emb, base)]
    half_edges = []
    cursor = 0
    while cursor < len(reps):
        vertex = reps[cursor]
        group = stabs[cursor]
        for orbit in group.neighbor_orbits(emb, vertex):
            nb = vertex.neighbors()[orbit[0]]
            target = None
            for j, other in enumerate(reps):
                if are_equivalent(emb, nb, other):
                    target = j
                    break
            if target is None:
                assert len(reps) < class_limit
                reps.append(nb)
                stabs.append(stabilizer(emb, nb))
                target = len(reps) - 1
            assert target != cursor
            half_edges.append((cursor, target, group.order // len(orbit)))
        cursor += 1
    vertices = [
        quotient.QVertex(i, reps[i], stabs[i].order, stabs[i].generator)
        for i in range(len(reps))
    ]
    edges = pair_half_edges(half_edges)
    return quotient.QuotientGraph(fld.q, emb.alg, profile, vertices, edges, log, emb, None)


# The seven seed-0 benchmark quotients, the two segments and the banana
# (q=3 --R-degrees 1,2).
REFERENCE_CASES = [
    (3, "H(xi, T^4+2*T^2+T)"),
    (3, "H(T^3+2*T+1, T^2+1)"),
    (3, "H(T^2+T+2, T^4+T^3+T^2+T)"),
    (7, "H(xi, T*(T-1))"),
    (9, "H(4, T^2+T)"),
    (11, "H(xi, T*(T-1))"),
    (5, "H(T^2+3*T, T^2+3*T+2)"),
    (3, "H(xi, T*(T-1))"),
    (5, "H(xi, T*(T-1))"),
    (3, "H(T, T^2+T+2)"),
]


@pytest.mark.parametrize("q, text", REFERENCE_CASES)
def test_bfs_matches_all_classes_reference(q, text, monkeypatch):
    alg = parse_algebra(field_from_q(q), text)
    graph = build_quotient(alg)
    monkeypatch.setattr("btquot.quotient._bfs", reference_bfs)
    reference = build_quotient(alg)
    assert graph.to_dict() == reference.to_dict()


@pytest.mark.parametrize(
    "q, text",
    [(3, "H(xi, T^4+2*T^2+T)"), (3, "H(T^3+2*T+1, T^2+1)"), (5, "H(T^2+3*T, T^2+3*T+2)")],
)
def test_bfs_looks_up_each_edge_once(q, text, monkeypatch):
    # Every test made while class c is expanded names a class above c.  An
    # edge a--b with a < b is looked up once from a, where the lookup ends
    # in a witness or in a new class, and settled once from b, naming a;
    # each equivalence event names the class it tests or settles.
    expanding = []
    tests = []

    def orbits(group, emb, vertex):
        expanding.append(vertex)
        return neighbor_orbits(group, emb, vertex)

    def counted(emb, v, w):
        verdict = are_equivalent(emb, v, w)
        tests.append((expanding[-1], w, bool(verdict)))
        return verdict

    neighbor_orbits = StabilizerGroup.neighbor_orbits
    monkeypatch.setattr(StabilizerGroup, "neighbor_orbits", orbits)
    monkeypatch.setattr("btquot.quotient.are_equivalent", counted)
    graph = build_quotient(parse_algebra(field_from_q(q), text))
    index = {v.lift: v.index for v in graph.vertices}
    assert expanding == [v.lift for v in graph.vertices]
    assert tests and all(index[w] > index[c] for c, w, _ in tests)
    events = [e for e in graph.log if e["event"] == "equivalence"]
    settled = [e["class"] for e in events if e.get("reason") == "reverse edge"]
    assert [e["class"] for e in events if e.get("reason") != "reverse edge"] == [
        index[w] for _, w, _ in tests
    ]
    assert sorted(settled) == sorted(e.a for e in graph.edges)
    looked_up = sum(found for _, _, found in tests) + len(graph.vertices) - 1
    assert len(settled) == looked_up == len(graph.edges)
    assert len(settled) + looked_up == sum(graph.degrees())


def test_bfs_rejects_two_reverse_edges_in_one_orbit(monkeypatch):
    # With the identity as every witness, class 0 records the base vertex
    # for class 1 once per lookup that finds it.
    def identity_witness(emb, v, w):
        verdict = are_equivalent(emb, v, w)
        return Witness(emb.alg.one, verdict.bound) if verdict else verdict

    monkeypatch.setattr("btquot.quotient.are_equivalent", identity_witness)
    with pytest.raises(
        InvariantViolation,
        match="reverse edges from classes 0 and 0 share a neighbour orbit of class 1",
    ):
        build_quotient(banana_algebra())


def test_bfs_rejects_reverse_edge_off_the_link(monkeypatch):
    # The identity carries nb's neighbour to a vertex at distance >= 2 from
    # w when d(nb, w) >= 3, so that record cannot lie on the link of w.
    def identity_when_far(emb, v, w):
        verdict = are_equivalent(emb, v, w)
        if verdict and distance(v, w) >= 3:
            return Witness(emb.alg.one, verdict.bound)
        return verdict

    monkeypatch.setattr("btquot.quotient.are_equivalent", identity_when_far)
    alg = parse_algebra(field_from_q(3), "H(xi, T^4+2*T^2+T)")
    with pytest.raises(
        InvariantViolation, match="reverse edge from class 3 is off the link of class 4"
    ):
        build_quotient(alg)


def test_bfs_rejects_edge_stabilizer_orders_that_differ_at_the_ends(monkeypatch):
    # Class 1 of the banana claims order 4 after its stabilizer is built:
    # its own orbits and fixers agree with that, but the four edges class 0
    # recorded into it have stabilizer order 2.
    built = []

    def doubled_after_base(emb, vertex):
        group = stabilizer(emb, vertex)
        if built:
            group.order *= 2
        built.append(group)
        return group

    monkeypatch.setattr("btquot.quotient.stabilizer", doubled_after_base)
    with pytest.raises(
        InvariantViolation,
        match="edge between classes 0 and 1 has stabilizer order 2 at class 0"
        " but 4 at class 1",
    ):
        build_quotient(banana_algebra())


def test_build_quotient_class_limit_guard(monkeypatch):
    # Guard factor 0 allows 2 classes; this profile has 8.
    monkeypatch.setattr("btquot.quotient.GUARD_FACTOR", 0)
    alg = parse_algebra(field_from_q(3), "H(xi, T^4+2*T^2+T)")
    with pytest.raises(NonterminationGuard, match="more than 2 vertex classes"):
        build_quotient(alg)


def test_precision_loss_raised_when_window_unreachable(monkeypatch):
    # At 8 terms of sqrt(b), far below what series_terms derives, the
    # search at a vertex six steps out cannot read its rows, also on an
    # embedding that already holds the system of that search at the
    # derived precision.
    alg = segment_algebra()
    far = TreeVertex(alg.field, -6)
    bound = completeness_bound(far, far)
    assert series_terms(alg, bound, [far]) > 8
    warm = SplitEmbedding(alg)
    assert len(unit_list(warm, far, far, bound)) == 8
    monkeypatch.setattr("btquot.quotient.series_terms", lambda alg, bound, vertices: 8)
    with pytest.raises(PrecisionLoss):
        stabilizer(SplitEmbedding(alg), far)
    with pytest.raises(PrecisionLoss):
        hom_units(warm, far, far, bound)


def test_canonical_form_pivot_next_to_exact_zero():
    # gamma has norm 2, and iota(gamma) V has a bottom-right entry that is
    # exactly zero in K beside a bottom-left entry of valuation 2.  Computed
    # to any precision the zero is only zero to O(u^p), so the pivot must
    # be chosen from the other entry's valuation.
    alg = segment_algebra()
    fld = alg.field
    emb = SplitEmbedding(alg)
    gamma = alg.elem(
        parse_poly(fld, "T + 1"), parse_poly(fld, "2*T + 2"), Poly.const(fld, 2), Poly.const(fld, 2)
    )
    assert gamma.norm() == Poly.const(fld, 2)
    v = TreeVertex(fld, 3, LaurentSeries.monomial(fld, 0, 2))
    derived = series_terms(alg, coordinate_degree(gamma), [v])
    for terms in (derived, 64, 256):
        m = emb.matrix(gamma, terms) * v.matrix()
        assert m.d.is_zero and not m.d.exact and m.c.ord() == 2
        moved = act(emb.matrix(gamma, terms), v)
        assert moved == emb.act(gamma, v)
        assert act(emb.matrix(gamma.conj(), terms), moved) == v
    assert emb.act(gamma.conj(), emb.act(gamma, v)) == v


@pytest.mark.parametrize("q, text", PROOF_CASES)
def test_derived_precision_suffices(q, text, monkeypatch):
    # Sufficiency oracle: at twice the derived precision every unit search
    # returns the same units and every action the same vertex, call by call.
    def run(scale):
        calls = []
        used = []

        def searched(emb, v, w, B):
            got = hom_units(emb, v, w, B)
            calls.append(("search", v, w, B, got))
            return got

        def acted(g, v):
            got = act(g, v)
            calls.append(("act", v, got))
            return got

        def reduced(m):
            got = canonical_form(m)
            calls.append(("form", got))
            return got

        def terms(alg, bound, vertices):
            used.append(scale * series_terms(alg, bound, vertices))
            return used[-1]

        monkeypatch.setattr("btquot.quotient.hom_units", searched)
        monkeypatch.setattr("btquot.quotient.act", acted)
        monkeypatch.setattr("btquot.quotient.canonical_form", reduced)
        monkeypatch.setattr("btquot.quotient.series_terms", terms)
        graph = build_quotient(parse_algebra(field_from_q(q), text))
        return graph.to_dict(), calls, used

    graph, calls, used = run(1)
    doubled, doubled_calls, doubled_used = run(2)
    assert doubled == graph
    kinds = {call[0] for call in calls}
    assert kinds == {"search", "act", "form"}
    assert doubled_calls == calls
    assert doubled_used == [2 * t for t in used]


@pytest.mark.parametrize("q, text", PROOF_CASES)
def test_every_nonzero_vector_of_a_space_is_a_transporter(q, text, monkeypatch):
    # hom_units proves that every nonzero element of its space is a unit
    # carrying v to w, so are_equivalent takes the first basis element as
    # its witness: the unit span_units yields first.
    spaces = {}
    witnesses = []

    def searched(emb, v, w, B):
        got = hom_units(emb, v, w, B)
        spaces[(v, w, B)] = (emb, got)
        return got

    def tested(emb, v, w):
        verdict = are_equivalent(emb, v, w)
        if verdict and verdict.bound is not None:
            witnesses.append((v, w, verdict))
        return verdict

    monkeypatch.setattr("btquot.quotient.hom_units", searched)
    monkeypatch.setattr("btquot.quotient.are_equivalent", tested)
    build_quotient(parse_algebra(field_from_q(q), text))
    assert spaces
    for v, w, verdict in witnesses:
        emb, space = spaces[(v, w, verdict.bound)]
        assert verdict.lam == next(span_units(emb.alg, space))
    for (v, w, _), (emb, space) in spaces.items():
        fld = emb.alg.field
        assert len(space) <= 2
        for coeffs in product(range(fld.q), repeat=len(space)):
            if not any(coeffs):
                continue
            lam = emb.alg.zero
            for c, g in zip(coeffs, space):
                lam = lam + g.scale(c)
            norm = lam.norm()
            assert norm.is_const and not norm.is_zero
            assert emb.act(lam, v) == w


def test_unit_search_space_above_dimension_two_exits_4(monkeypatch, capsys):
    # A transporter space has dimension at most 2 (hom_units); a larger one
    # is a broken invariant, not a resource limit.
    def three(rows, ncols, fld):
        return [[int(i == k) for i in range(ncols)] for k in range(3)]

    monkeypatch.setattr("btquot.quotient.nullspace", three)
    assert main(["quotient", "--q", "3", "--r", "T*(T-1)"]) == 4
    err = capsys.readouterr().err
    assert err == (
        "invariant violated: unit search space has dimension 3; at most 2 is"
        " proven\n"
    )


def test_build_quotient_too_small_precision_is_invariant_violation(monkeypatch, capsys):
    # A derived precision of MIN_TERMS is too small for this build; the
    # loss it causes is a broken invariant, reported once, with exit code 4.
    monkeypatch.setattr(
        "btquot.quotient.series_terms", lambda alg, bound, vertices: MIN_TERMS
    )
    alg = parse_algebra(field_from_q(3), "H(xi, T^4+2*T^2+T)")
    with pytest.raises(
        InvariantViolation,
        match=r"series precision lost at 8 terms of sqrt\(b\), derived for degree bound \d+: ",
    ) as caught:
        build_quotient(alg)
    assert isinstance(caught.value.__cause__, PrecisionLoss)
    code = main(["quotient", "--q", "3", "--r", "T^4+2*T^2+T"])
    assert code == 4
    assert capsys.readouterr().err.startswith(
        "invariant violated: series precision lost at 8 terms"
    )


def test_even_q_quotient_unsupported():
    fld = make_field(2)
    alg = parse_algebra(fld, "H(1, T^2 + T)")
    with pytest.raises(Unsupported):
        build_quotient(alg)


def test_stabilizer_group_rejects_bad_order():
    # the order is read off the dimension of the space: 0 and 3 are no
    # stabilizer's
    alg = segment_algebra()
    for space in ([], [alg.one, alg.i, alg.j]):
        with pytest.raises(
            StabilizerAnomalousOrder,
            match="stabilizer space has dimension %d; expected 1 or 2" % len(space),
        ):
            StabilizerGroup(alg, space)


def test_banana_neighbor_orbits_are_singletons():
    alg = banana_algebra()
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(alg.field)
    group = stabilizer(emb, base)
    assert group.order == 2
    assert group.neighbor_orbits(emb, base) == [[0], [1], [2], [3]]


def test_neighbor_orbits_reject_a_generator_moving_the_link_away():
    # The generator of the child's stabilizer fixes the child, a neighbour
    # of the base, and moves the base: the cycle from neighbour 0 of the
    # base, its parent, leaves the link of the base.
    alg = segment_algebra()
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(alg.field)
    group = stabilizer(emb, TreeVertex(alg.field, 1))
    assert emb.act(group.generator, base) != base
    with pytest.raises(StabilizerAnomalousOrder, match="moved a neighbor off the link"):
        group.neighbor_orbits(emb, base)


@pytest.mark.parametrize("q", [3, 5])
def test_neighbor_orbits_reject_a_generator_with_two_cycles(q):
    # g^2 of a terminal generator fixes the base and is not a scalar, but
    # it moves the link in two (q+1)/2-cycles.
    alg = segment_algebra(q)
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(alg.field)
    group = stabilizer(emb, base)
    assert group.order == q * q - 1
    square = group.generator * group.generator
    assert not square.is_scalar and emb.act(square, base) == base
    cycles = reference_orbits(emb, [square], base)
    assert sorted(map(len, cycles)) == [(q + 1) // 2] * 2
    group.generator = square
    with pytest.raises(
        StabilizerAnomalousOrder, match="large stabilizer does not cycle the whole link"
    ):
        group.neighbor_orbits(emb, base)


def test_neighbor_orbits_reject_an_action_that_is_not_a_permutation(monkeypatch):
    # Every neighbour sent to neighbour 1: the cycle from 0 meets 1 twice.
    alg = segment_algebra()
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(alg.field)
    group = stabilizer(emb, base)
    nbs = base.neighbors()
    monkeypatch.setattr("btquot.quotient.act", lambda mat, v: nbs[1])
    with pytest.raises(InvariantViolation, match="does not permute the link"):
        group.neighbor_orbits(emb, base)


def reference_closure(alg, elements):
    """The |G|^2 check: closed under inverse and under products."""
    members = set(elements)
    for g in elements:
        inv = g.conj().scale(alg.field.inv(g.norm().lc))
        if inv not in members:
            return False
    return all(g * h in members for g in elements for h in elements)


def reference_orbits(emb, elements, vertex):
    """Orbits on the link from the permutations of every element."""
    nbs = vertex.neighbors()
    index = {nb: i for i, nb in enumerate(nbs)}
    parent = list(range(len(nbs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for g in elements:
        for i, nb in enumerate(nbs):
            ri, rj = find(i), find(index[emb.act(g, nb)])
            if ri != rj:
                parent[ri] = rj
    groups = {}
    for i in range(len(nbs)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def assert_generator_order(emb, group, vertex, orbits):
    """Position m of each orbit is g^m applied to its first neighbour, the
    powers of the generator g formed by quaternion products."""
    nbs = vertex.neighbors()
    for orbit in orbits:
        power = emb.alg.one
        for i in orbit:
            assert emb.act(power, nbs[orbit[0]]) == nbs[i]
            power = power * group.generator


def reference_fixing_count(emb, elements, vertex):
    return sum(1 for g in elements if emb.act(g, vertex) == vertex)


def stabilizer_units(emb, vertex):
    """Every unit fixing vertex, sorted by coordinates."""
    return unit_list(emb, vertex, vertex, completeness_bound(vertex, vertex))


def q7_algebra():
    fld = make_field(7)
    return QuatAlgebra(fld, choose_xi(fld), parse_poly(fld, "T^2 + 6*T"))


def test_stabilizer_generator_matches_all_element_reference():
    for alg, order, neighbors in (
        (segment_algebra(), 8, 4),
        (banana_algebra(), 2, 4),
        (q7_algebra(), 48, 2),
    ):
        emb = SplitEmbedding(alg)
        base = TreeVertex.base(alg.field)
        for vertex in [base] + base.neighbors()[:neighbors]:
            group = stabilizer(emb, vertex)
            assert group.order == order
            space = hom_units(emb, vertex, vertex, completeness_bound(vertex, vertex))
            assert group.generator == scan_generator(alg, space)
            elements = sorted_units(alg, space)
            assert reference_closure(alg, elements)
            orbits = group.neighbor_orbits(emb, vertex)
            assert sorted(map(sorted, orbits)) == reference_orbits(emb, elements, vertex)
            assert_generator_order(emb, group, vertex, orbits)
            assert reference_fixing_count(emb, elements, vertex) == order
            nbs = vertex.neighbors()
            for orbit in orbits:
                got = group.fixing_count(orbit)
                assert got * len(orbit) == order
                for i in orbit:
                    assert got == reference_fixing_count(emb, elements, nbs[i])


@pytest.mark.parametrize("q, text", PROOF_CASES)
def test_central_stabilizers_give_singleton_orbits(q, text):
    # A stabilizer of order q - 1 is F_q^x, generated by a scalar, and its
    # orbits on the link are read off with no action: they must be the
    # singletons that the action of every element gives.  Every other
    # stabilizer is checked against the same reference.
    graph = build_quotient(parse_algebra(field_from_q(q), text))
    emb = graph.embedding
    orders = set()
    for v in graph.vertices:
        group = stabilizer(emb, v.lift)
        orbits = group.neighbor_orbits(emb, v.lift)
        want = reference_orbits(emb, stabilizer_units(emb, v.lift), v.lift)
        assert sorted(map(sorted, orbits)) == want
        assert_generator_order(emb, group, v.lift, orbits)
        assert group.generator.is_scalar == (group.order == q - 1)
        if group.order == q - 1:
            assert orbits == [[i] for i in range(q + 1)]
        orders.add(group.order)
    assert orders <= {q - 1, q * q - 1}


def pinned_algebra(spec):
    return _algebra_from(build_parser().parse_args(["quotient", *spec]))


# The builds of PROOF_CASES and of the pinned --out artifacts, each once.
PROOF_ALGEBRAS = {str(parse_algebra(field_from_q(q), text)) for q, text in PROOF_CASES}
CLOSURE_CASES = [("proof", case) for case in PROOF_CASES] + [
    ("pinned", spec)
    for spec in sorted(PINNED_ARTIFACTS)
    if "--R-degrees" in spec or str(pinned_algebra(spec)) not in PROOF_ALGEBRAS
]


@pytest.mark.parametrize("kind, case", CLOSURE_CASES)
def test_every_class_stabilizer_is_the_cyclic_group_of_its_generator(kind, case):
    # The stabilizer is read off the dimension of its space and one
    # generator; here every unit of the space is enumerated and compared
    # with the generator's powers, formed by quaternion products.
    if kind == "proof":
        alg = parse_algebra(field_from_q(case[0]), case[1])
    else:
        alg = pinned_algebra(case)
    q = alg.field.q
    graph = build_quotient(alg)
    emb = graph.embedding
    for vertex in graph.vertices:
        lift = vertex.lift
        bound = completeness_bound(lift, lift)
        dim = len(hom_units(emb, lift, lift, bound))
        assert dim in (1, 2)
        units = unit_list(emb, lift, lift, bound)
        assert q**dim - 1 == len(units) == vertex.stabilizer_order
        powers = product_powers(vertex.generator, len(units))
        assert powers[-1] == alg.one
        assert sorted(powers[1:], key=coord_key) == units


def product_powers(g, count):
    """[g^0, g^1, ..., g^count] by repeated quaternion products."""
    powers = [g.alg.one]
    for _ in range(count):
        powers.append(powers[-1] * g)
    return powers


def test_stabilizer_generator_powers_are_the_elements():
    for alg in (segment_algebra(), banana_algebra(), segment_algebra(5)):
        emb = SplitEmbedding(alg)
        group = stabilizer(emb, TreeVertex.base(alg.field))
        g = group.generator
        powers = product_powers(g, group.order)
        assert len(set(powers[:-1])) == group.order
        assert set(powers[:-1]) == set(stabilizer_units(emb, TreeVertex.base(alg.field)))
        assert powers[-1] == alg.one
        if group.order == alg.field.q ** 2 - 1:
            assert not g.is_scalar


def test_stabilizer_group_rejects_full_order_non_group():
    # a space of dimension 2 that is no field: its only units are +-i, of
    # order 4, not 8
    alg = segment_algebra()
    space = [alg.i, alg.j]
    assert set(sorted_units(alg, space)) == {alg.i, -alg.i}
    assert product_powers(alg.i, 4)[4] == alg.one
    with pytest.raises(StabilizerAnomalousOrder, match="no element of order 8"):
        StabilizerGroup(alg, space)


def test_stabilizer_group_rejects_non_constant_trace():
    # no finite-order unit has a non-constant trace: u = (T + 1) + j has
    # norm (T + 1)^2 - (T^2 + 2T) = 1 and trace 2T + 2, so a space whose
    # only non-scalar units are +-u has no generator, at either dimension
    alg = segment_algebra()
    fld = alg.field
    u = alg.elem(Poly.T(fld) + 1, 0, 1)
    assert u.norm() == Poly.one(fld)
    assert not u.trace().is_const
    for space, n in (([u], 2), ([alg.one, u], 8)):
        assert any(not g.is_scalar for g in sorted_units(alg, space))
        with pytest.raises(StabilizerAnomalousOrder, match="no element of order %d" % n):
            StabilizerGroup(alg, space)


# One profile per q: the stabilizer generators of every class, and the
# roots of xi at every terminal class.  q=9 has int codes that are not
# residues mod p.
GENERATOR_PROFILES = [
    (3, "H(xi, T^4+2*T^2+T)"),
    (5, "H(T^2+3*T, T^2+3*T+2)"),
    (7, "H(xi, T*(T-1))"),
    (9, "H(4, T^2+T)"),
    (11, "H(xi, T*(T-1))"),
]


def scan_generator(alg, space):
    """The generator rule by quaternion products: the first unit of the
    span_units scan (scalars skipped for q^2 - 1) with g^(n/p) != 1 for
    every prime p | n, n = q^dim - 1."""
    q = alg.field.q
    n = q ** len(space) - 1
    primes = [
        p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))
    ]
    for g in span_units(alg, space):
        if n == q * q - 1 and g.is_scalar:
            continue
        powers = product_powers(g, n)
        if all(powers[n // p] != alg.one for p in primes):
            return g
    return None


@pytest.mark.parametrize("q, text", GENERATOR_PROFILES)
def test_stabilizer_generators_powers_and_roots_match_products(q, text):
    alg = parse_algebra(field_from_q(q), text)
    graph = build_quotient(alg)
    emb = graph.embedding
    xi = choose_xi(alg.field)
    xi_el = alg.elem(xi)
    terminal = 0
    for vertex in graph.vertices:
        lift = vertex.lift
        space = hom_units(emb, lift, lift, completeness_bound(lift, lift))
        elements = sorted_units(alg, space)
        g = vertex.generator
        assert g == scan_generator(alg, space)
        n = vertex.stabilizer_order
        powers = product_powers(g, n)
        pairs = power_cycle(g, *g.charpoly(), n)
        assert len(pairs) == n
        for k, (u, v) in enumerate(pairs, 1):
            assert g.scale(v) + u == powers[k]
        if n == q * q - 1:
            terminal += 1
            root = quotient._square_root(vertex, xi)
            roots = {root, -root}
            assert len(roots) == 2
            assert roots == {h for h in powers[1:] if h * h == xi_el}
            assert roots == {h for h in elements if h * h == xi_el}
    assert terminal


def test_stabilizer_and_roots_make_no_quaternion_products(monkeypatch):
    alg = parse_algebra(field_from_q(11), "H(xi, T*(T-1))")
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(alg.field)
    found = hom_units(emb, base, base, completeness_bound(base, base))
    xi = choose_xi(alg.field)
    calls = []
    plain = QuatElem.__mul__

    def counting(self, other):
        calls.append(1)
        return plain(self, other)

    monkeypatch.setattr(QuatElem, "__mul__", counting)
    group = StabilizerGroup(alg, found)
    vertex = QVertex(0, base, group.order, group.generator)
    root = quotient._square_root(vertex, xi)
    monkeypatch.undo()
    assert group.order == 120 and root * root == alg.elem(xi)
    assert calls == []


OPTIMIZED_GENERATOR_CHECK = """
import sys
from btquot import quotient
from btquot.bttree import TreeVertex
from btquot.errors import InvariantViolation
from btquot.gfpoly import make_field, parse_poly
from btquot.quat import QuatAlgebra
if __debug__:
    sys.exit("asserts are enabled; expected python -O")
fld = make_field(3)
emb = quotient.SplitEmbedding(QuatAlgebra(fld, 2, parse_poly(fld, "T^2 + 2*T")))
base = TreeVertex.base(fld)
base_space = quotient.hom_units(emb, base, base, quotient.completeness_bound(base, base))
# a stabilizer space of the right dimension, but the base's: its
# generator moves the child
quotient.hom_units = lambda emb, v, w, B: base_space
try:
    quotient.stabilizer(emb, TreeVertex(fld, 1))
except InvariantViolation as exc:
    print("InvariantViolation:", exc)
    sys.exit(0)
print("no InvariantViolation")
sys.exit(1)
"""


def test_stabilizer_generator_check_raises_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(btquot.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_GENERATOR_CHECK],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("InvariantViolation: stabilizer generator")


# order.torsion_classes, the pairwise conjugacy search kept for even q, is
# the oracle: on these censuses its bounded search finds every class.
CENSUS_ORACLE_CASES = [
    (3, "H(xi, T*(T-1))", 2),
    (5, "H(xi, T*(T-1))", 1),
    (3, "H(xi, T^4+2*T^2+T)", 3),
]


def census_size(q, bound):
    """2 (1 + (q + 1)(q^(bound+1) - 1)/(q - 1)): a pair {x, -x} for each
    vertex within distance bound + 1 of the base vertex."""
    return 2 * (1 + (q + 1) * (q ** (bound + 1) - 1) // (q - 1))


@pytest.mark.parametrize(
    "q, bound, units",
    [(3, 1, 34), (3, 2, 106), (3, 3, 322), (5, 1, 74), (5, 2, 374), (7, 1, 130),
     (7, 2, 914), (9, 1, 202)],
)
def test_t_t_minus_one_census_size_is_exact(q, bound, units):
    alg = parse_algebra(field_from_q(q), "H(xi, T*(T-1))")
    assert census_size(q, bound) == units
    assert len(solve_torsion(StandardOrder(alg), bound)) == units


def fixed_vertex(emb, x):
    """The vertex a census unit x fixes, the midpoint of [o, x o] (Serre,
    *Trees*, ch. I §6), checked by one more action."""
    base = TreeVertex.base(emb.alg.field)
    fixed = midpoint(base, emb.act(x, base))
    assert emb.act(x, fixed) == fixed
    return fixed


@pytest.mark.parametrize("q, bound", [(3, 2), (5, 1)])
def test_t_t_minus_one_census_fixes_each_vertex_of_a_ball_once(q, bound):
    # each census unit fixes one vertex, within distance bound + 1 of the
    # base, and each vertex of that ball is fixed by exactly one {x, -x}
    alg = parse_algebra(field_from_q(q), "H(xi, T*(T-1))")
    units = solve_torsion(StandardOrder(alg), bound)
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(alg.field)
    ball, ring = {base}, [base]
    for _ in range(bound + 1):
        ring = [nb for v in ring for nb in v.neighbors() if nb not in ball]
        ball.update(ring)
    pairs = {}
    for unit in units:
        fixed = fixed_vertex(emb, unit)
        assert base_distance(fixed) <= bound + 1
        pairs.setdefault(fixed, set()).add(frozenset({unit, -unit}))
    assert set(pairs) == ball
    assert all(len(found) == 1 for found in pairs.values())
    assert 2 * len(ball) == len(units) == census_size(q, bound)


# each odd pinned torsion spec that sorts its census into classes: the
# census-only one has an algebra SplitEmbedding refuses
ODD_TORSION_SPECS = sorted(
    spec
    for spec in PINNED_TORSION
    if int(spec[spec.index("--q") + 1]) % 2 and "--no-classes" not in spec
)


@pytest.mark.parametrize("spec", ODD_TORSION_SPECS, ids=" ".join)
def test_census_units_fix_a_vertex_within_the_walk_radius(spec):
    # the bound of the terminal_classes docstring: x fixes a vertex within
    # bound + deg a + deg b / 2 of o, for every unit of each odd pinned
    # census, among them q=5 --R-degrees 1,1,1,1, where a is not constant
    args = build_parser().parse_args(["torsion", *spec])
    alg = _algebra_from(args)
    emb = SplitEmbedding(alg)
    radius = args.bound + alg.a.deg + alg.b.deg // 2
    units = solve_torsion(StandardOrder(alg), args.bound)
    assert units
    for unit in units:
        assert base_distance(fixed_vertex(emb, unit)) <= radius


@pytest.mark.parametrize("q, text", PROOF_CASES)
def test_links_develop_each_edge_both_ways(q, text):
    # links[a][l] = (b, e, lam, back): h carries reps[b] to neighbour l of
    # reps[a], and h^-1 carries reps[a] to neighbour back of reps[b]
    graph = build_quotient(parse_algebra(field_from_q(q), text))
    emb = graph.embedding
    reps = [v.lift for v in graph.vertices]
    for a, rep in enumerate(reps):
        for pos, nb in enumerate(rep.neighbors()):
            b, h, back = graph.transporter(a, pos)
            assert emb.act(h, reps[b]) == nb
            assert emb.act(h.conj(), rep) == reps[b].neighbors()[back]
            assert graph.transporter(b, back)[0] == a


@pytest.mark.parametrize("q, text, bound", CENSUS_ORACLE_CASES)
def test_terminal_classes_match_conjugacy_search(q, text, bound):
    alg = parse_algebra(field_from_q(q), text)
    order = StandardOrder(alg)
    units = solve_torsion(order, bound)
    graph = build_quotient(alg)
    terminal = [v for v in graph.vertices if v.stabilizer_order == q * q - 1]
    got = terminal_classes(graph, units)
    assert len(got) == 2 * len(terminal) == 4
    assert got == torsion_classes(order, units)
    # x and -x always lie in different classes of the same terminal vertex
    where = {u: k for k, cl in enumerate(got) for u in cl}
    assert all(where[-e] != k for e, k in where.items())


def test_terminal_classes_list_missed_classes_empty():
    # bound 0 census of H(xi, T^4+2*T^2+T): fewer units than classes
    alg = parse_algebra(field_from_q(3), "H(xi, T^4+2*T^2+T)")
    units = solve_torsion(StandardOrder(alg), 0)
    got = terminal_classes(build_quotient(alg), units)
    assert [len(c) for c in got] == [1, 1, 0, 0]
    assert [c[0] for c in got[:2]] == units


def per_unit_terminal_classes(graph, units):
    """The census sorted one unit at a time: a fixed vertex per unit, an
    are_equivalent lookup against each terminal representative in turn,
    and a conjugate per unit, with no development of the quotient."""
    emb = graph.embedding
    alg = graph.algebra
    fld = alg.field
    xi = choose_xi(fld)
    terminal = [v for v in graph.vertices if v.stabilizer_order == fld.q**2 - 1]
    roots = [quotient._square_root(v, xi) for v in terminal]
    roots = [[r, -r] for r in roots]
    members = [[[], []] for _ in terminal]
    for x in units:
        fixed = fixed_vertex(emb, x)
        hits = [(t, are_equivalent(emb, fixed, v.lift)) for t, v in enumerate(terminal)]
        (t, verdict), = [(t, verdict) for t, verdict in hits if verdict]
        gamma = verdict.lam
        conj = (gamma * x * gamma.conj()).scale(fld.inv(gamma.norm().coeff(0)))
        members[t][roots[t].index(conj)].append(x)
    classes = [sorted(m, key=census_key) for pair in members for m in pair]
    met = sorted((c for c in classes if c), key=lambda c: census_key(c[0]))
    return met + [c for c in classes if not c]


@pytest.mark.parametrize(
    "q, text, bound",
    CENSUS_ORACLE_CASES
    + [
        (5, "H(xi, T*(T-1))", 2),
        # the algebra of --R-degrees 1,1,1,1: a is not constant, and U0
        # modulo scalars is not a group
        (5, "H(T^2+3*T, T^2+3*T+2)", 1),
    ],
)
def test_terminal_classes_match_per_unit_lookups(q, text, bound):
    alg = parse_algebra(field_from_q(q), text)
    units = solve_torsion(StandardOrder(alg), bound)
    graph = build_quotient(alg)
    assert terminal_classes(graph, units) == per_unit_terminal_classes(graph, units)


def test_terminal_classes_make_no_search_or_action(monkeypatch):
    # the walk develops the quotient by quaternion products alone: no
    # lookup, no unit search and no tree action once the graph is built
    alg = parse_algebra(field_from_q(3), "H(xi, T*(T-1))")
    units = solve_torsion(StandardOrder(alg), 2)
    graph = build_quotient(alg)

    def refuse(*args):
        raise AssertionError("terminal_classes searched or acted")

    for name in ("are_equivalent", "hom_units", "act"):
        monkeypatch.setattr(quotient, name, refuse)
    monkeypatch.setattr(SplitEmbedding, "act", refuse)
    classes = terminal_classes(graph, units)
    assert sum(len(c) for c in classes) == len(units) == 106


def test_terminal_classes_check_constant_unit_conjugates(monkeypatch):
    # x -> -x keeps trace and norm but not the residue key of a unit with
    # y not divisible by a place of b: constant_unit_orbits, the bound-0
    # orbit pass of even-q torsion_classes, refuses the join
    alg = parse_algebra(field_from_q(3), "H(xi, T*(T-1))")
    order = StandardOrder(alg)
    units = solve_torsion(order, 1)
    monkeypatch.setattr("btquot.order.conjugation_map", lambda lam: lambda x: -x)
    with pytest.raises(InvariantViolation, match="residue key differs"):
        constant_unit_orbits(order, units, census_index(units))


def test_terminal_classes_exit_4_on_a_unit_labelled_twice(monkeypatch, capsys):
    # the first step out of reps[0], a terminal representative, patched to
    # the identity: the walk stands on reps[0] a second time and conjugates
    # its root there again
    alg = parse_algebra(field_from_q(3), "H(xi, T*(T-1))")
    assert build_quotient(alg).vertices[0].stabilizer_order == 8
    plain = quotient.QuotientGraph.transporter

    def revisit(graph, a, pos):
        b, h, back = plain(graph, a, pos)
        if (a, pos) == (0, 0):
            return 0, graph.algebra.one, back
        return b, h, back

    monkeypatch.setattr(quotient.QuotientGraph, "transporter", revisit)
    code = main(["torsion", "--q", "3", "--r", "T*(T-1)", "--bound", "1"])
    err = capsys.readouterr().err
    assert code == 4
    assert "invariant violated" in err and "is labelled twice" in err


def test_terminal_classes_exit_4_on_a_unit_never_labelled(monkeypatch, capsys):
    # T*r squares to T^2*xi, not to xi (norm -T^2*xi): no conjugate of it,
    # nor the negative of one, is a census unit, so no unit is labelled
    plain = quotient._square_root

    def wrong_root(vertex, xi):
        root = plain(vertex, xi)
        return root.scale(Poly.T(root.alg.field))

    monkeypatch.setattr(quotient, "_square_root", wrong_root)
    code = main(["torsion", "--q", "3", "--r", "T*(T-1)", "--bound", "1"])
    err = capsys.readouterr().err
    assert code == 4
    assert "invariant violated" in err and "conjugate to no square root of xi" in err


def test_place_pools_hold_gauss_count_of_places():
    # Gauss's count (1/d) * sum mu(d/e) q^e against the monic irreducibles
    # the lazy pool enumerates, in code order, for q <= 9 and d <= 4
    for q in (2, 3, 4, 5, 7, 8, 9):
        fld = field_from_q(q)
        for d in range(1, 5):
            count = count_monic_irreducibles(q, d)
            pool = quotient._PlacePool(fld, d)
            places = [pool[k] for k in range(count)]
            assert all(pl.degree == d for pl in places)
            codes = [pl.poly.sort_key() for pl in places]
            assert codes == sorted(set(codes))
            with pytest.raises(InvariantViolation, match="fewer than"):
                pool[count]


def test_find_quotient_algebra_builds_places_lazily(monkeypatch):
    # each place is built the first time a place set reaches it: the
    # search tests the monic polynomials up to the last place it reached,
    # not both full pools (9 + 81 polynomials)
    tested = []

    def recording(f):
        tested.append(f)
        return is_irreducible(f)

    monkeypatch.setattr(quotient, "is_irreducible", recording)
    alg = find_quotient_algebra(field_from_q(3), [2, 4])
    assert str(alg) == "H(T^2+1, T^4+T^2+T+1)"
    assert [f.deg for f in tested] == [2] * 2 + [4] * 14
    assert [str(pl.poly) for pl in ramified_set(alg)] == ["T^2+1", "T^4+T^2+T+1"]


def test_too_few_places_refused_before_any_place_is_built(monkeypatch, capsys):
    def no_pools(f):
        raise AssertionError("a place pool was scanned")

    monkeypatch.setattr(quotient, "is_irreducible", no_pools)
    for q, degrees, message in (
        ("2", "1,1,1,1", "only 2 places of degree 1 exist over F_2"),
        ("3", "1,1,2,2,2,2", "only 3 places of degree 2 exist over F_3"),
    ):
        code = main(["ramification", "--q", q, "--R-degrees", degrees])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == "unsupported: %s\n" % message


def test_sweep_profiles_build_and_cross_check():
    # every realizable odd-q profile of the sweep with V1 + Vq1 <= 32 gets
    # an algebra with a maximal standard order, a quotient and a clean
    # cross-check
    profiles = [
        p for p in sweep_profiles(qs=(3, 5, 7, 9)) if v1(p) + vq1(p) <= 32
    ]
    assert len(profiles) == 25
    for profile in profiles:
        alg = find_quotient_algebra(field_from_q(profile.q), list(profile.degrees))
        assert [pl.degree for pl in ramified_set(alg)] == list(profile.degrees)
        report = cross_check(profile, build_quotient(alg))
        assert report.ok(), (profile, str(alg), report.checks)
