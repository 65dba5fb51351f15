import os
import random
import subprocess
import sys
from itertools import product

import pytest

import btquot
from btquot.bttree import Mat2K, TreeVertex, act, canonical_form
from btquot.errors import (
    NonterminationGuard,
    NotASquare,
    PrecisionLoss,
    StabilizerAnomalousOrder,
    Unsupported,
)
from btquot.gfpoly import Poly, choose_xi, field_from_q, make_field, parse_poly
from btquot.invariants import critical_group, cross_check, graph_h1
from btquot.laurent import LaurentSeries, embed, working_precision
from btquot.linalg import nullspace
from btquot.order import Witness
from btquot.quat import QuatAlgebra, parse_algebra, ramified_set
from btquot.quotient import (
    NoEquivalence,
    SplitEmbedding,
    StabilizerGroup,
    are_equivalent,
    build_quotient,
    completeness_bound,
    hom_units,
    stabilizer,
)


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
        ident, mi, mj, mij = emb.images()
        a_ser = embed(alg.a)
        b_ser = embed(alg.b)
        for got, want in zip((mi * mi).entries(), ident.scale(a_ser).entries()):
            assert got.agrees_with(want)
        for got, want in zip((mj * mj).entries(), ident.scale(b_ser).entries()):
            assert got.agrees_with(want)
        for got, want in zip((mi * mj).entries(), (-(mj * mi)).entries()):
            assert got.agrees_with(want)
        for got, want in zip((mi * mj).entries(), mij.entries()):
            assert got.agrees_with(want)
        for _ in range(8):
            lam = rand_elem(rng, alg)
            mu = rand_elem(rng, alg)
            assert emb.matrix(lam).det().agrees_with(embed(lam.norm()))
            prodm = emb.matrix(lam) * emb.matrix(mu)
            for got, want in zip(prodm.entries(), emb.matrix(lam * mu).entries()):
                assert got.agrees_with(want)
            summ = emb.matrix(lam) + emb.matrix(mu)
            for got, want in zip(summ.entries(), emb.matrix(lam + mu).entries()):
                assert got.agrees_with(want)


def test_embedding_trace():
    alg = segment_algebra()
    emb = SplitEmbedding(alg)
    rng = random.Random(13)
    for _ in range(6):
        lam = rand_elem(rng, alg)
        m = emb.matrix(lam)
        assert (m.a + m.d).agrees_with(embed(lam.trace()))


def transfer_rows(alg):
    """Rows mapping matrix entries (m11, m12, m21, m22) back to coords."""
    fld = alg.field
    s = embed(alg.b).sqrt()
    zero = LaurentSeries.zero(fld)
    half = LaurentSeries.scalar(fld, fld.inv(fld.elem(2).v))
    a_inv = embed(alg.a).inverse()
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
        got = coords(emb.matrix(lam))
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
    m = emb.matrix(theta2(alg))
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
    assert alg.i in group.elements
    assert alg.one in group.elements
    assert alg.elem(2) in group.elements
    for g in group.elements[:3]:
        assert act(emb.matrix(g), base) == base
    orbits = group.neighbor_orbits(emb, base)
    assert orbits == [[0, 1, 2, 3]]


def test_stabilizer_neighbors_of_base():
    alg = segment_algebra()
    emb = SplitEmbedding(alg)
    child = stabilizer(emb, TreeVertex(alg.field, 1))
    assert child.order == 8
    assert theta2(alg) in child.elements
    parent = stabilizer(emb, TreeVertex(alg.field, -1))
    assert parent.order == 8
    assert theta2(alg) not in parent.elements


def test_hom_units_identity_example():
    alg = segment_algebra()
    emb = SplitEmbedding(alg)
    ident = Mat2K.identity(alg.field)
    found = hom_units(emb, ident, ident, 1)
    assert len(found) == 8
    assert alg.i in found
    for lam in found:
        nr = lam.norm()
        assert nr.is_const and not nr.is_zero


def test_hom_units_pi_lattice_example():
    alg = segment_algebra()
    fld = alg.field
    emb = SplitEmbedding(alg)
    s = embed(alg.b).sqrt()
    pi = embed(parse_poly(fld, "2*T + 2")) + LaurentSeries.scalar(fld, 2) * s
    assert pi.ord() == -1
    u_mat = Mat2K(
        pi.inverse(),
        LaurentSeries.zero(fld),
        LaurentSeries.zero(fld),
        LaurentSeries.one(fld),
    )
    found = hom_units(emb, u_mat, u_mat, 1)
    assert len(found) == 8
    assert theta2(alg) in found


def test_hom_units_parity_empty():
    alg = segment_algebra()
    fld = alg.field
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(fld)
    parent = TreeVertex(fld, -1)
    assert hom_units(emb, base.matrix(), parent.matrix(), 3) == []


def reference_hom_units(emb, U, V, B):
    """hom_units with the constraint system assembled from full series
    products, one shifted copy of each core per degree k."""
    alg = emb.alg
    fld = alg.field
    if B < 0:
        return []
    diff = U.det().ord() - V.det().ord()
    if diff % 2:
        return []
    m = diff // 2
    vinv = V.inverse()
    cand = []
    for img in emb.images():
        core = (vinv * img) * U
        for k in range(B + 1):
            cand.append(core.scale(LaurentSeries.monomial(fld, -k - m)).entries())
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


def hom_outcome(fn, emb, v, w, bound):
    try:
        return "ok", fn(emb, v.matrix(), w.matrix(), bound)
    except PrecisionLoss as exc:
        return "loss", str(exc)


def test_hom_units_matches_per_degree_reference():
    seen = set()
    for alg, pairs, depth, seed in (
        (segment_algebra(), 14, 3, 61),
        (banana_algebra(), 10, 3, 67),
        (segment_algebra(5), 5, 2, 71),
    ):
        fld = alg.field
        rng = random.Random(seed)
        emb = SplitEmbedding(alg)
        base = TreeVertex.base(fld)
        todo = [(base, base), (base, TreeVertex(fld, 2)), (base, TreeVertex(fld, -1))]
        while len(todo) < pairs:
            v = rand_vertex(rng, fld, depth)
            todo.append((v, v if rng.random() < 0.2 else rand_vertex(rng, fld, depth)))
        for v, w in todo:
            bound = completeness_bound(v, w)
            got = hom_outcome(hom_units, emb, v, w, bound)
            assert got == hom_outcome(reference_hom_units, emb, v, w, bound)
            for lam in got[1] if got[0] == "ok" else []:
                assert canonical_form(emb.matrix(lam) * v.matrix()) == w
            diff = v.n - w.n
            seen.add(
                "stabilizer" if v == w
                else "odd" if diff % 2
                else "nonzero m" if diff
                else "zero m"
            )
            seen.add("found" if got[1] else "empty")
        with working_precision(8):
            for v, w in todo + [(TreeVertex(fld, -6), TreeVertex(fld, -6))]:
                bound = completeness_bound(v, w)
                got = hom_outcome(hom_units, emb, v, w, bound)
                assert got == hom_outcome(reference_hom_units, emb, v, w, bound)
                # "lattice" is the constraint-system check, "only" a short product
                seen.add(got[1].split()[0] if got[0] == "loss" else "ok")
    assert seen >= {
        "stabilizer", "odd", "nonzero m", "zero m", "found", "empty", "ok", "lattice"
    }


def test_hom_units_left_image_memo():
    # A fresh embedding (cold memo), a shared one's first call and its
    # repeat (warm memo) give the same answers, at precision 64 and at 8,
    # where some pairs lose precision; each memo belongs to one precision.
    alg = banana_algebra()
    fld = alg.field
    rng = random.Random(73)
    base = TreeVertex.base(fld)
    todo = [(base, base), (TreeVertex(fld, 2), base), (TreeVertex(fld, -6), base)]
    while len(todo) < 12:
        todo.append((rand_vertex(rng, fld, 3), rng.choice(todo)[1]))
        todo.append((rand_vertex(rng, fld, 3), rand_vertex(rng, fld, 2)))
    emb = SplitEmbedding(alg)
    seen = set()
    left_at = {}
    for prec in (64, 8):
        with working_precision(prec):
            for v, w in todo:
                bound = completeness_bound(v, w)
                cold = hom_outcome(hom_units, SplitEmbedding(alg), v, w, bound)
                first = hom_outcome(hom_units, emb, v, w, bound)
                warm = hom_outcome(hom_units, emb, v, w, bound)
                assert cold == first == warm
                seen.add(warm[0])
            V = base.matrix()
            left = emb.left_images(V)
            assert emb.left_images(V) is left
            assert left == tuple(V.inverse() * img for img in emb.images())
            left_at[prec] = left
    assert seen == {"ok", "loss"}
    assert left_at[64] != left_at[8]
    assert left_at[64] == emb.left_images(base.matrix())


def test_are_equivalent_basics():
    alg = segment_algebra()
    fld = alg.field
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(fld)
    same = are_equivalent(emb, base, base)
    assert isinstance(same, Witness)
    assert same.lam == alg.one
    for nb in base.neighbors():
        verdict = are_equivalent(emb, base, nb)
        assert isinstance(verdict, NoEquivalence)
        assert not verdict


def test_are_equivalent_same_type_vertices():
    alg = segment_algebra()
    fld = alg.field
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(fld)
    sibling = TreeVertex(fld, 0, LaurentSeries.monomial(fld, -1))
    verdict = are_equivalent(emb, base, sibling)
    assert isinstance(verdict, Witness)
    assert act(emb.matrix(verdict.lam), base) == sibling
    deep = TreeVertex(fld, -2)
    verdict2 = are_equivalent(emb, base, deep)
    assert isinstance(verdict2, Witness)
    log = []
    are_equivalent(emb, base, TreeVertex(fld, -1), log=log)
    assert log == [
        {"event": "equivalence", "outcome": "no", "reason": "parity"}
    ]


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
    assert graph.multiplicity(0, 1) == 4
    assert graph.degrees() == [4, 4]
    assert graph_h1(graph) == 3
    assert critical_group(graph) == [4]
    assert all(e.stabilizer_order == 2 for e in graph.edges)
    report = cross_check(graph.profile, graph)
    assert report.ok()
    assert not report.graph_smooth


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


@pytest.mark.parametrize(
    "q, text",
    [
        (3, "H(xi, T*(T-1))"),
        (5, "H(xi, T*(T-1))"),
        (7, "H(xi, T*(T-1))"),
        (3, "H(xi, T^4+2*T^2+T)"),
        (9, "H(4, T^2+T)"),
        (5, "H(T^2+3*T, T^2+3*T+2)"),
    ],
)
def test_completeness_bound_needs_no_slack(q, text, monkeypatch):
    # Reference: the bound with the old margin of two on top.  Every unit
    # search a build makes returns the same units at both bounds.
    calls = []

    def with_margin(emb, U, V, B):
        got = hom_units(emb, U, V, B)
        assert got == hom_units(emb, U, V, B + 2)
        calls.append(B)
        return got

    monkeypatch.setattr("btquot.quotient.hom_units", with_margin)
    alg = parse_algebra(field_from_q(q), text)
    graph = build_quotient(alg)
    assert calls
    assert all(cross_check(graph.profile, graph).to_dict()["checks"].values())


def test_build_quotient_class_limit_guard(monkeypatch):
    # Guard factor 0 allows 2 classes; this profile has 8.
    monkeypatch.setattr("btquot.quotient.GUARD_FACTOR", 0)
    alg = parse_algebra(field_from_q(3), "H(xi, T^4+2*T^2+T)")
    with pytest.raises(NonterminationGuard, match="more than 2 vertex classes"):
        build_quotient(alg)


def test_build_quotient_low_precision_retries(monkeypatch):
    monkeypatch.setattr("btquot.quotient.DEFAULT_PREC", 8)
    graph = build_quotient(segment_algebra())
    assert [e for e in graph.log if e["event"] == "retry"]
    assert len(graph.vertices) == 2
    assert len(graph.edges) == 1


def test_build_quotient_retry_gives_default_precision_graph(monkeypatch):
    fld = make_field(3)
    alg = parse_algebra(fld, "H(T^3 + 2*T + 1, T^2 + 1)")
    default = build_quotient(alg)
    monkeypatch.setattr("btquot.quotient.DEFAULT_PREC", 16)
    retried = build_quotient(alg)
    retries = [entry for entry in retried.log if entry["event"] == "retry"]
    assert retries == [{"event": "retry", "precision": 32}]
    assert retried.to_dict() == default.to_dict()
    assert len(retried.vertices) == 26


def test_precision_loss_raised_when_window_unreachable():
    alg = segment_algebra()
    fld = alg.field
    with working_precision(8):
        emb = SplitEmbedding(alg)
        far = TreeVertex(fld, -6)
        with pytest.raises(PrecisionLoss):
            stabilizer(emb, far)


def test_even_q_quotient_unsupported():
    fld = make_field(2)
    alg = parse_algebra(fld, "H(1, T^2 + T)")
    with pytest.raises(Unsupported):
        build_quotient(alg)


def test_stabilizer_group_rejects_bad_order():
    alg = segment_algebra()
    with pytest.raises(StabilizerAnomalousOrder):
        StabilizerGroup(alg, [alg.one])


def test_banana_neighbor_orbits_are_singletons():
    alg = banana_algebra()
    emb = SplitEmbedding(alg)
    base = TreeVertex.base(alg.field)
    group = stabilizer(emb, base)
    assert group.order == 2
    assert group.neighbor_orbits(emb, base) == [[0], [1], [2], [3]]


def reference_closure(alg, elements):
    """The |G|^2 check: closed under inverse and under products."""
    members = set(elements)
    for g in elements:
        inv = g.conj().scale(alg.field.inv(g.norm().lc))
        if inv not in members:
            return False
    return all(g * h in members for g in elements for h in elements)


def reference_orbits(emb, group, vertex):
    """Orbits on the link from the permutations of every element."""
    nbs = vertex.neighbors()
    index = {nb: i for i, nb in enumerate(nbs)}
    parent = list(range(len(nbs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for g in group.elements:
        mat = emb.matrix(g)
        for i, nb in enumerate(nbs):
            ri, rj = find(i), find(index[act(mat, nb)])
            if ri != rj:
                parent[ri] = rj
    groups = {}
    for i in range(len(nbs)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def reference_fixing_count(emb, group, vertex):
    return sum(1 for g in group.elements if act(emb.matrix(g), vertex) == vertex)


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
            assert reference_closure(alg, group.elements)
            orbits = group.neighbor_orbits(emb, vertex)
            assert orbits == reference_orbits(emb, group, vertex)
            assert group.fixing_count(emb, vertex) == order
            nbs = vertex.neighbors()
            for orbit in orbits:
                for i in orbit:
                    got = group.fixing_count(emb, nbs[i])
                    assert got == reference_fixing_count(emb, group, nbs[i])
                    assert got * len(orbit) == order


def test_stabilizer_generator_powers_are_the_elements():
    for alg in (segment_algebra(), banana_algebra(), segment_algebra(5)):
        emb = SplitEmbedding(alg)
        group = stabilizer(emb, TreeVertex.base(alg.field))
        g = group.generator
        powers = [g ** k for k in range(group.order)]
        assert len(set(powers)) == group.order
        assert set(powers) == set(group.elements)
        assert g ** group.order == alg.one
        if group.order == alg.field.q ** 2 - 1:
            assert not g.is_scalar


def test_stabilizer_group_rejects_full_order_non_group():
    alg = segment_algebra()
    emb = SplitEmbedding(alg)
    fld = alg.field
    base = stabilizer(emb, TreeVertex.base(fld)).elements
    child = stabilizer(emb, TreeVertex(fld, 1)).elements
    outsider = next(g for g in child if g not in base)
    fake = base[:-1] + [outsider]
    assert len(set(fake)) == fld.q ** 2 - 1
    assert all(g.norm().is_const and not g.norm().is_zero for g in fake)
    assert not reference_closure(alg, fake)
    with pytest.raises(StabilizerAnomalousOrder):
        StabilizerGroup(alg, fake)


OPTIMIZED_GENERATOR_CHECK = """
import sys
from btquot import quotient
from btquot.bttree import TreeVertex
from btquot.errors import InvariantViolation
from btquot.gfpoly import make_field
from btquot.quat import parse_algebra
if __debug__:
    sys.exit("asserts are enabled; expected python -O")
fld = make_field(3)
emb = quotient.SplitEmbedding(parse_algebra(fld, "H(2, T^2 + 2*T)"))
base = TreeVertex.base(fld)
base_group = quotient.stabilizer(emb, base).elements
# a cyclic group of the right order, but the base's: it moves the child
quotient.hom_units = lambda emb, U, V, B: base_group
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
