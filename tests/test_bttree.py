import random

import pytest

from btquot.bttree import Mat2K, TreeVertex, act, canonical_form, distance
from btquot.gfpoly import Poly, make_field
from btquot.laurent import LaurentSeries, embed


def rand_vertex(rng, fld):
    n = rng.randrange(-3, 4)
    width = rng.randrange(0, 6)
    val = n - width
    cs = [rng.randrange(fld.q) for _ in range(width)]
    return TreeVertex(fld, n, LaurentSeries(fld, val, cs, True))


def rand_poly_matrix(rng, fld, deg=2):
    while True:
        entries = [
            embed(Poly(fld, [rng.randrange(fld.q) for _ in range(deg + 1)]))
            for _ in range(4)
        ]
        m = Mat2K(*entries)
        if not m.det().is_zero:
            return m


def rand_gl2o(rng, fld, steps=4):
    """Random element of GL2(O) as a product of elementary matrices."""
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


def rand_gl0(rng, fld, steps=4):
    """Random determinant-in-F_q matrix over the polynomial ring."""
    one = embed(Poly.one(fld))
    zero = embed(Poly.zero(fld))
    m = Mat2K(one, zero, zero, one)
    for _ in range(steps):
        p = embed(Poly(fld, [rng.randrange(fld.q) for _ in range(3)]))
        kind = rng.randrange(3)
        if kind == 0:
            e = Mat2K(one, p, zero, one)
        elif kind == 1:
            e = Mat2K(one, zero, p, one)
        else:
            c = LaurentSeries.scalar(fld, rng.randrange(1, fld.q))
            e = Mat2K(c, zero, zero, one)
        m = m * e
    return m


def ball(base, radius):
    dist = {base: 0}
    frontier = [base]
    for r in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for w in v.neighbors():
                if w not in dist:
                    dist[w] = r
                    nxt.append(w)
        frontier = nxt
    return dist


def test_base_vertex_and_matrix():
    fld = make_field(3)
    v = TreeVertex.base(fld)
    assert v.n == 0 and v.x.is_zero
    m = v.matrix()
    assert m.a == LaurentSeries.one(fld)
    assert m.d == LaurentSeries.one(fld)
    assert canonical_form(m) == v


def test_canonical_form_idempotent_on_vertex_matrices():
    rng = random.Random(89)
    for q, p, e in ((3, 3, 1), (2, 2, 1), (4, 2, 2)):
        fld = make_field(p, e)
        for _ in range(60):
            v = rand_vertex(rng, fld)
            assert canonical_form(v.matrix()) == v


def test_neighbors():
    fld = make_field(3)
    v = TreeVertex.base(fld)
    nb = v.neighbors()
    assert len(nb) == 4
    assert nb[0] == TreeVertex(fld, -1)
    assert nb[1] == TreeVertex(fld, 1)
    assert len(set(nb)) == 4
    for w in nb:
        assert distance(v, w) == 1
        assert v in w.neighbors()


def test_neighbors_random_symmetry():
    rng = random.Random(97)
    fld = make_field(3)
    for _ in range(40):
        v = rand_vertex(rng, fld)
        nb = v.neighbors()
        assert len(set(nb)) == fld.q + 1
        for w in nb:
            assert distance(v, w) == 1 and distance(w, v) == 1
            assert v in w.neighbors()


def test_distance_matches_bfs_exhaustively():
    fld = make_field(3)
    base = TreeVertex.base(fld)
    d = ball(base, 4)
    assert len(d) == 161  # 1 + 4 * (1 + 3 + 9 + 27)
    for v, r in d.items():
        assert distance(base, v) == r
        assert distance(v, base) == r


def test_distance_symmetry_and_triangle():
    rng = random.Random(101)
    fld = make_field(3)
    for _ in range(80):
        v, w, z = (rand_vertex(rng, fld) for _ in range(3))
        dvw = distance(v, w)
        assert dvw == distance(w, v)
        assert dvw >= 0
        assert (dvw == 0) == (v == w)
        assert distance(v, z) <= dvw + distance(w, z)


def test_distance_matches_matrix_formula():
    rng = random.Random(103)
    fld = make_field(3)
    import math

    for _ in range(60):
        v, w = rand_vertex(rng, fld), rand_vertex(rng, fld)
        s = v.matrix().inverse() * w.matrix()
        ords = [e.ord() for e in s.entries() if not e.is_zero]
        want = s.det().ord() - 2 * min(ords)
        assert distance(v, w) == want


def test_translation_examples():
    fld = make_field(3)
    base = TreeVertex.base(fld)
    u_inv = Mat2K(
        LaurentSeries.monomial(fld, -1),
        LaurentSeries.zero(fld),
        LaurentSeries.zero(fld),
        LaurentSeries.one(fld),
    )
    assert act(u_inv, base) == TreeVertex(fld, -1)
    shift_T = Mat2K(
        LaurentSeries.one(fld),
        embed(Poly.T(fld)),
        LaurentSeries.zero(fld),
        LaurentSeries.one(fld),
    )
    moved = act(shift_T, base)
    assert moved == TreeVertex(fld, 0, LaurentSeries.monomial(fld, -1))
    assert distance(base, moved) == 2


def test_act_is_a_left_action():
    rng = random.Random(107)
    fld = make_field(3)
    for _ in range(40):
        g = rand_poly_matrix(rng, fld)
        h = rand_poly_matrix(rng, fld)
        v = rand_vertex(rng, fld)
        assert act(g * h, v) == act(g, act(h, v))


def test_canonical_form_right_invariance():
    rng = random.Random(109)
    for q, p, e in ((3, 3, 1), (4, 2, 2)):
        fld = make_field(p, e)
        for _ in range(150):
            v = rand_vertex(rng, fld)
            k = rand_gl2o(rng, fld)
            assert canonical_form(v.matrix() * k) == v


def test_scaling_invariance():
    rng = random.Random(113)
    fld = make_field(3)
    for _ in range(40):
        v = rand_vertex(rng, fld)
        s = LaurentSeries.monomial(fld, rng.randrange(-3, 4), rng.randrange(1, 3))
        assert canonical_form(v.matrix().scale(s)) == v


def test_unit_determinant_moves_even_distance():
    rng = random.Random(127)
    fld = make_field(3)
    base = TreeVertex.base(fld)
    for _ in range(60):
        g = rand_gl0(rng, fld)
        d = g.det()
        assert d.exact and d.ord() == 0 and len(d.coeffs) == 1
        v = rand_vertex(rng, fld)
        assert distance(v, act(g, v)) % 2 == 0
        assert distance(base, act(g, base)) % 2 == 0


def test_matrix_algebra():
    rng = random.Random(131)
    fld = make_field(5)
    for _ in range(30):
        g = rand_poly_matrix(rng, fld)
        h = rand_poly_matrix(rng, fld)
        assert (g * h).det().agrees_with(g.det() * h.det())
        gi = g.inverse()
        prod = g * gi
        ident = Mat2K.identity(fld)
        for got, want in zip(prod.entries(), ident.entries()):
            assert got.agrees_with(want)


def test_singular_matrix_rejected():
    fld = make_field(3)
    z = LaurentSeries.zero(fld)
    one = LaurentSeries.one(fld)
    with pytest.raises(ZeroDivisionError):
        canonical_form(Mat2K(one, one, z, z))


def rebuilt(x):
    """The same series through the normalising public constructor."""
    return LaurentSeries(x.field, x.val, x.coeffs, x.exact)


def series_key(x):
    return (x.val, x.coeffs, x.exact)


def test_vertex_shifts_equal_constructor_built_series():
    for fld in (make_field(3), make_field(3, 2)):
        q = fld.q
        rng = random.Random(q)
        for _ in range(40):
            n = rng.randrange(-3, 4)
            x = LaurentSeries(
                fld, rng.randrange(-6, 4), [rng.randrange(q) for _ in range(8)], True
            )
            for v in (TreeVertex(fld, n, x), canonical_form(rand_poly_matrix(rng, fld))):
                assert all(type(c) is int and 0 <= c < q for c in v.x.coeffs)
                assert series_key(v.x) == series_key(rebuilt(v.x))
                assert all(c for c in v.x.coeffs[:1] + v.x.coeffs[-1:])
                assert not v.x.coeffs or v.x.val + len(v.x.coeffs) <= v.n
