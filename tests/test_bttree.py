import math
import random

import pytest

from btquot.bttree import Mat2K, TreeVertex, act, base_distance, canonical_form
from btquot.errors import PrecisionLoss
from btquot.gfpoly import Poly, make_field
from btquot.laurent import MIN_TERMS, LaurentSeries, embed

from conftest import distance, midpoint


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


def test_base_distance_matches_distance_in_a_ball():
    # every vertex within 4 steps of the base, levels -4..4, for q = 3 and 5
    for q, size in ((3, 161), (5, 937)):
        fld = make_field(q)
        base = TreeVertex.base(fld)
        d = ball(base, 4)
        assert len(d) == size
        assert {v.n for v in d} == set(range(-4, 5))
        for v, r in d.items():
            assert base_distance(v) == distance(base, v) == r


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


def test_midpoint_is_the_unique_halfway_vertex_in_a_ball():
    # every vertex of the radius-4 ball at even distance r from the base:
    # the midpoint is the one vertex of the ball at r/2 from both ends
    fld = make_field(3)
    base = TreeVertex.base(fld)
    d = ball(base, 4)
    for v, r in d.items():
        if r % 2:
            with pytest.raises(ValueError, match="odd distance"):
                midpoint(base, v)
            continue
        halfway = [u for u in d if d[u] == r // 2 and distance(u, v) == r // 2]
        assert halfway == [midpoint(base, v)] == [midpoint(v, base)]


def test_midpoint_random_pairs_and_endpoints():
    rng = random.Random(107)
    for fld in (make_field(3), make_field(5), make_field(3, 2)):
        odd = even = 0
        for _ in range(120):
            v, w = rand_vertex(rng, fld), rand_vertex(rng, fld)
            dvw = distance(v, w)
            if dvw % 2:
                odd += 1
                with pytest.raises(ValueError, match="odd distance %d" % dvw):
                    midpoint(v, w)
                continue
            even += 1
            m = midpoint(v, w)
            assert m.x.exact
            assert distance(v, m) == distance(m, w) == dvw // 2
            assert midpoint(w, v) == m
            # the path endpoints: a vertex is its own midpoint, and the
            # midpoint of a path of length two is the middle vertex
            assert midpoint(v, v) == v
            for nb in v.neighbors():
                for far in nb.neighbors():
                    if far != v:
                        assert midpoint(v, far) == nb
                with pytest.raises(ValueError, match="odd distance 1"):
                    midpoint(v, nb)
        assert odd and even


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
        zero = LaurentSeries.zero(fld)
        assert canonical_form(Mat2K(s, zero, zero, s) * v.matrix()) == v


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
        gi = g.inverse(24)
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


def reference_pivot_is_left(c, d):
    """The pivot rule case by case: (lower bound of the valuation, whether
    it is the valuation) for each bottom entry."""

    def low(e):
        if e.coeffs:
            return e.val, True
        return (math.inf, True) if e.exact else (e.val, False)

    (oc, c_known), (od, d_known) = low(c), low(d)
    if c_known and d_known:
        if oc == od == math.inf:
            raise ZeroDivisionError("bottom row vanishes; matrix is singular")
        return oc < od
    if c_known and oc < od:
        return True  # d is zero to O(u^od), above c
    if d_known and od <= oc:
        return False  # c is zero to O(u^oc), at or above d
    raise PrecisionLoss("cannot choose a pivot")


def reference_canonical_form(m):
    """canonical_form with two inverses, d^-1 and (d u^-m)^-1, where the
    module shifts one, and with a - (c/d)*b for every matrix, where the
    module reads an exact matrix's valuation off its determinant."""
    a, b, c, d = m.a, m.b, m.c, m.d
    if reference_pivot_is_left(c, d):
        a, b = b, a
        c, d = d, c
    m_ord = d.ord()
    if all(e.exact for e in (a, b, c, d)):
        # d^-1 to MIN_TERMS more terms than the shift's digits need, so
        # that a - (c/d)*b, of valuation ord det - m_ord, keeps MIN_TERMS
        k = (a * d - b * c).ord() - m_ord
        terms = MIN_TERMS + max(0, k - b.val if b.coeffs else 0)
    else:
        terms = max(min(e.prec_abs for e in (a, b, c, d)) - m_ord, MIN_TERMS)
    d_inv = d.inverse(terms)
    if not (c.is_zero and c.exact):
        a = a - c * d_inv * b
    k = a.ord()
    b = b * d.shift(-m_ord).inverse(terms)
    if not b.exact and b.prec_abs < k:
        raise PrecisionLoss(
            "shift entry known to O(u^%d) but digits below u^%d are needed"
            % (b.prec_abs, k)
        )
    lo = min(b.val, k) if not b.is_zero else k
    digits = [b.coeff(t) for t in range(lo, k)]
    x = LaurentSeries._from_codes(m.field, lo - m_ord, digits, True)
    return TreeVertex(m.field, k - m_ord, x)


def canonical_outcome(fn, m):
    try:
        v = fn(m)
    except PrecisionLoss as exc:
        return "loss", str(exc).split(" ")[0], str(exc)
    except (ZeroDivisionError, ValueError) as exc:
        return "singular", type(exc).__name__, str(exc)
    return "ok", v.n, series_key(v.x)


def rand_entry(rng, fld):
    """Exact polynomial-like, sparse exact, inexact, zero or inexact zero
    series."""
    kind = rng.randrange(6)
    val = rng.randrange(-4, 4)
    if kind == 0:
        return LaurentSeries.zero(fld)
    if kind == 5:
        return LaurentSeries.inexact_zero(fld, val + rng.choice((0, 3, 9)))
    if kind == 1:
        return LaurentSeries.monomial(fld, val, rng.randrange(1, fld.q))
    width = rng.choice((2, 4, 9, 14))
    cs = [rng.randrange(1, fld.q)] + [rng.randrange(fld.q) for _ in range(width)]
    return LaurentSeries(fld, val, cs, kind == 2)


def test_canonical_form_matches_two_inverse_reference():
    rng = random.Random(137)
    seen = set()
    for fld in (make_field(3), make_field(5), make_field(3, 2)):
        for _ in range(160):
            m = Mat2K(*(rand_entry(rng, fld) for _ in range(4)))
            got = canonical_outcome(canonical_form, m)
            want = canonical_outcome(reference_canonical_form, m)
            assert got[:2] == want[:2] and (got[0] == "loss" or got == want)
            seen.add(got[:2] if got[0] == "loss" else got[0])
        for _ in range(80):
            if rng.random() < 0.5:
                m = rand_poly_matrix(rng, fld) * rand_gl2o(rng, fld)
            else:
                # a deep lattice whose shift is known only shortly
                m = Mat2K(
                    LaurentSeries.monomial(fld, rng.randrange(20)),
                    rand_entry(rng, fld),
                    LaurentSeries.zero(fld),
                    rand_entry(rng, fld),
                )
            got = canonical_outcome(canonical_form, m)
            want = canonical_outcome(reference_canonical_form, m)
            assert got[:2] == want[:2] and (got[0] == "loss" or got == want)
            seen.add(got[:2] if got[0] == "loss" else got[0])
    # "cannot": the pivot is undecided; "only": a short inverse or product;
    # "series": the reduced top-left entry is zero to its precision;
    # "shift": the digits run out
    assert seen == {
        "ok", "singular", ("loss", "cannot"), ("loss", "only"),
        ("loss", "series"), ("loss", "shift"),
    }
