import os
import random
import subprocess
import sys
from itertools import product

import pytest

import btquot
from btquot.errors import InvariantViolation, NotCertified, RamifiedAtInfinity, Unsupported
from btquot.gfpoly import (
    Poly,
    choose_xi,
    factor,
    field_from_q,
    gcd,
    make_field,
    polys_upto,
)
from btquot.linalg import nullspace
from btquot.order import (
    NoWitness,
    StandardOrder,
    Witness,
    _projective_vectors,
    conj_search,
    census_index,
    conjugation_map,
    constant_unit_orbits,
    default_conj_bound,
    power_cycle,
    solve_torsion,
    span_units,
    torsion_classes,
    torsion_type,
)
from btquot.quat import QuatAlgebra, QuatElem

from conftest import census_key, parse_algebra


def paired_unit(el):
    """The Galois partner: the negative for odd q, element plus one for even."""
    if el.alg.even:
        return el + el.alg.one
    return -el


def order_q3():
    fld = make_field(3)
    T = Poly.T(fld)
    return StandardOrder(QuatAlgebra(fld, 2, T * T + 2 * T))


def order_q2():
    fld = make_field(2)
    T = Poly.T(fld)
    return StandardOrder(QuatAlgebra(fld, 1, T * T + T))


def test_gram_matrix_odd():
    fld = make_field(3)
    T = Poly.T(fld)
    a, b = T, T * T + T + 2
    om = StandardOrder(QuatAlgebra(fld, a, b))
    two = Poly.const(fld, 2)
    g = om.gram_matrix()
    assert g[0] == [two, Poly.zero(fld), Poly.zero(fld), Poly.zero(fld)]
    assert g[1][1] == two * a
    assert g[2][2] == two * b
    assert g[3][3] == -two * a * b
    for r in range(4):
        for c in range(4):
            if r != c:
                assert g[r][c].is_zero
            assert g[r][c] == g[c][r]
    assert om.gram_disc() == Poly.const(fld, -16) * a * a * b * b


def test_gram_matrix_even():
    fld = make_field(2, 2)
    T = Poly.T(fld)
    b = T**4 + T
    om = StandardOrder(QuatAlgebra(fld, 2, b))
    g = om.gram_matrix()
    one = Poly.one(fld)
    zero = Poly.zero(fld)
    assert g[0] == [zero, one, zero, zero]
    assert g[1][0] == one
    assert g[2][3] == b and g[3][2] == b
    assert g[2][2].is_zero and g[3][3].is_zero
    assert om.gram_disc() == b * b


def test_gram_disc_formula_random():
    rng = random.Random(73)
    for q, p, e in ((3, 3, 1), (5, 5, 1), (9, 3, 2)):
        fld = make_field(p, e)
        for _ in range(10):
            a = Poly(fld, [rng.randrange(q) for _ in range(rng.randrange(1, 4))])
            b = Poly(fld, [rng.randrange(q) for _ in range(rng.randrange(1, 4))])
            if a.is_zero or b.is_zero:
                continue
            om = StandardOrder(QuatAlgebra(fld, a, b))
            assert om.gram_disc() == Poly.const(fld, -16) * a * a * b * b
    f4 = make_field(2, 2)
    for _ in range(10):
        b = Poly(f4, [rng.randrange(4) for _ in range(rng.randrange(1, 5))])
        if b.is_zero:
            continue
        om = StandardOrder(QuatAlgebra(f4, 2, b))
        assert om.gram_disc() == b * b


def test_certify_maximal_accepts():
    rep = order_q3().certify_maximal()
    assert rep.certified
    assert str(rep.expected) == "T^2+2*T"
    assert rep.reduced == rep.expected
    fld = make_field(3)
    T = Poly.T(fld)
    rep2 = StandardOrder(QuatAlgebra(fld, T, T * T + T + 2)).certify_maximal()
    assert rep2.certified
    assert rep2.expected == T * (T * T + T + 2)
    assert order_q2().certify_maximal().certified


def test_certify_maximal_rejects_split_square():
    fld = make_field(2)
    T = Poly.T(fld)
    om = StandardOrder(QuatAlgebra(fld, 1, T * T))
    rep = om.certify_maximal()
    assert not rep.certified
    with pytest.raises(NotCertified):
        om.ensure_maximal()


def test_certify_propagates_infinite_ramification():
    fld = make_field(3)
    T = Poly.T(fld)
    with pytest.raises(RamifiedAtInfinity):
        StandardOrder(QuatAlgebra(fld, 2, T)).certify_maximal()


def test_is_unit():
    om = order_q3()
    alg = om.alg
    assert om.is_unit(alg.elem(2))
    assert om.is_unit(alg.i)  # norm -2 = 1
    assert not om.is_unit(alg.j)  # norm is a degree-2 polynomial
    assert not om.is_unit(alg.zero)
    assert not om.is_unit(alg.elem(Poly.T(alg.field)))


def reference_poly_sqrt(f):
    """The factor-based square root: smallest root of lc times the
    half-multiplicity powers of the monic irreducible factors."""
    if f.is_zero:
        return f
    fld = f.field
    s = fld.sqrt_(f.lc)
    if s is None:
        return None
    root = Poly.const(fld, s)
    for h, m in factor(f):
        if m % 2:
            return None
        root = root * h ** (m // 2)
    return root


def torsion_oracle_q3(om, bound):
    # brute force: pure quaternions squaring to the non-square constant
    alg = om.alg
    fld = alg.field
    xi = alg.elem(2)
    found = []
    for y in polys_upto(fld, bound + 1):
        for z in polys_upto(fld, bound):
            for w in polys_upto(fld, bound):
                el = alg.elem(0, y, z, w)
                if el * el == xi:
                    found.append(el)
    return found


def test_solve_torsion_q3_matches_oracle():
    om = order_q3()
    for bound in (0, 1):
        got = set(solve_torsion(om, bound))
        want = set(torsion_oracle_q3(om, bound))
        # oracle scans a wider y-range; restrict to the searched shape
        assert got == want
    units = solve_torsion(om, 2)
    alg = om.alg
    T = Poly.T(alg.field)
    elems = set(units)
    assert alg.i in elems
    assert -alg.i in elems
    assert alg.elem(0, 2 * T + 2, 0, 2) in elems
    assert torsion_type(units)[2] == 4
    for u in units:
        assert u * u == alg.elem(2)
        assert paired_unit(u) in elems


def per_pair_division_census(order, bound):
    """The odd-q census with one division by a per pair (z, w): the units
    0 + y*i + z*j + w*ij with y^2 = (xi - b*z^2 + a*b*w^2)/a."""
    alg = order.alg
    fld = alg.field
    xi = Poly.const(fld, choose_xi(fld))
    out = []
    for z in polys_upto(fld, bound):
        for w in polys_upto(fld, bound):
            quo, rem = divmod(xi - alg.b * z * z + alg.a * alg.b * w * w, alg.a)
            if not rem.is_zero:
                continue
            y = reference_poly_sqrt(quo)
            if y is None:
                continue
            for yy in {y, -y}:
                out.append(alg.elem(Poly.zero(fld), yy, z, w))
    return sorted(out, key=census_key)


# (q, algebra, census bound); q=9 is odd q over an extension field, the
# deg b = 4 case at bound 0 roots a table larger than its pair loop, and the
# last two have a nonconstant a, so some z leave a remainder and are skipped
CENSUS_ORACLE_CASES = [
    (3, "H(xi, T^2+2*T)", 2),
    (5, "H(xi, T*(T-1))", 2),
    (3, "H(xi, T^4+2*T^2+T)", 2),
    (9, "H(xi, T*(T-1))", 1),
    (5, "H(xi, T*(T-1)*(T-2)*(T-3))", 0),
    (5, "H(T^2+3*T, T^2+3*T+2)", 2),
    (7, "H(T^2+2*T, T^2+4*T+3)", 1),
]


@pytest.mark.parametrize("q, text, bound", CENSUS_ORACLE_CASES)
def test_solve_torsion_matches_per_pair_division_census(q, text, bound):
    om = StandardOrder(parse_algebra(field_from_q(q), text))
    got = solve_torsion(om, bound)
    assert got
    assert got == per_pair_division_census(om, bound)


def per_pair_product_census(order, bound):
    """The even-q census with the right-hand side g = b*(z^2 + z*w + xi*w^2)
    formed from scratch for each pair (z, w), and x^2 + x = g solved by a
    scan of every x with deg x <= deg g / 2."""
    alg = order.alg
    fld = alg.field
    xi = Poly.const(fld, choose_xi(fld))
    out = []
    for z in polys_upto(fld, bound):
        for w in polys_upto(fld, bound):
            g = alg.b * (z * z + z * w + xi * w * w)
            for x in polys_upto(fld, max(g.deg, 0) // 2):
                if x * x + x == g:
                    out.append(alg.elem(x, Poly.one(fld), z, w))
    return sorted(out, key=census_key)


@pytest.mark.parametrize(
    "q, text, bound",
    [
        (2, "H(xi, T^2+T)", 3),
        (4, "H(xi, T*(T+1))", 1),
        (4, "H(xi, T*(T+1))", 2),
        (8, "H(xi, T*(T+1))", 0),
    ],
)
def test_even_census_matches_per_pair_products(q, text, bound):
    om = StandardOrder(parse_algebra(field_from_q(q), text))
    got = solve_torsion(om, bound)
    assert got
    assert got == per_pair_product_census(om, bound)


def test_solve_torsion_q2():
    om = order_q2()
    alg = om.alg
    fld = alg.field
    T = Poly.T(fld)
    units = solve_torsion(om, 1)
    elems = set(units)
    assert alg.elem(T, 1, 1, 0) in elems
    # independent scan of the same shape
    want = set()
    one = Poly.one(fld)
    for x in polys_upto(fld, 2):
        for z in polys_upto(fld, 1):
            for w in polys_upto(fld, 1):
                el = alg.elem(x, one, z, w)
                if el.norm() == Poly.one(fld) and el.trace() == one:
                    want.add(el)
    assert elems == want
    assert torsion_type(units)[2] == 3
    for u in units:
        assert paired_unit(u) in elems


def test_solve_torsion_q4_census():
    fld = make_field(2, 2)
    T = Poly.T(fld)
    om = StandardOrder(QuatAlgebra(fld, 2, T**4 + T))
    units = solve_torsion(om, 2)
    elems = set(units)
    assert om.alg.i in elems
    # the closed-form family x = s*T^2 + s^2*T + m over constant (z, w):
    # all 30 members must be found
    family = []
    xi = Poly.const(fld, 2)
    for zc in range(4):
        for wc in range(4):
            if zc == 0 and wc == 0:
                continue
            z, w = Poly.const(fld, zc), Poly.const(fld, wc)
            alpha = (z * z + z * w + xi * w * w).coeff(0)
            s = fld.sqrt_(alpha)
            for m in (0, 1):
                x = Poly(fld, (m, fld.mul(s, s), s))
                family.append(om.alg.elem(x, 1, z, w))
    assert len(set(family)) == 30
    for el in family:
        assert el in elems
    assert torsion_type(units) == (Poly.one(fld), xi, 15)
    for u in units:
        assert u.charpoly() == (Poly.one(fld), xi)
        assert paired_unit(u) in elems


def test_solve_torsion_even_requires_xi_shape():
    fld = make_field(2)
    T = Poly.T(fld)
    om = StandardOrder(QuatAlgebra(fld, 1, T * T + T))
    alg_bad = QuatAlgebra(make_field(2, 2), 3, Poly.T(make_field(2, 2)) ** 4 + 1)
    with pytest.raises(Unsupported):
        solve_torsion(StandardOrder(alg_bad), 1)
    assert solve_torsion(om, 0)  # sanity: the restricted shape works


def test_conj_search_identity_and_constructed():
    om = order_q3()
    alg = om.alg
    res = conj_search(om, alg.i, alg.i, 0)
    assert isinstance(res, Witness)
    assert res.lam == alg.one
    # conjugate i by a non-central torsion unit and recover a witness
    T = Poly.T(alg.field)
    theta = alg.elem(0, 2 * T + 2, 0, 2)
    assert theta.norm() == Poly.one(alg.field)
    target = theta * alg.i * theta.conj()  # theta^-1 = conj/norm = conj
    res2 = conj_search(om, alg.i, target, 1)
    assert isinstance(res2, Witness)
    assert res2.lam * alg.i == target * res2.lam


def test_conj_search_rejects_unrelated():
    om = order_q3()
    alg = om.alg
    res = conj_search(om, alg.i, alg.j, 2)
    assert isinstance(res, NoWitness)
    assert not res
    assert res.bound == 2


def test_default_conj_bound():
    assert default_conj_bound(order_q3()) == 4
    assert default_conj_bound(order_q2()) == 4


def test_torsion_classes_merges_constructed_conjugates(monkeypatch):
    om = order_q3()
    alg = om.alg
    T = Poly.T(alg.field)
    theta = alg.elem(0, 2 * T + 2, 0, 2)
    target = theta * alg.i * theta.conj()
    units = [alg.i, target, -alg.i]
    searched = []

    def recording(order, x, y, bound):
        searched.append({x, y})
        return conj_search(order, x, y, bound)

    monkeypatch.setattr("btquot.order.conj_search", recording)
    classes = torsion_classes(om, units)
    sizes = sorted(len(c) for c in classes)
    by_elem = {}
    for ci, cl in enumerate(classes):
        for u in cl:
            by_elem[u] = ci
    assert by_elem[alg.i] == by_elem[target]
    assert sizes in ([1, 2], [3])
    # i and -i differ mod T (y = 1 against y = 2), so their residue keys
    # differ: they are never conjugate, and no search is made for them
    assert om.residue_key(alg.i) != om.residue_key(-alg.i)
    assert {alg.i, -alg.i} not in searched
    assert {alg.i, target} in searched
    assert sizes == [1, 2]


def reference_torsion_classes(order, units, search, max_bound=None):
    """torsion_classes with buckets keyed by (trace, norm) alone, searching
    every pair of classes in a bucket with search(order, x, y, bound)."""
    if max_bound is None:
        max_bound = default_conj_bound(order)
    n = len(units)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    buckets = {}
    for idx, u in enumerate(units):
        buckets.setdefault((u.trace().coeffs, u.norm().coeffs), []).append(idx)
    for b in range(max_bound + 1):
        for idxs in buckets.values():
            reps = {}
            for i in idxs:
                reps.setdefault(find(i), i)
            keys = sorted(reps)
            for ai in range(len(keys)):
                for bi in range(ai + 1, len(keys)):
                    i, j = reps[keys[ai]], reps[keys[bi]]
                    if find(i) == find(j):
                        continue
                    res = search(order, units[i], units[j], b)
                    if isinstance(res, Witness):
                        union(i, j)
    classes = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(units[i])
    out = [sorted(v, key=census_key) for v in classes.values()]
    out.sort(key=lambda cl: census_key(cl[0]))
    return out


# (q, algebra, census bound, expected class count): the two even-q
# censuses and the odd-q census of acceptance criterion 4
SWEEP_ORACLE_CASES = [
    (2, "H(xi, T^2+T)", 2, 4),
    (4, "H(xi, T*(T+1))", 1, 4),
    (3, "H(xi, T*(T-1))", 2, 4),
]


@pytest.mark.parametrize("q, text, bound, expected", SWEEP_ORACLE_CASES)
def test_torsion_classes_match_trace_norm_sweep(q, text, bound, expected):
    alg = parse_algebra(field_from_q(q), text)
    om = StandardOrder(alg)
    units = solve_torsion(om, bound)
    witnesses = []

    def search(order, x, y, b):
        res = conj_search(order, x, y, b)
        if isinstance(res, Witness):
            witnesses.append((x, y))
        return res

    want = reference_torsion_classes(om, units, search)
    assert torsion_classes(om, units) == want
    assert len(want) == expected
    assert witnesses
    for x, y in witnesses:
        assert om.residue_key(x) == om.residue_key(y)


@pytest.mark.parametrize("q, bound, calls", [(2, 3, 52), (4, 1, 8)])
def test_torsion_classes_search_count(q, bound, calls, monkeypatch, capsys):
    # buckets keyed by (trace, norm) alone made 4 592 and 1 338 searches,
    # and pairwise searches at bound 0 made 1 162 and 388; the orbit pass
    # of the constant units leaves only the searches at bound 1 and up
    from btquot import cli

    made = []

    def counting(order, x, y, b):
        made.append(b)
        return conj_search(order, x, y, b)

    monkeypatch.setattr("btquot.order.conj_search", counting)
    argv = ["torsion", "--q", str(q), "--r", "T*(T+1)", "--bound", str(bound)]
    assert cli.main(argv) == 0
    assert len(made) == calls


# the even-q census of SWEEP_ORACLE_CASES and the three even-q torsion specs
# the CLI pins (the q=4 one is in both)
EVEN_TORSION_CASES = [
    (2, "H(xi, T^2+T)", 2),
    (4, "H(xi, T*(T+1))", 1),
    (2, "H(xi, T*(T+1))", 3),
    (8, "H(xi, T*(T+1))", 1),
]


@pytest.mark.parametrize("q, text, bound", EVEN_TORSION_CASES)
def test_twice_the_cutoff_gives_the_same_classes(q, text, bound, monkeypatch):
    om = StandardOrder(parse_algebra(field_from_q(q), text))
    units = solve_torsion(om, bound)
    classes = torsion_classes(om, units)
    # the classes have distinct residue keys (the census shares one trace
    # and norm), so no bound can join two
    assert len({om.residue_key(cl[0]) for cl in classes}) == len(classes) == 4
    cutoff = default_conj_bound
    monkeypatch.setattr("btquot.order.default_conj_bound", lambda o: 2 * cutoff(o))
    assert torsion_classes(om, units) == classes


def pairwise_bound_zero_classes(order, units):
    """The connected components of "conj_search at bound 0 finds a witness"
    over every pair of units with the same trace and norm."""
    comp = list(range(len(units)))

    def find(i):
        while comp[i] != i:
            i = comp[i]
        return i

    for i, x in enumerate(units):
        for j in range(i + 1, len(units)):
            y = units[j]
            if x.charpoly() != y.charpoly():
                continue
            if conj_search(order, x, y, 0):
                comp[find(j)] = find(i)
    classes = {}
    for i, u in enumerate(units):
        classes.setdefault(find(i), set()).add(u)
    return {frozenset(cl) for cl in classes.values()}


# (q, algebra, census bound, number of constant units U0)
ORBIT_PASS_CASES = [
    (2, "H(xi, T^2+T)", 3, 3),
    (4, "H(xi, T*(T+1))", 1, 15),
    (3, "H(xi, T*(T-1))", 2, 8),
    # a is not constant and U0 is the scalars: the pass joins nothing
    (7, "H(T^2+2*T, T^2+4*T+3)", 1, 6),
    # U0 is F_5[n]^x and F_5[n']^x for n, n' = j +- 2i (n^2 = n'^2 = 2),
    # meeting in the scalars: not a group, yet the components still agree
    (5, "H(T^2+3*T, T^2+3*T+2)", 2, 44),
]


@pytest.mark.parametrize("q, text, bound, u0", ORBIT_PASS_CASES)
def test_orbit_pass_matches_pairwise_bound_zero_searches(
    q, text, bound, u0, monkeypatch
):
    om = StandardOrder(parse_algebra(field_from_q(q), text))
    units = solve_torsion(om, bound)
    want = pairwise_bound_zero_classes(om, units)
    assert len(list(span_units(om.alg, om.alg.basis()))) == u0

    def no_search(order, x, y, b):
        raise AssertionError("searched at bound %d" % b)

    # with the cutoff at 0 only the orbit pass runs
    monkeypatch.setattr("btquot.order.default_conj_bound", lambda order: 0)
    monkeypatch.setattr("btquot.order.conj_search", no_search)
    got = {frozenset(cl) for cl in torsion_classes(om, units)}
    assert got == want
    assert (len(got) < len(units)) == (u0 > q - 1)
    # the orbit helper gives each unit the smallest index of its component,
    # whether U0 modulo scalars is a group or not
    where = {u: i for i, u in enumerate(units)}
    low = {e: min(where[f] for f in comp) for comp in want for e in comp}
    orbits = constant_unit_orbits(om, units, census_index(units))
    assert orbits == [low[u] for u in units]


def test_constant_unit_orbits_follow_paths_when_u0_is_no_group():
    # U0 = F_5[n]^x u F_5[n']^x is no group.  The chain x -> y -> z -> w of
    # conjugations by lam, mu and nu in U0 sorts as x, y, w, z, and mapping
    # only the first unit of each orbit would join x with y and w with z
    # but never y with z: every unit must be mapped
    alg = parse_algebra(field_from_q(5), "H(T^2+3*T, T^2+3*T+2)")
    om = StandardOrder(alg)
    lam, mu, nu = alg.elem(1, 3, 1), alg.elem(1, 2, 1), alg.elem(0, 1, 2)
    x = alg.elem(0, 2, 1)
    y = conjugation_map(lam)(x)
    z = conjugation_map(mu)(y)
    w = conjugation_map(nu)(z)
    units = sorted((x, y, z, w), key=census_key)
    assert units == [x, y, w, z]
    assert constant_unit_orbits(om, units, census_index(units)) == [0, 0, 0, 0]


def test_orbit_pass_rejects_an_image_in_another_bucket(monkeypatch):
    # a residue key that tells every element apart is no conjugacy
    # invariant: the first census unit with another unit in its orbit
    # under the constant units breaks it
    om = StandardOrder(parse_algebra(field_from_q(2), "H(xi, T^2+T)"))
    units = solve_torsion(om, 1)
    monkeypatch.setattr(StandardOrder, "residue_key", lambda self, el: el.coords)
    with pytest.raises(InvariantViolation, match="residue key differs"):
        torsion_classes(om, units)


def reference_mult_order(el):
    """The multiplicative order by repeated multiplication, or None past q^2."""
    alg = el.alg
    acc = el
    for n in range(1, alg.field.q**2 + 1):
        if acc == alg.one:
            return n
        acc = acc * el
    return None


ORDER_ORACLE_CASES = [
    (2, "H(xi, T^2+T)", 2),
    (3, "H(xi, T*(T-1))", 2),
    (4, "H(xi, T*(T+1))", 1),
    (5, "H(xi, T*(T-1))", 1),
]


@pytest.mark.parametrize("q, text, bound", ORDER_ORACLE_CASES)
def test_torsion_order_matches_repeated_multiplication(q, text, bound):
    alg = parse_algebra(field_from_q(q), text)
    census = solve_torsion(StandardOrder(alg), bound)
    assert census
    # every element of F_q[i] = F_{q^2} outside F_q, so every order there
    field_units = [alg.elem(c, d) for c in range(q) for d in range(1, q)]
    for el in census + [alg.one, -alg.one, alg.i, -alg.i] + field_units:
        assert torsion_type([el])[2] == reference_mult_order(el)


def test_non_torsion_census_element_is_invariant_violation(monkeypatch, capsys):
    from btquot import cli

    om = order_q3()
    T = Poly.T(om.alg.field)
    with pytest.raises(InvariantViolation, match="is not torsion"):
        torsion_type([om.alg.elem(0, T)])

    def census_with_stray(order, bound):
        return [order.alg.elem(0, Poly.T(order.alg.field))]

    monkeypatch.setattr(cli, "solve_torsion", census_with_stray)
    code = cli.main(["torsion", "--q", "3", "--r", "T*(T-1)", "--no-classes"])
    assert code == 4
    assert "invariant violated: census element" in capsys.readouterr().err


def test_torsion_unit_metadata():
    om = order_q3()
    trace, norm, order = torsion_type([om.alg.i, -om.alg.i])
    assert order == 4
    assert norm == Poly.one(om.alg.field)
    assert trace.is_zero
    assert torsion_type([]) is None
    assert paired_unit(om.alg.i) == -om.alg.i


@pytest.mark.parametrize(
    "q, text, bound",
    [(3, "H(xi, T*(T-1))", 2), (7, "H(xi, T*(T-1))", 1), (4, "H(xi, T*(T+1))", 1)],
)
def test_solve_torsion_takes_one_norm_per_unit(q, text, bound, monkeypatch):
    # the census reads each unit's characteristic polynomial once, to check
    # it against the one quadratic every unit solves
    om = StandardOrder(parse_algebra(field_from_q(q), text))
    calls = []
    plain = QuatElem.norm

    def counting(self):
        calls.append(self)
        return plain(self)

    monkeypatch.setattr(QuatElem, "norm", counting)
    units = solve_torsion(om, bound)
    monkeypatch.undo()
    assert units
    assert len(calls) == len(units)


def reference_conj_search(order, x, y, bound):
    """conj_search with the per-call assembly: the images e*x - y*e from
    QuatElem products, shifted by T^k through scale(Poly.monomial(...))."""
    alg = order.alg
    fld = alg.field
    if x == y:
        return Witness(alg.one, None)
    images = [e * x - y * e for e in alg.basis()]
    ncols = 4 * (bound + 1)
    maxdeg = bound + 1 + max(
        max((c.deg for c in im.coords if not c.is_zero), default=0) for im in images
    )
    nrows = 4 * (maxdeg + 1)
    cols = []
    for mu in range(4):
        for k in range(bound + 1):
            shifted = images[mu].scale(Poly.monomial(fld, k))
            col = [0] * nrows
            for ci, co in enumerate(shifted.coords):
                for d, cf in enumerate(co.coeffs):
                    col[ci * (maxdeg + 1) + d] = cf
            cols.append(col)
    rows = [[cols[c][r] for c in range(ncols)] for r in range(nrows)]
    kern = nullspace(rows, ncols, fld)
    if not kern:
        return NoWitness(bound)
    gens = [
        QuatElem(alg, *(Poly(fld, vec[mu * (bound + 1) : (mu + 1) * (bound + 1)])
                        for mu in range(4)))
        for vec in kern
    ]
    k = len(gens)
    norms = {(t, t): gens[t].norm() for t in range(k)}
    for t in range(k):
        for s in range(t + 1, k):
            norms[(t, s)] = (gens[t] + gens[s]).norm() - norms[(t, t)] - norms[(s, s)]
    common = Poly.zero(fld)
    for p in norms.values():
        common = gcd(common, p)
    if common.is_zero or common.deg >= 1:
        return NoWitness(bound)
    for vec in _projective_vectors(fld, k):
        val = Poly.zero(fld)
        for t in range(k):
            if vec[t]:
                val = val + norms[(t, t)].scale(fld.mul(vec[t], vec[t]))
                for s in range(t + 1, k):
                    if vec[s]:
                        val = val + norms[(t, s)].scale(fld.mul(vec[t], vec[s]))
        if val.is_const and not val.is_zero:
            lam = alg.zero
            for t in range(k):
                if vec[t]:
                    lam = lam + gens[t].scale(vec[t])
            return Witness(lam, bound)
    return NoWitness(bound)


def assert_same_verdict(order, x, y, bound):
    got = conj_search(order, x, y, bound)
    want = reference_conj_search(order, x, y, bound)
    assert type(got) is type(want), (x, y, bound)
    if isinstance(got, Witness):
        assert got.lam == want.lam
        assert got.bound == want.bound
        assert got.lam * x == y * got.lam
        assert order.is_unit(got.lam)
    else:
        assert got.bound == want.bound == bound
    return got


def test_conj_search_matches_per_call_product_reference():
    # (field, algebra, census bound, conjugacy bounds)
    runs = [
        ((3, 1), "H(xi, T*(T-1))", 1, (0, 1, 2)),
        ((5, 1), "H(xi, T*(T-1))", 0, (1,)),
        ((2, 1), "H(xi, T*(T+1))", 1, (2,)),
    ]
    for (p, e), text, census, bounds in runs:
        om = StandardOrder(parse_algebra(make_field(p, e), text))
        units = solve_torsion(om, census)
        buckets = {}
        for u in units:
            buckets.setdefault((u.trace().coeffs, u.norm().coeffs), []).append(u)
        witnesses = misses = 0
        for elems in buckets.values():
            for a in range(len(elems)):
                for b in range(a + 1, len(elems)):
                    for bound in bounds:
                        res = assert_same_verdict(om, elems[a], elems[b], bound)
                        if isinstance(res, Witness):
                            witnesses += 1
                        else:
                            misses += 1
        assert witnesses and misses, (text, witnesses, misses)
    # Two algebras sharing element coordinates (i, j, i + j, a unit):
    # each order's products come from its own algebra, whichever order
    # saw the element first.
    fld = make_field(3)
    orders = [
        StandardOrder(parse_algebra(fld, "H(xi, T*(T-1))")),
        StandardOrder(parse_algebra(fld, "H(xi, T^4+2*T^2+T)")),
    ]
    for om in orders + orders[::-1]:
        alg = om.alg
        for x in (alg.i, alg.j, alg.i + alg.j):
            right, left = om.basis_products(x)
            assert right == [e * x for e in alg.basis()]
            assert left == [x * e for e in alg.basis()]
            assert all(el.alg is alg for el in right + left)
        units = solve_torsion(om, 0)
        for y in units:
            assert_same_verdict(om, alg.i, y, 1)


def brute_span_units(alg, gens):
    """Every nonzero combination of gens with a nonzero constant norm, by
    the loop over all q^k - 1 combinations that hom_units used to run."""
    fld = alg.field
    out = []
    for combo in product(range(fld.q), repeat=len(gens)):
        if not any(combo):
            continue
        lam = alg.zero
        for c, g in zip(combo, gens):
            if c:
                lam = lam + g.scale(c)
        nr = lam.norm()
        if nr.is_const and not nr.is_zero:
            out.append(lam)
    return out


def assert_span_units_match(alg, gens):
    def key(g):
        return tuple(c.sort_key() for c in g.coords)

    got = list(span_units(alg, gens))
    assert len(set(got)) == len(got)
    assert sorted(got, key=key) == sorted(brute_span_units(alg, gens), key=key)


def recorded_spans(monkeypatch, module):
    """Record the (alg, gens) of every span_units call made from module."""
    spans = []

    def recording(alg, gens):
        spans.append((alg, list(gens)))
        return span_units(alg, gens)

    monkeypatch.setattr(module, "span_units", recording)
    return spans


def test_span_units_matches_brute_force_on_hom_units_kernels():
    from btquot import quotient
    from btquot.bttree import TreeVertex

    for q in (3, 5, 7, 9, 11):
        fld = field_from_q(q)
        emb = quotient.SplitEmbedding(parse_algebra(fld, "H(xi, T*(T-1))"))
        chain = [TreeVertex.base(fld)]
        for _ in range(3):
            chain.append(chain[-1].neighbors()[2])
        spaces = [
            quotient.hom_units(emb, v, w, bound)
            for v in chain
            for w in chain
            for bound in range(quotient.completeness_bound(v, w) + 1)
        ]
        assert {len(gens) for gens in spaces} == {0, 1, 2}, q
        for gens in spaces:
            assert_span_units_match(emb.alg, gens)


def test_span_units_matches_brute_force_on_conj_search_systems(monkeypatch):
    from btquot import order

    spans = recorded_spans(monkeypatch, order)
    for q in (2, 4):
        del spans[:]
        om = StandardOrder(parse_algebra(field_from_q(q), "H(xi, T*(T+1))"))
        torsion_classes(om, solve_torsion(om, 1))
        # 4: the constant units of the bound-0 orbit pass; 2: the kernels
        # of the searches at bound 1
        assert {len(gens) for _, gens in spans} == {2, 4}, q
        for alg, gens in spans:
            assert_span_units_match(alg, gens)


def test_span_units_gcd_rule_rejects_a_common_factor(monkeypatch):
    # the norm form of the span of T and T*i is T^2 (c^2 - a*d^2): every
    # value is divisible by T^2, so no unit exists and nothing is scanned
    alg = order_q3().alg
    T = Poly.T(alg.field)
    gens = [alg.elem(T), alg.i.scale(T)]
    assert brute_span_units(alg, gens) == []

    def no_scan(fld, k):
        raise AssertionError("the projective scan ran")

    monkeypatch.setattr("btquot.order._projective_vectors", no_scan)
    assert list(span_units(alg, gens)) == []
    assert list(span_units(alg, [])) == []


OPTIMIZED_WITNESS_CHECKS = """
import sys
from btquot import order
from btquot.errors import InvariantViolation
from btquot.gfpoly import Poly, make_field
from btquot.quat import QuatAlgebra
if __debug__:
    sys.exit("asserts are enabled; expected python -O")
fld = make_field(3)
T = Poly.T(fld)
alg = QuatAlgebra(fld, 2, T * T + 2 * T)
theta = alg.elem(0, 2 * T + 2, 0, 2)
target = theta * alg.i * theta.conj()


class NoUnits(order.StandardOrder):
    def is_unit(self, el):
        return False


def one_only(rows, width, fld):
    return [[1] + [0] * (width - 1)]


class ElementKeys(order.StandardOrder):
    def residue_key(self, el):
        return el.coords  # tells every element apart: no invariant


caught = []
try:
    order.conj_search(NoUnits(alg), alg.i, target, 1)
except InvariantViolation as exc:
    caught.append(str(exc))
keyed = ElementKeys(alg)
try:
    order.torsion_classes(keyed, order.solve_torsion(keyed, 1))
except InvariantViolation as exc:
    caught.append(str(exc))
order.nullspace = one_only  # the kernel claims 1 commutes i with j
try:
    order.conj_search(order.StandardOrder(alg), alg.i, alg.j, 1)
except InvariantViolation as exc:
    caught.append(str(exc))
for message in caught:
    print(message)
"""


def test_conj_search_witness_checks_raise_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(btquot.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_WITNESS_CHECKS],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, proc.stdout
    assert "non-unit norm" in lines[0]
    assert "residue key differs" in lines[1]
    assert lines[2] == "conjugacy witness 1 does not take i to j"


def cycle(el, count):
    """power_cycle with the characteristic polynomial of el."""
    return power_cycle(el, *el.charpoly(), count)


def test_power_cycle_stops_at_the_first_power_equal_to_one():
    om = order_q3()
    alg = om.alg
    T = Poly.T(om.alg.field)
    # i^2 = 2 = -1, so i has order 4: i, -1, -i, 1
    assert cycle(alg.i, 9) == [(0, 1), (2, 0), (0, 2), (1, 0)]
    assert cycle(alg.i, 4) == [(0, 1), (2, 0), (0, 2), (1, 0)]
    assert cycle(alg.i, 3) is None
    assert cycle(alg.elem(2), 9) == [(2, 0), (1, 0)]
    assert cycle(alg.elem(1), 1) == [(1, 0)]
    assert cycle(alg.elem(0, T), 9) is None
    # 1 + i has norm 1 - 2 = 2 and trace 2: order 8 in F_9^x
    assert len(cycle(alg.elem(1, 1), 9)) == 8


def test_power_cycle_of_scalars_and_non_constant_charpolys():
    om = order_q3()
    alg = om.alg
    fld = om.alg.field
    T = Poly.T(fld)
    assert cycle(alg.elem(0, T), 4) is None
    assert cycle(alg.elem(T), 4) is None
    assert cycle(alg.elem(2), 4) == [(2, 0), (1, 0)]
    i = alg.i
    powers = [i, i * i, i * i * i, i * i * i * i]
    pairs = cycle(i, 4)
    assert len(pairs) == len(powers)
    for (u, v), want in zip(pairs, powers):
        assert i.scale(v) + u == want
