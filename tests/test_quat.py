import functools
import os
import random
import subprocess
import sys
from itertools import combinations, product

import pytest

import btquot
from btquot import quat
from btquot.errors import RamifiedAtInfinity, SearchExhausted, Unsupported
from btquot.gfpoly import (
    Place,
    Poly,
    choose_xi,
    factor,
    field_from_q,
    is_irreducible,
    is_squarefree,
    make_field,
    polys_upto,
    powmod,
    sqr_test_residue,
    strip_power,
)
from btquot.order import StandardOrder
from btquot.quat import (
    QuatAlgebra,
    find_algebra,
    hilbert_symbol,
    is_split_at,
    ram_product,
    ramified_set,
)

from conftest import parse_algebra


def rand_elem(rng, alg, deg=2):
    q = alg.field.q
    return alg.elem(
        *(Poly(alg.field, [rng.randrange(q) for _ in range(deg + 1)]) for _ in range(4))
    )


def sample_algebras(fld):
    T = Poly.T(fld)
    if fld.p == 2:
        from btquot.gfpoly import choose_xi

        xi = choose_xi(fld)
        return [QuatAlgebra(fld, xi, b) for b in (T, T * T + T, T**3 + T + 1)]
    return [
        QuatAlgebra(fld, 2, T * T + 2 * T),
        QuatAlgebra(fld, T, T * T + T + 2),
        QuatAlgebra(fld, 1, T),
        QuatAlgebra(fld, T + 1, 2 * T),
    ]


def test_defining_relations_odd():
    fld = make_field(3)
    T = Poly.T(fld)
    alg = QuatAlgebra(fld, T, T * T + T + 2)
    i, j, ij = alg.i, alg.j, alg.ij
    assert i * i == alg.elem(T)
    assert j * j == alg.elem(T * T + T + 2)
    assert i * j == ij
    assert j * i == -ij
    assert ij * ij == alg.elem(-T * (T * T + T + 2))


def test_defining_relations_even():
    fld = make_field(2, 2)
    T = Poly.T(fld)
    alg = QuatAlgebra(fld, 2, T**4 + T)  # a = omega has absolute trace 1
    i, j, ij = alg.i, alg.j, alg.ij
    assert i * i == alg.elem(2) + i
    assert j * j == alg.elem(T**4 + T)
    assert j * i == i * j + j
    assert i * j == ij


def test_even_q_rejects_bad_first_parameter():
    fld = make_field(2)
    T = Poly.T(fld)
    with pytest.raises(Unsupported):
        QuatAlgebra(fld, T, T)  # non-constant
    with pytest.raises(Unsupported):
        QuatAlgebra(make_field(2, 2), 1, T)  # trace zero
    with pytest.raises(ValueError):
        QuatAlgebra(fld, 0, T)


def test_ring_axioms_random():
    rng = random.Random(59)
    for fld in (make_field(3), make_field(2), make_field(2, 2)):
        for alg in sample_algebras(fld)[:2]:
            for _ in range(25):
                a, b, c = (rand_elem(rng, alg) for _ in range(3))
                assert (a + b) * c == a * c + b * c
                assert a * (b + c) == a * b + a * c
                assert (a * b) * c == a * (b * c)
                assert a * alg.one == a and alg.one * a == a


def test_conj_is_anti_automorphism():
    rng = random.Random(61)
    for fld in (make_field(5), make_field(2, 2)):
        alg = sample_algebras(fld)[0]
        for _ in range(30):
            a, b = rand_elem(rng, alg), rand_elem(rng, alg)
            assert (a * b).conj() == b.conj() * a.conj()
            assert a.conj().conj() == a
            assert (a + b).conj() == a.conj() + b.conj()


def test_norm_and_trace():
    rng = random.Random(67)
    for fld in (make_field(3), make_field(7), make_field(2), make_field(2, 3)):
        for alg in sample_algebras(fld)[:2]:
            for _ in range(30):
                a = rand_elem(rng, alg)
                b = rand_elem(rng, alg)
                na = a * a.conj()
                assert na.is_scalar
                assert na.x == a.norm()
                ta = a + a.conj()
                assert ta.is_scalar and ta.x == a.trace()
                assert (a * b).norm() == a.norm() * b.norm()
                t, n = a.charpoly()
                assert a * a - a.scale(t) + alg.elem(n) == alg.zero


def test_equal_elements_of_equal_algebras_hash_equal():
    fld = make_field(3)
    T = Poly.T(fld)
    one, other = QuatAlgebra(fld, 2, T * T + 2 * T), QuatAlgebra(fld, 2, T * T + 2 * T)
    assert one is not other and one == other
    x, y = one.elem(T, 1, 0, T + 2), other.elem(T, 1, 0, T + 2)
    assert x == y and hash(x) == hash(y)
    assert {x: 1}[y] == 1
    assert x != QuatAlgebra(fld, 1, T).elem(T, 1, 0, T + 2)


def test_str():
    fld = make_field(3)
    T = Poly.T(fld)
    alg = QuatAlgebra(fld, 2, T * T + 2 * T)
    assert str(alg) == "H(2, T^2+2*T)"
    assert str(alg.elem(0, T + 1, 0, 2)) == "(T+1)*i + 2*ij"
    assert str(alg.one) == "1"
    assert str(alg.zero) == "0"


def test_hilbert_symbol_frozen_odd():
    fld = make_field(3)
    T = Poly.T(fld)
    alg = QuatAlgebra(fld, 2, T * T + 2 * T)
    assert hilbert_symbol(alg, Place.finite(T)) == -1
    assert hilbert_symbol(alg, Place.finite(T + 2)) == -1
    assert hilbert_symbol(alg, Place.finite(T + 1)) == 1
    assert hilbert_symbol(alg, Place.infinity()) == 1
    alg2 = QuatAlgebra(fld, T, T * T + T + 2)
    assert hilbert_symbol(alg2, Place.finite(T)) == -1
    assert hilbert_symbol(alg2, Place.finite(T * T + T + 2)) == -1
    assert hilbert_symbol(alg2, Place.infinity()) == 1
    # 2 is a square in F_9, so the same b ramifies nowhere over F_9
    f9 = make_field(3, 2)
    T9 = Poly.T(f9)
    alg9 = QuatAlgebra(f9, 2, T9 * T9 + 2 * T9)
    assert ramified_set(alg9) == []


def _inverse_hilbert_symbol(alg, v):
    """The symbol at the finite place v as the quadratic character of
    (-1)^(alpha*beta) * a0^beta * (b0^alpha)^-1, the inverse taken mod v."""
    fld = alg.field
    alpha, a0 = strip_power(alg.a, v)
    beta, b0 = strip_power(alg.b, v)
    ub = powmod(b0, alpha, v)
    u = (powmod(a0, beta, v) * powmod(ub, fld.q**v.deg - 2, v)) % v
    if (alpha * beta) % 2:
        u = (-u) % v
    return sqr_test_residue(v, u)


def test_hilbert_symbol_matches_inverse_formula():
    rng = random.Random(71)

    def rand_poly(fld, deg):
        coeffs = [rng.randrange(fld.q) for _ in range(deg)]
        return Poly(fld, coeffs + [rng.randrange(1, fld.q)])

    seen = set()
    for q in (3, 5, 7, 9, 11):
        fld = field_from_q(q)
        for _ in range(12):
            # a shared linear factor puts a place dividing both a and b
            c = rand_poly(fld, 1)
            a, b = (c * rand_poly(fld, rng.randint(0, 3)) for _ in range(2))
            alg = QuatAlgebra(fld, a, b)
            places = {h for f in (a, b) for h, _ in factor(f)}
            for h in sorted(places, key=Poly.sort_key):
                got = hilbert_symbol(alg, Place.finite(h))
                assert got == _inverse_hilbert_symbol(alg, h), (alg, h)
                seen.add((got, strip_power(a, h)[0] * strip_power(b, h)[0] % 2))
    assert seen == {(1, 0), (1, 1), (-1, 0), (-1, 1)}


def test_hilbert_symbol_frozen_even():
    fld = make_field(2)
    T = Poly.T(fld)
    alg = QuatAlgebra(fld, 1, T * T + T)
    assert hilbert_symbol(alg, Place.finite(T)) == -1
    assert hilbert_symbol(alg, Place.finite(T + 1)) == -1
    assert hilbert_symbol(alg, Place.finite(T * T + T + 1)) == 1
    assert hilbert_symbol(alg, Place.infinity()) == 1


def test_ramified_at_infinity_raises():
    fld = make_field(3)
    T = Poly.T(fld)
    with pytest.raises(RamifiedAtInfinity):
        ramified_set(QuatAlgebra(fld, 2, T))
    f2 = make_field(2)
    T2 = Poly.T(f2)
    with pytest.raises(RamifiedAtInfinity):
        ramified_set(QuatAlgebra(f2, 1, T2))


def test_ramified_set_and_product():
    fld = make_field(3)
    T = Poly.T(fld)
    alg = QuatAlgebra(fld, 2, T * T + 2 * T)
    rs = ramified_set(alg)
    assert [str(p) for p in rs] == ["T", "T+2"]
    assert ram_product(alg) == T * T + 2 * T
    alg2 = QuatAlgebra(fld, T, T * T + T + 2)
    assert ram_product(alg2) == T * (T * T + T + 2)


def test_product_formula():
    # the symbol is -1 at an even number of places, infinity included
    rng = random.Random(71)
    for q in (3, 5):
        fld = make_field(q)
        for _ in range(40):
            a = Poly(fld, [rng.randrange(q) for _ in range(rng.randrange(1, 4))])
            b = Poly(fld, [rng.randrange(q) for _ in range(rng.randrange(1, 4))])
            if a.is_zero or b.is_zero:
                continue
            alg = QuatAlgebra(fld, a, b)
            prod = hilbert_symbol(alg, Place.infinity())
            seen = set()
            for f in (a, b):
                work = f
                from btquot.gfpoly import factor

                for h, _ in factor(work):
                    if h not in seen:
                        seen.add(h)
                        prod *= hilbert_symbol(alg, Place(h))
            assert prod == 1


def test_split_at_places_prime_to_ab():
    fld = make_field(3)
    T = Poly.T(fld)
    alg = QuatAlgebra(fld, T, T * T + T + 2)
    for pl in (T + 1, T + 2, T * T + 1):
        assert is_split_at(alg, Place.finite(pl))


def isotropy_oracle(alg, place):
    """Primitive zero of the norm form over O_v / v^3.

    Sound when a*b is squarefree: the norm form then has a gradient of
    valuation at most 1 at every primitive point, so a primitive zero
    modulo v^3 lifts to the completion and conversely.
    """
    fld = alg.field
    assert is_squarefree(alg.a * alg.b)
    v = place.poly
    v3 = v**3
    res = list(polys_upto(fld, 3 * v.deg - 1))
    a, b = alg.a, alg.b

    prim = [not (r % v).is_zero for r in res]

    def value_flags_separable(left, right):
        # both halves reduced mod v^3 up front; the sum needs no reduction
        out = {}
        for fx, px in zip(left, prim):
            for gy, py in zip(right, prim):
                fl = out.setdefault((fx + gy).coeffs, [False, False])
                fl[1 if (px or py) else 0] = True
        return out

    def value_flags(form):
        out = {}
        for x, px in zip(res, prim):
            for y, py in zip(res, prim):
                fl = out.setdefault((form(x, y) % v3).coeffs, [False, False])
                fl[1 if (px or py) else 0] = True
        return out

    # the norm form vanishes iff the two halves take a common value
    if alg.even:
        d1 = value_flags(lambda x, y: x * x + x * y + a * y * y)
        d2 = value_flags(lambda z, w: b * (z * z + z * w + a * w * w))
    else:
        d1 = value_flags_separable(
            [x * x % v3 for x in res], [(-a) * y * y % v3 for y in res]
        )
        d2 = value_flags_separable(
            [b * z * z % v3 for z in res], [(-a * b) * w * w % v3 for w in res]
        )
    for key, fl in d1.items():
        other = d2.get(key)
        if other is None:
            continue
        if fl[1] or other[1]:
            return True
    return False


def test_symbol_matches_isotropy_oracle_degree_one():
    for fld in (make_field(3), make_field(2)):
        T = Poly.T(fld)
        places = [Place.finite(T + c) for c in range(fld.q)]
        for alg in sample_algebras(fld):
            if not is_squarefree(alg.a * alg.b):
                continue
            for pl in places:
                want = isotropy_oracle(alg, pl)
                assert is_split_at(alg, pl) == want, (str(alg), str(pl))


def test_symbol_matches_isotropy_oracle_degree_two():
    fld = make_field(3)
    T = Poly.T(fld)
    pl = Place.finite(T * T + T + 2)
    alg = QuatAlgebra(fld, T, T * T + T + 2)
    assert is_split_at(alg, pl) == isotropy_oracle(alg, pl) == False
    alg2 = QuatAlgebra(fld, 2, T * T + 2 * T)
    assert is_split_at(alg2, pl) == isotropy_oracle(alg2, pl) == True


def test_find_algebra_examples():
    fld = make_field(3)
    T = Poly.T(fld)
    alg = find_algebra(fld, [Place.finite(T), Place.finite(T + 2)])
    assert alg == QuatAlgebra(fld, 2, T * T + 2 * T)
    alg2 = find_algebra(fld, [Place.finite(T), Place.finite(T * T + T + 2)])
    assert alg2 == QuatAlgebra(fld, T, T * T + T + 2)
    # H(2, T^4+T^3+T^2+T) ramifies at these places too, but its degree 4
    # sorts after max(deg a, deg b) = 2
    f5 = make_field(5)
    T5 = Poly.T(f5)
    places = [Place.finite(T5 + c) for c in range(4)]
    alg3 = find_algebra(f5, places)
    assert alg3 == QuatAlgebra(f5, T5**2 + 3 * T5, T5**2 + 3 * T5 + 2)
    assert ramified_set(QuatAlgebra(f5, 2, T5**4 + T5**3 + T5**2 + T5)) == places


def test_find_algebra_even_q():
    f2 = make_field(2)
    T = Poly.T(f2)
    alg = find_algebra(f2, [Place.finite(T), Place.finite(T + 1)])
    assert alg == QuatAlgebra(f2, 1, T * T + T)
    f4 = make_field(2, 2)
    T4 = Poly.T(f4)
    places = [Place.finite(T4 + c) for c in range(4)]
    alg4 = find_algebra(f4, places)
    assert alg4 == QuatAlgebra(f4, 2, T4**4 + T4)
    # even-degree places cannot ramify in the constant-extension shape
    with pytest.raises(SearchExhausted):
        find_algebra(f2, [Place.finite(T), Place.finite(T * T + T + 1)])


def test_find_algebra_result_is_minimal():
    # every pair before it in the scan order with the same ramification has
    # a standard order that is not maximal; on these places the scan meets
    # such pairs first
    fld = make_field(3)
    T = Poly.T(fld)
    want = [Place.finite(T), Place.finite(T**3 + T**2 + 2)]
    found = find_algebra(fld, want)
    assert found == QuatAlgebra(fld, 2, T**4 + T**3 + 2 * T)
    assert StandardOrder(found).certify_maximal()
    found_key = (4, found.a.sort_key(), found.b.sort_key())
    skipped = 0
    for a in polys_upto(fld, 4):
        if a.is_zero:
            continue
        for b in polys_upto(fld, 4):
            if b.is_zero or b.deg % 2 or not fld.is_square_(b.lc):
                continue
            if (max(a.deg, b.deg), a.sort_key(), b.sort_key()) >= found_key:
                continue
            # a place not dividing a*b splits
            if any(not ((a * b) % pl.poly).is_zero for pl in want):
                continue
            alg = QuatAlgebra(fld, a, b)
            if any(is_split_at(alg, pl) for pl in want):
                continue
            try:
                if ramified_set(alg) != want:
                    continue
            except RamifiedAtInfinity:
                continue
            assert not StandardOrder(alg).certify_maximal(), alg
            skipped += 1
    assert skipped


def test_find_algebra_rejects_repeated_places():
    fld = make_field(3)
    T = Poly.T(fld)
    with pytest.raises(ValueError, match="distinct"):
        find_algebra(fld, [Place.finite(T), Place.finite(T)])


@functools.lru_cache(maxsize=None)
def scan_pairs(field, bound):
    """The nonzero polynomials of degree <= bound, and the pairs (a, b) of
    them in full scan order: by max(deg a, deg b), then a, then b.  b has
    even degree and a square leading coefficient; for even q, a is a
    constant of trace one."""
    polys = [f for f in polys_upto(field, bound) if not f.is_zero]
    if field.p == 2:
        firsts = [f for f in polys if f.is_const and field.trace_abs_(f.lc) == 1]
    else:
        firsts = polys
    seconds = [f for f in polys if f.deg % 2 == 0 and field.is_square_(f.lc)]
    pairs = sorted(
        ((a, b) for a in firsts for b in seconds),
        key=lambda ab: (max(ab[0].deg, ab[1].deg), ab[0].sort_key(), ab[1].sort_key()),
    )
    return polys, pairs


def full_scan_find_algebra(field, places):
    """Reference: the first pair (a, b) in the order of a full scan, by
    max(deg a, deg b), then a, then b, up to the degree of the product of
    the places, whose ramified set is the places and whose standard order
    certifies maximal, among the scan_pairs with a*b squarefree and
    divisible by every place."""
    places = sorted(places, key=Place.sort_key)
    target = [pl.poly for pl in places]
    polys, pairs = scan_pairs(field, sum(pl.degree for pl in places))
    divides = {f: {k for k, v in enumerate(target) if (f % v).is_zero} for f in polys}
    prod = Poly.one(field)
    for v in target:
        prod = prod * v
    square = prod * prod
    for a, b in pairs:
        if len(divides[a] | divides[b]) < len(target) or not is_squarefree(a * b):
            continue
        alg = QuatAlgebra(field, a, b)
        if any(is_split_at(alg, pl) for pl in places):
            continue
        try:
            if ramified_set(alg) != places:
                continue
        except RamifiedAtInfinity:
            continue
        # maximal: the Gram determinant is a constant times prod(places)^2
        quo, rem = divmod(StandardOrder(alg).gram_disc(), square)
        if rem.is_zero and quo.is_const:
            return alg
    return None


def place_sets(field, degrees):
    pools = []
    for d in sorted(set(degrees)):
        pool = [
            Place(f)
            for f in polys_upto(field, d)
            if f.deg == d and f.is_monic and is_irreducible(f)
        ]
        pools.append(combinations(pool, degrees.count(d)))
    for combo in product(*pools):
        yield [pl for group in combo for pl in group]


@pytest.mark.parametrize(
    "q, degrees", [(3, [2, 4]), (7, [1, 2]), (3, [3, 3]), (3, [1, 3]), (5, [1, 1, 1, 1])]
)
def test_find_quotient_algebra_factors_each_polynomial_once(q, degrees, monkeypatch):
    # the search reads every ramified set off known factors: it factors
    # nothing at all
    from btquot import order
    from btquot.gfpoly import factor, field_from_q
    from btquot.quotient import find_quotient_algebra

    factored = []

    def recording_factor(f):
        factored.append(f)
        return factor(f)

    monkeypatch.setattr(quat, "factor", recording_factor)
    monkeypatch.setattr(order, "factor", recording_factor)
    alg = find_quotient_algebra(field_from_q(q), degrees)
    assert factored == []
    # the ramified set is kept on the algebra: no factoring to read it
    assert [pl.degree for pl in ramified_set(alg)] == sorted(degrees)
    assert factored == []


def test_find_algebra_matches_full_scan_reference():
    # same algebra, or none for both, on every place set of each profile
    profiles = [
        (2, [1, 1]),
        (2, [1, 2]),
        (2, [1, 3]),
        (2, [3, 3]),
        (3, [1, 1]),
        (3, [1, 2]),
        (3, [2, 2]),
        (3, [1, 3]),
        (4, [1, 1]),
        (4, [1, 2]),
        (5, [1, 1]),
        (5, [1, 2]),
        (7, [1, 1]),
    ]
    hits = exhausted = 0
    for q, degrees in profiles:
        fld = field_from_q(q)
        for places in place_sets(fld, degrees):
            want = full_scan_find_algebra(fld, places)
            try:
                got = find_algebra(fld, places)
            except SearchExhausted:
                got = None
            assert got == want, (q, [str(p) for p in places])
            if got is None:
                exhausted += 1
            else:
                hits += 1
    assert hits and exhausted


OPTIMIZED_RAMIFIED_SET_CHECK = """
import sys
from btquot import quat
from btquot.errors import InvariantViolation
from btquot.gfpoly import Place, Poly, make_field
if __debug__:
    sys.exit("asserts are enabled; expected python -O")
fld = make_field(3)
T = Poly.T(fld)
alg = quat.QuatAlgebra(fld, 2, T * T + 2 * T)
# a symbol that ramifies only at T breaks the product formula
quat.is_split_at = lambda alg, pl: pl.is_infinity or pl != Place(T)
try:
    quat.ramified_set(alg)
except InvariantViolation as exc:
    print(exc)
"""


def test_ramified_set_parity_check_raises_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(btquot.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RAMIFIED_SET_CHECK],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "odd number of ramified places for H(2, T^2+2*T)\n"


def test_parse_algebra():
    fld = make_field(3)
    T = Poly.T(fld)
    alg = parse_algebra(fld, "H(xi, T*(T-1))")
    assert alg == QuatAlgebra(fld, 2, T * T + 2 * T)
    alg2 = parse_algebra(fld, "H(T, T^2+T+2)")
    assert alg2 == QuatAlgebra(fld, T, T * T + T + 2)
    f4 = make_field(2, 2)
    assert parse_algebra(f4, "H(xi, T^4+T)").a == Poly.const(f4, 2)
    with pytest.raises(ValueError):
        parse_algebra(fld, "G(1, T)")
