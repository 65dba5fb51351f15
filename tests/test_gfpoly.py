import hashlib
import json
import random

import pytest

from btquot import gfpoly
from btquot.errors import InvalidProfile, InvariantViolation, Unsupported
from btquot.gfpoly import (
    Field,
    NEG_INF,
    Place,
    Poly,
    choose_xi,
    factor,
    field_from_q,
    gcd,
    is_irreducible,
    is_squarefree,
    make_field,
    parse_poly,
    polys_upto,
    powmod,
    prime_power,
    sqr_test_residue,
    strip_power,
)


def naive_irreducible(f):
    # trial division by every monic poly of degree 1..deg/2
    if f.is_const:
        return False
    for d in polys_upto(f.field, f.deg // 2):
        if d.deg >= 1 and d.is_monic and (f % d).is_zero:
            return False
    return True


def test_prime_field_tables():
    f5 = make_field(5)
    assert f5.q == 5 and f5.p == 5 and f5.e == 1
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.neg(2) == 3
    assert f5.inv(3) == 2
    assert f5.sub(1, 3) == 3


# sha256 over json.dumps([q, modulus, add, neg, mul, inv]) for q <= 64
FIELD_TABLES_SHA256 = "0e06ee6f72dd13cbaa152002c5c0bc111c88e53a649c936297e10e254a315443"


def _monic_int_polys(p, deg):
    """Monic coefficient lists of degree deg over F_p, low first, in code order."""
    for code in range(p**deg):
        yield [code // p**i % p for i in range(deg)] + [1]


def _int_poly_divides(d, m, p):
    """True when the monic d divides m over F_p: long division on plain ints."""
    r = list(m)
    for k in range(len(r) - len(d), -1, -1):
        c = r[k + len(d) - 1]
        for i, x in enumerate(d):
            r[k + i] = (r[k + i] - c * x) % p
    return not any(r)


def _first_irreducible_by_trial_division(p, e):
    for m in _monic_int_polys(p, e):
        divisors = (d for k in range(1, e // 2 + 1) for d in _monic_int_polys(p, k))
        if not any(_int_poly_divides(d, m, p) for d in divisors):
            return tuple(m)
    return None


def test_extension_moduli_are_smallest_irreducible():
    # scan order is by ascending code of the low coefficients
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1

    # independent trial-division oracle for every extension field q <= 64
    for q in (4, 8, 9, 16, 25, 27, 32, 49, 64):
        p, e = prime_power(q)
        assert make_field(p, e).modulus == _first_irreducible_by_trial_division(p, e)


def test_field_tables_are_pinned():
    # every artifact depends on the int codes these tables define
    h = hashlib.sha256()
    for q in range(2, 65):
        if prime_power(q) is not None:
            f = field_from_q(q)
            row = [q, list(f.modulus), f._addt, f._negt, f._mult, f._invt]
            h.update(json.dumps(row).encode())
    assert h.hexdigest() == FIELD_TABLES_SHA256


def test_field_without_modulus_is_invariant_violation(monkeypatch):
    monkeypatch.setattr(gfpoly, "is_irreducible", lambda f: False)
    with pytest.raises(InvariantViolation, match="no irreducible modulus"):
        Field(2, 2)


def test_field_refuses_a_non_prime_characteristic():
    for p in (-3, 0, 1, 4, 9, 15):
        with pytest.raises(ValueError, match="^p must be prime, got %d$" % p):
            Field(p)
    assert Field(7).q == 7


def test_field_axioms_random():
    rng = random.Random(7)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 64):
        fld = field_from_q(q)
        for _ in range(200):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
            assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
            assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
            assert fld.add(a, fld.neg(a)) == 0
            if a:
                assert fld.mul(a, fld.inv(a)) == 1


def test_frobenius_is_additive():
    fld = make_field(2, 3)
    for a in range(8):
        for b in range(8):
            lhs = fld.pow_(fld.add(a, b), 2)
            rhs = fld.add(fld.pow_(a, 2), fld.pow_(b, 2))
            assert lhs == rhs


def test_field_from_q_rejects_non_prime_powers():
    with pytest.raises(ValueError, match="q must be at least 2"):
        field_from_q(1)
    with pytest.raises(InvalidProfile, match="q=6 is not a prime power"):
        field_from_q(6)
    with pytest.raises(InvalidProfile):
        field_from_q(12)
    primes = [p for p in range(2, 300) if all(p % d for d in range(2, p))]
    powers = {p**e: (p, e) for p in primes for e in range(1, 9)}
    for q in range(-2, 300):
        assert prime_power(q) == powers.get(q)


def test_elem_wrappers():
    fld = make_field(3, 2)  # F_3[X]/(X^2 + 1); code 4 is 1 + X
    assert fld.add(4, 4) == 8  # 2 + 2X
    assert fld.mul(4, 4) == 6  # (1 + X)^2 = 2X
    assert fld.mul(4, fld.inv(4)) == 1
    assert fld.inv(4) == 5  # (1 + X)(2 + X) = 1
    assert fld.neg(1) == 2
    assert fld.neg(4) == 8


def test_choose_xi_frozen_values():
    assert choose_xi(make_field(3)) == 2
    assert choose_xi(make_field(5)) == 2
    assert choose_xi(make_field(7)) == 3
    assert choose_xi(make_field(3, 2)) == 4
    assert choose_xi(make_field(2)) == 1
    assert choose_xi(make_field(2, 2)) == 2
    assert choose_xi(make_field(2, 3)) == 1


def test_choose_xi_properties():
    for q in (3, 5, 7, 9, 25, 27):
        fld = field_from_q(q)
        xi = choose_xi(fld)
        assert not fld.is_square_(xi)
        # it is the smallest one
        for v in range(1, xi):
            assert fld.is_square_(v)
    for q in (2, 4, 8, 16):
        fld = field_from_q(q)
        xi = choose_xi(fld)
        assert fld.trace_abs_(xi) == 1
        for v in range(xi):
            assert fld.trace_abs_(v) == 0


def test_sqrt_even_q_always_exists():
    for q in (2, 4, 8):
        fld = field_from_q(q)
        for v in range(q):
            r = fld.sqrt_(v)
            assert r is not None and fld.mul(r, r) == v


def test_poly_basics():
    fld = make_field(3)
    T = Poly.T(fld)
    f = T**2 + 2 * T + 1
    assert f.coeffs == (1, 2, 1)
    assert f.deg == 2
    assert f == (T + 1) * (T + 1)
    assert Poly.zero(fld).deg == NEG_INF
    assert str(f) == "T^2+2*T+1"
    assert str(Poly.zero(fld)) == "0"
    assert str(T**3 + 2) == "T^3+2"
    # remainders by T - c are the values f(2) = 0 and f(1) = 1
    assert f % (T - 2) == Poly.zero(fld)
    assert f % (T - 1) == Poly.const(fld, 1)


def test_poly_divmod_random():
    rng = random.Random(11)
    for q in (2, 3, 4, 9):
        fld = field_from_q(q)
        for _ in range(150):
            a = Poly(fld, [rng.randrange(q) for _ in range(rng.randrange(8))])
            b = Poly(fld, [rng.randrange(q) for _ in range(rng.randrange(1, 5))])
            if b.is_zero:
                continue
            quo, rem = divmod(a, b)
            assert quo * b + rem == a
            assert rem.deg < b.deg


def test_poly_constructor_normalises_field_elems_and_out_of_range_ints():
    fld = make_field(3)
    f = Poly(fld, [2, 5, -1, 3, 0])
    assert f.coeffs == (2, 2, 2)
    assert all(type(c) is int for c in f.coeffs)
    assert Poly(fld, [3, -3, 0]).is_zero


def test_poly_arithmetic_results_are_int_codes_matching_coefficientwise_sums():
    rng = random.Random(59)
    for fld in (make_field(3), make_field(5), make_field(3, 2), make_field(2, 2)):
        q = fld.q
        for _ in range(60):
            a = Poly(fld, [rng.randrange(q) for _ in range(rng.randrange(7))])
            b = Poly(fld, [rng.randrange(q) for _ in range(rng.randrange(7))])
            if rng.random() < 0.2:
                b = -a + Poly(fld, [rng.randrange(q) for _ in range(2)])
            results = [a + b, a - b, b - a, -a, a * b]
            if not b.is_zero:
                results += list(divmod(a, b))
            for r in results:
                assert all(type(c) is int and 0 <= c < q for c in r.coeffs)
                assert not r.coeffs or r.coeffs[-1]
            n = max(len(a.coeffs), len(b.coeffs))
            for k in range(n):
                assert (a + b).coeff(k) == fld.add(a.coeff(k), b.coeff(k))
                assert (a - b).coeff(k) == fld.sub(a.coeff(k), b.coeff(k))
                assert (b - a).coeff(k) == fld.sub(b.coeff(k), a.coeff(k))
                assert (-a).coeff(k) == fld.neg(a.coeff(k))
            prod = a * b
            for k in range(len(a.coeffs) + len(b.coeffs)):
                want = 0
                for i in range(k + 1):
                    want = fld.add(want, fld.mul(a.coeff(i), b.coeff(k - i)))
                assert prod.coeff(k) == want
            if not b.is_zero:
                quo, rem = divmod(a, b)
                assert quo * b + rem == a and rem.deg < b.deg
            assert (a - a).is_zero and (a + -a).is_zero


def test_poly_derivative_product_rule():
    rng = random.Random(13)
    fld = make_field(3, 2)
    for _ in range(80):
        a = Poly(fld, [rng.randrange(9) for _ in range(5)])
        b = Poly(fld, [rng.randrange(9) for _ in range(5)])
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert lhs == rhs


def test_gcd_properties():
    rng = random.Random(17)
    fld = make_field(5)
    for _ in range(100):
        a = Poly(fld, [rng.randrange(5) for _ in range(6)])
        b = Poly(fld, [rng.randrange(5) for _ in range(6)])
        g = gcd(a, b)
        if a.is_zero and b.is_zero:
            assert g.is_zero
            continue
        assert g.is_monic
        assert (a % g).is_zero and (b % g).is_zero


def test_powmod_matches_naive():
    fld = make_field(3)
    T = Poly.T(fld)
    m = T**3 + 2 * T + 1
    base = T + 2
    assert powmod(base, 17, m) == (base**17) % m
    assert powmod(base, 0, m) == Poly.one(fld)


def test_polys_upto_enumeration():
    fld = make_field(3)
    ps = list(polys_upto(fld, 2))
    assert len(ps) == 27
    assert len(set(ps)) == 27
    keys = [p.sort_key() for p in ps]
    assert keys == sorted(keys)
    assert ps[0].is_zero
    assert ps[3] == Poly.T(fld)


def test_is_irreducible_against_trial_division():
    for q in (2, 3):
        fld = field_from_q(q)
        for f in polys_upto(fld, 4):
            if f.deg < 1:
                continue
            assert is_irreducible(f) == naive_irreducible(f)
    fld = make_field(2, 2)
    for f in polys_upto(fld, 3):
        if f.deg < 1:
            continue
        assert is_irreducible(f) == naive_irreducible(f)


def test_factor_round_trip_random():
    rng = random.Random(23)
    for q in (2, 3, 4, 5, 9):
        fld = field_from_q(q)
        for _ in range(60):
            f = Poly(fld, [rng.randrange(q) for _ in range(rng.randrange(1, 8))])
            if f.is_zero:
                continue
            fs = factor(f)
            prod = Poly.const(fld, f.lc)
            for h, m in fs:
                assert h.is_monic and is_irreducible(h)
                prod = prod * h**m
            assert prod == f
            keys = [h.sort_key() for h, _ in fs]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_factor_pth_power():
    fld = make_field(3)
    T = Poly.T(fld)
    assert factor(T**3 + 2) == [(T + 2, 3)]
    f9 = make_field(3, 2)
    T9 = Poly.T(f9)
    # T^3 + v = (T + v^3)^3 since cubing is the inverse of the cube map on F_9
    for v in range(1, 9):
        fs = factor(T9**3 + Poly.const(f9, v))
        assert fs == [(T9 + Poly.const(f9, f9.pow_(v, 3)), 3)]


def test_strip_power():
    fld = make_field(3)
    T = Poly.T(fld)
    rest = T * T + 1
    assert strip_power(rest * T**3, T) == (3, rest)
    assert strip_power(rest, T) == (0, rest)
    assert strip_power((T + 1) ** 2 * 2, T + 1) == (2, Poly.const(fld, 2))


def test_radical_and_squarefree():
    fld = make_field(3)
    T = Poly.T(fld)
    f = (T**2 + 1) * T**2 * (T + 1)
    assert not is_squarefree(f)
    assert is_squarefree(T * (T + 1) * (T + 2))
    assert is_squarefree((T**2 + 1) * T * (T + 1))


def test_place_ordering_and_identity():
    fld = make_field(3)
    T = Poly.T(fld)
    pls = [Place.infinity(), Place.finite(T + 1), Place.finite(T), Place.finite(T**2 + 1)]
    pls.sort(key=Place.sort_key)
    assert [str(p) for p in pls] == ["T", "T+1", "T^2+1", "oo"]
    assert Place.infinity().degree == 1
    assert Place.finite(T**2 + 1).degree == 2
    assert Place.infinity() == Place.infinity()
    assert len({Place.finite(T), Place.finite(T)}) == 1


def test_sqr_test_residue_frozen():
    fld = make_field(3)
    T = Poly.T(fld)
    assert sqr_test_residue(T, Poly.const(fld, 2)) == -1
    assert sqr_test_residue(T, Poly.const(fld, 1)) == 1
    assert sqr_test_residue(T, T * (T + 1)) == 0
    f = T**2 + T + 2
    assert is_irreducible(f)
    assert sqr_test_residue(f, T) == -1


def test_sqr_test_residue_against_enumeration():
    # brute-force squares of the residue field F_3[T]/(T^2+T+2)
    fld = make_field(3)
    T = Poly.T(fld)
    f = T**2 + T + 2
    squares = {powmod(g, 2, f).coeffs for g in polys_upto(fld, 1) if not (g % f).is_zero}
    for g in polys_upto(fld, 1):
        if (g % f).is_zero:
            assert sqr_test_residue(f, g) == 0
        else:
            want = 1 if g.coeffs in squares else -1
            assert sqr_test_residue(f, g) == want


def test_sqr_test_residue_rejects_even_q():
    fld = make_field(2)
    T = Poly.T(fld)
    with pytest.raises(Unsupported):
        sqr_test_residue(T, Poly.one(fld))


def test_parse_poly():
    fld = make_field(3)
    T = Poly.T(fld)
    assert parse_poly(fld, "T^2+2*T+1") == T**2 + 2 * T + 1
    assert parse_poly(fld, "T*(T-1)") == T * (T + 2)
    assert parse_poly(fld, " T^3 - T ") == T**3 + 2 * T
    assert parse_poly(fld, "2") == Poly.const(fld, 2)
    assert parse_poly(fld, "-1") == Poly.const(fld, 2)
    with pytest.raises(ValueError):
        parse_poly(fld, "T^")
    with pytest.raises(ValueError):
        parse_poly(fld, "x+1")


def test_parse_poly_refuses_nesting_past_its_depth():
    fld = make_field(3)
    assert parse_poly(fld, "(" * 100 + "T" + ")" * 100) == Poly.T(fld)
    with pytest.raises(ValueError, match="nested deeper than 100"):
        parse_poly(fld, "(" * 101 + "T" + ")" * 101)


def test_parse_str_round_trip():
    rng = random.Random(37)
    for q in (2, 3, 9):
        fld = field_from_q(q)
        for _ in range(40):
            f = Poly(fld, [rng.randrange(q) for _ in range(rng.randrange(6))])
            assert parse_poly(fld, str(f)) == f


def test_field_identity_is_cached():
    assert make_field(3, 2) is make_field(3, 2)
    assert field_from_q(9) is make_field(3, 2)
