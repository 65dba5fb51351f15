import math
import random

import pytest

from btquot.errors import NotASquare, PrecisionLoss, Unsupported
from btquot.gfpoly import Poly, make_field
from btquot.laurent import MIN_TERMS, LaurentSeries, embed


def rand_exact(rng, fld, lo=-4, width=6):
    val = rng.randrange(lo, lo + 3)
    cs = [rng.randrange(fld.q) for _ in range(width)]
    return LaurentSeries(fld, val, cs, True)


def test_embed_polynomial_is_exact():
    fld = make_field(3)
    T = Poly.T(fld)
    s = embed(T**2 + 2 * T + 1)
    assert s.exact
    assert s.val == -2
    assert s.coeffs == (1, 2, 1)
    assert s.prec_abs == math.inf
    assert embed(Poly.zero(fld)).is_zero
    assert embed(Poly.zero(fld)).exact


def test_embed_geometric_series():
    fld = make_field(3)
    T = Poly.T(fld)
    s = embed(Poly.one(fld)) * embed(T + 2).inverse(24)  # 1/(T-1) = u + u^2 + ...
    assert not s.exact
    assert s.val == 1
    assert s.prec_abs == 1 + 24
    for k in range(1, 20):
        assert s.coeff(k) == 1
    assert s.coeff(0) == 0
    assert s.coeff(-3) == 0


def test_embed_monomial_denominator_stays_exact():
    fld = make_field(5)
    T = Poly.T(fld)
    s = embed(T**2 + 1) * embed(T**3).inverse()
    assert s.exact
    assert s.val == -2 + 3
    assert s.coeffs == (1, 0, 1)


def test_exact_expansions_take_a_term_count():
    # An exact series with more than one term is expanded to the count its
    # caller passes; monomials stay exact, and inexact series keep their own
    # count whatever is passed.
    fld = make_field(3)
    T = Poly.T(fld)
    for terms in (8, 16, 32):
        s = embed(T + 2).inverse(terms)
        assert (s.val, s.prec_abs) == (1, 1 + terms)
        r = embed(T**2 + 1).sqrt(terms)
        assert (r.val, r.prec_abs) == (-1, -1 + terms)
    for method in (LaurentSeries.inverse, LaurentSeries.sqrt):
        with pytest.raises(ValueError, match="needs a term count"):
            method(embed(T**2 + 1))
    assert embed(T**2).inverse() == LaurentSeries.monomial(fld, 2)
    assert embed(T**2).sqrt() == LaurentSeries.monomial(fld, -1)
    inexact = embed(T + 2).inverse(12)
    assert inexact.inverse() == inexact.inverse(40)
    assert inexact.inverse().prec_abs == -1 + 12
    with pytest.raises(PrecisionLoss):
        embed(T + 2).inverse(MIN_TERMS - 1)


def test_add_mul_ring_laws():
    rng = random.Random(41)
    fld = make_field(3, 2)
    for _ in range(60):
        a = rand_exact(rng, fld)
        b = rand_exact(rng, fld)
        c = rand_exact(rng, fld)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero and (a - a).exact
        assert a + LaurentSeries.zero(fld) == a


def test_mul_matches_polynomial_mul():
    rng = random.Random(43)
    fld = make_field(5)
    for _ in range(40):
        p1 = Poly(fld, [rng.randrange(5) for _ in range(5)])
        p2 = Poly(fld, [rng.randrange(5) for _ in range(5)])
        assert embed(p1) * embed(p2) == embed(p1 * p2)
        assert embed(p1) + embed(p2) == embed(p1 + p2)


def test_inverse_round_trip():
    rng = random.Random(47)
    fld = make_field(3)
    one = LaurentSeries.one(fld)
    for _ in range(30):
        s = rand_exact(rng, fld)
        if s.is_zero or s.coeffs[0] == 0:
            continue
        inv = s.inverse(20)
        assert (s * inv).agrees_with(one)
        assert inv.val == -s.val


def test_inverse_of_monomial_is_exact():
    fld = make_field(5)
    s = LaurentSeries.monomial(fld, 3, 2)
    inv = s.inverse()
    assert inv.exact
    assert inv.val == -3 and inv.coeffs == (3,)
    assert s * inv == LaurentSeries.one(fld)


def test_shift_and_pow():
    fld = make_field(3)
    u = LaurentSeries.monomial(fld, 1)
    assert u.shift(4) == LaurentSeries.monomial(fld, 5)
    assert (u.shift(-1)).val == 0


def test_sqrt_exact_monomial():
    fld = make_field(5)
    s = LaurentSeries.monomial(fld, 2, 4)
    r = s.sqrt()
    assert r.exact
    # 4 has roots 2 and 3; the canonical branch picks 2
    assert r == LaurentSeries.monomial(fld, 1, 2)
    assert LaurentSeries.monomial(fld, 0, 1).sqrt() == LaurentSeries.one(fld)


def test_sqrt_series_round_trip():
    rng = random.Random(53)
    fld = make_field(3, 2)
    for _ in range(30):
        a = rand_exact(rng, fld)
        if a.is_zero:
            continue
        sq = a * a
        r = sq.sqrt(20)
        assert (r * r).agrees_with(sq)
        assert r.val == a.val
        # canonical branch: leading coefficient is the smaller root
        assert r.coeffs[0] == min(a.coeffs[0], fld.neg(a.coeffs[0]))


def test_sqrt_failures():
    f3 = make_field(3)
    with pytest.raises(NotASquare):
        LaurentSeries.monomial(f3, 3, 1).sqrt()  # odd valuation
    with pytest.raises(NotASquare):
        LaurentSeries.monomial(f3, 2, 2).sqrt()  # 2 is not a square mod 3
    f2 = make_field(2)
    with pytest.raises(Unsupported):
        LaurentSeries.monomial(f2, 0, 1).sqrt()


def test_precision_loss_on_short_results():
    fld = make_field(3)
    s = LaurentSeries(fld, -2, (1, 1, 1), False)  # T^2 + T + 1 + O(u^1)
    assert len(s.coeffs) == 3
    with pytest.raises(PrecisionLoss):
        s * s
    with pytest.raises(PrecisionLoss):
        s + LaurentSeries.one(fld)


def test_coeff_out_of_range():
    fld = make_field(3)
    T = Poly.T(fld)
    exact = embed(T + 1)
    assert exact.coeff(100) == 0
    inexact = embed(Poly.one(fld)) * embed(T + 2).inverse(16)
    with pytest.raises(PrecisionLoss):
        inexact.coeff(inexact.prec_abs)


def test_ord_and_lc():
    fld = make_field(3)
    s = LaurentSeries(fld, -2, (2, 0, 1), True)
    assert s.ord() == -2
    with pytest.raises(ValueError):
        LaurentSeries.zero(fld).ord()
    with pytest.raises(PrecisionLoss):
        LaurentSeries.inexact_zero(fld, 10).ord()


def test_inexact_zero_tracking():
    fld = make_field(3)
    z = LaurentSeries.inexact_zero(fld, 5)
    assert z.is_zero and not z.exact
    assert z.prec_abs == 5
    u = LaurentSeries.monomial(fld, 1)
    assert (z * u).prec_abs == 6
    w = z * LaurentSeries.zero(fld)
    assert w.exact and w.is_zero


def test_str_formatting():
    fld = make_field(3)
    s = LaurentSeries(fld, -1, [2, 2] + [0] * 62, False)
    assert str(s) == "2*u^-1 + 2 + O(u^63)"
    assert str(LaurentSeries.zero(fld)) == "0"
    assert str(LaurentSeries.inexact_zero(fld, 5)) == "O(u^5)"
    assert str(LaurentSeries.monomial(fld, 1)) == "u"
    assert str(embed(Poly.one(fld))) == "1"
    assert str(LaurentSeries.monomial(fld, -2, 1)) == "u^-2"


def test_agrees_with():
    fld = make_field(3)
    T = Poly.T(fld)
    a = embed(T + 1)
    assert a.agrees_with(LaurentSeries(fld, -1, [1, 1] + [0] * 9, False))
    assert not a.agrees_with(embed(T + 2))
    # known only below u^-5, where neither series has a term: nothing to compare
    assert LaurentSeries(fld, -5, [], False).agrees_with(embed(T**2))
    assert LaurentSeries.zero(fld).agrees_with(LaurentSeries.inexact_zero(fld, 3))


def test_constructor_normalises_field_elems_and_out_of_range_ints():
    fld = make_field(3)
    s = LaurentSeries(fld, 0, [2, 5], True)
    assert s.coeffs == (2, 2)
    assert all(type(c) is int for c in s.coeffs)
    # zeros in any spelling are stripped from both ends of an exact series
    t = LaurentSeries(fld, -1, [3, 0, -2, 6, 0], True)
    assert (t.val, t.coeffs) == (1, (1,))
    # an inexact series keeps its trailing zeros: they are known digits
    r = LaurentSeries(fld, 0, [0, 4, 9], False)
    assert (r.val, r.coeffs, r.prec_abs) == (1, (1, 0), 3)
    z = LaurentSeries(fld, 2, [3, 0], False)
    assert z.is_zero and (z.val, z.prec_abs) == (4, 4)


def rand_series(rng, fld, width=12):
    """Exact, or inexact with a long enough tail to survive products."""
    val = rng.randrange(-4, 3)
    if rng.random() < 0.4:
        return LaurentSeries(fld, val, [rng.randrange(fld.q) for _ in range(5)], True)
    cs = [rng.randrange(1, fld.q)] + [rng.randrange(fld.q) for _ in range(width)]
    return LaurentSeries(fld, val, cs, False)


def test_arithmetic_results_are_int_codes_matching_coefficientwise_sums():
    rng = random.Random(53)
    for fld in (make_field(3), make_field(5), make_field(3, 2)):
        for _ in range(40):
            a = rand_series(rng, fld)
            b = rand_series(rng, fld)
            prod = a * b
            total = a + b
            results = [prod, total, -a, a.shift(3), a.shift(-2)]
            if a.coeffs:
                results.append(a.inverse(20))
            for r in results:
                assert all(type(c) is int and 0 <= c < fld.q for c in r.coeffs)
                assert not r.coeffs or (r.coeffs[0] and (not r.exact or r.coeffs[-1]))
            assert prod.prec_abs == min(a.prec_abs + b.val, b.prec_abs + a.val)
            assert total.prec_abs == min(a.prec_abs, b.prec_abs)
            ends = [s.val + len(s.coeffs) for s in (a, b)]
            hi = prod.prec_abs if not prod.exact else sum(ends)
            for k in range(a.val + b.val, hi):
                want = 0
                for i in range(a.val, k - b.val + 1):
                    want = fld.add(want, fld.mul(a.coeff(i), b.coeff(k - i)))
                assert prod.coeff(k) == want
            hi = total.prec_abs if not total.exact else max(ends)
            for k in range(min(a.val, b.val), hi):
                assert total.coeff(k) == fld.add(a.coeff(k), b.coeff(k))
            assert (-a + a).is_zero
            assert a.shift(3).shift(-3) == a


def reference_inverse(s, terms):
    """The O(n^2) inverse through the field's method calls that the
    one-pass accumulator version replaced."""
    f = s.field
    if s.is_zero:
        if s.exact:
            raise ZeroDivisionError("inverse of zero series")
        raise PrecisionLoss("inverse of a series that is zero to known precision")
    a = s.coeffs
    if s.exact and len(a) == 1:
        return LaurentSeries.monomial(f, -s.val, f.inv(a[0]))
    n = terms if s.exact else len(a)
    inv0 = f.inv(a[0])
    b = [inv0]
    for k in range(1, n):
        t = 0
        for i in range(1, min(k, len(a) - 1) + 1):
            t = f.add(t, f.mul(a[i], b[k - i]))
        b.append(f.neg(f.mul(inv0, t)))
    return s._finish(-s.val, b, -s.val + n)


def inverse_outcome(fn, s, terms):
    try:
        r = fn(s, terms)
    except PrecisionLoss as exc:
        return "loss", str(exc)
    return "ok", (r.val, r.coeffs, r.exact, r.prec_abs)


def test_inverse_matches_quadratic_reference():
    rng = random.Random(89)
    seen = set()
    for fld in (make_field(3), make_field(5), make_field(3, 2)):
        for terms in (64, 8):
            for _ in range(40):
                exact = rng.random() < 0.5
                width = rng.choice((1, 2, 3, 7, 9, 30, 80))
                cs = [rng.randrange(1, fld.q)] + [
                    rng.randrange(fld.q) if rng.random() < 0.7 else 0
                    for _ in range(width - 1)
                ]
                s = LaurentSeries(fld, rng.randrange(-5, 5), cs, exact)
                got = inverse_outcome(LaurentSeries.inverse, s, terms)
                assert got == inverse_outcome(reference_inverse, s, terms)
                seen.add((exact, got[0]))
                if got[0] == "ok":
                    one = LaurentSeries.one(fld)
                    assert (s * s.inverse(terms)).agrees_with(one)
    # exact inputs expand to the term count passed, inexact ones keep
    # their own length and lose precision below MIN_TERMS
    assert seen == {(True, "ok"), (False, "ok"), (False, "loss")}
