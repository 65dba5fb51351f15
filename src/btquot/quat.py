"""Quaternion algebras over F_q(T) and their ramification.

Odd q: H(a, b) has i^2 = a, j^2 = b, ij = -ji.
Even q: H(a, b) has i^2 + i = a with a a constant of absolute trace one,
j^2 = b, and ji = ij + j.
"""

from __future__ import annotations

from itertools import combinations

from .errors import (
    InvariantViolation,
    RamifiedAtInfinity,
    SearchExhausted,
    Unsupported,
)
from .gfpoly import (
    Place,
    Poly,
    choose_xi,
    factor,
    is_squarefree,
    powmod,
    sqr_test_residue,
    strip_power,
)


class QuatAlgebra:
    """H(a, b) over F_q(T); the defining relations depend on the parity of q."""

    def __init__(self, field, a, b):
        if isinstance(a, int):
            a = Poly.const(field, a)
        if isinstance(b, int):
            b = Poly.const(field, b)
        if a.is_zero or b.is_zero:
            raise ValueError("H(a, b) needs nonzero a and b")
        if field.p == 2:
            if not a.is_const or field.trace_abs_(a.coeff(0)) != 1:
                raise Unsupported(
                    "even q supports only a constant first parameter of trace one"
                )
        self.field = field
        self.a = a
        self.b = b
        self.even = field.p == 2
        self._ramified = None  # ramified_set, once computed

    def elem(self, x, y=None, z=None, w=None):
        zero = Poly.zero(self.field)
        co = []
        for c in (x, y, z, w):
            if c is None:
                c = zero
            elif isinstance(c, int):
                c = Poly.const(self.field, c)
            co.append(c)
        return QuatElem(self, *co)

    @property
    def one(self):
        return self.elem(1)

    @property
    def zero(self):
        return self.elem(0)

    @property
    def i(self):
        return self.elem(0, 1)

    @property
    def j(self):
        return self.elem(0, 0, 1)

    @property
    def ij(self):
        return self.elem(0, 0, 0, 1)

    def basis(self):
        return (self.one, self.i, self.j, self.ij)

    def __eq__(self, other):
        if not isinstance(other, QuatAlgebra):
            return NotImplemented
        return self.field == other.field and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.field.q, self.a, self.b))

    def __str__(self):
        return "H(%s, %s)" % (self.a, self.b)

    def __repr__(self):
        return "QuatAlgebra(F_%d; %s)" % (self.field.q, self)


class QuatElem:
    """x + y*i + z*j + w*ij with polynomial coordinates."""

    __slots__ = ("alg", "x", "y", "z", "w")

    def __init__(self, alg, x, y, z, w):
        self.alg = alg
        self.x = x
        self.y = y
        self.z = z
        self.w = w

    @property
    def coords(self):
        return (self.x, self.y, self.z, self.w)

    @property
    def is_scalar(self):
        return self.y.is_zero and self.z.is_zero and self.w.is_zero

    def __add__(self, other):
        other = self._coerce(other)
        return QuatElem(self.alg, *(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        other = self._coerce(other)
        return QuatElem(self.alg, *(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return QuatElem(self.alg, *(-c for c in self.coords))

    def __mul__(self, other):
        other = self._coerce(other)
        A, B = self.alg.a, self.alg.b
        x1, y1, z1, w1 = self.coords
        x2, y2, z2, w2 = other.coords
        if self.alg.even:
            X = x1 * x2 + A * y1 * y2 + B * z1 * z2 + A * B * w1 * w2 + B * z1 * w2
            Y = x1 * y2 + y1 * x2 + y1 * y2 + B * z1 * w2 + B * w1 * z2
            Z = x1 * z2 + z1 * x2 + A * y1 * w2 + A * w1 * y2 + z1 * y2
            W = x1 * w2 + w1 * x2 + y1 * z2 + y1 * w2 + z1 * y2
        else:
            X = x1 * x2 + A * y1 * y2 + B * z1 * z2 - A * B * w1 * w2
            Y = x1 * y2 + y1 * x2 + B * (w1 * z2 - z1 * w2)
            Z = x1 * z2 + z1 * x2 + A * (y1 * w2 - w1 * y2)
            W = x1 * w2 + w1 * x2 + y1 * z2 - z1 * y2
        return QuatElem(self.alg, X, Y, Z, W)

    __radd__ = __add__

    def scale(self, c):
        if isinstance(c, int):
            c = Poly.const(self.alg.field, c)
        return QuatElem(self.alg, *(c * co for co in self.coords))

    def conj(self):
        x, y, z, w = self.coords
        if self.alg.even:
            return QuatElem(self.alg, x + y, y, z, w)
        return QuatElem(self.alg, x, -y, -z, -w)

    def trace(self):
        if self.alg.even:
            return self.y
        return self.x + self.x

    def norm(self):
        A, B = self.alg.a, self.alg.b
        x, y, z, w = self.coords
        if self.alg.even:
            return x * x + x * y + A * y * y + B * (z * z + z * w + A * w * w)
        return x * x - A * y * y - B * z * z + A * B * w * w

    def charpoly(self):
        """Coefficients (t, n) of X^2 - t X + n killing the element."""
        return (self.trace(), self.norm())

    def _coerce(self, other):
        if isinstance(other, QuatElem):
            if other.alg is not self.alg and other.alg != self.alg:
                raise ValueError("elements of different algebras")
            return other
        if isinstance(other, (int, Poly)):
            return self.alg.elem(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Poly)):
            other = self.alg.elem(other)
        if not isinstance(other, QuatElem):
            return NotImplemented
        alg = other.alg
        return (alg is self.alg or alg == self.alg) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)  # equal elements have equal coordinates

    def __str__(self):
        names = ("", "i", "j", "ij")
        parts = []
        for c, n in zip(self.coords, names):
            if c.is_zero:
                continue
            cs = str(c)
            if not n:
                parts.append(cs)
            elif cs == "1":
                parts.append(n)
            elif ("+" in cs) or len(c.coeffs) > 1:
                parts.append("(%s)*%s" % (cs, n))
            else:
                parts.append("%s*%s" % (cs, n))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "QuatElem(%s)" % self


def hilbert_symbol(alg, place):
    """+1 if the algebra splits at the place, -1 if it ramifies."""
    fld = alg.field
    if alg.even:
        if place.is_infinity:
            ordb = -alg.b.deg
        else:
            ordb, _ = strip_power(alg.b, place.poly)
        if ordb % 2 == 0 or place.degree % 2 == 0:
            return 1
        return -1
    a, b = alg.a, alg.b
    if place.is_infinity:
        alpha, beta = -a.deg, -b.deg
        ua, ub = a.lc, b.lc
        sign = fld.neg(1) if (alpha * beta) % 2 else 1
        u = fld.mul(sign, fld.mul(fld.pow_(ua, beta), fld.pow_(ub, -alpha)))
        return 1 if fld.is_square_(u) else -1
    v = place.poly
    alpha, a0 = strip_power(a, v)
    beta, b0 = strip_power(b, v)
    # the symbol is the quadratic character of (-1)^(alpha*beta) *
    # a0^beta / b0^alpha; a and b are polynomials, so alpha, beta >= 0, and
    # b0^-alpha has the character of b0^alpha
    u = powmod(a0, beta, v) * powmod(b0, alpha, v)
    if (alpha * beta) % 2:
        u = -u
    return sqr_test_residue(v, u)


def is_split_at(alg, place):
    return hilbert_symbol(alg, place) == 1


def ramified_set(alg):
    """Sorted finite places where the algebra ramifies, computed once per
    algebra.

    Raises RamifiedAtInfinity when the place at infinity is not split.
    """
    got = alg._ramified
    if got is None:
        got = _ramified_from(
            alg, [h for f in (alg.a, alg.b) for h, _ in factor(f)]
        )
    return list(got)


def _ramified_from(alg, primes):
    """Compute and keep the ramified set of alg; primes lists the
    irreducible factors of a and b, the only candidate places."""
    if not is_split_at(alg, Place.infinity()):
        raise RamifiedAtInfinity("%s does not split at infinity" % alg)
    seen = set()
    out = []
    for h in primes:
        if h in seen:
            continue
        seen.add(h)
        pl = Place(h)
        if not is_split_at(alg, pl):
            out.append(pl)
    out.sort(key=Place.sort_key)
    if len(out) % 2:
        raise InvariantViolation("odd number of ramified places for %s" % alg)
    alg._ramified = out
    return out


def _product(field, places):
    r = Poly.one(field)
    for pl in places:
        r = r * pl.poly
    return r


def ram_product(alg):
    """Product of the finite ramified primes (the reduced discriminant)."""
    return _product(alg.field, ramified_set(alg))


def find_algebra(field, places):
    """The smallest H(a, b) split at infinity, ramified exactly at the given
    finite places S, whose standard order is maximal; SearchExhausted when
    there is none.

    The searched shape is that of the quotient: b of even degree with a
    square leading coefficient, and for even q a constant a of trace one.
    The standard order O = A<1, i, j, ij> is maximal exactly when its Gram
    determinant, -16 a^2 b^2 for odd q and b^2 for even q, is a nonzero
    constant times prod(S)^2 (StandardOrder.certify_maximal).  So a*b is a
    constant times prod(S): a = c*prod(T) and b = c'*prod(S - T) for a
    subset T of S and constants c, c', where c' is a square because b has a
    square leading coefficient.  Hilbert symbols are multiplicative in each
    argument and trivial on squares, so the ramified set, infinity
    included, depends on c and c' only through their square classes.  The
    smallest codes of the classes are 1 and xi, and sort_key reads the
    leading coefficient first, so (c, c') = (1 or xi, 1) sorts first in its
    class.  Even q: i -> i + x turns H(a, b) into H(a + x^2 + x, b) with
    the same standard order, and every trace-one constant is xi + x^2 + x,
    so a = xi, T is empty and c' = 1 (every constant is a square).

    These candidates, at most 2^(n+1) for n places, are tried by
    (max(deg a, deg b), a, b), the order of a full scan over pairs, and the
    ramified set of each is read off its known factors, so nothing is
    factored.  The first hit is therefore the first certified algebra of
    that scan, and exhausting the candidates proves that no algebra of the
    shape has a maximal standard order ramified exactly at S.
    """
    places = sorted(places, key=Place.sort_key)
    if any(pl.is_infinity for pl in places):
        raise ValueError("infinity cannot be a target ramified place")
    if len(places) % 2:
        raise ValueError("need an even number of ramified places")
    if not is_squarefree(_product(field, places)):
        raise ValueError("the ramified places must be distinct")
    xi = choose_xi(field)
    if field.p == 2:
        splits, consts = [()], (xi,)
    else:
        splits = [
            ta for k in range(len(places) + 1) for ta in combinations(places, k)
        ]
        consts = (1, xi)
    cands = []
    for ta in splits:
        tb = [pl for pl in places if pl not in ta]
        b = _product(field, tb)
        if b.deg % 2:
            continue
        primes = [pl.poly for pl in ta + tuple(tb)]
        for c in consts:
            a = _product(field, ta).scale(c)
            key = (max(a.deg, b.deg), a.sort_key(), b.sort_key())
            cands.append((key, a, b, primes))
    cands.sort(key=lambda cand: cand[0])
    for _, a, b, primes in cands:
        alg = QuatAlgebra(field, a, b)
        try:
            if _ramified_from(alg, primes) == places:
                return alg
        except RamifiedAtInfinity:
            continue
    raise SearchExhausted(
        "no algebra ramified exactly at {%s} has a maximal standard order"
        % ", ".join(str(p) for p in places)
    )
