"""Quaternion algebras over F_q(T) and their ramification.

Odd q: H(a, b) has i^2 = a, j^2 = b, ij = -ji.
Even q: H(a, b) has i^2 + i = a with a a constant of absolute trace one,
j^2 = b, and ji = ij + j.
"""

from __future__ import annotations

from itertools import islice

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
    gcd,
    is_squarefree,
    polys_upto,
    powmod,
    sqr_test_residue,
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
    def is_zero(self):
        return all(c.is_zero for c in self.coords)

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

    def __rmul__(self, other):
        return self._coerce(other) * self

    __radd__ = __add__

    def __rsub__(self, other):
        return self._coerce(other) - self

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
        return self.alg == other.alg and self.coords == other.coords

    def __hash__(self):
        return hash((self.alg, self.coords))

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


def _strip_place_power(f, v):
    m = 0
    q, r = divmod(f, v)
    while r.is_zero:
        f = q
        m += 1
        q, r = divmod(f, v)
    return m, f


def hilbert_symbol(alg, place):
    """+1 if the algebra splits at the place, -1 if it ramifies."""
    fld = alg.field
    if alg.even:
        if place.is_infinity:
            ordb = -alg.b.deg
        else:
            ordb, _ = _strip_place_power(alg.b, place.poly)
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
    alpha, a0 = _strip_place_power(a, v)
    beta, b0 = _strip_place_power(b, v)
    u = powmod(a0, beta, v) if beta >= 0 else powmod(_inv_mod(a0, v), -beta, v)
    ub = powmod(b0, alpha, v) if alpha >= 0 else powmod(_inv_mod(b0, v), -alpha, v)
    u = (u * _inv_mod(ub, v)) % v
    if (alpha * beta) % 2:
        u = (-u) % v
    return sqr_test_residue(v, u)


def _inv_mod(g, v):
    fld = g.field
    return powmod(g, fld.q**v.deg - 2, v)


def is_split_at(alg, place):
    return hilbert_symbol(alg, place) == 1


def ramified_set(alg):
    """Sorted finite places where the algebra ramifies, computed once per
    algebra.

    Raises RamifiedAtInfinity when the place at infinity is not split.
    """
    got = alg._ramified
    if got is None:
        got = _ramified_from(alg, lambda f: [h for h, _ in factor(f)])
    return list(got)


def _ramified_from(alg, factors):
    """Compute and keep the ramified set of alg; factors(f) lists the
    irreducible factors of a or b.  The only candidates are the places
    dividing a or b."""
    if not is_split_at(alg, Place.infinity()):
        raise RamifiedAtInfinity("%s does not split at infinity" % alg)
    seen = set()
    out = []
    for f in (alg.a, alg.b):
        for h in factors(f):
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


def ram_product(alg):
    """Product of the finite ramified primes (the reduced discriminant)."""
    r = Poly.one(alg.field)
    for pl in ramified_set(alg):
        r = r * pl.poly
    return r


class SquarefreeShells:
    """The squarefree nonzero polynomials over a field, one list per degree
    in polys_upto order; each degree is computed once, on first use.

    Squarefreeness does not depend on the target places, so one instance
    can serve every find_algebra call of a search over place sets; so can
    the irreducible factors of each entry, which factors(f) computes once.
    """

    def __init__(self, field):
        self.field = field
        self._by_degree = []
        self._factors = {}

    def factors(self, f):
        """The distinct irreducible factors of f."""
        got = self._factors.get(f)
        if got is None:
            got = self._factors[f] = [h for h, _ in factor(f)]
        return got

    def __getitem__(self, deg):
        fld = self.field
        while len(self._by_degree) <= deg:
            d = len(self._by_degree)
            self._by_degree.append(
                [
                    f
                    for f in islice(polys_upto(fld, d), fld.q**d, None)
                    if is_squarefree(f)
                ]
            )
        return self._by_degree[deg]


def find_algebra(field, places, bound=4, shells=None):
    """Smallest H(a, b) split at infinity with the given finite ramified places.

    Candidates are scanned in shells by max(deg a, deg b) and inside a shell
    in lexicographic order of the coefficient codes, a outside and b inside.
    Only pairs with b of even degree, square leading coefficient and a*b
    squarefree and divisible by every target place are tried.  Odd q: a
    runs over the squarefree nonzero polynomials.  Even q: a is xi (the
    H(xi, b) shape), so b must be divisible by every target, and an
    even-degree target, which cannot ramify in that shape, raises
    SearchExhausted at once.

    These filters come from a table of the a candidates, each with a
    bitmask of the target places dividing it: xi with mask 0 for even q,
    and for odd q the squarefree nonzero polynomials of degree <= shell, in
    scan order and extended by one degree per shell.  Each target v is
    irreducible, so v | ab exactly when v | a or v | b; F_q is perfect, so
    ab is squarefree exactly when a and b are squarefree and coprime.  A
    pair therefore passes when the masks cover all targets and gcd(a, b) is
    constant: the same pairs have their ramified set computed in the same
    order as with a product and a gcd per pair, which gives the same first
    hit and the same SearchExhausted.  The squarefree polynomials and their
    factors come from shells, a SquarefreeShells of the field that a caller
    may share across calls (a fresh one by default), so each entry is
    factored once.
    """
    places = sorted(places, key=Place.sort_key)
    for pl in places:
        if pl.is_infinity:
            raise ValueError("infinity cannot be a target ramified place")
    if len(places) % 2:
        raise ValueError("need an even number of ramified places")
    target = [pl.poly for pl in places]
    if shells is None:
        shells = SquarefreeShells(field)
    even = field.p == 2
    if even and any(pl.degree % 2 == 0 for pl in places):
        raise SearchExhausted(
            "even q: only odd-degree places can ramify in the supported shape"
        )
    full = (1 << len(target)) - 1
    # (poly, target mask) of the squarefree nonzero polynomials; a = xi alone
    # for even q
    table = [(Poly.const(field, choose_xi(field)), 0)] if even else []
    b_cands = []  # entries usable as b: even degree, square leading coeff
    for shell in range(bound + 1):
        if even and shell % 2:
            continue  # a is xi and b has even degree: nothing to try
        top_b = []  # the b candidates of degree shell
        for f in shells[shell]:
            mask = 0
            for k, v in enumerate(target):
                if v.divides(f):
                    mask |= 1 << k
            if not even:
                table.append((f, mask))
            if shell % 2 == 0 and field.is_square_(f.lc):
                top_b.append((f, mask))
        b_cands += top_b
        for a, mask_a in table:
            # below the top degree, a needs a partner b of degree shell
            for b, mask_b in b_cands if a.deg == shell else top_b:
                if mask_a | mask_b != full or not gcd(a, b).is_const:
                    continue
                alg = QuatAlgebra(field, a, b)
                try:
                    if _ramified_from(alg, shells.factors) == places:
                        return alg
                except RamifiedAtInfinity:
                    continue
    raise SearchExhausted(
        "no algebra with ramification {%s} within degree %d"
        % (", ".join(str(p) for p in places), bound)
    )
