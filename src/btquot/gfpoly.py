"""Exact arithmetic over F_q and F_q[T], plus places of the rational
function field F_q(T).

Field elements are encoded as ints in [0, q), and the int code is their
only representation: the base-p digits of the code are the coefficients of
the residue polynomial.  The canonical enumeration order used by every
"smallest" choice below is ascending code.  F_p has its tables from integer
arithmetic mod p; an extension F_{p^e} builds them with Poly over F_p,
modulo the first irreducible T^e + f in code order.
"""

from __future__ import annotations

import functools
from itertools import accumulate

from .errors import InvalidProfile, InvariantViolation, Unsupported
from .linalg import nullspace

NEG_INF = float("-inf")

_MAX_Q = 64
_MAX_NESTING = 100  # parse_poly's parenthesis depth, far below the recursion limit


class Field:
    """F_q with table-driven arithmetic on int codes."""

    def __init__(self, p, e=1):
        if prime_power(p) != (p, 1):
            raise ValueError("p must be prime, got %r" % (p,))
        if e < 1 or p**e > _MAX_Q:
            raise ValueError("q=%d^%d out of supported range" % (p, e))
        self.p = p
        self.e = e
        self.q = q = p**e
        if e == 1:
            self.modulus = (0, 1)
            self._addt = [[(a + b) % p for b in range(q)] for a in range(q)]
            self._negt = [-a % p for a in range(q)]
            self._mult = [[a * b % p for b in range(q)] for a in range(q)]
        else:
            self._extension_tables()
        self._invt = [0] + [row.index(1) for row in self._mult[1:]]

    def _extension_tables(self):
        """Tables of F_p[T]/(m) through Poly over F_p.  Code k is the k-th
        residue of polys_upto(F_p, e - 1), and m is the first T^e + f, f in
        that order, that is irreducible."""
        fp = make_field(self.p)
        residues = list(polys_upto(fp, self.e - 1))
        code = {r: k for k, r in enumerate(residues)}
        top = Poly.monomial(fp, self.e)
        m = next((top + f for f in residues if is_irreducible(top + f)), None)
        if m is None:
            raise InvariantViolation(
                "no irreducible modulus of degree %d over F_%d" % (self.e, self.p)
            )
        self.modulus = m.coeffs
        self._addt = [[code[x + y] for y in residues] for x in residues]
        self._negt = [code[-x] for x in residues]
        self._mult = [[code[x * y % m] for y in residues] for x in residues]

    # int-code arithmetic

    def add(self, a, b):
        return self._addt[a][b]

    def sub(self, a, b):
        return self._addt[a][self._negt[b]]

    def neg(self, a):
        return self._negt[a]

    def mul(self, a, b):
        return self._mult[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in %r" % (self,))
        return self._invt[a]

    def pow_(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def is_square_(self, a):
        if a == 0:
            return True
        if self.p == 2:
            return True
        return self.pow_(a, (self.q - 1) // 2) == 1

    def sqrt_(self, a):
        """Smallest square root in enumeration order, or None."""
        for y in range(self.q):
            if self.mul(y, y) == a:
                return y
        return None

    def trace_abs_(self, a):
        """Trace down to the prime subfield, as an int in [0, p)."""
        t = 0
        x = a
        for _ in range(self.e):
            t = self.add(t, x)
            x = self.pow_(x, self.p)
        if t >= self.p:
            raise InvariantViolation("absolute trace %d is outside F_%d" % (t, self.p))
        return t

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return "F_%d" % self.q


@functools.lru_cache(maxsize=None)
def make_field(p, e=1):
    return Field(p, e)


def prime_power(q):
    """Return (p, e) with q = p**e and p prime, or None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
        p += 1
    return (q, 1)


def field_from_q(q):
    """Factor q = p^e and build the field."""
    if q < 2:
        raise ValueError("q must be at least 2")
    pe = prime_power(q)
    if pe is None:
        raise InvalidProfile("q=%d is not a prime power" % q)
    return make_field(*pe)


def choose_xi(field):
    """Smallest non-square unit (odd q) or smallest element of absolute
    trace one (even q), in the canonical enumeration order."""
    if field.p != 2:
        for v in range(1, field.q):
            if not field.is_square_(v):
                return v
        raise InvariantViolation("no non-square in %r" % (field,))
    for v in range(field.q):
        if field.trace_abs_(v) == 1:
            return v
    raise InvariantViolation("no trace-one element in %r" % (field,))


class Poly:
    """Polynomial in T over F_q; coefficients are int codes, low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        cs = [c % field.q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _from_codes(cls, field, cs):
        """Polynomial from int codes already in range(q): only trailing
        zeros are stripped.

        Arithmetic results come through here; their coefficients are table
        lookups, so the normalisation of the public constructor is skipped.
        """
        while cs and cs[-1] == 0:
            cs.pop()
        out = cls.__new__(cls)
        out.field = field
        out.coeffs = tuple(cs)
        return out

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def const(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def T(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field, k, c=1):
        return cls(field, (0,) * k + (c,))

    @property
    def deg(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_const(self):
        return len(self.coeffs) <= 1

    @property
    def lc(self):
        return self.coeffs[-1] if self.coeffs else 0

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @property
    def is_monic(self):
        return self.lc == 1

    def __add__(self, other):
        other = self._coerce(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = f._addt
        for i, c in enumerate(b):
            out[i] = add[out[i]][c]
        return Poly._from_codes(f, out)

    def __neg__(self):
        neg = self.field._negt
        return Poly._from_codes(self.field, [neg[c] for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        add = f._addt
        for i, x in enumerate(a):
            if x:
                row = f._mult[x]
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add[out[i + j]][row[y]]
        return Poly._from_codes(f, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n):
        r = Poly.one(self.field)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(f), self
        quot = [0] * (dq + 1)
        mult, add = f._mult, f._addt
        inv_row = mult[f.inv(other.lc)]
        od = other.deg
        for k in range(dq, -1, -1):
            c = inv_row[rem[k + od]]
            quot[k] = c
            if c:
                row = mult[f.neg(c)]
                for i, oc in enumerate(other.coeffs):
                    rem[k + i] = add[rem[k + i]][row[oc]]
        return Poly._from_codes(f, quot), Poly._from_codes(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero or self.lc == 1:
            return self
        inv = self.field.inv(self.lc)
        return Poly(self.field, [self.field.mul(inv, c) for c in self.coeffs])

    def scale(self, c):
        return Poly(self.field, [self.field.mul(c, x) for x in self.coeffs])

    def derivative(self):
        f = self.field
        out = []
        for k in range(1, len(self.coeffs)):
            out.append(f.mul(self.coeffs[k], k % f.p))
        return Poly(f, out)

    def sort_key(self):
        return (len(self.coeffs), tuple(reversed(self.coeffs)))

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly.const(self.field, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.const(self.field, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("T" if c == 1 else "%d*T" % c)
            else:
                parts.append("T^%d" % k if c == 1 else "%d*T^%d" % (c, k))
        return "+".join(parts)

    def __repr__(self):
        return "Poly(%s)" % self


def polys_upto(field, maxdeg):
    """All polynomials of degree <= maxdeg in canonical (ascending code) order."""
    q = field.q
    for code in range(q ** (maxdeg + 1)):
        cs = []
        c = code
        while c:
            cs.append(c % q)
            c //= q
        yield Poly(field, cs)


def gcd(a, b):
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def powmod(base, n, mod):
    r = Poly.one(base.field)
    b = base % mod
    while n:
        if n & 1:
            r = (r * b) % mod
        b = (b * b) % mod
        n >>= 1
    return r


def _pth_detwist(f):
    # f(T) = h(T^p); return h with p-th roots of the surviving coefficients
    fld = f.field
    root_pow = fld.q // fld.p
    out = []
    for k in range(0, len(f.coeffs), fld.p):
        out.append(fld.pow_(f.coeffs[k], root_pow) if root_pow > 1 else f.coeffs[k])
    return Poly(fld, out)


def _berlekamp_kernel(f):
    """Kernel basis of the Frobenius-minus-identity map mod f (f monic squarefree)."""
    fld = f.field
    n = f.deg
    frob_rows = []
    for i in range(n):
        r = powmod(Poly.T(fld), fld.q * i, f) if i else Poly.one(fld)
        frob_rows.append([r.coeff(j) for j in range(n)])
    cons = []
    for j in range(n):
        cons.append([fld.sub(frob_rows[i][j], 1 if i == j else 0) for i in range(n)])
    return nullspace(cons, n, fld)


def is_irreducible(f):
    if f.is_zero or f.is_const:
        return False
    f = f.monic()
    if f.deg == 1:
        return True
    d = f.derivative()
    if d.is_zero:
        return False
    if gcd(f, d).deg >= 1:
        return False
    return len(_berlekamp_kernel(f)) == 1


def _berlekamp_split(f):
    """All monic irreducible factors of a monic squarefree f."""
    fld = f.field
    kern = _berlekamp_kernel(f)
    want = len(kern)
    factors = [f]
    if want == 1:
        return factors
    for vec in kern:
        v = Poly(fld, vec)
        if v.is_const:
            continue
        for c in range(fld.q):
            if len(factors) == want:
                return factors
            shifted = v - Poly.const(fld, c)
            nxt = []
            for g in factors:
                if g.deg <= 1:
                    nxt.append(g)
                    continue
                h = gcd(g, shifted)
                if 0 < h.deg < g.deg:
                    nxt.extend([h, (g // h).monic()])
                else:
                    nxt.append(g)
            factors = nxt
    if len(factors) != want:
        raise InvariantViolation(
            "Berlekamp split of %s gave %d factors; its kernel has dimension %d"
            % (f, len(factors), want)
        )
    return factors


def _some_irreducible_factor(f):
    if f.deg == 1:
        return f.monic()
    d = f.derivative()
    if d.is_zero:
        return _some_irreducible_factor(_pth_detwist(f))
    g = gcd(f, d)
    if g.deg >= 1:
        return _some_irreducible_factor(g)
    return min(_berlekamp_split(f.monic()), key=Poly.sort_key)


def strip_power(f, h):
    """(m, f / h^m) for the largest m with h^m dividing the nonzero f."""
    m = 0
    q, r = divmod(f, h)
    while r.is_zero:
        f = q
        m += 1
        q, r = divmod(f, h)
    return m, f


def factor(f):
    """Monic irreducible factors with multiplicity, sorted; lc(f) is dropped."""
    if f.is_zero:
        raise ValueError("cannot factor 0")
    work = f.monic()
    out = {}
    while work.deg >= 1:
        h = _some_irreducible_factor(work)
        out[h], work = strip_power(work, h)
    return sorted(out.items(), key=lambda kv: kv[0].sort_key())


def is_squarefree(f):
    if f.is_zero:
        return False
    if f.is_const:
        return True
    d = f.derivative()
    if d.is_zero:
        return False
    return gcd(f, d).is_const


class Place:
    """A place of F_q(T): a monic irreducible polynomial, or infinity."""

    __slots__ = ("poly",)

    def __init__(self, poly=None):
        if poly is not None and not (poly.is_monic and poly.deg >= 1):
            raise InvariantViolation("place %s is not monic of positive degree" % poly)
        self.poly = poly

    @classmethod
    def infinity(cls):
        return cls(None)

    @classmethod
    def finite(cls, poly):
        if not is_irreducible(poly):
            raise InvariantViolation("%s is not irreducible" % poly)
        return cls(poly.monic())

    @property
    def is_infinity(self):
        return self.poly is None

    @property
    def degree(self):
        return 1 if self.poly is None else self.poly.deg

    def sort_key(self):
        if self.poly is None:
            return (1, 0, ())
        return (0,) + self.poly.sort_key()

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(("place", self.poly))

    def __str__(self):
        return "oo" if self.poly is None else str(self.poly)

    def __repr__(self):
        return "Place(%s)" % self


def sqr_test_residue(f, g):
    """Quadratic residue status of g in F_q[T]/(f): +1, -1, or 0 if f | g.

    Odd q only; f must be monic irreducible.
    """
    fld = f.field
    if fld.p == 2:
        raise Unsupported("quadratic residue test needs odd q")
    r = g % f
    if r.is_zero:
        return 0
    t = powmod(r, (fld.q**f.deg - 1) // 2, f)
    if t == Poly.one(fld):
        return 1
    if t == Poly.const(fld, fld.neg(1)):
        return -1
    raise InvariantViolation("power residue was not 0 or +-1")


def parse_poly(field, text):
    """Parse expressions like "T^2+2*T+1" or "T*(T-1)" into a Poly.

    Integer literals are taken mod q as element codes.  Parentheses nested
    deeper than _MAX_NESTING are refused with ValueError.
    """
    tokens = _tokenize(text)
    if max(accumulate((t == "(") - (t == ")") for t in tokens), default=0) > _MAX_NESTING:
        raise ValueError("parentheses nested deeper than %d in %r" % (_MAX_NESTING, text))
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        if pos[0] >= len(tokens):
            raise ValueError("unexpected end of input in %r" % text)
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def parse_expr():
        if peek() == "-":
            take()
            node = -parse_term()
        else:
            node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while peek() == "*":
            take()
            node = node * parse_factor()
        return node

    def parse_factor():
        node = parse_atom()
        if peek() == "^":
            take()
            t = take()
            if not isinstance(t, int):
                raise ValueError("exponent must be an integer in %r" % text)
            node = node**t
        return node

    def parse_atom():
        t = take()
        if t == "(":
            node = parse_expr()
            if take() != ")":
                raise ValueError("unbalanced parens in %r" % text)
            return node
        if t == "T":
            return Poly.T(field)
        if isinstance(t, int):
            return Poly.const(field, t % field.q)
        raise ValueError("unexpected token %r in %r" % (t, text))

    node = parse_expr()
    if pos[0] != len(tokens):
        raise ValueError("trailing input in %r" % text)
    return node


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch in "Tt":
            out.append("T")
            i += 1
        elif ch in "+-*^()":
            out.append(ch)
            i += 1
        else:
            raise ValueError("bad character %r in %r" % (ch, text))
    return out
