"""The Bruhat-Tits tree for PGL2 of F_q((u)).

A vertex is the homothety class of the column lattice of

    [[u^n, x],
     [0,   1]]

and is stored as the pair (n, x mod u^n) with x a finite tail in u.
Matrices act by left multiplication followed by column reduction, so the
action composes like the group and is blind to right GL2(O) factors.
"""

from __future__ import annotations

import math

from .errors import PrecisionLoss
from .laurent import MIN_TERMS, LaurentSeries


class TreeVertex:
    """Level n and shift x (an exact series with support below u^n)."""

    __slots__ = ("field", "n", "x")

    def __init__(self, field, n, x=None):
        if x is None:
            x = LaurentSeries.zero(field)
        if not x.exact:
            raise ValueError("vertex shift must be exact")
        x = _exact_below(x, n)
        self.field = field
        self.n = n
        self.x = x

    @classmethod
    def base(cls, field):
        return cls(field, 0)

    def matrix(self):
        f = self.field
        return Mat2K(
            LaurentSeries.monomial(f, self.n),
            self.x,
            LaurentSeries.zero(f),
            LaurentSeries.one(f),
        )

    def parent(self):
        return TreeVertex(self.field, self.n - 1, self.x)

    def children(self):
        f = self.field
        out = []
        for c in range(f.q):
            shift = self.x + LaurentSeries.monomial(f, self.n, c) if c else self.x
            out.append(TreeVertex(f, self.n + 1, shift))
        return out

    def neighbors(self):
        """Parent first, then the q children in coefficient order."""
        return [self.parent()] + self.children()

    def key(self):
        return (self.n, self.x.val, self.x.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TreeVertex):
            return NotImplemented
        return self.field == other.field and self.key() == other.key()

    def __hash__(self):
        return hash((self.field.q,) + self.key())

    def __str__(self):
        return "(n=%d, x=%s)" % (self.n, self.x)

    def __repr__(self):
        return "TreeVertex%s" % (self,)


def _exact_below(x, n):
    """Digits of x strictly below u^n, kept exact."""
    if x.is_zero:
        return LaurentSeries.zero(x.field)
    hi = min(n, x.val + len(x.coeffs))
    cs = x.coeffs[: max(0, hi - x.val)]
    return LaurentSeries._from_codes(x.field, x.val, cs, True)


class Mat2K:
    """A 2x2 matrix of Laurent series, row major."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @classmethod
    def identity(cls, field):
        one = LaurentSeries.one(field)
        zero = LaurentSeries.zero(field)
        return cls(one, zero, zero, one)

    @property
    def field(self):
        return self.a.field

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        return Mat2K(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other):
        return Mat2K(
            self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d
        )

    def __neg__(self):
        return Mat2K(-self.a, -self.b, -self.c, -self.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def inverse(self, terms=None):
        """The inverse matrix; `terms` is the term count for the inverse of
        an exact determinant with more than one term (see
        LaurentSeries.inverse)."""
        inv = self.det().inverse(terms)
        return Mat2K(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def __eq__(self, other):
        if not isinstance(other, Mat2K):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __str__(self):
        return "[[%s, %s], [%s, %s]]" % self.entries()

    def __repr__(self):
        return "Mat2K%s" % (self,)


def _left_is_pivot(c, d):
    """Whether c, the bottom-left entry, has the strictly smaller valuation.

    Each entry is read only as far as it is known: a series that is zero to
    O(u^p) has valuation at least p, and an exact zero counts as infinite.  So c wins
    when its valuation is known and below d's lower bound, and d wins when
    its valuation is known and at most c's lower bound.
    """
    oc = c.val if c.coeffs or not c.exact else math.inf
    od = d.val if d.coeffs or not d.exact else math.inf
    if oc == od == math.inf:
        raise ZeroDivisionError("bottom row vanishes; matrix is singular")
    if c.coeffs and oc < od:
        return True
    if (d.coeffs or d.exact) and od <= oc:
        return False
    raise PrecisionLoss("cannot choose a pivot between %s and %s" % (c, d))


def canonical_form(m):
    """The vertex fixed by the column lattice of m, up to homothety.

    Reduction picks the column whose bottom entry d has the smaller
    valuation as the pivot (d wins ties, and the comparison reads each entry
    only as far as it is known), clears the other bottom entry c, and
    normalizes both columns to monomials before reducing the shift.  The
    reduced top-left entry is det/d, and the shift is b/d modulo u^k for
    its valuation k.  For an exact matrix k comes from the exact
    determinant, and d^-1 is expanded just far enough for the shift's
    digits below u^k.  Otherwise the entry is a - (c/d)*b, and an exact
    pivot is expanded as far as the inexact entries are known.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    if _left_is_pivot(c, d):
        a, b, c, d = b, a, d, c
    m_ord = d.ord()
    exact = a.exact and b.exact and c.exact and d.exact
    if exact:
        k = (a * d - b * c).ord() - m_ord
        terms = k - b.val if b.coeffs else 0
    else:
        terms = min(e.prec_abs for e in (a, b, c, d)) - m_ord
    d_inv = d.inverse(max(terms, MIN_TERMS))
    if not exact:
        if not (c.is_zero and c.exact):
            a = a - c * d_inv * b
        k = a.ord()
    # the inverse of d * u^(-m_ord), valuation and precision included
    b = b * d_inv.shift(m_ord)
    if not b.exact and b.prec_abs < k:
        raise PrecisionLoss(
            "shift entry known to O(u^%d) but digits below u^%d are needed"
            % (b.prec_abs, k)
        )
    # column scalings leave only the shift to reduce modulo u^k
    lo = min(b.val, k) if not b.is_zero else k
    digits = [b.coeff(t) for t in range(lo, k)]
    x = LaurentSeries._from_codes(m.field, lo - m_ord, digits, True)
    return TreeVertex(m.field, k - m_ord, x)


def act(g, v):
    """Left action on vertices: act(g*h, v) == act(g, act(h, v))."""
    return canonical_form(g * v.matrix())


def base_distance(v):
    """The path length from the base vertex o (level 0, shift 0) to v, with
    no series arithmetic.  The paths from o and from v towards the end
    meet at level min(n, 0, ord x), ord x left out when x = 0: the digits
    of the shifts agree below u^level.  So the length is
    (n - meet) + (0 - meet)."""
    meet = min(v.n, 0, v.x.val) if v.x.coeffs else min(v.n, 0)
    return v.n - 2 * meet
