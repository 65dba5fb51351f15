"""Laurent series in the uniformizer u = 1/T at the place at infinity.

A series is either exact (finitely many terms, all later coefficients zero)
or known only up to O(u^prec).  Arithmetic tracks the guaranteed precision
and raises PrecisionLoss rather than silently returning too few digits.
There is no working precision: the inverse or square root of an exact
series with more than one term is expanded to a term count its caller
passes, and an inexact series keeps the count it has.
"""

from __future__ import annotations

import math

from .errors import NotASquare, PrecisionLoss, Unsupported
from .gfpoly import Poly

MIN_TERMS = 8


class LaurentSeries:
    """coeffs[k] is the coefficient of u^(val + k), as an int code."""

    __slots__ = ("field", "val", "coeffs", "exact")

    def __init__(self, field, val, coeffs, exact):
        q = field.q
        self._store(field, val, [c % q for c in coeffs], exact)

    @classmethod
    def _from_codes(cls, field, val, cs, exact):
        """Series from int codes already in range(q): only zeros are stripped.

        Arithmetic results come through here; their coefficients are table
        lookups, so the normalisation of the public constructor is skipped.
        """
        out = cls.__new__(cls)
        out._store(field, val, cs, exact)
        return out

    def _store(self, field, val, cs, exact):
        n = len(cs)
        lo = 0
        while lo < n and cs[lo] == 0:
            lo += 1
        if lo == n:
            val = 0 if exact else val + n
            cs = ()
        else:
            hi = n
            if exact:
                while cs[hi - 1] == 0:
                    hi -= 1
            val += lo
            cs = tuple(cs[lo:hi])
        self.field = field
        self.val = val
        self.coeffs = cs
        self.exact = exact

    # constructors

    @classmethod
    def zero(cls, field):
        return cls(field, 0, (), True)

    @classmethod
    def one(cls, field):
        return cls(field, 0, (1,), True)

    @classmethod
    def scalar(cls, field, c):
        return cls(field, 0, (c,), True)

    @classmethod
    def monomial(cls, field, k, c=1):
        return cls(field, k, (c,), True)

    @classmethod
    def inexact_zero(cls, field, prec):
        return cls(field, prec, (), False)

    # structure

    @property
    def prec_abs(self):
        """Absolute exponent below which every coefficient is known."""
        if self.exact:
            return math.inf
        return self.val + len(self.coeffs)

    @property
    def is_zero(self):
        """True when every known coefficient vanishes (exactly zero if exact)."""
        return not self.coeffs

    def ord(self):
        if self.coeffs:
            return self.val
        if self.exact:
            raise ValueError("ord of exact zero")
        raise PrecisionLoss("series is zero to O(u^%s); ord unknown" % self.val)

    def coeff(self, k):
        """Coefficient of u^k; raises if k is past the known precision."""
        if k < self.val:
            return 0
        if k - self.val < len(self.coeffs):
            return self.coeffs[k - self.val]
        if self.exact:
            return 0
        raise PrecisionLoss("coefficient of u^%d beyond O(u^%s)" % (k, self.prec_abs))

    # arithmetic

    def _finish(self, val, cs, prec):
        if prec == math.inf:
            return LaurentSeries._from_codes(self.field, val, cs, True)
        cs = cs[: max(0, prec - val)]
        out = LaurentSeries._from_codes(self.field, val, cs, False)
        if out.coeffs and out.prec_abs - out.val < MIN_TERMS:
            raise PrecisionLoss(
                "only %d terms survive (need %d)" % (out.prec_abs - out.val, MIN_TERMS)
            )
        return out

    def __add__(self, other):
        other = self._coerce(other)
        f = self.field
        prec = min(self.prec_abs, other.prec_abs)
        if self.is_zero and self.exact:
            return other._finish(other.val, list(other.coeffs), prec)
        if other.is_zero and other.exact:
            return self._finish(self.val, list(self.coeffs), prec)
        lo = min(self.val, other.val)
        hi = prec if prec != math.inf else max(self._end(), other._end())
        n = max(0, hi - lo)
        cs = [0] * n
        add = f._addt
        for src in (self, other):
            start = src.val - lo
            end = min(n, start + len(src.coeffs))
            if start < end:
                cs[start:end] = [
                    add[c][d] for c, d in zip(cs[start:end], src.coeffs)
                ]
        return self._finish(lo, cs, prec)

    def _end(self):
        # one past the last stored exponent
        return self.val + len(self.coeffs)

    def __neg__(self):
        neg = self.field._negt
        return LaurentSeries._from_codes(
            self.field, self.val, [neg[c] for c in self.coeffs], self.exact
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        f = self.field
        if (self.is_zero and self.exact) or (other.is_zero and other.exact):
            return LaurentSeries.zero(f)
        prec = min(self.prec_abs + other.val, other.prec_abs + self.val)
        if self.is_zero or other.is_zero:
            return LaurentSeries.inexact_zero(f, prec)
        lo = self.val + other.val
        n = (
            len(self.coeffs) + len(other.coeffs) - 1
            if prec == math.inf
            else prec - lo
        )
        cs = [0] * n
        _convolve_into(cs, 0, self.coeffs, other.coeffs, f)
        return self._finish(lo, cs, prec)

    __radd__ = __add__
    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by u^k (exactness preserved)."""
        if self.is_zero:
            if self.exact:
                return self
            return LaurentSeries.inexact_zero(self.field, self.val + k)
        return LaurentSeries._from_codes(
            self.field, self.val + k, self.coeffs, self.exact
        )

    def _expansion(self, terms, what):
        """How many terms an inverse or square root of self gets."""
        if not self.exact:
            return len(self.coeffs)
        if terms is None:
            raise ValueError(
                "the %s of an exact series with %d terms needs a term count"
                % (what, len(self.coeffs))
            )
        return terms

    def inverse(self, terms=None):
        """1/self.  A monomial has an exact inverse; any other exact series
        is expanded to `terms` terms, and an inexact one to as many terms as
        it has itself."""
        f = self.field
        if self.is_zero:
            if self.exact:
                raise ZeroDivisionError("inverse of zero series")
            raise PrecisionLoss("inverse of a series that is zero to known precision")
        a = self.coeffs
        if self.exact and len(a) == 1:
            return LaurentSeries.monomial(f, -self.val, f.inv(a[0]))
        n = self._expansion(terms, "inverse")
        add = f._addt
        mult = f._mult
        inv0 = f.inv(a[0])
        scale = mult[f._negt[inv0]]
        tail = a[1:]
        # acc[k] collects sum(a[i] * b[k - i], i >= 1) as the b are found
        acc = [0] * n
        b = []
        for k in range(n):
            bk = scale[acc[k]] if k else inv0
            b.append(bk)
            if bk:
                row = mult[bk]
                end = min(n, k + 1 + len(tail))
                acc[k + 1 : end] = [
                    add[c][row[x]] for c, x in zip(acc[k + 1 : end], tail)
                ]
        return self._finish(-self.val, b, -self.val + n)

    def sqrt(self, terms=None):
        """Canonical square root: leading coefficient is the smallest root.
        The term count follows the rules of inverse."""
        f = self.field
        if f.p == 2:
            raise Unsupported("series square root needs odd q")
        if self.is_zero:
            if self.exact:
                return self
            raise PrecisionLoss("sqrt of a series that is zero to known precision")
        if self.val % 2:
            raise NotASquare("odd valuation %d" % self.val)
        s0 = f.sqrt_(self.coeffs[0])
        if s0 is None:
            raise NotASquare("leading coefficient %d is not a square" % self.coeffs[0])
        if self.exact and len(self.coeffs) == 1:
            return LaurentSeries.monomial(f, self.val // 2, s0)
        a = self.coeffs
        n = self._expansion(terms, "square root")
        inv2s = f.inv(f.mul(2 % f.p, s0))
        r = [s0]
        for k in range(1, n):
            s = a[k] if k < len(a) else 0
            for i in range(1, k):
                s = f.sub(s, f.mul(r[i], r[k - i]))
            r.append(f.mul(inv2s, s))
        return self._finish(self.val // 2, r, self.val // 2 + n)

    def _coerce(self, other):
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, int):
            return LaurentSeries.scalar(self.field, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentSeries.scalar(self.field, other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.field == other.field
            and self.exact == other.exact
            and self.val == other.val
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.q, self.val, self.coeffs, self.exact))

    def agrees_with(self, other, upto=None):
        """Do the two series match on every exponent both of them know?"""
        hi = min(self.prec_abs, other.prec_abs)
        if upto is not None:
            hi = min(hi, upto)
        if hi == math.inf:
            return self.coeffs == other.coeffs and (self.is_zero or self.val == other.val)
        lo = min(
            self.val if self.coeffs else hi, other.val if other.coeffs else hi
        )
        return all(self.coeff(k) == other.coeff(k) for k in range(lo, hi))

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            k = self.val + i
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("u" if c == 1 else "%d*u" % c)
            else:
                parts.append("u^%d" % k if c == 1 else "%d*u^%d" % (c, k))
        if not self.exact:
            parts.append("O(u^%d)" % self.prec_abs)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "LaurentSeries(%s)" % self


def _convolve_into(cs, off, xs, ys, f):
    """Add the product of the code tuples xs and ys into cs from index off
    on, dropping the terms past the end of cs."""
    n = len(cs) - off
    add = f._addt
    mult = f._mult
    if len(ys) < len(xs):
        xs, ys = ys, xs
    for i, a in enumerate(xs[:n]):
        if a:
            row = mult[a]
            lo = off + i
            hi = off + min(n, i + len(ys))
            cs[lo:hi] = [add[c][row[b]] for c, b in zip(cs[lo:hi], ys)]


def dot_head(x1, y1, x2, y2, end):
    """x1*y1 + x2*y2 below u^end, without computing the full products.

    Returns (val, prec, head): the valuation of the sum when it has a
    nonzero coefficient below u^end (None otherwise), its absolute
    precision (math.inf when it is exact) and its coefficients of u^val up
    to u^(min(end, prec) - 1), all equal to what the full products and
    their sum give.  A product of nonzero series has the sum of their
    valuations as its own, and its precision follows from theirs.  Digits
    at u^end and above are never looked at.  PrecisionLoss is raised where
    one of the two products would raise it, and where a sum with a
    valuation below u^end keeps fewer than MIN_TERMS known terms.
    """
    terms = []  # (coeffs, coeffs, val) of the nonzero products
    low = prec = math.inf
    for x, y in ((x1, y1), (x2, y2)):
        xs, ys = x.coeffs, y.coeffs
        if (x.exact and not xs) or (y.exact and not ys):
            continue
        p = min(x.prec_abs + y.val, y.prec_abs + x.val)
        if p < prec:
            prec = p
        if xs and ys:
            val = x.val + y.val
            if p - val < MIN_TERMS:
                raise PrecisionLoss(
                    "only %d terms survive (need %d)" % (p - val, MIN_TERMS)
                )
            terms.append((xs, ys, val))
        else:
            val = p  # an inexact zero starts at its precision
        if val < low:
            low = val
    if low == math.inf:
        return None, math.inf, []
    if prec == math.inf:  # exact: nothing past the longest product
        top = max(val + len(xs) + len(ys) - 1 for xs, ys, val in terms)
    else:
        top = prec
    stop = max(low, min(end, top))
    cs = _sum_codes(terms, low, stop, x1.field)
    j = next((j for j, c in enumerate(cs) if c), None)
    if j is None:
        return None, prec, []
    val = low + j
    if prec - val < MIN_TERMS:
        raise PrecisionLoss(
            "only %d terms survive (need %d)" % (prec - val, MIN_TERMS)
        )
    return val, prec, cs[j : stop - low]


def _sum_codes(terms, low, hi, f):
    """Coefficients of u^low .. u^(hi-1) of a sum of products (xs, ys, val)."""
    cs = [0] * (hi - low)
    for xs, ys, val in terms:
        if val < hi:
            _convolve_into(cs, val - low, xs, ys, f)
    return cs


def embed(x):
    """Expand a Poly at infinity: T becomes u^-1, and the series is exact."""
    if not isinstance(x, Poly):
        raise TypeError("cannot embed %r" % (x,))
    if x.is_zero:
        return LaurentSeries.zero(x.field)
    return LaurentSeries(x.field, -x.deg, tuple(reversed(x.coeffs)), True)
