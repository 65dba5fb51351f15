"""The standard order A[i, j, ij] of H(a, b), its discriminant certificate,
torsion units, and conjugacy testing inside the unit group."""

from __future__ import annotations

from itertools import zip_longest

from .errors import InvariantViolation, NotCertified, Unsupported
from .gfpoly import Poly, choose_xi, factor, gcd, polys_upto
from .linalg import nullspace
from .quat import QuatElem, ram_product


def _det3(m):
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _det4(m):
    total = None
    for col in range(4):
        minor = [[m[r][cc] for cc in range(4) if cc != col] for r in range(1, 4)]
        term = m[0][col] * _det3(minor)
        if col % 2:
            term = -term
        total = term if total is None else total + term
    return total


class CertifyReport:
    """Outcome of the discriminant check on the standard order."""

    def __init__(self, certified, gram_det, reduced, expected):
        self.certified = certified
        self.gram_det = gram_det
        self.reduced = reduced
        self.expected = expected

    def __bool__(self):
        return self.certified

    def __repr__(self):
        status = "maximal" if self.certified else "not certified"
        return "CertifyReport(%s; disc %s vs %s)" % (status, self.reduced, self.expected)


class StandardOrder:
    """The A-lattice spanned by 1, i, j, ij inside H(a, b)."""

    def __init__(self, alg):
        self.alg = alg
        self._products = {}
        self._moduli = None  # monic irreducible divisors of b, once factored

    def basis(self):
        return self.alg.basis()

    def basis_products(self, el):
        """([e*el for e in basis], [el*e for e in basis]), computed once per
        element and kept on this order."""
        prods = self._products.get(el)
        if prods is None:
            bas = self.basis()
            prods = ([e * el for e in bas], [el * e for e in bas])
            self._products[el] = prods
        return prods

    def residue_key(self, el):
        """The residue key of el = x + y*i + z*j + w*ij in this order: the
        pair (x mod h, y mod h) for each monic irreducible h dividing b.

        It is a conjugacy invariant of the unit group O^x.  Let
        P_h = hO + jO.  Since ji = conj(i)*j, jO = Oj, so jO is a two-sided
        ideal, and so is hO (h is central); P_h is two-sided.  As
        j^2 = b lies in hA, P_h = hA + hAi + Aj + Aij, so
        O/P_h = (A/h)[i], a commutative ring, and el maps to
        (x mod h) + (y mod h)*i there.  For lam in O^x the image of lam
        is a unit of that commutative ring, so lam*el*lam^-1 = el mod P_h:
        conjugate elements share the key, for either parity of q.  At a
        ramified place the key tells apart the roots a torsion unit can
        reduce to, which is where the factor 2^n of the class count
        comes from.
        """
        if self._moduli is None:
            self._moduli = [h for h, _ in factor(self.alg.b)]
        return tuple((el.x % h, el.y % h) for h in self._moduli)

    def gram_matrix(self):
        bas = self.basis()
        return [[(x * y).trace() for y in bas] for x in bas]

    def gram_disc(self):
        return _det4(self.gram_matrix())

    def certify_maximal(self):
        """Certify the order maximal when its Gram determinant is a nonzero
        constant times the square of the product of the ramified primes.

        The Gram determinant is the square of the reduced discriminant up
        to a constant, and a maximal order has the product of the ramified
        primes as reduced discriminant.  Comparing only the squarefree
        parts would accept a suborder whose discriminant has a ramified
        prime to a higher power.  The squarefree part of the determinant is
        reported alongside.
        """
        det = self.gram_disc()
        expected = ram_product(self.alg)
        if det.is_zero:
            return CertifyReport(False, det, det, expected)
        reduced = Poly.one(det.field)
        for h, _ in factor(det):
            reduced = reduced * h
        quo, rem = divmod(det, expected * expected)
        certified = rem.is_zero and quo.is_const
        return CertifyReport(certified, det, reduced, expected)

    def ensure_maximal(self):
        rep = self.certify_maximal()
        if not rep.certified:
            raise NotCertified(
                "standard order of %s is not certified maximal: Gram"
                " determinant %s is not a constant times (%s)^2"
                % (self.alg, rep.gram_det, rep.expected)
            )
        return rep

    def is_unit(self, el):
        n = el.norm()
        return n.is_const and not n.is_zero

    def __repr__(self):
        return "StandardOrder(%r)" % (self.alg,)


def power_cycle(el, t, n, count):
    """The pairs (u_k, v_k) of int codes with el^k = u_k + v_k*el, one per
    power el^1, ..., el^m = 1 for m the multiplicative order of el, read
    off the characteristic polynomial X^2 - t*X + n of el, (t, n) as
    el.charpoly() gives them; None when no power up to el^count is one,
    or t or n is not a constant.

    A non-scalar el generates F_q[el] = F_q[X]/(X^2 - t*X + n) when t and
    n are constants (1 and el are independent), so el^k is X^k there; the
    pair (u, v) stands for u + v*X, and X*(u + v*X) = -v*n + (u + v*t)*X.
    A scalar c gives (c^k, 0).  No quaternion product is formed.
    """
    if not (t.is_const and n.is_const):
        return None
    fld = el.alg.field
    t, n, c = t.coeff(0), n.coeff(0), el.x.coeff(0)
    pair = (c, 0) if el.is_scalar else (0, 1)
    out = []
    while len(out) < count:
        out.append(pair)
        if pair == (1, 0):
            return out
        u, v = pair
        if el.is_scalar:
            pair = (fld.mul(u, c), 0)
        else:
            pair = (fld.neg(fld.mul(v, n)), fld.add(u, fld.mul(v, t)))
    return None


def solve_torsion(order, bound):
    """The torsion census: the units x + y*i + z*j + w*ij whose z and w have
    degree at most bound and which are roots of one quadratic, X^2 - xi
    for odd q (x = 0; trace 0, norm -xi) and X^2 + X + xi for even q
    (y = 1; trace 1, norm xi), xi the constant of choose_xi.

    The coordinate solved for, y for odd q and x for even q, has a square
    of degree at most deg b + 2*bound, so its degree is at most
    m = (deg b + 2*bound) // 2 and can exceed bound.  One table, built per
    call, maps r^2 (odd q) or r^2 + r (even q) to its roots r of degree at
    most m, so each (z, w) pair costs one lookup.  The loops run over w,
    then z, then the roots of the table, each in polys_upto order, which
    is Poly.sort_key order: the census comes out sorted by (w, z, y, x)
    and is never re-sorted.  A unit without the trace and norm of the
    quadratic breaks an invariant and raises InvariantViolation.
    """
    alg = order.alg
    fld = alg.field
    xi = Poly.const(fld, choose_xi(fld))
    a, b = alg.a, alg.b
    if fld.p == 2 and a != xi:
        raise Unsupported("even-q torsion search needs the H(xi, b) shape")
    quadratic = (Poly.one(fld), xi) if fld.p == 2 else (Poly.zero(fld), -xi)
    roots = {}
    for r in polys_upto(fld, (b.deg + 2 * bound) // 2):
        roots.setdefault(r * r + r if fld.p == 2 else r * r, []).append(r)
    ws = list(polys_upto(fld, bound))
    out = []
    if fld.p == 2:
        # x^2 + x = b*(z^2 + z*w + xi*w^2): b*z and b*z^2 once per z,
        # b*xi*w^2 once per w, so each (z, w) pair costs one product
        bzs = []
        for z in ws:
            bz = b * z
            bzs.append((z, bz, bz * z))
        for w in ws:
            bxww = b * xi * w * w
            for z, bz, bz2 in bzs:
                for x in roots.get(bz2 + bz * w + bxww, ()):
                    out.append(alg.elem(x, Poly.one(fld), z, w))
    else:
        # y^2 = (xi - b*z^2)/a + b*w^2, and a divides a*b*w^2: one division
        # per z decides every w, and b*w^2 is formed once per w
        bases = []
        for z in ws:
            base, rem = divmod(xi - b * z * z, a)
            if rem.is_zero:
                bases.append((z, base))
        for w in ws:
            bww = b * w * w
            for z, base in bases:
                for y in roots.get(base + bww, ()):
                    out.append(alg.elem(Poly.zero(fld), y, z, w))
    for unit in out:
        if unit.charpoly() != quadratic:
            raise InvariantViolation(
                "census unit %s has trace %s and norm %s, not the %s and %s"
                " of its quadratic" % ((unit,) + unit.charpoly() + quadratic)
            )
    return out


def torsion_type(units):
    """The (trace, norm, multiplicative order) that every unit of a
    solve_torsion census shares, None for an empty census.

    Each unit is a root of one quadratic X^2 - t*X + n (solve_torsion
    checks it), so each has the order of X in F_q[X]/(X^2 - t*X + n),
    read off power_cycle; a census unit that is not torsion breaks an
    invariant."""
    if not units:
        return None
    unit = units[0]
    t, n = unit.charpoly()
    cycle = power_cycle(unit, t, n, unit.alg.field.q**2)
    if cycle is None:
        raise InvariantViolation("census element %s is not torsion" % unit)
    return t, n, len(cycle)


class Witness:
    """A unit lam with lam * x = y * lam, found by a search of coordinate
    degrees up to the bound (None when no degree was searched)."""

    def __init__(self, lam, bound):
        self.lam = lam
        self.bound = bound

    def __repr__(self):
        return "Witness(%s, bound=%r)" % (self.lam, self.bound)


class NoWitness:
    """The negative verdict of a unit search: no unit with coordinate
    degrees up to the bound (None when no degree was searched).  It is
    falsy, so a verdict is true exactly when it is a Witness."""

    def __init__(self, bound):
        self.bound = bound

    def __bool__(self):
        return False

    def __repr__(self):
        return "NoWitness(bound=%r)" % (self.bound,)


def conj_search(order, x, y, bound):
    """Search for a unit conjugating x to y, coordinates of degree <= bound.

    The commutation condition is linear, so candidates form an F_q-space,
    the kernel of a linear system, whose vectors kernel_elements reads; the
    witness is the first unit span_units finds in it.
    """
    alg = order.alg
    fld = alg.field
    if x == y:
        return Witness(alg.one, None)
    # column image e*x - y*e of each basis element e, as coefficient lists
    right, _ = order.basis_products(x)
    _, left = order.basis_products(y)
    images = []
    for ex, ye in zip(right, left):
        im = []
        for a, b in zip(ex.coords, ye.coords):
            pairs = zip_longest(a.coeffs, b.coeffs, fillvalue=0)
            co = [fld.sub(u, v) for u, v in pairs]
            while co and not co[-1]:
                co.pop()
            im.append(co)
        images.append(im)
    ncols = 4 * (bound + 1)
    maxdeg = bound + 1 + max(
        (len(co) - 1 for im in images for co in im if co), default=0
    )
    nrows = 4 * (maxdeg + 1)
    # row (coordinate ci, degree d + k) x column (basis mu, shift T^k)
    rows = [[0] * ncols for _ in range(nrows)]
    for mu, im in enumerate(images):
        for ci, co in enumerate(im):
            for d, cf in enumerate(co):
                if cf:
                    for k in range(bound + 1):
                        rows[ci * (maxdeg + 1) + d + k][mu * (bound + 1) + k] = cf
    kern = nullspace(rows, ncols, fld)
    for lam in span_units(alg, kernel_elements(alg, kern, bound)):
        if lam * x != y * lam:
            raise InvariantViolation(
                "conjugacy witness %s does not take %s to %s" % (lam, x, y)
            )
        if not order.is_unit(lam):
            raise InvariantViolation(
                "conjugacy witness %s has non-unit norm %s" % (lam, lam.norm())
            )
        return Witness(lam, bound)
    return NoWitness(bound)


def kernel_elements(alg, kernel, bound):
    """The elements of unit-search kernel vectors: four blocks of bound + 1
    coefficients, block mu the coordinate on (1, i, j, ij)[mu]."""
    fld = alg.field
    width = bound + 1
    blocks = range(0, 4 * width, width)
    return [
        QuatElem(alg, *(Poly(fld, vec[k : k + width]) for k in blocks))
        for vec in kernel
    ]


def span_units(alg, gens):
    """The units in the F_q-span of the elements gens, in scan order.

    The reduced norm is a quadratic form on the span, with coefficients
    N(g_t) and the polar values N(g_t + g_s) - N(g_t) - N(g_s).  If their
    gcd is zero or nonconstant, every value is zero or divisible by it, so
    no unit exists and nothing is yielded.  Otherwise the projective
    vectors (first nonzero coordinate one) are scanned in order; for each
    whose form value is a nonzero constant the combination lam is yielded,
    then c*lam for c = 2..q-1 (norm c^2 N(lam)).  Every unit of the span
    is yielded once, the first projective one first.  conj_search takes
    the first as witness, quotient.StabilizerGroup the first of full order
    as generator, and constant_unit_orbits, the bound-0 pass of even-q
    torsion_classes, them all.
    """
    fld = alg.field
    k = len(gens)
    norms = {(t, t): g.norm() for t, g in enumerate(gens)}
    for t in range(k):
        for s in range(t + 1, k):
            norms[(t, s)] = (
                (gens[t] + gens[s]).norm() - norms[(t, t)] - norms[(s, s)]
            )
    common = Poly.zero(fld)
    for p in norms.values():
        common = gcd(common, p)
    if common.is_zero or common.deg >= 1:
        return
    for vec in _projective_vectors(fld, k):
        val = Poly.zero(fld)
        for t in range(k):
            if not vec[t]:
                continue
            ct = vec[t]
            val = val + norms[(t, t)].scale(fld.mul(ct, ct))
            for s in range(t + 1, k):
                if vec[s]:
                    val = val + norms[(t, s)].scale(fld.mul(ct, vec[s]))
        if val.is_const and not val.is_zero:
            lam = alg.zero
            for t in range(k):
                if vec[t]:
                    lam = lam + gens[t].scale(vec[t])
            yield lam
            for c in range(2, fld.q):
                yield lam.scale(c)


def _projective_vectors(fld, k):
    """Vectors over F_q with first nonzero coordinate equal to one."""
    for lead in range(k):
        tail = k - lead - 1
        for code in range(fld.q**tail):
            vec = [0] * lead + [1]
            c = code
            for _ in range(tail):
                vec.append(c % fld.q)
                c //= fld.q
            yield vec


def default_conj_bound(order):
    return ram_product(order.alg).deg + 2


def conjugation_map(lam):
    """The map x -> lam*x*lam^-1 for a unit lam with constant coordinates,
    as a function on elements.

    It is A-linear (A is central), so it is the 4x4 matrix over A whose
    columns are the images lam*e*lam^-1 of the basis e = 1, i, j, ij, built
    once; lam^-1 = conj(lam)/N(lam) with N(lam) a nonzero constant.
    """
    alg = lam.alg
    fld = alg.field
    inv = lam.conj().scale(fld.inv(lam.norm().coeff(0)))
    cols = [(lam * e * inv).coords for e in alg.basis()]
    rows = [
        [(k, col[r].coeffs) for k, col in enumerate(cols) if not col[r].is_zero]
        for r in range(4)
    ]
    mult, add = fld._mult, fld._addt

    def image(x):
        # each coordinate sum(x_k * m_k) on coefficient codes, as Poly.__mul__
        xc = [c.coeffs for c in x.coords]
        out = []
        for row in rows:
            acc = [0] * max(len(xc[k]) + len(m) for k, m in row)
            for k, m in row:
                for s, c in enumerate(xc[k]):
                    if c:
                        by_c = mult[c]
                        for t, d in enumerate(m, s):
                            if d:
                                acc[t] = add[acc[t]][by_c[d]]
            out.append(Poly._from_codes(fld, acc))
        return QuatElem(alg, *out)

    return image


def census_index(units):
    """The position of each unit in the census list units (of QuatElem),
    keyed by its coordinates."""
    return {u.coords: idx for idx, u in enumerate(units)}


def _find(parent, i):
    """The root of i in the union-find forest parent, halving the path."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _union(parent, i, j):
    """Join the trees of i and j under the smaller of their roots, so a
    root is always the smallest index of its tree."""
    ri, rj = _find(parent, i), _find(parent, j)
    if ri != rj:
        parent[max(ri, rj)] = min(ri, rj)


def constant_unit_orbits(order, units, index):
    """For each census unit, the smallest index of its orbit under
    conjugation by the constant units U0 = span_units(basis); index is
    census_index(units).

    Each lam of U0 modulo scalars (scalar multiples act alike) conjugates
    every unit through its 4x4 matrix conjugation_map, and a unit is joined
    with its image when the image is in the census.  The orbits are the
    connected components of these joins, whether or not U0 is a group (it
    is F_q[i]^x when a is a constant and deg b >= 1).  Each join is an
    explicit conjugator in O^x, so a component lies in one conjugacy class.
    An image with another residue key (the census units share their trace
    and norm) breaks an invariant and raises InvariantViolation.  Only
    torsion_classes, the even-q clustering, calls it: odd-q classes are
    read off the quotient (quotient.terminal_classes).
    """
    parent = list(range(len(units)))
    # each distinct key as a small int, so a join compares two ints
    key_ids = {}
    keys = [key_ids.setdefault(order.residue_key(u), len(key_ids)) for u in units]
    alg = order.alg
    # span_units yields each projective unit lam, then c*lam for c = 2..q-1
    for lam in list(span_units(alg, alg.basis()))[:: alg.field.q - 1]:
        if lam.is_scalar:
            continue
        image = conjugation_map(lam)
        for i, u in enumerate(units):
            j = index.get(image(u).coords)
            if j is None:
                continue
            if keys[j] != keys[i]:
                raise InvariantViolation(
                    "conjugating %s by %s gives %s, whose residue key"
                    " differs" % (u, lam, units[j])
                )
            _union(parent, i, j)
    return [_find(parent, i) for i in range(len(units))]


def torsion_classes(order, units):
    """Partition torsion units into conjugacy classes of the unit group.

    The census units share one trace and norm (solve_torsion), so they
    are bucketed by residue key, invariant under conjugation by a unit: a
    pair in different buckets has no witness at any bound and is never
    searched.  Within a bucket, bounded searches deepen iteratively up to
    the cutoff default_conj_bound.  The partition never reads the Eichler
    count that the CLI checks it against.

    Bound 0 needs no search.  A bound-0 witness has constant coordinates
    and a nonzero constant norm, so it lies in U0 = span_units(basis)
    (F_q[i]^x when a is a constant and deg b >= 1); conversely each lam in
    U0 with lam*x = y*lam lies in the bound-0 kernel, whose units
    conj_search finds.  So conj_search(x, y, 0) succeeds exactly when
    lam*x*lam^-1 = y for some lam in U0, and scalar multiples of lam act
    alike.  A pairwise sweep at bound 0 starts from singletons and tests
    every pair of the bucket it has not yet joined, so it ends at the
    connected components of that relation, whether or not U0 is a group:
    each union is an edge, and each edge is either joined already or
    tested and joined.  constant_unit_orbits joins each unit to its images
    under U0 in the census: the same edges, so the same components, and
    the union-find starts from them.  Its root is always the smallest
    index of its class, so every later bound sees the same roots and
    makes the same calls in the same order as after a bound-0 sweep.

    Returns the classes as lists of units, each in census order, ordered
    by their first members: both orders are the census order, so none is
    sorted.
    """
    parent = constant_unit_orbits(order, units, census_index(units))
    buckets = {}
    for idx, u in enumerate(units):
        buckets.setdefault(order.residue_key(u), []).append(idx)
    for b in range(1, default_conj_bound(order) + 1):
        for idxs in buckets.values():
            # each class's root is its smallest index, so its first member
            roots = [i for i in idxs if _find(parent, i) == i]
            for ai, i in enumerate(roots):
                for j in roots[ai + 1 :]:
                    if _find(parent, i) == _find(parent, j):
                        continue
                    if conj_search(order, units[i], units[j], b):
                        _union(parent, i, j)
    classes = {}
    for i in range(len(units)):
        classes.setdefault(_find(parent, i), []).append(units[i])
    return list(classes.values())
