"""Quotient of the tree by the unit group of the standard order.

The algebra is split at the infinite place, so choosing a square root of
its second parameter in the Laurent-series field K gives a concrete
embedding into 2x2 matrices.  Unit-norm elements of the order then act on
the tree through that embedding, and the quotient graph is built by a
breadth-first search over vertex classes.

Equivalence of two vertices, and the stabilizer of one vertex, both reduce
to the same finite problem: find every order element of bounded coordinate
degree whose image carries one column lattice onto a scalar multiple of
the other.  The lattice condition is linear over the constant field — it
says certain Laurent coefficients vanish — so candidates come out of a
nullspace computation, each nonzero one a unit (hom_units).  The degree
bound is derived from valuations, not guessed, which is what makes empty
answers definitive.  The series precision is derived too: series_terms
gives each search and each action the number of terms of sqrt(b) that
provably decides it, from the distances of the vertices involved, the
degree bound, deg a and deg b.  The build takes no tuning: the bound
carries no margin, nothing is retried, and the class guard is the constant
GUARD_FACTOR.

Only odd q is supported: for even q neither quadratic subfield of the
algebra embeds into K, so there is no splitting of this shape to work
with, and the construction refuses with Unsupported.
"""

from __future__ import annotations

from itertools import combinations, product

from .bttree import Mat2K, TreeVertex, act, base_distance, canonical_form
from .errors import (
    InvalidProfile,
    InvariantViolation,
    NonterminationGuard,
    PrecisionLoss,
    SearchExhausted,
    StabilizerAnomalousOrder,
    Unsupported,
)
from .gfpoly import Place, Poly, choose_xi, is_irreducible, polys_upto
from .invariants import (
    RamProfile,
    count_monic_irreducibles,
    v1 as formula_v1,
    vq1 as formula_vq1,
)
from .laurent import MIN_TERMS, LaurentSeries, dot_head, embed
from .linalg import combine, nullspace, restrict
from .order import (
    NoWitness,
    StandardOrder,
    Witness,
    census_index,
    kernel_elements,
    power_cycle,
    span_units,
)
from .quat import find_algebra, ramified_set

# The class count may exceed the formula prediction V1 + Vq1 only by
# this factor (plus two) before the BFS aborts with NonterminationGuard.
GUARD_FACTOR = 3


def ram_profile(q, places):
    """The RamProfile of an algebra over F_q with these ramified places."""
    return RamProfile(q, [pl.degree for pl in places])


def find_quotient_algebra(field, degrees):
    """The first algebra whose ramified places have the given degrees and
    whose standard order is maximal, so build_quotient accepts it; place
    sets realizing the degrees are tried in ascending order.

    find_algebra settles each place set with a proof, so running out of
    place sets proves that no algebra of the searched shape has these
    degrees.  Before any place is built, the degrees are validated as a
    RamProfile (positive, an even count), for even q an even degree is
    refused (such a place never ramifies in H(xi, b)), and each degree is
    checked against its number of places, from Gauss's formula.  Place
    sets are index combinations, and a place is built, through one
    irreducibility test per monic polynomial before it, the first time a
    combination reaches it.
    """
    RamProfile(field.q, degrees)
    if field.p == 2 and any(d % 2 == 0 for d in degrees):
        raise SearchExhausted(
            "even q: only odd-degree places can ramify in the supported shape"
        )
    need = {}
    for d in degrees:
        need[d] = need.get(d, 0) + 1
    pools, index_sets = [], []
    for d in sorted(need):
        count = count_monic_irreducibles(field.q, d)
        if count < need[d]:
            raise InvalidProfile(
                "only %d places of degree %d exist over F_%d" % (count, d, field.q)
            )
        pools.append(_PlacePool(field, d))
        index_sets.append(combinations(range(count), need[d]))
    for combo in product(*index_sets):
        places = [pool[k] for pool, group in zip(pools, combo) for k in group]
        try:
            return find_algebra(field, places)
        except SearchExhausted:
            continue
    raise SearchExhausted(
        "no algebra ramified at places of degrees %s has a maximal standard"
        " order" % sorted(degrees)
    )


class _PlacePool:
    """The places of one degree in place order (the code order of their
    monic polynomials), each built the first time it is asked for."""

    def __init__(self, field, d):
        top = Poly.monomial(field, d)
        self._monics = (top + f for f in polys_upto(field, d - 1))
        self._places = []
        self._degree = d

    def __getitem__(self, k):
        while len(self._places) <= k:
            f = next(self._monics, None)
            if f is None:
                raise InvariantViolation(
                    "fewer than %d monic irreducibles of degree %d exist"
                    % (k + 1, self._degree)
                )
            if is_irreducible(f):
                self._places.append(Place(f))
        return self._places[k]


class SplitEmbedding:
    """Matrix model of the algebra over the Laurent-series field.

    i goes to [[0,1],[a,0]] and j to diag(s, -s) with s a fixed square
    root of b in K; the branch is whatever laurent.sqrt returns, so all
    derived data is deterministic.  s is an infinite series, so every image
    is asked for at an explicit number of terms of s, and series_terms
    derives the number one search or action needs.  The images, and the
    left images V^{-1} * image of each class representative asked for, are
    cached per precision; the common systems of hom_units are kept for the
    last parent vertex searched.
    """

    def __init__(self, alg):
        if alg.field.p == 2:
            raise Unsupported(
                "no splitting over K for even q: the quadratic subfields "
                "of the algebra do not embed into the Laurent-series field"
            )
        self.alg = alg
        self._a_series = embed(alg.a)
        self._b_series = embed(alg.b)
        self._cache = {}
        self._left = {}
        # the sibling systems of one parent vertex, keyed by (w, B, terms)
        self._parent = None
        self._systems = {}
        # (terms, bound) of the last precision derived, for error messages
        self.request = None
        self._images(MIN_TERMS)  # validates that sqrt(b) exists, else NotASquare

    def terms(self, bound, vertices):
        """series_terms for one operation of this algebra, kept as the last
        request so that build_quotient can name it if a step loses
        precision."""
        self.request = (series_terms(self.alg, bound, vertices), bound)
        return self.request[0]

    def _images(self, terms):
        got = self._cache.get(terms)
        if got is not None:
            return got
        fld = self.alg.field
        s = self._b_series.sqrt(terms)
        zero = LaurentSeries.zero(fld)
        one = LaurentSeries.one(fld)
        a_ser = self._a_series
        ident = Mat2K.identity(fld)
        mat_i = Mat2K(zero, one, a_ser, zero)
        mat_j = Mat2K(s, zero, zero, -s)
        mat_ij = Mat2K(zero, -s, a_ser * s, zero)
        got = self._cache[terms] = (s, (ident, mat_i, mat_j, mat_ij))
        return got

    def images(self, terms):
        """Images of (1, i, j, ij) with `terms` terms of s."""
        return self._images(terms)[1]

    def left_images(self, w, terms):
        """The products V^{-1} * image over images(terms) for the matrix V
        of the vertex w, memoised per (w, terms).

        hom_units asks with the same few class representatives w over and
        over; the memo lives as long as this embedding.
        """
        key = (w, terms)
        got = self._left.get(key)
        if got is None:
            vinv = w.matrix().inverse()
            got = self._left[key] = tuple(vinv * img for img in self.images(terms))
        return got

    def sibling_system(self, parent, w, bound, terms):
        """_sibling_system(self, parent, w, bound, terms), memoised for one
        parent at a time: the BFS asks for all the children of a class
        before it moves on, so the memo stays as small as the class list."""
        if parent != self._parent:
            self._parent = parent
            self._systems = {}
        key = (w, bound, terms)
        got = self._systems.get(key)
        if got is None:
            got = self._systems[key] = _sibling_system(self, parent, w, bound, terms)
        return got

    def matrix(self, el, terms):
        """The image of an algebra element, entries in K, with `terms`
        terms of s."""
        s = self._images(terms)[0]
        xe, ye, ze, we = (embed(c) for c in el.coords)
        zs = ze * s
        ws = we * s
        return Mat2K(xe + zs, ye - ws, (ye + ws) * self._a_series, xe - zs)

    def act(self, lam, v):
        """The vertex lam * v, through the image of lam at the precision
        derived from its coordinate degree and from v."""
        return act(self.matrix(lam, self.terms(coordinate_degree(lam), [v])), v)


def coordinate_degree(lam):
    """The largest degree of the coordinates of an algebra element."""
    return max(max(c.deg, 0) for c in lam.coords)


def series_terms(alg, bound, vertices):
    """Terms of s = sqrt(b) that decide one unit search or one action:

        P = 2*(deg a + deg b / 2 + bound) + max(d(o,x) + |n_x|) + MIN_TERMS

    over the given vertices x = (n_x, x_x).  hom_units(v, w, B) passes B and
    the vertices v and w; the action of a unit lam on v passes the
    coordinate degree of lam and v alone.

    Proof that no PrecisionLoss can be raised at P.  Write alpha = deg a,
    beta = deg b / 2 = -ord s, D = bound, and for a vertex x let
    mu_x = min(n_x, 0, ord x_x) = (n_x - d(o,x)) / 2: the entries of its
    matrix X have valuation >= mu_x, those of X^-1 >= mu_x - n_x.  s is
    known to O(u^(P - beta)), and P >= MIN_TERMS terms survive sqrt.

    Searches.  A core entry (V^-1 iota(e)) U of hom_units, e in
    (1, i, j, ij), is a sum of products f * s^k with f exact, k = 0 or 1,
    and ord f >= mu_w - n_w - alpha + mu_v.  So it is known to O(u^pi),
    pi >= P - beta - alpha - (d_v + d_w)/2 + m with m = (n_v - n_w)/2.
    Its rows read only below u^(D+m), and P exceeds alpha + beta + D +
    max(d_v, d_w) + MIN_TERMS, so pi >= D + m + MIN_TERMS: no entry is
    short, and a valuation that dot_head finds below u^(D+m) leaves
    MIN_TERMS known terms.  Each entry of V^-1 iota(e) is a single product,
    and each product keeps the P terms of s.

    Actions.  An entry of iota(lam) = [[x + zs, y - ws], [a(y + ws), x - zs]]
    with coordinates of degree <= D, or of M = iota(lam) V, is
    theta = A + B s with A, B in F_q[T, 1/T] whose u-exponents lie in
    [-L, h], L = D + alpha - mu_v and h = max(n_v, 0), and it is computed
    to O(u^pi), pi = P - beta - L.  If theta != 0 then A^2 - B^2 b != 0,
    because b is not a square in F_q(T) (the algebra ramifies at the
    places of its profile); that norm has valuation <= 2h, and
    ord(A - B s) >= -L - beta, so ord theta <= 2h + L + beta (Liouville).
    A nonzero entry thus keeps at least
    P - 2(beta + L + h) = P - 2(alpha + beta + D) - d_v - |n_v| >= MIN_TERMS
    known terms, and a zero entry is a series zero to O(u^pi).
    Then canonical_form(M).  M = c V' k with w' = lam v, k in GL2(O) and
    ord c = m0 = (n_v - n_w')/2; so the bottom entries have valuation m0
    (the pivot) or more, and all entries valuation >= m0 + mu_w'.  The
    pivot shows its valuation, and a zero partner is known to
    O(u^pi) with pi >= m0 + MIN_TERMS (by the condition below, as
    n_w' >= mu_w'), so the pivot is decided.  c/d, (c/d)*b and b/d are
    formed from factors with MIN_TERMS terms, or from zeros.  d^-1 is known to
    O(u^(pi - 2 m0)) and c/d to O(u^(pi - m0)), hence (c/d)*b and the shift
    b/d to O(u^(pi + mu_w')).  So a - (c/d)*b = det M / d, of valuation
    (n_v + n_w')/2, keeps MIN_TERMS terms, and the shift its digits below
    that valuation, when P >= alpha + beta + D + (d_v + d(o,w'))/2 +
    MIN_TERMS.  iota(lam) has a unit determinant and entries of valuation
    >= -(D + alpha + beta), so d(o, w') <= d_v + 2(D + alpha + beta), and
    P meets this as well.  An exact M (z = w = 0) reads the valuation off
    its exact determinant and expands d^-1 just to the digits the shift
    needs; an exact pivot of an inexact M is expanded as far as the other
    entries are known, which is the case above.

    Every condition bounds P from below, and the results (units, vertices)
    are exact, so any larger precision gives the same results.
    """
    reach = max(base_distance(x) + abs(x.n) for x in vertices)
    return 2 * (alg.a.deg + alg.b.deg // 2 + bound) + reach + MIN_TERMS


def completeness_bound(v, w):
    """Degree bound that provably captures every unit carrying v to w.

    With V = v.matrix() and W = w.matrix(), such a unit lambda has
    iota(lambda) = c W k V^{-1} with k in GL2(O_inf), and since its norm
    is a nonzero constant, ord c = (n_v - n_w)/2.  Rescale the lattices
    within their classes so that u^d L_o <= L <= L_o, with o the base
    vertex and d = d(o,v) or d(o,w).  Then iota(lambda) maps L_v onto
    c' L_w with ord c' = (d(o,v) - d(o,w))/2, hence L_o into
    u^(-d(o,v)) c' L_o, so every entry has valuation
    >= -(d(o,v) + d(o,w))/2.  The inverse transfer gives the coordinates
    on (1, i, j, ij) as (m11 + m22)/2, (m12 + m21/a)/2, (m11 - m22)/(2s)
    and (m21/a - m12)/(2s): its coefficients 1/2, 1/(2a), 1/(2s) and
    1/(2as) have no negative valuation, because a and b are nonzero
    polynomials.  A coordinate P has ord P = -deg P, so
    deg P <= (d(o,v) + d(o,w))/2, and the floor of that is complete with
    no margin on top.
    """
    return (base_distance(v) + base_distance(w)) // 2


def hom_units(emb, v, w, B):
    """An F_q-basis of the order elements of coordinate degree <= B whose
    image maps the column lattice U of v into a scalar multiple of the
    lattice V of w; its nonzero elements are the transporters, the units of
    degree <= B carrying v to w.

    The scalar is pinned by the levels, since det U = u^(n_v) and
    det V = u^(n_w): when n_v - n_w is odd no element can work and the
    basis is empty.  Otherwise m = (n_v - n_w)/2, and lambda is the sum of
    c[image, k] T^k times image over the basis images (1, i, j, ij) and
    degrees k <= B.  "pi^{-m} V^{-1} iota(lambda) U is integral" is then a
    linear system for the c over the constant field: one column per
    (image, k), images outermost as order.kernel_elements reads them, and
    one row (pos, t) per entry pos = 0..3 of the 2x2 matrix (row major)
    and t < 0, saying that the coefficient of u^t vanishes there.  Its
    cell is the coefficient of u^(t+k+m) in entry pos of the core
    (V^{-1} iota(image)) U.

    Siblings share almost all of that system.  v = (n, x) is child c of
    p = v.parent(), c the digit of x at u^(n-1), so U = U_0 [[1, c/u],
    [0, 1]] with U_0 = [[u^n, x_p], [0, 1]] the matrix of child 0.  The
    right factor adds c/u times column 0 to column 1, so row (1, t) of v
    is row_0(1, t) + c*row(0, t+1) and row (3, t) is
    row_0(3, t) + c*row(2, t+1), while rows (0, t) and (2, t) do not
    depend on c.  For t <= -2 the added row is itself a constraint, so v's
    rows span the same space as the common system S of _sibling_system
    (child 0's rows without (1, -1) and (3, -1)) plus f1 + c*f0 and
    g1 + c*g0, where f1, g1 are rows (1, -1), (3, -1) of child 0 and f0,
    g0 are rows (0, 0), (2, 0).  So the kernel of v's system is the kernel
    of the 2 x dim(ker S) system those two rows give on a basis of ker S:
    the same space, and the units of a space do not depend on its basis.
    ker S is computed once per (p, w, B, terms) and memoised by the
    embedding (SplitEmbedding.sibling_system).

    The series carry the precision series_terms derives from v, w and B.

    Why every nonzero lambda of the span is a transporter, and dim <= 2:
    M = u^(-m) V^{-1} iota(lambda) U is integral, and det M = N(lambda) (as
    2m = n_v - n_w) is a polynomial of ord >= 0 at infinity: a constant,
    nonzero in a division algebra.  So M is in GL2(O), lambda carries v to w, and
    lambda^{-1} = conj(lambda) / N(lambda) is in the order.  For one such
    lambda_0, lambda_0^{-1} lambda lies in O meet End(L_v), the field F_q or
    F_{q^2} of StabilizerGroup: the space is 0 or lambda_0 Stab(v), and a
    larger one is a broken invariant.  Callers check the unit they use.
    """
    alg = emb.alg
    fld = alg.field
    if B < 0 or (v.n - w.n) % 2:
        return []
    terms = emb.terms(B, (v, w))
    basis, (f0, f1, g0, g1) = emb.sibling_system(v.parent(), w, B, terms)
    c = (1, v.x.coeff(v.n - 1))
    rows = [combine(c, (f1, f0), fld), combine(c, (g1, g0), fld)]
    kernel = [combine(y, basis, fld) for y in nullspace(rows, len(basis), fld)]
    if len(kernel) > 2:
        raise InvariantViolation(
            "unit search space has dimension %d; at most 2 is proven" % len(kernel)
        )
    return kernel_elements(alg, kernel, B)


def _sibling_system(emb, parent, w, B, terms):
    """(basis of ker S, (f0, f1, g0, g1) on that basis) for the children of
    parent searched against w at bound B and `terms` terms of sqrt(b); see
    hom_units for S and the four rows.

    The rows are built from child 0, whose matrix is
    [[u^n, x_p], [0, 1]].  The left factors V^{-1} iota(image) come from
    the embedding's memo, since w is one of a few class representatives,
    and each core entry is a sum of two products that dot_head evaluates
    below u^(B+m) only, entries 0 and 2 below u^(B+m+1): f0 and g0 read
    the one more digit u^(B+m).  series_terms covers it, since every entry
    is known to O(u^pi) with pi >= B + m + MIN_TERMS.  t runs up from the
    lowest valuation any column reaches, and rows that are entirely zero
    are dropped from S.
    """
    fld = emb.alg.field
    n = parent.n + 1
    m = (n - w.n) // 2
    end = B + m
    reach = (end + 1, end, end + 1, end)
    ua, ub, uc, ud = TreeVertex(fld, n, parent.x).matrix().entries()
    cores = []
    for left in emb.left_images(w, terms):
        la, lb, lc, ld = left.entries()
        cores.append(
            (
                dot_head(la, ua, lb, uc, reach[0]),
                dot_head(la, ub, lb, ud, reach[1]),
                dot_head(lc, ua, ld, uc, reach[2]),
                dot_head(lc, ub, ld, ud, reach[3]),
            )
        )
    short = [
        (prec, reach[pos])
        for entries in cores
        for pos, (_, prec, _) in enumerate(entries)
        if prec < reach[pos]
    ]
    if short:
        raise PrecisionLoss(
            "lattice constraint entry known only to O(u^%d); the rows read"
            " below u^%d" % min(short)
        )
    width = B + 1
    lo = min(
        [-1]
        + [val - end for entries in cores for val, _, _ in entries if val is not None]
    )
    # Window index i holds the coefficient of u^(lo+m+i), i <= B - lo:
    # every nonzero entry starts at or above lo+m, and the precision check
    # above keeps each window below its precision.  Row (pos, t) is the
    # slice at t - lo of each window; its last row is f0, f1, g0 or g1.
    span = B - lo + 1
    system, extra = [], []
    for pos in range(4):
        windows = []
        for entries in cores:
            val, _, head = entries[pos]
            win = [0] * span
            if head:
                off = val - lo - m
                win[off : off + len(head)] = head
            windows.append(win)
        last = reach[pos] - end - lo - 1
        for start in range(last + 1):
            row = []
            for win in windows:
                row.extend(win[start : start + width])
            if start == last:
                extra.append(row)
            elif any(row):
                system.append(row)
    basis = nullspace(system, 4 * width, fld)
    return basis, [restrict(row, basis, fld) for row in extra]


class StabilizerGroup:
    """The units fixing one vertex: a cyclic group, F_q^x or F_{q^2}^x.

    It is read off the hom_units basis of the vertex's space: its order is
    n = q^dim - 1, dim 1 or 2, and its generator g is the first unit
    span_units yields whose powers first reach 1 at g^n (scalars skipped
    when n = q^2 - 1), the powers read off the characteristic polynomial
    (order.power_cycle).  At the complete bound the space is O meet
    End(L_v): a finite subring of a division algebra, so a field F_q or
    F_{q^2} (so dim <= 2, the bound hom_units proves for every space),
    whose nonzero elements are units fixing v, and every unit fixing v lies
    in it by completeness_bound.  stabilizer checks that g
    fixes v, so <g> <= Stab(v) <= space minus 0; both ends have q^dim - 1
    elements, so <g> = Stab(v).

    The link P^1(F_q) of the vertex then splits in one of two ways
    (Serre, *Trees*, ch. II §1), and the elements fixing a neighbour form
    the subgroup of order n / (its orbit length).  At order q - 1 the
    group is the centre, the nonzero constants: a scalar generator maps
    each lattice to a homothetic one, so it fixes every vertex, the orbits
    are the q + 1 singletons, and stabilizer checks no fixed vertex.  At
    order q^2 - 1 the generator is not a scalar, and F_{q^2}^x / F_q^x,
    cyclic of order q + 1, is simply transitive on P^1(F_q): the link is
    one orbit, a (q + 1)-cycle of g.
    """

    def __init__(self, alg, space):
        q = alg.field.q
        self.alg = alg
        dim = len(space)
        if dim not in (1, 2):
            raise StabilizerAnomalousOrder(
                "stabilizer space has dimension %d; expected 1 or 2 (orders"
                " %d or %d)" % (dim, q - 1, q * q - 1)
            )
        self.order = n = q**dim - 1
        for g in span_units(alg, space):
            if n == q * q - 1 and g.is_scalar:
                continue
            pairs = power_cycle(g, *g.charpoly(), n)
            if pairs is not None and len(pairs) == n:
                break
        else:
            raise StabilizerAnomalousOrder(
                "stabilizer has no element of order %d" % n
            )
        self.generator = g

    def neighbor_orbits(self, emb, vertex):
        """Partition the q+1 tree neighbors into orbits of this group, each
        orbit in generator order: position m of an orbit is g^m applied to
        its first neighbour.

        A scalar generator fixes every neighbour, so its orbits are the
        singletons.  Any other generator must move the link in one
        (q+1)-cycle, followed here from neighbour 0 with the generator's
        image at the precision derived for the link, and the orbit is that
        cycle.  A neighbour moved off the link, two neighbours moved to
        one, or a shorter cycle is an anomaly worth aborting on.
        """
        q = self.alg.field.q
        g = self.generator
        if g.is_scalar:
            return [[i] for i in range(q + 1)]
        nbs = vertex.neighbors()
        index = {nb: i for i, nb in enumerate(nbs)}
        mat = emb.matrix(g, emb.terms(coordinate_degree(g), nbs))
        cycle = [0]
        while True:
            moved = index.get(act(mat, nbs[cycle[-1]]))
            if moved is None:
                raise StabilizerAnomalousOrder(
                    "stabilizer element moved a neighbor off the link"
                )
            if moved == 0:
                break
            if moved in cycle:
                raise InvariantViolation("stabilizer generator does not permute the link")
            cycle.append(moved)
        if len(cycle) != q + 1:
            raise StabilizerAnomalousOrder(
                "large stabilizer does not cycle the whole link"
            )
        return [cycle]

    def fixing_count(self, orbit):
        """How many elements fix a neighbour in the given orbit (an edge
        stabilizer size): n divided by the orbit length."""
        return self.order // len(orbit)

    def __repr__(self):
        return "StabilizerGroup(order=%d)" % self.order


def stabilizer(emb, vertex):
    """The units fixing vertex, from its hom_units space at the complete
    bound.  Every element is a power of the generator, so checking that
    the generator fixes vertex checks all; a scalar fixes every vertex."""
    space = hom_units(emb, vertex, vertex, completeness_bound(vertex, vertex))
    group = StabilizerGroup(emb.alg, space)
    g = group.generator
    if g.is_scalar:
        return group
    mat = emb.matrix(g, emb.terms(coordinate_degree(g), [vertex]))
    if canonical_form(mat * vertex.matrix()) != vertex:
        raise InvariantViolation("stabilizer generator does not fix the vertex")
    return group


def are_equivalent(emb, v, w):
    """Witness(unit carrying v to w, bound) or NoWitness(bound), definitive
    because the search bound is complete; the bound is None when no search
    was needed (v == w, or a parity rejection).  The witness is the first
    basis element of the hom_units space, a transporter by the proof there
    and the unit span_units would yield first; one action checks it."""
    if v == w:
        return Witness(emb.alg.one, None)
    if (v.n - w.n) % 2:
        return NoWitness(None)
    bound = completeness_bound(v, w)
    space = hom_units(emb, v, w, bound)
    if not space:
        return NoWitness(bound)
    witness = space[0]
    if emb.act(witness, v) != w:
        raise InvariantViolation("equivalence witness does not carry v to w")
    return Witness(witness, bound)


def _equivalence_event(cls, verdict=None):
    """The log event for class cls: the verdict of testing it, or with no
    verdict a reverse edge that settled it.  A verdict without a bound came
    from a shortcut, the same vertex or a parity rejection."""
    found = verdict is None or bool(verdict)
    event = {"event": "equivalence", "class": cls, "outcome": "witness" if found else "no"}
    if verdict is None:
        event["reason"] = "reverse edge"
    elif verdict.bound is None:
        event["reason"] = "same vertex" if found else "parity"
    else:
        event["bound"] = verdict.bound
    return event


class QVertex:
    """A vertex class: its representative (lift) and the order and
    generator of the representative's stabilizer."""

    __slots__ = ("index", "lift", "stabilizer_order", "generator")

    def __init__(self, index, lift, stabilizer_order, generator):
        self.index = index
        self.lift = lift
        self.stabilizer_order = stabilizer_order
        self.generator = generator

    def __repr__(self):
        return "QVertex(%d, stab=%d)" % (self.index, self.stabilizer_order)


class QEdge:
    __slots__ = ("index", "a", "b", "stabilizer_order")

    def __init__(self, index, a, b, stabilizer_order):
        self.index = index
        self.a = a
        self.b = b
        self.stabilizer_order = stabilizer_order

    def __repr__(self):
        return "QEdge(%d, %d--%d)" % (self.index, self.a, self.b)


class QuotientGraph:
    """Finite multigraph of vertex classes with stabilizer labels.  The
    class representatives are vertices of the tree of `embedding`; the
    degrees are counted once, from the edges.

    links develops the graph back into the tree (Serre, *Trees*, ch. I
    §4; Bass 1993), outside the JSON: links[a][l] = (b, e, lam, back) for
    each class a and link position l of reps[a], where, with g the
    generator of class a, h = g^e * lam (lam None for the identity)
    carries reps[b] to neighbour l of reps[a], and back is the position
    of h^-1 * reps[a] in the link of reps[b].  transporter forms h.
    """

    def __init__(self, q, algebra, profile, vertices, edges, log, embedding, links):
        self.q = q
        self.algebra = algebra
        self.profile = profile
        self.vertices = vertices
        self.edges = edges
        self._degrees = [0] * len(vertices)
        for e in edges:
            self._degrees[e.a] += 1
            self._degrees[e.b] += 1
        self.log = log
        self.embedding = embedding
        self.links = links

    def transporter(self, a, pos):
        """(b, h, back) for link position pos of class a, h formed from
        links[a][pos]: g^e is u + v*g, read off the power cycle of the
        generator (order.power_cycle), and lam costs one product."""
        b, e, lam, back = self.links[a][pos]
        h = self.algebra.one if lam is None else lam
        if e:
            vertex = self.vertices[a]
            g = vertex.generator
            u, v = power_cycle(g, *g.charpoly(), vertex.stabilizer_order)[e - 1]
            h = (g.scale(v) + u) * h
        return b, h, back

    def degree(self, i):
        return self._degrees[i]

    def degrees(self):
        return list(self._degrees)

    def to_dict(self):
        return {
            "q": self.q,
            "algebra": str(self.algebra),
            "ramified_degrees": list(self.profile.degrees),
            "vertices": [
                {
                    "index": v.index,
                    "stabilizer": v.stabilizer_order,
                    "degree": self.degree(v.index),
                    "level": v.lift.n,
                }
                for v in self.vertices
            ],
            "edges": [
                {"a": e.a, "b": e.b, "stabilizer": e.stabilizer_order}
                for e in self.edges
            ],
        }

    def __repr__(self):
        return "QuotientGraph(V=%d, E=%d)" % (len(self.vertices), len(self.edges))


def build_quotient(alg, base=None):
    """BFS construction of the vertex classes and edge orbits.

    Every unit search and every action runs at the series precision that
    series_terms derives for it, which provably decides it.  A
    PrecisionLoss is therefore a broken invariant: it is caught here and
    raised as InvariantViolation naming the last precision derived and its
    degree bound, and nothing is retried.  The class count is capped by the
    formula prediction times GUARD_FACTOR (plus two), so a bound bug
    aborts instead of spinning; it is the build's one NonterminationGuard.
    """
    if alg.field.p == 2:
        raise Unsupported(
            "quotient construction is only implemented for odd q; the "
            "even-q algebras have no splitting over the Laurent-series "
            "field of the required shape"
        )
    order = StandardOrder(alg)
    order.ensure_maximal()
    profile = ram_profile(alg.field.q, ramified_set(alg))
    class_limit = GUARD_FACTOR * (formula_v1(profile) + formula_vq1(profile)) + 2

    log = [
        {
            "event": "start",
            "algebra": str(alg),
            "q": alg.field.q,
            "class_limit": class_limit,
        }
    ]
    emb = SplitEmbedding(alg)
    try:
        return _bfs(emb, profile, base, class_limit, log)
    except PrecisionLoss as exc:
        terms, bound = emb.request
        raise InvariantViolation(
            "series precision lost at %d terms of sqrt(b), derived for degree"
            " bound %d: %s" % (terms, bound, exc)
        ) from exc


def _bfs(emb, profile, base, class_limit, log):
    """Vertex classes in discovery order, and the edges between them.

    Class `cursor` is expanded by taking the first neighbour of each orbit
    of its stabilizer on the link, in neighbor_orbits order, and finding
    that neighbour's class.  A neighbour of no known class becomes the
    next class.

    Each edge orbit is looked up once, not once from each end, and is
    recorded once, by that lookup.  By Serre's *Trees*, an edge orbit
    between classes a and b is one Stab(a)-orbit on the link of reps[a]
    and one Stab(b)-orbit on the link of reps[b], so its stabilizer order
    is |Stab(a)| over the orbit length.  When the lookup of nb
    from class a finds class b > a with witness gamma
    (gamma * nb = reps[b]), the edge (a, b, edge stabilizer order) is
    recorded, and since the tree automorphism gamma carries the edge
    (reps[a], nb) to (gamma * reps[a], reps[b]), gamma * reps[a] is a
    neighbour of reps[b] in class a; it is kept for b with the index of the
    edge record.  When nb becomes the new class b, reps[a] itself is kept.
    Expanding b, each kept neighbour settles its Stab(b)-orbit with no
    test, and the settled orbits are exactly b's edges to earlier classes:
    - an edge orbit between b and an earlier class a was looked up from a,
      because a settles only orbits that lead below a, and its kept
      neighbour lies in its own Stab(b)-orbit;
    - two kept neighbours x = gamma * reps[a] and x' = gamma' * reps[a]
      with x' = s * x, s in Stab(b), would make gamma'^-1 * s * gamma fix
      reps[a] and carry nb to nb', so the two lookups of a would have been
      one Stab(a)-orbit.
    So every record is settled exactly once: a kept neighbour off the link,
    or two in one orbit, raise InvariantViolation, and so does a settled
    orbit whose edge stabilizer order differs from the record's.  The
    orbits left open lead to later classes (never to b itself: adjacent
    vertices differ in level parity), so they are tested against
    reps[cursor + 1:] only.  Every equivalence event is written by
    _equivalence_event and names the class it tests or settles.

    Settling an edge also fills the links of QuotientGraph at both ends,
    from what the build already holds and with no action, search, series
    operation or quaternion product.  Let the record from class a carry
    the orbit O_a it looked up, in generator order (neighbor_orbits), and
    the witness lam (gamma above; None when nb became class b), and let
    the kept neighbour x = lam * reps[a] sit at position p of the orbit
    O_b of b.  Position m of an orbit is g^m applied to its first
    neighbour, and g^(q+1) is a scalar (the norm from F_{q^2} to F_q),
    which acts trivially, so:
    - at O_a[m], h = g_a^m * conj(lam), conj(lam) being lam^-1 times the
      constant N(lam), carries reps[b] to g_a^m * nb; back is the position
      of lam * reps[a] = x in the link of reps[b], O_b[p];
    - at O_b[m], h = g_b^(m - p) * lam carries reps[a] to g_b^(m - p) * x;
      back is the position of lam^-1 * reps[b] = nb, O_a[0].
    Every orbit at every class is settled exactly once, so every link
    position gets one entry.
    """
    alg = emb.alg
    fld = alg.field
    reps, stabs, links = [], [], []
    records = []  # (class a, class b > a, edge stabilizer order), one per edge
    # reverse[b]: (neighbour x of reps[b], index of its record, witness lam
    # or None, orbit looked up at a) for each edge of b into an earlier
    # class, kept by the lookup that found it
    reverse = []

    def new_class(vertex, kept):
        """Make vertex the next class, with reverse edges kept."""
        if len(reps) >= class_limit:
            raise NonterminationGuard(
                "more than %d vertex classes discovered; expected "
                "at most %d+%d from the counting formulas"
                % (class_limit, formula_v1(profile), formula_vq1(profile))
            )
        group = stabilizer(emb, vertex)
        reps.append(vertex)
        stabs.append(group)
        reverse.append(kept)
        links.append([None] * (fld.q + 1))
        log.append(
            {
                "event": "vertex",
                "index": len(reps) - 1,
                "stabilizer": group.order,
                "level": vertex.n,
            }
        )
        return len(reps) - 1

    new_class(TreeVertex.base(fld) if base is None else base, [])
    cursor = 0
    while cursor < len(reps):
        vertex = reps[cursor]
        group = stabs[cursor]
        nbs = vertex.neighbors()
        orbits = group.neighbor_orbits(emb, vertex)
        place = {
            nbs[i]: (k, p) for k, orbit in enumerate(orbits) for p, i in enumerate(orbit)
        }
        settled = {}
        for x, index, lam, far in reverse[cursor]:
            if x not in place:
                raise InvariantViolation(
                    "reverse edge from class %d is off the link of class %d"
                    % (records[index][0], cursor)
                )
            k, p = place[x]
            if k in settled:
                raise InvariantViolation(
                    "reverse edges from classes %d and %d share a neighbour"
                    " orbit of class %d"
                    % (records[settled[k][0]][0], records[index][0], cursor)
                )
            settled[k] = (index, p, lam, far)
        for k, orbit in enumerate(orbits):
            nb = nbs[orbit[0]]
            edge_stab = group.fixing_count(orbit)
            if k in settled:
                index, p, lam, far = settled[k]
                source, _, recorded = records[index]
                if recorded != edge_stab:
                    raise InvariantViolation(
                        "edge between classes %d and %d has stabilizer order %d"
                        " at class %d but %d at class %d"
                        % (source, cursor, recorded, source, edge_stab, cursor)
                    )
                log.append(_equivalence_event(source))
                inverse = None if lam is None else lam.conj()
                for m, pos in enumerate(far):
                    links[source][pos] = (cursor, m, inverse, orbit[p])
                for m, pos in enumerate(orbit):
                    links[cursor][pos] = (source, (m - p) % len(orbit), lam, far[0])
                continue
            target = None
            for j in range(cursor + 1, len(reps)):
                verdict = are_equivalent(emb, nb, reps[j])
                log.append(_equivalence_event(j, verdict))
                if verdict:
                    target = j
                    lam = verdict.lam
                    reverse[j].append((emb.act(lam, vertex), len(records), lam, orbit))
                    break
            if target is None:
                target = new_class(nb, [(vertex, len(records), None, orbit)])
            records.append((cursor, target, edge_stab))
        cursor += 1

    vertices = [
        QVertex(i, reps[i], stabs[i].order, stabs[i].generator)
        for i in range(len(reps))
    ]
    edges = [
        QEdge(i, a, b, stab)
        for i, (a, b, stab) in enumerate(sorted(records, key=lambda r: r[:2]))
    ]
    graph = QuotientGraph(fld.q, alg, profile, vertices, edges, log, emb, links)
    for i, d in enumerate(graph.degrees()):
        if d not in (1, fld.q + 1):
            raise InvariantViolation(
                "vertex class %d has degree %d; expected 1 or %d" % (i, d, fld.q + 1)
            )
    log.append(
        {
            "event": "done",
            "vertices": len(vertices),
            "edges": len(edges),
            "degrees": graph.degrees(),
        }
    )
    return graph


def terminal_classes(graph, units):
    """Conjugacy classes of the census units (odd q, x^2 = xi), read off the
    terminal vertices of the quotient by developing it into the tree.

    Each such x is elliptic with one fixed vertex p(x): x^2 = xi is a
    scalar and x is not, so x generates a copy of F_{q^2}, and F_{q^2}^x /
    F_q^x acts freely on the link of any vertex x fixes.  Stab(p(x)) holds
    the non-scalar x, so p(x) is in a terminal class c, whose stabilizer
    is cyclic of order q^2 - 1 (abelian).  The walk visits every vertex
    gamma * reps[c] within distance R of reps[0] once, with a unit gamma
    carrying reps[c] there, and at each vertex of a terminal class forms
    one conjugate x = gamma * r * gamma^-1 of the root r of xi in
    Stab(reps[c]) (_square_root), labelling x with (c, 0) and -x, the
    conjugate of the other root -r, with (c, 1).  Two units are conjugate
    exactly when they get the same label, so the labels are the classes.
    Proof that each unit is labelled exactly once:
    - p(x) lies within R of reps[0].  With D = max(deg z, deg w, 0) over
      the census, alpha = deg a and beta = deg b / 2, y^2 =
      (xi - b z^2)/a + b w^2 gives deg y <= beta + D, so the entries of
      iota(x) = [[zs, y - ws], [a(y + ws), -zs]] have valuation >=
      -(D + alpha + beta), and its determinant N(x) = -xi is a unit.  So
      d(o, x o) <= 2(D + alpha + beta); the geodesic from o to x o passes
      through p(x), which x fixes while it moves the neighbour towards o,
      so d(o, p(x)) <= D + alpha + beta, and R = D + alpha + beta +
      d(o, reps[0]).
    - Every tree vertex is reached by exactly one non-backtracking word.
      From gamma * reps[c], the steps gamma -> gamma * h over the link
      positions l of reps[c] (graph.transporter) reach the q + 1
      neighbours gamma * (neighbour l), each with the class b and the
      position back of the vertex it came from, which the next step
      skips.  A tree has one non-backtracking path from reps[0] to each
      vertex, so each vertex within R is visited once.
    - The label does not depend on gamma.  Any other unit carrying reps[c]
      to the same vertex is gamma * s with s in Stab(reps[c]), and
      (gamma s) r (gamma s)^-1 = gamma r gamma^-1, since s and r commute.
      So x = gamma (+-r) gamma^-1 for the gamma of p(x) and exactly one
      sign, and no other vertex gives x, since x fixes only p(x).
    No action, unit search or series operation is made: each step is one
    quaternion product, and each terminal vertex two more.  A unit
    labelled twice, or never, raises InvariantViolation.

    Returns the classes as lists of units, each in census order: the
    classes the census meets in the census order of their first members,
    then an empty list for each class it misses.
    """
    alg = graph.algebra
    fld = alg.field
    xi = choose_xi(fld)
    roots = {
        v.index: _square_root(v, xi)
        for v in graph.vertices
        if v.stabilizer_order == fld.q**2 - 1
    }
    steps = [
        [graph.transporter(a, pos) for pos in range(fld.q + 1)]
        for a in range(len(graph.vertices))
    ]
    reach = max((max(u.z.deg, u.w.deg, 0) for u in units), default=0)
    radius = alg.a.deg + alg.b.deg // 2 + reach + base_distance(graph.vertices[0].lift)
    index = census_index(units)
    label = [None] * len(units)
    walk = [(alg.one, 0, None, 0)]  # (gamma, class, back position, distance)
    while walk:
        gamma, c, back, dist = walk.pop()
        if c in roots:
            x = (gamma * roots[c] * gamma.conj()).scale(fld.inv(gamma.norm().coeff(0)))
            for r, conj in enumerate((x, -x)):
                i = index.get(conj.coords)
                if i is None:
                    continue
                if label[i] is not None:
                    raise InvariantViolation(
                        "census unit %s is labelled twice, by class %d root %d"
                        " and by class %d root %d" % ((units[i],) + label[i] + (c, r))
                    )
                label[i] = (c, r)
        if dist < radius:
            for pos, (b, h, b_back) in enumerate(steps[c]):
                if pos != back:
                    walk.append((gamma * h, b, b_back, dist + 1))
    classes = {}
    for unit, at in zip(units, label):
        if at is None:
            raise InvariantViolation(
                "census unit %s is conjugate to no square root of xi at a"
                " terminal vertex within distance %d" % (unit, radius)
            )
        classes.setdefault(at, []).append(unit)
    return list(classes.values()) + [[] for _ in range(2 * len(roots) - len(classes))]


def _square_root(vertex, xi):
    """The element r of a terminal stabilizer with r^2 = xi (an int code)
    that this construction picks; the other is -r.

    The generator g has characteristic polynomial X^2 - t*X + n, and F_q[g]
    is a field, so delta = t^2/4 - n, the square of g - t/2, is a
    non-square and xi/delta is a square.  (u + v*(g - t/2))^2 is
    u^2 + v^2*delta + 2uv*(g - t/2), which is xi only when u = 0 and
    v^2 = xi/delta: the roots are +-v*(g - t/2), and r takes the v that
    fld.sqrt_ gives.  The root is checked by trace 0 and norm -xi, with
    no quaternion product."""
    g = vertex.generator
    fld = g.alg.field
    t, n = (c.coeff(0) for c in g.charpoly())
    half_t = fld.mul(t, fld.inv(fld.add(1, 1)))
    delta = fld.sub(fld.mul(half_t, half_t), n)
    v = fld.sqrt_(fld.mul(xi, fld.inv(delta))) if delta else None
    if v is not None:
        root = (g - half_t).scale(v)
        if root.trace().is_zero and root.norm() == Poly.const(fld, fld.neg(xi)):
            return root
    raise InvariantViolation(
        "stabilizer of class %d has no square root of xi" % vertex.index
    )
