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
nullspace computation followed by a norm-is-a-unit filter.  The degree
bound is derived from valuations, not guessed, which is what makes empty
answers definitive.  The build takes no tuning: the bound carries no
margin, series precision doubles on loss, and the class guard is the
constant GUARD_FACTOR.

Only odd q is supported: for even q neither quadratic subfield of the
algebra embeds into K, so there is no splitting of this shape to work
with, and the construction refuses with Unsupported.
"""

from __future__ import annotations

from itertools import combinations, product

from .bttree import Mat2K, TreeVertex, act, canonical_form, distance
from .errors import (
    InvalidProfile,
    InvariantViolation,
    NonterminationGuard,
    PrecisionLoss,
    SearchExhausted,
    StabilizerAnomalousOrder,
    Unsupported,
)
from .gfpoly import Place, Poly, is_irreducible, polys_upto
from .invariants import RamProfile, v1 as formula_v1, vq1 as formula_vq1
from .laurent import (
    DEFAULT_PREC,
    MAX_PREC,
    LaurentSeries,
    current_precision,
    embed,
    working_precision,
)
from .linalg import nullspace
from .order import StandardOrder, Witness
from .quat import find_algebra, ramified_set

# The class count may exceed the formula prediction V1 + Vq1 only by
# this factor (plus two) before the BFS aborts with NonterminationGuard.
GUARD_FACTOR = 3


def find_quotient_algebra(field, degrees, bound=4):
    """Algebra whose ramified places have the given degrees and whose
    standard order is certified maximal, so build_quotient accepts it.

    Place sets realizing the degrees are tried in ascending order; for a
    given set the smallest matching algebra can still have a standard
    order that is a proper suborder (its discriminant picks up a split
    prime), and such hits are skipped.
    """
    need = {}
    for d in degrees:
        need[d] = need.get(d, 0) + 1
    pools = []
    for d in sorted(need):
        # the filter is each polynomial's one irreducibility check
        pool = sorted(
            (
                Place(f)
                for f in polys_upto(field, d)
                if f.deg == d and f.is_monic and is_irreducible(f)
            ),
            key=Place.sort_key,
        )
        if len(pool) < need[d]:
            raise InvalidProfile(
                "only %d places of degree %d exist over F_%d"
                % (len(pool), d, field.q)
            )
        pools.append(combinations(pool, need[d]))
    for combo in product(*pools):
        places = [pl for group in combo for pl in group]
        try:
            alg = find_algebra(field, places, bound)
        except SearchExhausted:
            continue
        if StandardOrder(alg).certify_maximal():
            return alg
    raise SearchExhausted(
        "no degree-%s algebra with a certified maximal standard order within"
        " degree %d" % (sorted(degrees), bound)
    )


class SplitEmbedding:
    """Matrix model of the algebra over the Laurent-series field.

    i goes to [[0,1],[a,0]] and j to diag(s, -s) with s a fixed square
    root of b in K; the branch is whatever laurent.sqrt returns, so all
    derived data is deterministic.  Images and the left images V^{-1} *
    image of each lattice basis V asked for are cached per working
    precision.
    """

    def __init__(self, alg):
        if alg.field.p == 2:
            raise Unsupported(
                "no splitting over K for even q: the quadratic subfields "
                "of the algebra do not embed into the Laurent-series field"
            )
        self.alg = alg
        self._a_series = embed(alg.a)
        self._cache = {}
        self._images()  # validates that sqrt(b) exists, else NotASquare

    def _images(self):
        prec = current_precision()
        got = self._cache.get(prec)
        if got is not None:
            return got
        fld = self.alg.field
        s = embed(self.alg.b).sqrt()
        zero = LaurentSeries.zero(fld)
        one = LaurentSeries.one(fld)
        a_ser = self._a_series
        ident = Mat2K.identity(fld)
        mat_i = Mat2K(zero, one, a_ser, zero)
        mat_j = Mat2K(s, zero, zero, -s)
        mat_ij = Mat2K(zero, -s, a_ser * s, zero)
        got = (s, (ident, mat_i, mat_j, mat_ij), {})
        self._cache[prec] = got
        return got

    def images(self):
        """Images of (1, i, j, ij) at the current working precision."""
        return self._images()[1]

    def left_images(self, V):
        """The products V^{-1} * image over images(), memoised per V.

        hom_units asks with the same few class representatives V over and
        over; the memo lives as long as this embedding at this precision.
        """
        _, images, memo = self._images()
        got = memo.get(V)
        if got is None:
            vinv = V.inverse()
            got = memo[V] = tuple(vinv * img for img in images)
        return got

    def matrix(self, el):
        """The image of an algebra element, entries in K."""
        s = self._images()[0]
        xe, ye, ze, we = (embed(c) for c in el.coords)
        zs = ze * s
        ws = we * s
        return Mat2K(xe + zs, ye - ws, (ye + ws) * self._a_series, xe - zs)


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
    base = TreeVertex.base(v.field)
    return (distance(base, v) + distance(base, w)) // 2


def hom_units(emb, U, V, B):
    """Unit-norm order elements of coordinate degree <= B whose image
    maps the column lattice of U onto a scalar multiple of that of V.

    The scalar is pinned by determinant valuations; when those differ by
    an odd amount no element can work and the list is empty.  Otherwise
    m is half the difference, and lambda is the sum of c[image, k] T^k
    times image over the basis images (1, i, j, ij) and degrees k <= B.
    "pi^{-m} V^{-1} iota(lambda) U is integral" is then a linear system
    for the c over the constant field: one column per (image, k), images
    outermost, and one row per (entry, t) saying that the coefficient of
    u^t, t < 0, vanishes in that matrix entry.  Its cell is the
    coefficient of u^(t+k+m) in the entry of the core
    (V^{-1} iota(image)) U, so the four cores are computed once and every
    row is read off their coefficient tuples.  The left factors
    V^{-1} iota(image) come from the embedding's memo, since V is one of
    a few class representatives, so each core costs one product.  t runs
    up from the lowest valuation any column reaches, and rows that are
    entirely zero are dropped.  Candidates from the kernel then pass the
    norm filter.  A survivor meets the lattice condition by construction;
    callers check what they use (the stabilizer its generator,
    are_equivalent its witness).
    """
    alg = emb.alg
    fld = alg.field
    if B < 0:
        return []
    diff = U.det().ord() - V.det().ord()
    if diff % 2:
        return []
    m = diff // 2
    cores = [(left * U).entries() for left in emb.left_images(V)]
    width = B + 1
    lo = 0
    for entries in cores:
        for k in range(width):
            for e in entries:
                if not e.exact and e.prec_abs - k - m < 0:
                    raise PrecisionLoss(
                        "lattice constraint entry known only to O(u^%d)"
                        % (e.prec_abs - k - m)
                    )
                if not e.is_zero:
                    lo = min(lo, e.val - k - m)
    # Exponents t+k+m for t in [lo, 0) and k in [0, B] span [lo+m, B+m).
    # Each window holds one entry's coefficients there, zero outside what
    # is stored: the precision check above keeps every exponent that a
    # row reads below the entry's precision.
    span = B - lo
    rows = []
    for pos in range(4):
        windows = []
        for entries in cores:
            e = entries[pos]
            cs = e.coeffs
            off = lo + m - e.val
            windows.append(
                [cs[i] if 0 <= i < len(cs) else 0 for i in range(off, off + span)]
            )
        for start in range(-lo):
            row = []
            for w in windows:
                row.extend(w[start : start + width])
            if any(row):
                rows.append(row)
    ncols = 4 * width
    kernel = nullspace(rows, ncols, fld)
    if kernel and fld.q ** len(kernel) > 500000:
        raise NonterminationGuard(
            "unit candidate space has dimension %d; refusing to enumerate"
            % len(kernel)
        )
    out = []
    for combo in product(range(fld.q), repeat=len(kernel)):
        if not any(combo):
            continue
        vec = [0] * ncols
        for c, kv in zip(combo, kernel):
            if c:
                vec = [fld.add(x, fld.mul(c, y)) for x, y in zip(vec, kv)]
        coords = [
            Poly(fld, vec[cix * width : (cix + 1) * width]) for cix in range(4)
        ]
        lam = alg.elem(*coords)
        nr = lam.norm()
        if not nr.is_const or nr.is_zero:
            continue
        out.append(lam)
    out.sort(key=lambda g: tuple(c.sort_key() for c in g.coords))
    return out


class StabilizerGroup:
    """The units fixing one vertex: a cyclic group, F_q^x or F_{q^2}^x.

    Everything is read off one generator g of order n = |G|.  Its n
    powers are the element set, which proves the set is a group; the
    neighbour orbits are the cycles of g on the link; and the elements
    fixing a vertex form the subgroup of order n / (its cycle length).
    """

    def __init__(self, alg, elements):
        q = alg.field.q
        self.alg = alg
        self.elements = list(elements)
        self.order = n = len(self.elements)
        if n not in (q - 1, q * q - 1):
            raise StabilizerAnomalousOrder(
                "stabilizer has %d elements; expected %d or %d"
                % (n, q - 1, q * q - 1)
            )
        one = alg.one
        exponents = [n // p for p in _prime_divisors(n)]
        for g in self.elements:
            if n == q * q - 1 and g.is_scalar:
                continue
            if all(g ** e != one for e in exponents):
                break
        else:
            raise StabilizerAnomalousOrder(
                "stabilizer has no element of order %d" % n
            )
        powers = [one]
        for _ in range(n - 1):
            powers.append(powers[-1] * g)
        if powers[-1] * g != one or set(powers) != set(self.elements):
            raise StabilizerAnomalousOrder(
                "stabilizer is not the cyclic group of its generator"
            )
        self.generator = g

    def neighbor_orbits(self, emb, vertex):
        """Partition the q+1 tree neighbors into orbits of this group.

        The orbits are the cycles of the generator, each listed in
        ascending index order.  For the large stabilizer they must form a
        single (q+1)-cycle; anything else is an anomaly worth aborting on.
        """
        q = self.alg.field.q
        nbs = vertex.neighbors()
        index = {nb: i for i, nb in enumerate(nbs)}
        mat = emb.matrix(self.generator)
        perm = []
        for nb in nbs:
            moved = act(mat, nb)
            if moved not in index:
                raise StabilizerAnomalousOrder(
                    "stabilizer element moved a neighbor off the link"
                )
            perm.append(index[moved])
        if len(set(perm)) != len(perm):
            raise InvariantViolation("stabilizer generator does not permute the link")
        orbits = []
        seen = set()
        for start in range(len(nbs)):
            if start not in seen:
                orbit = [start]
                while perm[orbit[-1]] != start:
                    orbit.append(perm[orbit[-1]])
                seen.update(orbit)
                orbits.append(sorted(orbit))
        if self.order == q * q - 1 and len(orbits) != 1:
            raise StabilizerAnomalousOrder(
                "large stabilizer does not cycle the whole link"
            )
        for orbit in orbits:
            if self.order % len(orbit):
                raise InvariantViolation(
                    "orbit of size %d in a stabilizer of order %d"
                    % (len(orbit), self.order)
                )
        return orbits

    def fixing_count(self, emb, vertex):
        """How many elements fix the given vertex (an edge stabilizer size):
        n divided by the length of the vertex's cycle under the generator."""
        mat = emb.matrix(self.generator)
        length = 1
        moved = act(mat, vertex)
        while moved != vertex:
            length += 1
            if length > self.order:
                raise InvariantViolation(
                    "vertex cycle under the stabilizer generator is longer"
                    " than the group order %d" % self.order
                )
            moved = act(mat, moved)
        return self.order // length

    def __repr__(self):
        return "StabilizerGroup(order=%d)" % self.order


def _prime_divisors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def stabilizer(emb, vertex):
    """The units fixing vertex.  Every element is a power of the group's
    generator, so checking that the generator fixes vertex checks all."""
    mat = vertex.matrix()
    found = hom_units(emb, mat, mat, completeness_bound(vertex, vertex))
    group = StabilizerGroup(emb.alg, found)
    if canonical_form(emb.matrix(group.generator) * mat) != vertex:
        raise InvariantViolation("stabilizer generator does not fix the vertex")
    return group


class NoEquivalence:
    """Definitive negative verdict: the search bound was complete."""

    def __init__(self, bound):
        self.bound = bound

    def __bool__(self):
        return False

    def __repr__(self):
        return "NoEquivalence(bound=%r)" % (self.bound,)


def are_equivalent(emb, v, w, log=None):
    """Witness(unit carrying v to w) or a definitive NoEquivalence."""
    if v == w:
        return Witness(emb.alg.one)
    if (v.n - w.n) % 2:
        if log is not None:
            log.append(
                {"event": "equivalence", "outcome": "no", "reason": "parity"}
            )
        return NoEquivalence(None)
    bound = completeness_bound(v, w)
    found = hom_units(emb, v.matrix(), w.matrix(), bound)
    if log is not None:
        log.append(
            {
                "event": "equivalence",
                "bound": bound,
                "precision": current_precision(),
                "outcome": "witness" if found else "no",
            }
        )
    if not found:
        return NoEquivalence(bound)
    witness = found[0]
    if act(emb.matrix(witness), v) != w:
        raise InvariantViolation("equivalence witness does not carry v to w")
    return Witness(witness)


class QVertex:
    __slots__ = ("index", "lift", "stabilizer_order")

    def __init__(self, index, lift, stabilizer_order):
        self.index = index
        self.lift = lift
        self.stabilizer_order = stabilizer_order

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
    """Finite multigraph of vertex classes with stabilizer labels."""

    def __init__(self, q, algebra, profile, vertices, edges, log):
        self.q = q
        self.algebra = algebra
        self.profile = profile
        self.vertices = vertices
        self.edges = edges
        self.log = log

    def degree(self, i):
        return sum((e.a == i) + (e.b == i) for e in self.edges)

    def degrees(self):
        return [self.degree(i) for i in range(len(self.vertices))]

    def multiplicity(self, a, b):
        lo, hi = min(a, b), max(a, b)
        return sum(1 for e in self.edges if (e.a, e.b) == (lo, hi))

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

    Precision starts at the default and doubles on PrecisionLoss up to the
    module maximum; the run log records each retry.  The class count is
    capped by the formula prediction times GUARD_FACTOR (plus two), so a
    bound or precision bug aborts instead of spinning.
    """
    if alg.field.p == 2:
        raise Unsupported(
            "quotient construction is only implemented for odd q; the "
            "even-q algebras have no splitting over the Laurent-series "
            "field of the required shape"
        )
    order = StandardOrder(alg)
    order.ensure_maximal()
    profile = RamProfile(
        alg.field.q, [pl.degree for pl in ramified_set(alg)]
    )
    class_limit = GUARD_FACTOR * (formula_v1(profile) + formula_vq1(profile)) + 2

    log = [
        {
            "event": "start",
            "algebra": str(alg),
            "q": alg.field.q,
            "class_limit": class_limit,
        }
    ]
    prec = DEFAULT_PREC
    while True:
        try:
            with working_precision(prec):
                emb = SplitEmbedding(alg)
                return _bfs(emb, profile, base, class_limit, log)
        except PrecisionLoss:
            if prec >= MAX_PREC:
                raise
            prec = min(2 * prec, MAX_PREC)
            log.append({"event": "retry", "precision": prec})


def _bfs(emb, profile, base, class_limit, log):
    alg = emb.alg
    fld = alg.field
    if base is None:
        base = TreeVertex.base(fld)
    reps = [base]
    stabs = [stabilizer(emb, base)]
    log.append(
        {
            "event": "vertex",
            "index": 0,
            "stabilizer": stabs[0].order,
            "level": base.n,
        }
    )
    half_edges = []  # (source class, target class, edge stabilizer order)
    cursor = 0
    while cursor < len(reps):
        vertex = reps[cursor]
        group = stabs[cursor]
        for orbit in group.neighbor_orbits(emb, vertex):
            nb = vertex.neighbors()[orbit[0]]
            target = None
            for j, other in enumerate(reps):
                verdict = are_equivalent(emb, nb, other, log)
                if verdict:
                    target = j
                    break
            if target is None:
                if len(reps) >= class_limit:
                    raise NonterminationGuard(
                        "more than %d vertex classes discovered; expected "
                        "at most %d+%d from the counting formulas"
                        % (class_limit, formula_v1(profile), formula_vq1(profile))
                    )
                reps.append(nb)
                stabs.append(stabilizer(emb, nb))
                target = len(reps) - 1
                log.append(
                    {
                        "event": "vertex",
                        "index": target,
                        "stabilizer": stabs[target].order,
                        "level": nb.n,
                    }
                )
            if target == cursor:
                raise InvariantViolation("loop edge contradicts the parity guard")
            edge_stab = group.order // len(orbit)
            fixers = group.fixing_count(emb, nb)
            if edge_stab != fixers:
                raise InvariantViolation(
                    "%d elements fix a neighbor whose orbit has size %d in a"
                    " stabilizer of order %d" % (fixers, len(orbit), group.order)
                )
            half_edges.append((cursor, target, edge_stab))
        cursor += 1

    vertices = [
        QVertex(i, reps[i], stabs[i].order) for i in range(len(reps))
    ]
    edges = _pair_half_edges(half_edges)
    graph = QuotientGraph(fld.q, alg, profile, vertices, edges, log)
    for i in range(len(reps)):
        if graph.degree(i) not in (1, fld.q + 1):
            raise InvariantViolation(
                "vertex class %d has degree %d; expected 1 or %d"
                % (i, graph.degree(i), fld.q + 1)
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


def _pair_half_edges(half_edges):
    by_pair = {}
    for src, dst, stab in half_edges:
        key = (min(src, dst), max(src, dst))
        by_pair.setdefault(key, {"out": {}, "stabs": set()})
        side = by_pair[key]
        side["out"][src] = side["out"].get(src, 0) + 1
        side["stabs"].add(stab)
    edges = []
    for key in sorted(by_pair):
        a, b = key
        side = by_pair[key]
        counts = side["out"]
        if counts.get(a, 0) != counts.get(b, 0):
            raise InvariantViolation(
                "half-edge mismatch between classes %d and %d" % key
            )
        if len(side["stabs"]) != 1:
            raise InvariantViolation(
                "edges between classes %d and %d have different stabilizers"
                % key
            )
        stab = side["stabs"].pop()
        for _ in range(counts[a]):
            edges.append(QEdge(len(edges), a, b, stab))
    return edges
