"""Counting formulas for unit-group quotient graphs, and graph-side checks.

One half of this module is pure arithmetic: given the ramification data of
the algebra (the ground field size q and the degrees of the ramified
places), closed formulas predict the shape of the quotient graph — number
of terminal vertices, number of degree-(q+1) vertices, edge count, first
Betti number — together with the count of torsion classes.  Every formula
value is an exact integer; a non-integral result signals an invalid
profile and raises instead of rounding.

The other half measures the same quantities on a computed graph and
cross-checks the two sides.  The graph argument is duck-typed: anything
with ``q``, ``vertices`` (records with ``stabilizer_order``), ``edges``
(records with endpoint indices ``a``/``b``) and ``degree(i)`` works.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvalidProfile, InvariantViolation, NonIntegral
from .gfpoly import prime_power


def _mobius(n):
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def count_monic_irreducibles(q, d):
    """Number of monic irreducible polynomials of degree d over F_q."""
    total = sum(_mobius(e) * q ** (d // e) for e in _divisors(d))
    if total % d:
        raise InvariantViolation("irreducible count %d/%d is fractional" % (total, d))
    return total // d


class RamProfile:
    """Size of the constant field plus the multiset of ramified degrees."""

    def __init__(self, q, degrees):
        if prime_power(q) is None:
            raise InvalidProfile("q = %r is not a prime power" % (q,))
        degs = tuple(sorted(degrees))
        if not degs:
            raise InvalidProfile("no ramified places")
        if any(not isinstance(d, int) or d < 1 for d in degs):
            raise InvalidProfile("degrees must be positive integers")
        if len(degs) % 2 != 0:
            raise InvalidProfile(
                "a ramification set has even size, got %d places" % len(degs)
            )
        self.q = q
        self.degrees = degs

    def realizable(self):
        """Whether enough distinct places of each degree exist over F_q."""
        for d in set(self.degrees):
            if self.degrees.count(d) > count_monic_irreducibles(self.q, d):
                return False
        return True

    def __repr__(self):
        return "RamProfile(q=%d, degrees=%r)" % (self.q, self.degrees)


def wp(profile):
    """1 when every ramified degree is odd, else 0."""
    return 0 if any(d % 2 == 0 for d in profile.degrees) else 1


def _as_int(frac, what):
    if frac.denominator != 1:
        raise NonIntegral("%s came out as %s" % (what, frac))
    return int(frac)


def genus(profile):
    q = profile.q
    prod = 1
    for d in profile.degrees:
        prod *= q**d - 1
    g = (
        1
        + Fraction(prod, q**2 - 1)
        - Fraction(q, q + 1) * 2 ** (len(profile.degrees) - 1) * wp(profile)
    )
    return _as_int(g, "genus")


def v1(profile):
    """Number of terminal (degree-one) quotient vertices."""
    return 2 ** (len(profile.degrees) - 1) * wp(profile)


def vq1(profile):
    """Number of quotient vertices of full degree q+1."""
    q = profile.q
    val = Fraction(2 * genus(profile) - 2 + v1(profile), q - 1)
    return _as_int(val, "vertex count")


def edges(profile):
    q = profile.q
    val = Fraction(v1(profile) + (q + 1) * vq1(profile), 2)
    return _as_int(val, "edge count")


def euler_check(profile):
    return edges(profile) + 1 == genus(profile) + v1(profile) + vq1(profile)


def eichler_count(profile):
    """Number of torsion classes in the unit group.

    The coefficient ring F_q[T] has class number one, which is why the
    count is the bare power of two with no class-group factor.
    """
    count = 2 ** len(profile.degrees) * wp(profile)
    if count != 2 * v1(profile):
        raise InvariantViolation(
            "Eichler count %d is not twice V1 = %d" % (count, v1(profile))
        )
    return count


def formula_values(profile):
    """The counting formulas of a profile, keyed as the CLI prints them:
    q, R, wp, genus, V1, Vq1, E and the Eichler count."""
    return {
        "q": profile.q,
        "R": list(profile.degrees),
        "wp": wp(profile),
        "genus": genus(profile),
        "V1": v1(profile),
        "Vq1": vq1(profile),
        "E": edges(profile),
        "eichler": eichler_count(profile),
    }


def sweep_profiles(qs=(2, 3, 4, 5, 7, 8, 9)):
    """All realizable profiles of two or four places of degree at most 4."""
    from itertools import combinations_with_replacement

    out = []
    for q in qs:
        for n in (2, 4):
            for degs in combinations_with_replacement(range(1, 5), n):
                profile = RamProfile(q, degs)
                if profile.realizable():
                    out.append(profile)
    return out


# ---------------------------------------------------------------------------
# graph-side measurements


def _edge_pairs(graph):
    return [(e.a, e.b) for e in graph.edges]


def _check_connected(graph):
    n = len(graph.vertices)
    if n == 0:
        raise ValueError("empty graph")
    adj = {i: set() for i in range(n)}
    for a, b in _edge_pairs(graph):
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        raise ValueError("graph is not connected")


def graph_h1(graph):
    """First Betti number E - V + 1 of a connected multigraph."""
    _check_connected(graph)
    return len(graph.edges) - len(graph.vertices) + 1


def smooth_point_criterion(graph):
    """True when some quotient vertex has degree below q+1."""
    return any(graph.degree(i) < graph.q + 1 for i in range(len(graph.vertices)))


# ---------------------------------------------------------------------------
# integer Smith normal form and critical groups


def _det_int(mat):
    """Exact determinant of a square integer matrix (fraction-free)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(mat):
    """Invariant factors d1 | d2 | ... of an integer matrix.

    Trailing zero factors are dropped; unit factors are kept, so the
    identity gives [1, 1].  The result is sanity-checked against the gcd
    of the entries and, for square nonsingular input, the determinant.
    """
    a = [list(map(int, row)) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    factors = []
    top = 0
    while top < min(rows, cols):
        # locate a nonzero entry of least magnitude to pivot on
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        if best is None:
            break
        _, pi, pj = best
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        while True:
            reduced = False
            for i in range(top + 1, rows):
                if a[i][top]:
                    f = a[i][top] // a[top][top]
                    for j in range(top, cols):
                        a[i][j] -= f * a[top][j]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                    reduced = True
            for j in range(top + 1, cols):
                if a[top][j]:
                    f = a[top][j] // a[top][top]
                    for i in range(top, rows):
                        a[i][j] -= f * a[i][top]
                    if a[top][j]:
                        for i in range(top, rows):
                            a[i][top], a[i][j] = a[i][j], a[i][top]
                    reduced = True
            if not reduced:
                break
        # enforce divisibility of the remaining block by the pivot
        pivot = abs(a[top][top])
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if a[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, cols):
                a[top][j] += a[offender][j]
            continue
        factors.append(pivot)
        top += 1

    for k in range(1, len(factors)):
        if factors[k] % factors[k - 1]:
            raise InvariantViolation("invariant factors %r do not divide" % factors)
    entries = [x for row in mat for x in row if x]
    if factors:
        want = 0
        for x in entries:
            want = gcd(want, x)
        if factors[0] != want:
            raise InvariantViolation(
                "first invariant factor %d is not the entry gcd %d" % (factors[0], want)
            )
    if rows == cols and len(factors) == rows:
        prod = 1
        for d in factors:
            prod *= d
        det = abs(_det_int([list(map(int, r)) for r in mat]))
        if prod != det:
            raise InvariantViolation(
                "invariant factors multiply to %d, not |det| = %d" % (prod, det)
            )
    return factors


def critical_group(graph):
    """Invariant factors (> 1) of the reduced Laplacian of the graph."""
    n = len(graph.vertices)
    if n < 2:
        raise ValueError("critical group needs at least two vertices")
    _check_connected(graph)
    lap = [[0] * n for _ in range(n)]
    for a, b in _edge_pairs(graph):
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    reduced = [row[:-1] for row in lap[:-1]]
    return [d for d in smith_normal_form(reduced) if d > 1]


# ---------------------------------------------------------------------------
# cross-checking formulas against a computed graph


class Report:
    """Formula predictions, graph measurements, and the comparison verdicts,
    as three dicts: formulas (formula_values), measured and checks."""

    def __init__(self, profile, graph):
        q = profile.q
        self.formulas = f = formula_values(profile)
        degs = [graph.degree(i) for i in range(len(graph.vertices))]
        self.measured = m = {
            "V1": sum(1 for d in degs if d == 1),
            "Vq1": sum(1 for d in degs if d == q + 1),
            "E": len(graph.edges),
            "h1": graph_h1(graph),
            "smooth": smooth_point_criterion(graph),
            "degrees": sorted(degs),
        }
        terminal_stabs_ok = all(
            (graph.degree(v.index) == 1) == (v.stabilizer_order == q**2 - 1)
            for v in graph.vertices
        )
        self.checks = {
            "euler": euler_check(profile),
            "v1": m["V1"] == f["V1"],
            "vq1": m["Vq1"] == f["Vq1"],
            "edges": m["E"] == f["E"],
            "h1_equals_genus": m["h1"] == f["genus"],
            "smooth_matches_wp": m["smooth"] == (f["wp"] == 1),
            "degree_set": set(degs) <= {1, q + 1},
            "terminal_stabilizers": terminal_stabs_ok,
        }

    def ok(self):
        return all(self.checks.values())

    def to_dict(self):
        return dict(self.formulas, graph=dict(self.measured), checks=dict(self.checks))


def cross_check(profile, graph):
    return Report(profile, graph)
