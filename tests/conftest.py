from btquot.bttree import TreeVertex
from btquot.gfpoly import choose_xi, parse_poly
from btquot.order import span_units
from btquot.quat import QuatAlgebra
from btquot.quotient import hom_units

ACCEPTANCE_FILE = "test_acceptance.py"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if ACCEPTANCE_FILE not in nodeid:
                continue
            if status == "passed" and getattr(rep, "when", "call") != "call":
                continue
            name = nodeid.split("::")[-1]
            verdict = "PASS" if status == "passed" else "FAIL"
            if name not in rows or verdict == "FAIL":
                rows[name] = verdict
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(rows):
        terminalreporter.write_line("%-60s %s" % (name, rows[name]))


def parse_algebra(field, text):
    """Parse "H(a, b)" where a and b are polynomial expressions.

    The token xi stands for the canonical constant picked by choose_xi.
    """
    s = text.strip()
    if not (s.startswith("H(") and s.endswith(")")):
        raise ValueError("expected H(a, b), got %r" % text)
    inner = s[2:-1]
    depth = 0
    split = None
    for k, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            split = k
            break
    if split is None:
        raise ValueError("expected two comma-separated entries in %r" % text)
    xi = choose_xi(field)
    parts = []
    for chunk in (inner[:split], inner[split + 1 :]):
        chunk = chunk.strip().replace("xi", "(%d)" % xi)
        parts.append(parse_poly(field, chunk))
    return QuatAlgebra(field, parts[0], parts[1])


def coord_key(g):
    """Sort key of a quaternion element: its coordinates on (1, i, j, ij)."""
    return tuple(c.sort_key() for c in g.coords)


def census_key(g):
    """The census order of a torsion unit: its coordinates from ij down to
    1, (w, z, y, x), each by Poly.sort_key."""
    return tuple(c.sort_key() for c in reversed(g.coords))


def sorted_units(alg, space):
    """Every unit in the F_q-span of space, sorted by coordinates."""
    return sorted(span_units(alg, space), key=coord_key)


def unit_list(emb, v, w, B):
    """Every unit of coordinate degree <= B carrying v to w, sorted by
    coordinates: the units of the span of the hom_units basis."""
    return sorted_units(emb.alg, hom_units(emb, v, w, B))


def _meet_level(v, w):
    """Level of the last common vertex of v and w on their paths towards
    the end: the digits of the shifts agree below u^level."""
    diff = w.x - v.x
    cands = [v.n, w.n]
    if not diff.is_zero:
        cands.append(diff.ord())
    return min(cands)


def distance(v, w):
    """Path length in the tree, computed exactly from the coordinates."""
    return v.n + w.n - 2 * _meet_level(v, w)


def midpoint(v, w):
    """The vertex halfway along the path from v to w, computed exactly.

    The path climbs from v to the meet level and descends to w; the
    midpoint is the ancestor of whichever end lies at least half the
    distance above the meet.  An odd distance has no midpoint vertex and
    raises ValueError.
    """
    meet = _meet_level(v, w)
    d = v.n + w.n - 2 * meet
    if d % 2:
        raise ValueError("vertices at odd distance %d have no midpoint vertex" % d)
    half = d // 2
    if v.n - meet >= half:
        return TreeVertex(v.field, v.n - half, v.x)
    return TreeVertex(w.field, w.n - half, w.x)
