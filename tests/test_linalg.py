import random

from btquot.gfpoly import make_field
from btquot.linalg import nullspace, rref

FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))  # F_2, F_3, F_4, F_5, F_9


def reference_rref(rows, width, fld):
    """The dense elimination through the field's method calls that the
    sparse, table-driven rref replaced."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = fld.inv(rows[r][c])
        if inv != 1:
            rows[r] = [fld.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                for j in range(c, width):
                    if rr[j]:
                        ri[j] = fld.sub(ri[j], fld.mul(f, rr[j]))
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def reference_nullspace(rows, width, fld):
    red, pivots = reference_rref(rows, width, fld)
    pivot_set = set(pivots)
    basis = []
    for fc in range(width):
        if fc in pivot_set:
            continue
        v = [0] * width
        v[fc] = 1
        for i, pc in enumerate(pivots):
            if red[i][fc]:
                v[pc] = fld.neg(red[i][fc])
        basis.append(v)
    return basis


def rand_system(rng, fld, nrows, width):
    """Sparse-to-dense random rows, with zero rows, repeated rows and
    combinations of earlier rows mixed in."""
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * width)
        elif kind < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.3 and len(rows) > 1:
            a, b = rng.sample(rows, 2)
            c = rng.randrange(fld.q)
            rows.append([fld.add(x, fld.mul(c, y)) for x, y in zip(a, b)])
        else:
            rows.append(
                [
                    rng.randrange(1, fld.q) if rng.random() < density else 0
                    for _ in range(width)
                ]
            )
    return rows


def test_rref_and_nullspace_match_dense_reference():
    rng = random.Random(83)
    shapes = set()
    for p, e in FIELDS:
        fld = make_field(p, e)
        for _ in range(60):
            nrows = rng.randrange(0, 14)
            width = rng.randrange(1, 14)
            rows = rand_system(rng, fld, nrows, width)
            snapshot = [list(r) for r in rows]
            red, pivots = rref(rows, width, fld)
            assert rows == snapshot  # the input is not modified
            assert (red, pivots) == reference_rref(rows, width, fld)
            kernel = nullspace(rows, width, fld)
            assert kernel == reference_nullspace(rows, width, fld)
            assert len(kernel) == width - len(pivots)
            for v in kernel:
                for row in rows:
                    s = 0
                    for x, y in zip(row, v):
                        s = fld.add(s, fld.mul(x, y))
                    assert s == 0
            shapes.add("wide" if width > nrows else "tall" if width < nrows else "square")
            if len(pivots) == nrows and nrows:
                shapes.add("full row rank")
            if len(pivots) < min(nrows, width):
                shapes.add("rank deficient")
    assert shapes == {"wide", "tall", "square", "full row rank", "rank deficient"}


def test_rref_edge_cases():
    fld = make_field(3)
    assert rref([], 4, fld) == ([], [])
    assert rref([[0, 0, 0], [0, 0, 0]], 3, fld) == ([], [])
    assert nullspace([[0, 0]], 2, fld) == [[1, 0], [0, 1]]
    # a repeated row and a pivot that needs normalising
    assert rref([[0, 2, 1], [0, 2, 1], [1, 0, 0]], 3, fld) == (
        [[1, 0, 0], [0, 1, 2]],
        [0, 1],
    )
    assert nullspace([[0, 2, 1], [0, 2, 1], [1, 0, 0]], 3, fld) == [[0, 1, 1]]
