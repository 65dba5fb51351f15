"""Sparse row reduction over a small finite field.

Rows are lists of int-encoded field elements; the field object supplies
the addition, multiplication, negation and inverse tables.
"""


def rref(rows, width, fld):
    """Reduce rows to reduced row echelon form.

    Returns (rows, pivot_columns) with zero rows dropped.  Each normalised
    pivot row is listed once as its nonzero (column, value) pairs past the
    pivot, and only those cells are updated in the rows that have a
    nonzero entry in the pivot column.  The pivot row is zero left of its
    pivot, so no other cell can change.
    """
    add, mult, negt, invt = fld._addt, fld._mult, fld._negt, fld._invt
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(width):
        if r == nrows:
            break
        pr = r
        while pr < nrows and not rows[pr][c]:
            pr += 1
        if pr == nrows:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        inv = invt[prow[c]]
        if inv != 1:
            scale = mult[inv]
            prow = rows[r] = [scale[x] for x in prow]
        cells = [(j, prow[j]) for j in range(c + 1, width) if prow[j]]
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if f and i != r:
                row[c] = 0
                scale = mult[negt[f]]
                for j, x in cells:
                    row[j] = add[row[j]][scale[x]]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def nullspace(rows, width, fld):
    """Basis of the right kernel, one vector per free column, ascending."""
    red, pivots = rref(rows, width, fld)
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


def restrict(row, basis, fld):
    """The values of the linear form `row` on each vector of basis."""
    add, mult = fld._addt, fld._mult
    out = []
    for vec in basis:
        acc = 0
        for x, y in zip(row, vec):
            if x and y:
                acc = add[acc][mult[x][y]]
        out.append(acc)
    return out


def combine(coeffs, basis, fld):
    """The vector sum of coeffs[j] * basis[j] over a nonempty basis."""
    add, mult = fld._addt, fld._mult
    out = [0] * len(basis[0])
    for c, vec in zip(coeffs, basis):
        if c:
            scale = mult[c]
            out = [add[x][scale[y]] for x, y in zip(out, vec)]
    return out
