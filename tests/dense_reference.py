"""Dense references for the package's sparse elimination: a Smith routine
that carries its transforms as dense matrices, and the Hermite normal form
that tells whether two bases span one lattice.  Tests compare the package
against these and never the other way round."""

from trisect.intmatrix import IntMatrix, _matrix


def reference_smith(mat: IntMatrix, want: tuple[str, ...] = ()) -> tuple:
    """The dense Smith routine that the package once used, kept verbatim as
    the tests' reference for Smith divisors and a left transform U, and as
    the one routine that returns V^-1 for the full contract U*mat = D*V^-1.

    Smith normal form of ``mat``, tracking only the transforms in ``want``.

    Returns ``(divisors, *transforms)``: the nonzero diagonal d1 | d2 | ...
    of D (its length is the rank), then the transforms ``want`` names, in
    its order, out of "u" and "vinv": unimodular U and the inverse of a
    unimodular V with U*mat*V = D, that is U*mat = D*V^-1.  A transform not
    asked for is never updated.  Pivots are chosen by smallest nonzero
    absolute value, ties broken by lowest row then column, so the output is
    deterministic and a transform does not depend on which others were
    asked for.
    """
    m, n = mat.nrows, mat.ncols
    d = [list(r) for r in mat.rows]

    def eye(name, k):
        return [[int(i == j) for j in range(k)] for i in range(k)] if name in want else None

    # U and V^-1 take row operations: a column operation on D is the
    # inverse row operation on V^-1.
    u, vinv = eye("u", m), eye("vinv", n)
    by_rows = [x for x in (d, u) if x is not None]

    def axpy(rows, i, j, q):  # rows[i] += q * rows[j]
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]

    def row_swap(i, j):
        for x in by_rows:
            x[i], x[j] = x[j], x[i]

    def row_add(i, j, q):  # row_i += q * row_j
        axpy(d, i, j, q)
        if u is not None:
            axpy(u, i, j, q)

    def row_negate(i):
        for x in by_rows:
            x[i] = [-e for e in x[i]]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        if vinv is not None:
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(i, j, q):  # col_i += q * col_j
        for r in d:
            r[i] += q * r[j]
        if vinv is not None:
            axpy(vinv, j, i, -q)

    def find_pivot(t):
        best, at = 0, None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                e = row[j]
                if e and (not best or abs(e) < best):
                    best, at = abs(e), (i, j)
                    if best == 1:  # nothing smaller, and later ties lose
                        return at
        return at

    t = 0
    while t < min(m, n):
        pivot = find_pivot(t)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                row_swap(i, t)
            if j != t:
                col_swap(j, t)
            if d[t][t] < 0:
                row_negate(t)
            p = d[t][t]
            for i in range(t + 1, m):
                if d[i][t]:
                    row_add(i, t, -(d[i][t] // p))
            for j in range(t + 1, n):
                if d[t][j]:
                    col_add(j, t, -(d[t][j] // p))
            if any(d[i][t] for i in range(t + 1, m)) or any(d[t][j] for j in range(t + 1, n)):
                pivot = find_pivot(t)  # leftover remainders become the next, smaller pivot
                continue
            if p == 1:  # 1 divides everything: no row can be non-divisible
                break
            bad = next((i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 :])), None)
            if bad is None:
                break
            row_add(t, bad, 1)  # pull the offending row up so gcd reduction kicks in
            pivot = find_pivot(t)
        t += 1
    tracked = {"u": u, "vinv": vinv}
    out = [tuple(d[i][i] for i in range(t))]
    for name in want:
        out.append(_matrix(tuple(map(tuple, tracked[name])), len(tracked[name])))
    return tuple(out)


def hermite_form(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """The row Hermite normal form of the lattice that ``rows`` span: its
    nonzero rows, with pivot columns increasing, each pivot positive and
    the entries above it in [0, pivot).  Two sets of rows span the same
    lattice iff their Hermite forms are equal."""
    rows = [list(r) for r in rows if any(r)]
    out = []
    for col in range(ncols):
        while len(live := [r for r in rows if r[col]]) > 1:  # row Euclid on the column
            p = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    r[:] = [a - q * b for a, b in zip(r, p)]
        if live:
            (p,) = live
            if p[col] < 0:
                p[:] = [-a for a in p]
            rows = [r for r in rows if r is not p and any(r)]
            for r in out:
                q = r[col] // p[col]
                r[:] = [a - q * b for a, b in zip(r, p)]
            out.append(p)
    return tuple(map(tuple, out))


def dense(rows, ncols: int) -> IntMatrix:
    """The ``IntMatrix`` of rows given as ``{index: value}`` dicts or as
    ``(index, value)`` pairs of their nonzeros."""
    return IntMatrix([[dict(r).get(j, 0) for j in range(ncols)] for r in rows], ncols)


def transform(rows, nrows: int) -> IntMatrix:
    """The transform rows that ``_smith_divisors(..., transforms=True)``
    returns, as a matrix: entry j of a row sits under its key ``~j``."""
    return IntMatrix([[r.get(~j, 0) for j in range(nrows)] for r in rows], nrows)
