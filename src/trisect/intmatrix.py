"""Exact integer matrices: Smith normal form, lattice bases, symplectic pairing.

Everything is plain ``int`` arithmetic, so entries never overflow.  Matrices
here are small (a few dozen rows at most), and the algorithms favour
exactness and deterministic output over asymptotics.  One Smith routine,
``_smith``, serves every caller, and each asks only for the transforms it
uses (none for invariant factors).  Matrices built here skip the public
constructor's coercion and shape checks through ``_matrix``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence


class IntMatrix:
    """Immutable dense integer matrix stored as a tuple of row tuples."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        rows = tuple(tuple(int(e) for e in r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("rows have unequal lengths")
            if ncols is not None and ncols != width:
                raise ValueError(f"rows have {width} entries, ncols={ncols}")
            ncols = width
        elif ncols is None:
            raise ValueError("a matrix with no rows needs an explicit ncols")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], n)

    def transpose(self) -> "IntMatrix":
        if self.nrows == 0:
            return _matrix(((),) * self.ncols, 0)
        return _matrix(tuple(zip(*self.rows)), self.nrows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        cols = tuple(zip(*other.rows)) if other.rows else ((),) * other.ncols
        rows = tuple(tuple(sum(a * b for a, b in zip(r, c)) for c in cols) for r in self.rows)
        return _matrix(rows, other.ncols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        if not self.rows:
            return f"IntMatrix([], ncols={self.ncols})"
        return "IntMatrix(%r)" % [list(r) for r in self.rows]

    def determinant(self) -> int:
        """Exact determinant (fraction-free Bareiss elimination)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return 1
        m = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


def _matrix(rows: tuple[tuple[int, ...], ...], ncols: int) -> IntMatrix:
    """Trusted constructor for matrices built inside the package: ``rows`` is
    already a tuple of ``ncols``-long int tuples, so nothing is checked."""
    mat = object.__new__(IntMatrix)
    mat.rows, mat.nrows, mat.ncols = rows, len(rows), ncols
    return mat


def stack_rows(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.ncols != b.ncols:
        raise ValueError(f"cannot stack {a.ncols}-column and {b.ncols}-column matrices")
    return _matrix(a.rows + b.rows, a.ncols)


def _smith(mat: IntMatrix, want: tuple[str, ...] = ()) -> tuple:
    """Smith normal form of ``mat``, tracking only the transforms in ``want``.

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


def quotient_invariants(ambient_rank: int, mat: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion divisors of Z^ambient_rank / rowspan(mat)."""
    if mat.ncols != ambient_rank:
        raise ValueError(f"matrix has {mat.ncols} columns, ambient rank is {ambient_rank}")
    divisors = _smith(mat)[0]
    return ambient_rank - len(divisors), tuple(x for x in divisors if x > 1)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def lattice_basis(mat: IntMatrix) -> IntMatrix:
    """Canonical basis (row Hermite form) of the lattice spanned by the rows.

    Rows are in pivot-column order with positive pivots; entries above a
    pivot are reduced into [0, pivot).  Two matrices span the same lattice
    iff their canonical bases are equal.
    """
    n = mat.ncols
    basis: list[list[int]] = []
    pivcol: list[int] = []
    for row in mat.rows:
        vec = list(row)
        while True:
            j = next((k for k, x in enumerate(vec) if x), None)
            if j is None:
                break
            pos = bisect_left(pivcol, j)
            if pos < len(pivcol) and pivcol[pos] == j:
                b = basis[pos]
                a, c = b[j], vec[j]
                if c % a == 0:
                    q = c // a
                    for k in range(j, n):
                        vec[k] -= q * b[k]
                else:
                    g, x, y = _xgcd(a, c)
                    qa, qc = a // g, c // g
                    basis[pos] = [x * b[k] + y * vec[k] for k in range(n)]
                    vec = [qa * vec[k] - qc * b[k] for k in range(n)]
            else:
                basis.insert(pos, vec)
                pivcol.insert(pos, j)
                break
    for idx in range(len(basis)):
        if basis[idx][pivcol[idx]] < 0:
            basis[idx] = [-x for x in basis[idx]]
    for idx in range(len(basis)):
        p = pivcol[idx]
        dpv = basis[idx][p]
        for above in range(idx):
            q = basis[above][p] // dpv
            if q:
                basis[above] = [basis[above][k] - q * basis[idx][k] for k in range(n)]
    return _matrix(tuple(map(tuple, basis)), n)


def _in_lattice(basis: IntMatrix, vec: Sequence[int]) -> bool:
    """Is ``vec`` in the lattice whose canonical basis is ``basis``?"""
    v = [int(x) for x in vec]
    pivots = {next(k for k, x in enumerate(r) if x): r for r in basis.rows}
    for j in range(len(v)):
        if not v[j]:
            continue
        r = pivots.get(j)
        if r is None or v[j] % r[j]:
            return False
        q = v[j] // r[j]
        for k in range(j, len(v)):
            v[k] -= q * r[k]
    return not any(v)


def left_kernel(mat: IntMatrix) -> IntMatrix:
    """Canonical basis of the integer solutions of x @ mat = 0."""
    divisors, u = _smith(mat, ("u",))
    return lattice_basis(_matrix(u.rows[len(divisors) :], mat.nrows))


def symplectic_form(genus: int) -> IntMatrix:
    """Gram matrix J of the intersection pairing in the (a-block, b-block) basis."""
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for i in range(genus):
        rows[i][genus + i] = 1
        rows[genus + i][i] = -1
    return IntMatrix(rows, n)


def symplectic_pairing(u: Sequence[int], v: Sequence[int], genus: int) -> int:
    """u^T J v, the algebraic intersection number of two homology classes."""
    if len(u) != 2 * genus or len(v) != 2 * genus:
        raise ValueError(f"vectors must have length {2 * genus}")
    return sum(u[i] * v[genus + i] - u[genus + i] * v[i] for i in range(genus))
