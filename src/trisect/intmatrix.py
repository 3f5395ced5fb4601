"""Exact integer matrices: Smith normal form, quotient invariants, symplectic pairing.

Everything is plain ``int`` arithmetic, so entries never overflow.  Matrices
here are small (a few dozen rows at most), and the algorithms favour
exactness and deterministic output over asymptotics.  One Smith routine,
``_smith``, serves every caller: it returns the Smith divisors, and for
the callers that use the left transform U it carries U as an identity
block appended to the working rows.  Matrices built here skip the public
constructor's coercion and shape checks through ``_matrix``.  Callers'
matrices are mostly zeros, so products and the Smith routine's column
operations skip zero entries, and the pairing product ``_pairing`` takes
rows as their nonzero entries and adds up only nonzero products.  The
Smith routine's row operations add whole rows with C-level ``map``s.  Its
column operations skip the finished rows above the pivot, and a +-1 pivot
ends its step after the row sweep: that sweep leaves its column e_t, so
the column phase would only clear the pivot's row, which no later step
reads.  Pivots, quotients and row operations are those of the dense
elimination, and nothing but row operations reaches the identity block,
so the results, U included, are the dense ones.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import add, neg, sub


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

    def transpose(self) -> "IntMatrix":
        if self.nrows == 0:
            return _matrix(((),) * self.ncols, 0)
        return _matrix(tuple(zip(*self.rows)), self.nrows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        return _matrix(tuple(_combine(r, other.rows, other.ncols) for r in self.rows), other.ncols)

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


def _matrix(rows: tuple[tuple[int, ...], ...], ncols: int) -> IntMatrix:
    """Trusted constructor for matrices built inside the package: ``rows`` is
    already a tuple of ``ncols``-long int tuples, so nothing is checked."""
    mat = object.__new__(IntMatrix)
    mat.rows, mat.nrows, mat.ncols = rows, len(rows), ncols
    return mat


def _combine(coeffs, rows, ncols: int) -> tuple[int, ...]:
    """A row of a product: the sum of ``c * row`` over the nonzero ``c`` in ``coeffs``."""
    acc = (0,) * ncols
    for c, row in zip(coeffs, rows):
        if c == 1:
            acc = tuple(map(add, acc, row))
        elif c == -1:
            acc = tuple(map(sub, acc, row))
        elif c:
            acc = tuple(map(add, acc, map(c.__mul__, row)))
    return acc


def _pairing(a_rows, b_rows, genus: int) -> tuple[tuple[int, ...], ...]:
    """A J B^T as dense int tuples, for rows of length 2*genus given as their
    nonzero ``(coordinate, value)`` pairs: entry (i, j) is the symplectic
    pairing of row i of ``a_rows`` with row j of ``b_rows``.

    ``partners[k]`` lists the entries of B that coordinate k of A pairs
    with: k with k + genus at sign +, k + genus with k at sign -."""
    partners = [[] for _ in range(2 * genus)]
    for j, row in enumerate(b_rows):
        for k, v in row:
            if k < genus:
                partners[k + genus].append((j, -v))
            else:
                partners[k - genus].append((j, v))
    n = len(b_rows)
    out = []
    for row in a_rows:
        acc = [0] * n
        for k, x in row:
            for j, v in partners[k]:
                acc[j] += x * v
        out.append(tuple(acc))
    return tuple(out)


def _smith(mat: IntMatrix, with_u: bool = False) -> tuple:
    """Smith normal form of ``mat``: ``(divisors, U)``.

    ``divisors`` is the nonzero diagonal d1 | d2 | ... of D = U*mat*V (its
    length is the rank).  U is unimodular and returned only ``with_u``,
    else ``None``: row i then starts as row i of ``mat`` and of the m x m
    identity, the row operations turn [mat | I] into [U*mat | U], and every
    scan and column operation stops at column n.  Pivots are chosen by
    smallest nonzero absolute value, ties broken by lowest row then column,
    so the output is deterministic.
    """
    m, n = mat.nrows, mat.ncols
    d = [list(r) for r in mat.rows]
    if with_u:
        for i, row in enumerate(d):
            row += [0] * m
            row[n + i] = 1

    def row_add(i, j, q):  # row_i += q * row_j, one C-level map over the row
        if q == 1:
            d[i] = list(map(add, d[i], d[j]))
        elif q == -1:
            d[i] = list(map(sub, d[i], d[j]))
        else:
            d[i] = list(map(add, d[i], map(q.__mul__, d[j])))

    # a finished row i < t is e_i * d_i in the dense elimination, zero in
    # every column that step t touches, and no later step reads it: column
    # operations at step t (the loop's t) walk only d[t:]
    def col_swap(i, j):
        for r in d[t:]:
            r[i], r[j] = r[j], r[i]

    def col_add(i, j, q):  # col_i += q * col_j
        for r in d[t:]:
            if r[j]:
                r[i] += q * r[j]

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
                d[i], d[t] = d[t], d[i]
            if j != t:
                col_swap(j, t)
            if d[t][t] < 0:
                d[t] = list(map(neg, d[t]))
            p = d[t][t]
            for i in range(t + 1, m):
                if d[i][t]:
                    row_add(i, t, -(d[i][t] // p))
            if p == 1:  # column t is now e_t, the column phase would only clear row t, and 1 divides all
                break
            for j in range(t + 1, n):
                if d[t][j]:
                    col_add(j, t, -(d[t][j] // p))
            if any(d[i][t] for i in range(t + 1, m)) or any(d[t][j] for j in range(t + 1, n)):
                pivot = find_pivot(t)  # leftover remainders become the next, smaller pivot
                continue
            bad = next((i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 : n])), None)
            if bad is None:
                break
            row_add(t, bad, 1)  # pull the offending row up so gcd reduction kicks in
            pivot = find_pivot(t)
        t += 1
    return tuple(d[i][i] for i in range(t)), (_matrix(tuple(tuple(r[n:]) for r in d), m) if with_u else None)


def quotient_invariants(ambient_rank: int, mat: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion divisors of Z^ambient_rank / rowspan(mat)."""
    if mat.ncols != ambient_rank:
        raise ValueError(f"matrix has {mat.ncols} columns, ambient rank is {ambient_rank}")
    divisors = _smith(mat)[0]
    return ambient_rank - len(divisors), tuple(x for x in divisors if x > 1)


def symplectic_pairing(u: Sequence[int], v: Sequence[int], genus: int) -> int:
    """u^T J v, the algebraic intersection number of two homology classes."""
    if len(u) != 2 * genus or len(v) != 2 * genus:
        raise ValueError(f"vectors must have length {2 * genus}")
    return sum(u[i] * v[genus + i] - u[genus + i] * v[i] for i in range(genus))
