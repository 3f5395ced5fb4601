"""Exact integer matrices: Smith normal form, quotient invariants, symplectic pairing.

Everything is plain ``int`` arithmetic, so entries never overflow, and the
public constructor refuses an entry that is not an integer.  Matrices here
are small (a few dozen rows at most), and the algorithms favour exactness
and deterministic output over asymptotics.  There are two Smith routines.
``_smith_divisors`` is sparse and divisor-only: it takes each row's nonzero
``(column, value)`` pairs, as ``words._exponent_rows`` makes them from
words and ``_sparse_rows`` reads them off a dense matrix, and serves every
caller that needs invariant factors alone (cut-system validation, pair
ranks, Q_K's unimodularity check, the groups layer's abelianizations and
:func:`quotient_invariants`); ``_free_and_torsion`` reads a quotient's free
rank and torsion off its divisors.  ``_smith`` is dense: it serves the
callers that use the left transform U, which it carries as an identity
block appended to the working rows, and the divisor routine's rare
remainder.  Matrices built here skip the public constructor's coercion and
shape checks through ``_matrix``.  Callers' matrices are mostly zeros, so
products and the dense routine's column operations skip zero entries, and
the pairing product ``_pairing`` takes rows as their nonzero entries and
adds up only nonzero products.  The dense routine's row operations add
whole rows with C-level ``map``s.  Its column operations skip the finished
rows above the pivot, and a +-1 pivot ends its step after the row sweep:
that sweep leaves its column e_t, so the column phase would only clear the
pivot's row, which no later step reads.  Pivots, quotients and row
operations are those of the dense elimination, and nothing but row
operations reaches the identity block, so the results, U included, are the
dense ones.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import compress
from operator import add, index, neg, sub


class IntMatrix:
    """Immutable dense integer matrix stored as a tuple of row tuples."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        rows = tuple(tuple(map(index, r)) for r in rows)  # ints and bools; a float or str raises TypeError
        if ncols is not None:
            ncols = index(ncols)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("rows have unequal lengths")
            if ncols is not None and ncols != width:
                raise ValueError(f"rows have {width} entries, ncols={ncols}")
            ncols = width
        elif ncols is None:
            raise ValueError("a matrix with no rows needs an explicit ncols")
        elif ncols < 0:
            raise ValueError(f"ncols={ncols} is negative")
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


def _sparse_rows(mat: IntMatrix):
    """The rows of ``mat`` as iterators of their nonzero ``(column, value)`` pairs."""
    return (compress(enumerate(row), row) for row in mat.rows)


def _smith_divisors(rows) -> tuple[int, ...]:
    """``_smith(mat)[0]`` for the matrix whose rows are given as their
    nonzero ``(column, value)`` pairs, with no U.

    Divisors are invariants, so the pivot order is free.  A row with a +-1
    entry is a pivot: subtracting multiples of it (:func:`_subtract`, on
    dict rows) clears that entry's column from the rows that hold it, after
    which the pivot splits off as a divisor 1 (column operations would
    clear the rest of its row and touch no other), so its row is dropped,
    as is a row left empty.  What remains once no row holds a unit, rarely
    anything, goes to :func:`_smith` densified on the columns it uses; 1
    divides each of its divisors.  Unit pivots on sparse rows are the usual
    cheap route to Smith divisors (Dumas, Saunders and Villard, J. Symb.
    Comput. 32, 2001).
    """
    work = [row for row in map(dict, rows) if row]
    units = 0
    while work:
        # the first row holding a unit entry: sign at column col
        for i, pivot in enumerate(work):
            for col, sign in pivot.items():
                if sign == 1 or sign == -1:
                    break
            else:
                continue
            break
        else:
            break
        del work[i]
        units += 1
        kept = []
        for row in work:
            y = row.get(col)
            if y:
                _subtract(row, y * sign, pivot)  # clears the column, as sign * sign = 1
                if not row:
                    continue
            kept.append(row)
        work = kept
    if not work:
        return (1,) * units
    cols = sorted(set().union(*work))
    rest = _matrix(tuple(tuple(row.get(k, 0) for k in cols) for row in work), len(cols))
    return (1,) * units + _smith(rest)[0]


def _subtract(row: dict, q: int, pivot: dict) -> None:
    """``row -= q * pivot`` in place, on dict rows of nonzero entries: a zero it makes is dropped."""
    for k, x in pivot.items():
        if z := row.get(k, 0) - q * x:
            row[k] = z
        else:
            del row[k]


def _free_and_torsion(rank: int, divisors: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion divisors of Z^rank modulo a lattice with Smith divisors ``divisors``."""
    return rank - len(divisors), tuple(x for x in divisors if x > 1)


def quotient_invariants(ambient_rank: int, mat: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion divisors of Z^ambient_rank / rowspan(mat)."""
    if mat.ncols != ambient_rank:
        raise ValueError(f"matrix has {mat.ncols} columns, ambient rank is {ambient_rank}")
    return _free_and_torsion(ambient_rank, _smith_divisors(_sparse_rows(mat)))


def symplectic_pairing(u: Sequence[int], v: Sequence[int], genus: int) -> int:
    """u^T J v, the algebraic intersection number of two homology classes."""
    if len(u) != 2 * genus or len(v) != 2 * genus:
        raise ValueError(f"vectors must have length {2 * genus}")
    return sum(u[i] * v[genus + i] - u[genus + i] * v[i] for i in range(genus))
