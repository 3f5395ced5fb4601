"""Exact integer matrices: Smith divisors and kernels, quotient invariants, symplectic pairing.

Everything is plain ``int`` arithmetic, so entries never overflow, and the
public constructor refuses an entry that is not an integer.  Matrices here
are small (a few dozen rows at most), and the algorithms favour exactness
and deterministic output over asymptotics.  There is one elimination,
``_smith_divisors``.  It takes each row's nonzero ``(column, value)``
pairs, as ``words._exponent_rows`` makes them from words and
``_sparse_rows`` reads them off a dense matrix, and keeps the rows as
dicts.  By default it returns the Smith divisors alone, for cut-system
validation, pair ranks, Q_K's unimodularity check, the groups layer's
abelianizations and :func:`quotient_invariants`.  On request it also
returns the transform rows that row operations build: a basis of the left
kernel (N's, for homology and the intersection form) and the rows of the
pivots (Q_K's, for the form's fallback basis).  ``_free_and_torsion``
reads a quotient's free rank and torsion off the divisors.  Matrices built
here skip the public constructor's coercion and shape checks through
``_matrix``.  Callers' matrices are mostly zeros, so products take the
nonzero coefficients of each row, and the pairing product ``_pairing``
takes rows as their nonzero entries and adds up only nonzero products.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import compress
from operator import add, index, sub


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
        return _matrix(tuple(_combine(r, other.rows, other.ncols) for r in _sparse_rows(self)), other.ncols)

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
    """A row of a product: the sum of ``c * rows[k]`` over the nonzero
    ``(k, c)`` pairs in ``coeffs``."""
    acc = (0,) * ncols
    for k, c in coeffs:
        if c == 1:
            acc = tuple(map(add, acc, rows[k]))
        elif c == -1:
            acc = tuple(map(sub, acc, rows[k]))
        else:
            acc = tuple(map(add, acc, map(c.__mul__, rows[k])))
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


def _sparse_rows(mat: IntMatrix):
    """The rows of ``mat`` as iterators of their nonzero ``(column, value)`` pairs."""
    return (compress(enumerate(row), row) for row in mat.rows)


def _smith_divisors(rows, transforms: bool = False):
    """The Smith divisors d1 | d2 | ... of the matrix whose rows are given as
    their nonzero ``(column, value)`` pairs; their number is the rank.

    With ``transforms``, returns ``(divisors, pivots, kernel)``, the rows of
    a unimodular left transform U that row operations build.  Row i starts
    as its dict of nonzeros plus row i of the identity, whose entry j sits
    under the negative key ``~j``, so one :func:`_subtract` updates the
    matrix and the transform together; U's entry (i, j) is then row i's
    value at ``~j``.  ``kernel`` holds the rows that the elimination
    empties, which have negative keys alone and are a basis of the left
    kernel, and ``pivots`` the rest, in the order they split off.

    Each step takes a pivot: the first row's first +-1 entry, else the entry
    of least absolute value, first in row order.  Subtracting multiples of
    the pivot row clears the pivot's column from the other rows, or leaves
    remainders smaller than the pivot, which then pivots again (row Euclid).
    A pivot alone in its column has its other entries reduced modulo it by
    column operations, which change that row alone and no transform.  Once
    nothing else is left in its row, it splits off as a divisor and its row
    is dropped; a +-1 pivot splits off at once, as its column operations
    would clear its row.  Every step drops a row or makes the least entry
    smaller, so the loop ends.  The split-off divisors of a diagonal matrix
    become a divisor chain by pairwise gcd and lcm.  The pivot rows are
    independent, each with an entry in a column that every later row has
    cleared, so the emptied rows are a basis of the kernel lattice.  Unit
    pivots on sparse rows are the usual cheap route to Smith divisors
    (Dumas, Saunders and Villard, J. Symb. Comput. 32, 2001), and the
    general steps are those of Kannan and Bachem (SIAM J. Comput. 8, 1979).
    """
    work, kernel, pivots, rest = [], [], [], []
    for i, row in enumerate(map(dict, rows)):
        (work if row else kernel).append(row)
        if transforms:
            row[~i] = 1
    units = 0
    while work:
        for i, pivot in enumerate(work):
            for col, x in pivot.items():
                if (x == 1 or x == -1) and col >= 0:
                    break
            else:
                continue
            break
        else:
            i, col = min(
                ((i, k) for i, row in enumerate(work) for k in row if k >= 0), key=lambda at: abs(work[at[0]][at[1]])
            )
        pivot = work.pop(i)
        x = pivot[col]
        kept = []
        for row in work:
            if y := row.get(col):
                _subtract(row, y // x, pivot)
                if not row or transforms and max(row) < 0:  # no matrix entry left
                    kernel.append(row)
                    continue
            kept.append(row)
        work = kept
        if x == 1 or x == -1:
            units += 1
        elif any(col in row for row in work):
            work.append(pivot)
            continue
        else:
            for k in [k for k in pivot if k >= 0 and k != col]:
                if r := pivot[k] % x:
                    pivot[k] = r
                else:
                    del pivot[k]
            if any(k >= 0 and k != col for k in pivot):
                work.append(pivot)
                continue
            rest.append(abs(x))
        pivots.append(pivot)
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = math.gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    divisors = (1,) * units + tuple(rest)
    if not transforms:
        return divisors
    return divisors, pivots, kernel


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
