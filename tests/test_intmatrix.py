import math
import random
from itertools import chain, combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import trisect.intmatrix as intmatrix_module
from conftest import FIXTURES, determinant
from trisect.diagrams import InvalidCutSystemError, NotHomologicallyStandard
from trisect.intmatrix import (
    IntMatrix,
    _matrix,
    _pairing,
    _smith,
    _smith_divisors,
    _sparse_rows,
    quotient_invariants,
    symplectic_pairing,
)
from trisect.invariants import form_invariants, k_triple
from trisect.textio import parse

EYE3 = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def symplectic_form(genus: int) -> IntMatrix:
    """Reference Gram matrix J of the intersection pairing in the (a-block,
    b-block) basis, written out independently of ``symplectic_pairing``."""
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for i in range(genus):
        rows[i][genus + i] = 1
        rows[genus + i][i] = -1
    return IntMatrix(rows, n)


def minor_gcd_divisors(m: IntMatrix):
    """Independent Smith-divisor oracle: d_k = gcd(k-minors) / gcd((k-1)-minors).

    Enumerates every k x k minor by brute force; gcds are monotone under k,
    so the scan stops early once the running gcd hits the previous level.
    """
    divisors = []
    prev = 1
    for k in range(1, min(m.nrows, m.ncols) + 1):
        g = 0
        for rows in combinations(range(m.nrows), k):
            for cols in combinations(range(m.ncols), k):
                sub = IntMatrix([[m.rows[i][j] for j in cols] for i in rows], k)
                g = math.gcd(g, determinant(sub))
                if g == prev:
                    break
            if g == prev:
                break
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def test_determinant_oracle_matches_leibniz():
    # the tests' Bareiss determinant against the permutation expansion, on
    # mostly-zero matrices whose elimination meets zero pivots and row swaps
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 4)
        m = IntMatrix([[rng.choice((0, 0, 1, -1, rng.randint(-5, 5))) for _ in range(n)] for _ in range(n)], n)
        expected = sum(
            math.prod(m.rows[i][p[i]] for i in range(n))
            * (-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2))
            for p in permutations(range(n))
        )
        assert determinant(m) == expected


def random_matrix(rng, max_dim=5, bound=4):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)], c)


def diagonal(divisors, nrows, ncols):
    rows = [[0] * ncols for _ in range(nrows)]
    for i, x in enumerate(divisors):
        rows[i][i] = x
    return IntMatrix(rows, ncols)


def assert_snf_contract(m):
    """U·M = D·V⁻¹ with U, V⁻¹ unimodular and D = diag(d1 | d2 | ...), d_i > 0,
    checked on ``reference_smith``, which keeps V⁻¹; ``_smith`` returns the
    same divisors, and the same U when asked for it."""
    divisors, u, vinv = reference_smith(m, TRANSFORMS)
    assert _smith(m, with_u=True) == (divisors, u)
    assert _smith(m) == (divisors, None)
    d = diagonal(divisors, m.nrows, m.ncols)
    assert u @ m == d @ vinv
    assert determinant(u) in (1, -1)
    assert determinant(vinv) in (1, -1)
    nonzero = list(divisors)
    assert len(nonzero) <= min(m.nrows, m.ncols)
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return nonzero


def test_snf_example_2x2():
    nonzero = assert_snf_contract(IntMatrix([[2, 4], [6, 8]]))
    assert nonzero == [2, 4]
    assert minor_gcd_divisors(IntMatrix([[2, 4], [6, 8]])) == [2, 4]


def test_snf_identity():
    nonzero = assert_snf_contract(EYE3)
    assert nonzero == [1, 1, 1]


def test_snf_zero_matrix():
    m = IntMatrix([[0, 0, 0], [0, 0, 0]])
    assert _smith(m)[0] == ()
    assert assert_snf_contract(m) == []


def test_snf_empty_shapes():
    for m, eye in ((IntMatrix([], ncols=0), IntMatrix([], ncols=0)), (IntMatrix([], ncols=3), EYE3)):
        divisors, u = _smith(m, with_u=True)
        assert divisors == () and u == IntMatrix([], ncols=0)
        assert reference_smith(m, TRANSFORMS)[2] == eye
        assert_snf_contract(m)


def test_snf_matches_minor_oracle_random():
    rng = random.Random(99)
    for _ in range(120):
        m = random_matrix(rng)
        assert assert_snf_contract(m) == minor_gcd_divisors(m)


def test_snf_large_entries_stay_exact():
    # pivot growth must never wrap: U M = D V^-1 is asserted with exact ints
    rng = random.Random(41)
    for _ in range(10):
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(12)] for _ in range(10)], 12)
        assert_snf_contract(m)


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_contract_hypothesis(rows):
    assert_snf_contract(IntMatrix(rows))


def test_quotient_invariants_examples():
    assert quotient_invariants(2, IntMatrix([[1, 0], [0, 1]])) == (0, ())
    assert quotient_invariants(2, IntMatrix([[2, 0]])) == (1, (2,))
    assert quotient_invariants(2, IntMatrix([], ncols=2)) == (2, ())


def test_quotient_invariants_column_mismatch():
    with pytest.raises(ValueError):
        quotient_invariants(3, IntMatrix([[1, 0]]))


def test_symplectic_pairing_examples():
    assert symplectic_pairing((1, 0), (0, 1), 1) == 1
    assert symplectic_pairing((3, 5), (3, 5), 1) == 0
    assert symplectic_pairing((0, 1), (1, 1), 1) == -1


def test_symplectic_pairing_matches_form_matrix():
    rng = random.Random(3)
    for g in (1, 2, 3):
        j = symplectic_form(g)
        assert j.transpose() == IntMatrix([[-x for x in row] for row in j.rows])
        assert determinant(j) in (1, -1)
        for _ in range(10):
            u = [rng.randint(-3, 3) for _ in range(2 * g)]
            v = [rng.randint(-3, 3) for _ in range(2 * g)]
            via_matrix = (IntMatrix([u]) @ j @ IntMatrix([v]).transpose()).rows[0][0]
            assert symplectic_pairing(u, v, g) == via_matrix
            assert symplectic_pairing(u, v, g) == -symplectic_pairing(v, u, g)


def test_symplectic_pairing_length_mismatch():
    with pytest.raises(ValueError):
        symplectic_pairing((1, 0, 0), (0, 1, 0), 1)


def test_degenerate_shapes():
    wide = IntMatrix([], ncols=3)  # 0x3
    tall = wide.transpose()
    assert (tall.nrows, tall.ncols) == (3, 0)
    assert tall.transpose() == wide
    prod = IntMatrix([[1, 2], [3, 4]]) @ IntMatrix([(), ()])  # 2x2 @ 2x0
    assert (prod.nrows, prod.ncols) == (2, 0)
    prod = IntMatrix([(), ()]) @ IntMatrix([], ncols=3)  # 2x0 @ 0x3
    assert prod == IntMatrix([[0, 0, 0], [0, 0, 0]])


TRANSFORMS = ("u", "vinv")


@st.composite
def small_matrices(draw, max_dim=4, bound=6):
    """Up to max_dim x max_dim, with no rows, no columns, zero rows and zero
    columns all reachable."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    entry = st.integers(-bound, bound)
    rows = [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]
    if r and c and draw(st.booleans()):
        zero_col = draw(st.integers(0, c - 1))
        rows = [[0 if j == zero_col else x for j, x in enumerate(row)] for row in rows]
    if r and draw(st.booleans()):
        rows[draw(st.integers(0, r - 1))] = [0] * c
    return IntMatrix(rows, c)


@settings(max_examples=150)
@given(small_matrices())
def test_smith_divisors_match_minor_oracle(m):
    divisors = _smith(m)[0]
    assert list(divisors) == minor_gcd_divisors(m)
    assert _smith_divisors(_sparse_rows(m)) == divisors
    free, torsion = quotient_invariants(m.ncols, m)
    assert free == m.ncols - len(divisors)
    assert torsion == tuple(x for x in divisors if x > 1)


def test_smith_divisors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    @settings(max_examples=80)
    @given(small_matrices())
    def check(m):
        ref = sympy_snf(sympy.Matrix(m.nrows, m.ncols, list(chain(*m.rows))), domain=sympy.ZZ)
        ref_diag = [abs(int(ref[i, i])) for i in range(min(m.nrows, m.ncols))]
        assert list(_smith(m)[0]) == [x for x in ref_diag if x]
        assert list(_smith_divisors(_sparse_rows(m))) == [x for x in ref_diag if x]

    check()


@settings(max_examples=80)
@given(small_matrices(max_dim=5))
def test_smith_requested_transforms(m):
    # _smith builds U only on request, and asking for it changes no divisor;
    # in the reference no transform depends on which others are kept, so the
    # contract checked with V^-1 holds for the U that _smith returns
    full = dict(zip(TRANSFORMS, reference_smith(m, TRANSFORMS)[1:]))
    u, vinv = (full[name] for name in TRANSFORMS)
    divisors = reference_smith(m)[0]
    assert u @ m == diagonal(divisors, m.nrows, m.ncols) @ vinv
    assert abs(determinant(u)) == 1
    assert abs(determinant(vinv)) == 1
    for k in range(len(TRANSFORMS) + 1):
        for want in combinations(TRANSFORMS, k):
            got = reference_smith(m, want)
            assert got[0] == divisors
            assert got[1:] == tuple(full[name] for name in want)
    assert reference_smith(m, ("vinv", "u"))[1:] == (vinv, u)
    assert _smith(m) == (divisors, None)
    assert _smith(m, with_u=True) == (divisors, u)


def test_public_constructor_checks_shape():
    with pytest.raises(ValueError, match="unequal"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="ncols"):
        IntMatrix([[1, 2]], ncols=3)
    with pytest.raises(ValueError, match="explicit ncols"):
        IntMatrix([])


def test_public_constructor_coerces_entries():
    m = IntMatrix([[True, 0], (False, 2)])
    assert m.rows == ((1, 0), (0, 2))
    assert all(type(x) is int for row in m.rows for x in row)


def test_public_constructor_refuses_non_integral_entries():
    # entries were once truncated by int(): 1.5 read as 1, 0.5 as 0
    for rows in ([[1.5, 2.9]], [[0.5]], [[2.5]], [[1, "2"]], [["1"]]):
        with pytest.raises(TypeError):
            IntMatrix(rows)
    with pytest.raises(TypeError):
        form_invariants(IntMatrix([[0.5]]))
    with pytest.raises(TypeError):
        quotient_invariants(1, IntMatrix([[2.5]]))


def test_public_constructor_refuses_negative_ncols():
    for ncols in (-1, -2):
        with pytest.raises(ValueError, match="ncols"):
            IntMatrix([], ncols=ncols)
    with pytest.raises(ValueError, match="ambient rank is -2"):
        quotient_invariants(-2, IntMatrix([], ncols=0))
    assert IntMatrix([], ncols=0).ncols == 0


def test_public_constructor_coerces_ncols():
    # ncols was once stored as given: 2.5 made a matrix of width 2.5, and a
    # quotient of "rank 2.5"
    for build in (
        lambda: IntMatrix([], ncols=2.5),
        lambda: quotient_invariants(2.5, IntMatrix([], ncols=2.5)),
        lambda: IntMatrix([[1, 2]], ncols=2.0),
    ):
        with pytest.raises(TypeError):
            build()
    for ncols in (False, True):
        m = IntMatrix([], ncols=ncols)
        assert m.ncols == ncols and type(m.ncols) is int
    assert IntMatrix([[1]], ncols=True) == IntMatrix([[1]])


def test_internal_results_equal_public_matrices():
    m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    no_rows = IntMatrix([], ncols=3)
    for built in (m.transpose().transpose(), m @ EYE3, _matrix(m.rows + no_rows.rows, 3)):
        assert built == m and hash(built) == hash(m)
        assert isinstance(built.rows, tuple) and all(isinstance(r, tuple) for r in built.rows)


def dense_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Reference product: every entry a dot product over all of its terms."""
    cols = list(zip(*b.rows)) if b.rows else [()] * b.ncols
    return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.rows], b.ncols)


# mostly zeros and units, as in curve matrices, with some entries far beyond
# any machine word
ENTRIES = st.one_of(
    st.just(0), st.just(0), st.sampled_from((1, -1)), st.integers(-5, 5), st.integers(-(10**30), 10**30)
)


@st.composite
def sparse_rows(draw, nrows, ncols):
    rows = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    return rows


@st.composite
def product_operands(draw, max_dim=5):
    """A pair of matrices that multiply, with 0-row, 0-column and zero-row
    operands all reachable."""
    r, k, c = (draw(st.integers(0, max_dim)) for _ in range(3))
    return IntMatrix(draw(sparse_rows(r, k)), k), IntMatrix(draw(sparse_rows(k, c)), c)


@settings(max_examples=200)
@given(product_operands())
def test_product_matches_dense_reference(operands):
    a, b = operands
    prod = a @ b
    assert prod == dense_product(a, b)
    assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
    assert all(type(x) is int for row in prod.rows for x in row)


@st.composite
def pairing_operands(draw, max_genus=4, max_rows=5):
    genus = draw(st.integers(0, max_genus))
    a_rows, b_rows = (draw(sparse_rows(draw(st.integers(0, max_rows)), 2 * genus)) for _ in "ab")
    return genus, tuple(map(tuple, a_rows)), tuple(map(tuple, b_rows))


def nonzeros(rows):
    """Each row's nonzero entries as ``(coordinate, value)`` pairs, the form
    ``_pairing`` takes."""
    return tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in rows)


# genus 0, empty row sets on either side, and entries other than +-1
@example((0, (), ()))
@example((0, ((),), ((), ())))
@example((2, (), ((1, 0, 0, 1),)))
@example((2, ((3, 0, -1, 0),), ()))
@example((2, ((3, 0, -1, 0), (0, 0, 0, 0)), ((0, 2, 5, 0), (-7, 0, 0, 10**30))))
@settings(max_examples=200)
@given(pairing_operands())
def test_pairing_matches_symplectic_pairing(case):
    genus, a_rows, b_rows = case
    expected = tuple(tuple(symplectic_pairing(u, v, genus) for v in b_rows) for u in a_rows)
    got = _pairing(nonzeros(a_rows), nonzeros(b_rows), genus)
    assert got == expected
    assert all(type(x) is int for row in got for x in row)


def reference_smith(mat: IntMatrix, want: tuple[str, ...] = ()) -> tuple:
    """The dense Smith routine that ``_smith`` replaced, kept verbatim as the
    reference for its divisors and U, and as the one routine that still
    returns V^-1 for the full contract U*mat = D*V^-1.

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


@settings(max_examples=200)
@given(st.one_of(small_matrices(max_dim=6), product_operands().map(lambda ab: ab[0])))
def test_smith_matches_reference_smith(m):
    # the same divisors and the same U, so a Gram matrix built from them
    # cannot drift
    assert _smith(m, with_u=True) == reference_smith(m, ("u",))
    assert _smith(m)[0] == reference_smith(m)[0]


def test_smith_matches_reference_smith_random():
    # a column operation meets a leftover remainder in only a few percent of
    # dense random matrices, so sweep many of them
    rng = random.Random(15)
    for _ in range(1500):
        m = random_matrix(rng, max_dim=7, bound=6)
        assert _smith(m, with_u=True) == reference_smith(m, ("u",))
        assert _smith(m)[0] == reference_smith(m)[0]


# entries of curve and pair matrices: mostly zeros, then units, a few others
UNIT_HEAVY = st.sampled_from((0, 0, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 2, -2, 3))


def package_shape(draw, min_genus=1):
    """g x 2g cut-system rows, a g x g pair matrix or the 2g x g N."""
    g = draw(st.integers(min_genus, 6))
    return draw(st.sampled_from(((g, 2 * g), (g, g), (2 * g, g))))


@st.composite
def package_shaped(draw):
    r, c = package_shape(draw)
    return IntMatrix([draw(st.lists(UNIT_HEAVY, min_size=c, max_size=c)) for _ in range(r)], c)


@st.composite
def unit_after_non_unit(draw):
    """A block A holding a unit beside a block B with no unit entry but a 2
    and a 3 in one row, rows and columns shuffled.  A's unit pivots come
    first; then some step t >= 1 starts on a non-unit pivot and, as B's
    entries are coprime, ends on a unit one, with A's rows above it."""
    r, c = package_shape(draw, min_genus=3)
    a, b = draw(st.integers(1, r - 1)), draw(st.integers(1, c - 2))
    a_rows = [draw(st.lists(UNIT_HEAVY, min_size=b, max_size=b)) for _ in range(a)]
    a_rows[0][0] = 1
    no_units = st.sampled_from((0, 0, 2, -2, 3, -3, 5))
    b_rows = [draw(st.lists(no_units, min_size=c - b, max_size=c - b)) for _ in range(r - a)]
    b_rows[0][:2] = [2, 3]
    rows = draw(st.permutations([x + [0] * (c - b) for x in a_rows] + [[0] * b + y for y in b_rows]))
    cols = draw(st.permutations(range(c)))
    return IntMatrix([[row[j] for j in cols] for row in rows], c)


@settings(max_examples=300)
@given(st.one_of(package_shaped(), unit_after_non_unit()))
@example(IntMatrix([[1, 0, 0], [0, 2, 3], [0, 3, 5]]))
def test_smith_matches_reference_on_package_shapes(m):
    # a unit pivot clears only its own row in the column phase, and column
    # operations walk only the rows from t down: the divisors and U must
    # still be the dense routine's
    assert _smith(m, with_u=True) == reference_smith(m, ("u",))
    assert _smith(m)[0] == reference_smith(m)[0]


# entries of the sparse divisor routine's inputs: mostly zeros and units,
# with non-units that leave a remainder and one entry far past machine words
SPARSE_ENTRY = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3, 10**30, -(10**30)))


@st.composite
def sparse_matrices(draw):
    """Up to 8 x 8, mostly zeros, with zero rows, and with some rows all
    even so that no unit pivot reaches them and the remainder runs."""
    r, c = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    rows = []
    for _ in range(r):
        scale = draw(st.sampled_from((0, 1, 1, 2)))  # a zero row, a plain row or an all-even one
        rows.append([scale * draw(SPARSE_ENTRY) for _ in range(c)])
    return IntMatrix(rows, c)


@settings(max_examples=400)
@given(st.one_of(sparse_matrices(), small_matrices(), package_shaped(), unit_after_non_unit()))
@example(IntMatrix([], ncols=0))  # genus 0: a cut system with no curves
@example(IntMatrix([[], []], ncols=0))
@example(IntMatrix([[0, 0, 0], [0, 0, 0]]))
@example(IntMatrix([[2, 4, 0], [0, 0, 0], [6, 10**30, 2]]))  # no unit anywhere
@example(IntMatrix([[1, 2, 3], [2, 6, 6], [3, 6, 13]]))  # a unit pivot leaves 2 and 4 behind
def test_sparse_smith_divisors_match_dense(m):
    # divisors are invariants, so the sparse unit sweep and its remainder
    # must give the dense elimination's, from dense or pair rows alike
    divisors = _smith(m)[0]
    assert _smith_divisors(_sparse_rows(m)) == divisors
    pairs = tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in m.rows)
    assert _smith_divisors(pairs) == divisors
    assert quotient_invariants(m.ncols, m) == (m.ncols - len(divisors), tuple(x for x in divisors if x > 1))


def test_remainder_path_runs_on_refused_fixtures(monkeypatch):
    # an imprimitive cut system and a pair with torsion have no unit pivot
    # left for their divisor 2: the dense routine takes the remainder
    shapes = []
    real = intmatrix_module._smith

    def counted(m, **kw):
        shapes.append((m.nrows, m.ncols))
        return real(m, **kw)

    monkeypatch.setattr(intmatrix_module, "_smith", counted)
    with pytest.raises(InvalidCutSystemError) as exc:
        parse((FIXTURES / "invalid_imprimitive.tri").read_text())
    assert (exc.value.reason, exc.value.divisors) == ("imprimitive", (2,))
    assert shapes == [(1, 1)]
    shapes.clear()
    d = parse((FIXTURES / "nonstandard_pair.tri").read_text())
    assert shapes == []
    with pytest.raises(NotHomologicallyStandard) as err:
        k_triple(d)
    assert err.value.divisors == (2,)
    assert shapes == [(1, 1)]
