import math
import random
from itertools import chain, combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import trisect.intmatrix as intmatrix_module
from conftest import FIXTURES, determinant
from dense_reference import hermite_form, reference_smith, transform
from trisect.diagrams import InvalidCutSystemError, NotHomologicallyStandard
from trisect.intmatrix import (
    IntMatrix,
    _matrix,
    _pairing,
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


def assert_transforms(m):
    """``_smith_divisors``'s divisors, the same with and without transforms,
    and its transform rows: the pivot rows and the emptied rows together
    are a unimodular U, there are as many pivot rows as divisors, and the
    emptied rows kill ``m``, so they are a basis of its left kernel."""
    divisors = _smith_divisors(_sparse_rows(m))
    got, pivots, kernel = _smith_divisors(_sparse_rows(m), transforms=True)
    assert got == divisors and len(pivots) == len(divisors)
    assert determinant(transform(pivots + kernel, m.nrows)) in (1, -1)
    assert all(k < 0 for z in kernel for k in z)
    assert not any(map(any, (transform(kernel, m.nrows) @ m).rows))
    return divisors


def assert_snf_contract(m):
    """U·M = D·V⁻¹ with U, V⁻¹ unimodular and D = diag(d1 | d2 | ...), d_i > 0,
    checked on ``reference_smith``, which keeps V⁻¹; ``_smith_divisors``
    returns the same divisors and a valid U (:func:`assert_transforms`)."""
    divisors, u, vinv = reference_smith(m, TRANSFORMS)
    assert assert_transforms(m) == divisors
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
    assert _smith_divisors(_sparse_rows(m)) == ()
    assert assert_snf_contract(m) == []


def test_snf_empty_shapes():
    for m, eye in ((IntMatrix([], ncols=0), IntMatrix([], ncols=0)), (IntMatrix([], ncols=3), EYE3)):
        assert _smith_divisors(_sparse_rows(m), transforms=True) == ((), [], [])
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
    divisors = _smith_divisors(_sparse_rows(m))
    assert list(divisors) == minor_gcd_divisors(m)
    assert reference_smith(m)[0] == divisors
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
        assert list(reference_smith(m)[0]) == [x for x in ref_diag if x]
        assert list(_smith_divisors(_sparse_rows(m))) == [x for x in ref_diag if x]

    check()


@settings(max_examples=80)
@given(small_matrices(max_dim=5))
def test_smith_requested_transforms(m):
    # in the reference no transform depends on which others are kept, so the
    # contract checked with V^-1 holds for the U it returns alone; the
    # package's routine builds transforms only on request, and asking for
    # them changes no divisor
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
    assert assert_transforms(m) == divisors


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


def assert_matches_reference(m):
    """The divisors of the dense reference, and a valid U whose emptied rows
    have the Hermite form of the rows of the reference's U past the rank."""
    divisors, u = reference_smith(m, ("u",))
    assert assert_transforms(m) == divisors
    kernel = _smith_divisors(_sparse_rows(m), transforms=True)[2]
    assert hermite_form(transform(kernel, m.nrows).rows, m.nrows) == hermite_form(u.rows[len(divisors) :], m.nrows)


@settings(max_examples=200)
@given(st.one_of(small_matrices(max_dim=6), product_operands().map(lambda ab: ab[0])))
def test_smith_matches_reference_smith(m):
    # the same divisors as the dense reference, and transforms whose
    # emptied rows span the same kernel lattice as the rows of its U past
    # the rank
    assert_matches_reference(m)


def test_smith_matches_reference_smith_random():
    # a column operation meets a leftover remainder in only a few percent of
    # dense random matrices, so sweep many of them
    rng = random.Random(15)
    for _ in range(1500):
        assert_matches_reference(random_matrix(rng, max_dim=7, bound=6))


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
    # unit pivots first, then general steps on the rows with no unit entry:
    # the divisors and the kernel lattice must still be the dense routine's
    assert_matches_reference(m)


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
    # divisors are invariants, so the sparse unit sweep and its general steps
    # must give the dense elimination's, from dense or pair rows alike
    divisors = reference_smith(m)[0]
    assert _smith_divisors(_sparse_rows(m)) == divisors
    pairs = tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in m.rows)
    assert _smith_divisors(pairs) == divisors
    assert quotient_invariants(m.ncols, m) == (m.ncols - len(divisors), tuple(x for x in divisors if x > 1))


def test_remainder_path_runs_on_refused_fixtures(monkeypatch):
    # an imprimitive cut system and a pair with torsion have no unit pivot
    # for their divisor 2: a general step takes it, and each general step
    # starts with the one least-entry search, the module's only ``min`` call
    searches = []

    def counted(candidates, key):
        candidates = list(candidates)
        searches.append(len(candidates))
        return min(candidates, key=key)

    monkeypatch.setattr(intmatrix_module, "min", counted, raising=False)
    with pytest.raises(InvalidCutSystemError) as exc:
        parse((FIXTURES / "invalid_imprimitive.tri").read_text())
    assert (exc.value.reason, exc.value.divisors) == ("imprimitive", (2,))
    assert searches == [1]
    searches.clear()
    d = parse((FIXTURES / "nonstandard_pair.tri").read_text())
    assert searches == []
    with pytest.raises(NotHomologicallyStandard) as err:
        k_triple(d)
    assert err.value.divisors == (2,)
    assert searches == [1]
