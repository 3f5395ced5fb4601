import math
import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from trisect.intmatrix import (
    IntMatrix,
    _smith,
    quotient_invariants,
    stack_rows,
    symplectic_pairing,
)


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
                g = math.gcd(g, sub.determinant())
                if g == prev:
                    break
            if g == prev:
                break
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


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
    """U·M = D·V⁻¹ with U, V⁻¹ unimodular and D = diag(d1 | d2 | ...), d_i > 0."""
    divisors, u, vinv = _smith(m, ("u", "vinv"))
    d = diagonal(divisors, m.nrows, m.ncols)
    assert u @ m == d @ vinv
    assert u.determinant() in (1, -1)
    assert vinv.determinant() in (1, -1)
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
    nonzero = assert_snf_contract(IntMatrix.identity(3))
    assert nonzero == [1, 1, 1]


def test_snf_zero_matrix():
    m = IntMatrix([[0, 0, 0], [0, 0, 0]])
    assert _smith(m)[0] == ()
    assert assert_snf_contract(m) == []


def test_snf_empty_shapes():
    for m in (IntMatrix([], ncols=0), IntMatrix([], ncols=3)):
        divisors, u, vinv = _smith(m, ("u", "vinv"))
        assert divisors == () and u.nrows == 0
        assert vinv == IntMatrix.identity(m.ncols)
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
        assert j.determinant() in (1, -1)
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

    check()


@settings(max_examples=80)
@given(small_matrices(max_dim=5))
def test_smith_requested_transforms(m):
    full = dict(zip(TRANSFORMS, _smith(m, TRANSFORMS)[1:]))
    u, vinv = (full[name] for name in TRANSFORMS)
    divisors = _smith(m)[0]
    assert u @ m == diagonal(divisors, m.nrows, m.ncols) @ vinv
    assert abs(u.determinant()) == 1
    assert abs(vinv.determinant()) == 1
    for k in range(len(TRANSFORMS) + 1):
        for want in combinations(TRANSFORMS, k):
            got = _smith(m, want)
            assert got[0] == divisors
            assert got[1:] == tuple(full[name] for name in want)
    assert _smith(m, ("vinv", "u"))[1:] == (vinv, u)


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


def test_internal_results_equal_public_matrices():
    m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    no_rows = IntMatrix([], ncols=3)
    for built in (m.transpose().transpose(), m @ IntMatrix.identity(3), stack_rows(m, no_rows)):
        assert built == m and hash(built) == hash(m)
        assert isinstance(built.rows, tuple) and all(isinstance(r, tuple) for r in built.rows)
